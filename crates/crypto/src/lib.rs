//! Cryptographic substrate for Privacy Preserving Search (thesis §5).
//!
//! The PPS protocols are built from three abstract primitives (§5.4.1):
//! a **pseudorandom function** (the paper instantiates it with SHA-1), a
//! **pseudorandom permutation** (the paper uses AES-128) and a **Bloom
//! filter** (Goh's keyword scheme). The offline crate set contains no crypto
//! crates, so this crate implements from scratch the two that the schemes
//! here use — the PRF and the Bloom filter — plus garbled circuits:
//!
//! * [`sha1`] — FIPS 180-1 SHA-1, verified against the standard test vectors,
//!   with a lane-generic compression layer ([`sha1::Sha1Lanes`]): scalar x1,
//!   SSE2 x4, AVX2 x8 and AVX-512 x16 engines selected at runtime via
//!   [`sha1::Backend`].
//! * [`hmac`] — HMAC-SHA1 (RFC 2104/2202) used as the keyed PRF `F_K(·)`.
//! * [`prf`] — the `Prf` abstraction the PPS schemes are written against.
//! * [`bloom`] — the Bloom filter with the paper's parameterisation (r = 17
//!   hashes for a 1-in-100,000 false-positive rate, ~25 bits/element).
//! * [`circuit`] — boolean-circuit IR with predicate constructors, the query
//!   language of the §5.5.5 generic scheme.
//! * [`garble`] — Yao garbled circuits (point-and-permute over HMAC-SHA1),
//!   the §5.5.5 generic-query protocol the thesis implemented.
//!
//! Security note: this is a research reproduction. The constructions are the
//! textbook ones the thesis cites, but none of this code is intended to
//! protect real data.

pub mod bloom;
pub mod circuit;
pub mod garble;
pub mod hmac;
pub mod prf;
pub mod sha1;

pub use bloom::BloomFilter;
pub use circuit::{Circuit, CircuitBuilder};
pub use garble::{GarbledQuery, Garbler, WireLabel};
pub use hmac::hmac_sha1;
pub use prf::{HmacPrf, Prf};
pub use sha1::{Backend, Sha1, Sha1Lanes};
