//! The PRF abstraction the PPS schemes are written against.
//!
//! Definition 7 and the scheme listings (§5.5) use a pseudorandom function
//! family `{F_K}`; [`HmacPrf`] is the HMAC-SHA1 instance every scheme
//! keys. PRF applications per metadata — the paper's cost model (§5.7) —
//! are counted where matching happens, by the Bloom scheme's `PrfCounter`.

use crate::hmac::{hmac_sha1, HmacKey};

/// A pseudorandom function from arbitrary bytes to 20-byte outputs.
pub trait Prf: Send + Sync {
    /// Evaluate `F_K(msg)` for this instance's key.
    fn eval(&self, msg: &[u8]) -> [u8; 20];

    /// Evaluate and truncate to a `u64` (big-endian prefix), e.g. for
    /// Bloom bit positions.
    fn eval_u64(&self, msg: &[u8]) -> u64 {
        let d = self.eval(msg);
        u64::from_be_bytes(d[..8].try_into().expect("digest ≥ 8 bytes"))
    }
}

/// HMAC-SHA1-based PRF keyed at construction.
///
/// The ipad/opad SHA-1 midstates are precomputed once here ([`HmacKey`]),
/// so every [`eval`](Prf::eval) costs 2 compression-function calls instead
/// of the reference path's 4-plus-key-setup — outputs are bit-identical
/// (asserted in tests below and in the crypto crate's property tests).
#[derive(Clone)]
pub struct HmacPrf {
    key: Vec<u8>,
    cached: HmacKey,
}

impl HmacPrf {
    pub fn new(key: &[u8]) -> Self {
        HmacPrf {
            key: key.to_vec(),
            cached: HmacKey::new(key),
        }
    }

    /// Derive an independent sub-PRF — used where the paper draws several
    /// keys `k_1..k_r` (Bloom keyword scheme). Standard domain-separation
    /// derivation.
    pub fn derive(&self, label: &[u8]) -> HmacPrf {
        let mut input = Vec::with_capacity(label.len() + 7);
        input.extend_from_slice(b"derive:");
        input.extend_from_slice(label);
        Self::new(&hmac_sha1(&self.key, &input))
    }
}

impl Prf for HmacPrf {
    fn eval(&self, msg: &[u8]) -> [u8; 20] {
        self.cached.mac(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let f = HmacPrf::new(b"secret");
        assert_eq!(f.eval(b"x"), f.eval(b"x"));
    }

    #[test]
    fn key_separation() {
        let f1 = HmacPrf::new(b"k1");
        let f2 = HmacPrf::new(b"k2");
        assert_ne!(f1.eval(b"x"), f2.eval(b"x"));
    }

    #[test]
    fn derive_is_independent_and_stable() {
        let f = HmacPrf::new(b"root");
        let a = f.derive(b"bloom:0");
        let b = f.derive(b"bloom:1");
        let a2 = f.derive(b"bloom:0");
        assert_ne!(a.eval(b"m"), b.eval(b"m"));
        assert_eq!(a.eval(b"m"), a2.eval(b"m"));
        assert_ne!(a.eval(b"m"), f.eval(b"m"));
    }

    #[test]
    fn eval_u64_prefix() {
        let f = HmacPrf::new(b"k");
        let d = f.eval(b"msg");
        let expect = u64::from_be_bytes(d[..8].try_into().unwrap());
        assert_eq!(f.eval_u64(b"msg"), expect);
    }

    #[test]
    fn cached_midstate_eval_equals_reference_hmac() {
        // HmacPrf now routes through the midstate cache; it must stay
        // bit-identical to the one-shot reference implementation
        for key_len in [0usize, 1, 20, 63, 64, 65, 100] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let f = HmacPrf::new(&key);
            for msg_len in [0usize, 8, 20, 55, 56, 100] {
                let msg: Vec<u8> = (0..msg_len as u8).map(|b| b.wrapping_mul(31)).collect();
                assert_eq!(
                    f.eval(&msg),
                    hmac_sha1(&key, &msg),
                    "key {key_len} B, msg {msg_len} B"
                );
            }
        }
    }

    #[test]
    fn output_bits_look_balanced() {
        // crude sanity: across 2000 evaluations, each output byte position
        // should not be constant
        let f = HmacPrf::new(b"balance");
        let mut ors = [0u8; 20];
        let mut ands = [0xffu8; 20];
        for i in 0..2000u32 {
            let d = f.eval(&i.to_be_bytes());
            for j in 0..20 {
                ors[j] |= d[j];
                ands[j] &= d[j];
            }
        }
        assert!(ors.iter().all(|&b| b == 0xff));
        assert!(ands.iter().all(|&b| b == 0x00));
    }
}
