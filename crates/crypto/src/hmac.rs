//! HMAC-SHA1 (RFC 2104), the keyed PRF used by every PPS scheme.
//!
//! The thesis writes `F_K(x)` for a pseudorandom function keyed by `K`
//! (§5.4.1); HMAC over SHA-1 is the standard realisation and is verified
//! here against the RFC 2202 test vectors.
//!
//! Two implementations of the same function:
//!
//! * [`hmac_sha1`] — the reference one-shot path: rebuilds the 64-byte key
//!   block and hashes both pads from scratch on every call (4 compression
//!   invocations for a short message, plus key-block setup).
//! * [`HmacKey`] — the hot path. The inner (`K ⊕ ipad`) and outer
//!   (`K ⊕ opad`) pad blocks depend only on the key, so their SHA-1
//!   midstates are computed **once per key**; each subsequent MAC of a
//!   short (≤ 55 byte) message then costs exactly **2** compression
//!   invocations and zero heap allocation. This is the §5.7 lever: PPS
//!   matching throughput is bounded by PRF work, and halving the
//!   compressions per probe halves the per-record cost.
//!
//! The two paths are bit-identical by construction and by test
//! (RFC 2202 vectors run against both; `tests/hmac_equivalence.rs` adds
//! randomized cross-checks including block-boundary and > 64-byte keys).
//!
//! **Multi-lane batching.** On top of the midstate cache, the batch entry
//! points resume `lanes()` copies of cached midstates at once through a
//! [`Sha1Lanes`] engine: the messages of one lane group are padded into a
//! transposed block set (lane `l` = vector element `l`, the engine's SoA
//! layout) and every group costs 2 multi-lane compressions total — the
//! per-message cost divides by the lane width. Two loops, one per message
//! shape:
//!
//! * **The nonce sweep** — the PPS scan path's only MAC loop: `u64` MAC
//!   prefixes of fixed 8-byte record nonces, both finishing blocks stamped
//!   from constant templates. It is written once, over "the key of lane
//!   *i*", and monomorphised into its two entry points:
//!   [`HmacKey::mac_u64_nonces_with`] (every lane the same key — the inline
//!   drivers of the survivor pipeline) and [`mac_u64_nonces_keyed_with`]
//!   (one key per lane — a node's matcher workers, packing sub-queries'
//!   sweeps into shared lane groups).
//! * **The general batch** ([`HmacKey::mac_batch_with`]) — arbitrary-length
//!   messages under one key. Lane groups with messages of unequal block
//!   counts still work: each lane's chaining value is captured at that
//!   lane's own final block, and shorter lanes churn dummy zero blocks
//!   afterwards (their output is never read).
//!
//! Ragged batches (size not a multiple of the lane width) pad the last
//! group with a repeat of the final message and discard the duplicate
//! lanes. All of this is pinned bit-identical to the scalar reference by
//! `tests/sha1_lanes_props.rs`.

use crate::sha1::{compress_block, sha1, Backend, Sha1, Sha1Lanes, MAX_LANES};

const BLOCK: usize = 64;

/// The finishing block of a hash that has already absorbed one 64-byte pad
/// block, for a `len ≤ 55`-byte message, with the message bytes left zero:
/// `0^len ‖ 0x80 ‖ zeros ‖ bitlen(64 + len)`.
#[inline(always)]
fn finishing_block(len: usize) -> [u8; BLOCK] {
    let mut block = [0u8; BLOCK];
    block[len] = 0x80;
    block[56..].copy_from_slice(&(((BLOCK + len) as u64) * 8).to_be_bytes());
    block
}

/// Write a chaining value big-endian over the first 20 bytes of `out`.
#[inline(always)]
fn put_state(out: &mut [u8], state: &[u32; 5]) {
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
}

/// The `u64` prefix of a digest held as chaining-value words.
#[inline(always)]
fn state_prefix(state: &[u32; 5]) -> u64 {
    ((state[0] as u64) << 32) | state[1] as u64
}

/// The `K ⊕ ipad` and `K ⊕ opad` blocks of RFC 2104 (a key longer than one
/// block is hashed first).
fn pad_blocks(key: &[u8]) -> ([u8; BLOCK], [u8; BLOCK]) {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..20].copy_from_slice(&sha1(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    (k.map(|b| b ^ 0x36), k.map(|b| b ^ 0x5c))
}

/// Compute HMAC-SHA1 of `msg` under `key`. Returns the 20-byte MAC.
///
/// Reference implementation — kept deliberately simple and allocation-free,
/// but without midstate caching; use [`HmacKey`] when evaluating many
/// messages under one key.
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> [u8; 20] {
    let (ipad, opad) = pad_blocks(key);
    let mut inner = Sha1::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha1::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// An HMAC-SHA1 key with precomputed inner/outer SHA-1 midstates.
///
/// Construction hashes the `K ⊕ ipad` and `K ⊕ opad` blocks once (2
/// compressions); every [`mac`](Self::mac) of a ≤ 55-byte message after
/// that costs 2 compressions — half the reference path — with no heap
/// allocation anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmacKey {
    inner_mid: [u32; 5],
    outer_mid: [u32; 5],
}

impl HmacKey {
    /// Derive the midstates for `key` (any length; longer than 64 bytes is
    /// pre-hashed per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pad_blocks(key);
        let mut inner = Sha1::new();
        inner.update(&ipad);
        let mut outer = Sha1::new();
        outer.update(&opad);
        HmacKey {
            inner_mid: inner.midstate(),
            outer_mid: outer.midstate(),
        }
    }

    /// Inner+outer state evaluation: exactly 2 [`compress_block`] calls for
    /// messages that fit one padded block (≤ 55 bytes — every PPS codeword
    /// probe), with the final block assembled in place; longer messages
    /// fall back to the streaming hasher. Returns the outer chaining value
    /// (the digest as words).
    #[inline]
    fn mac_state(&self, msg: &[u8]) -> [u32; 5] {
        let mut inner = self.inner_mid;
        if msg.len() <= 55 {
            let mut block = finishing_block(msg.len());
            block[..msg.len()].copy_from_slice(msg);
            compress_block(&mut inner, &block);
        } else {
            let mut h = Sha1::from_midstate(self.inner_mid, BLOCK as u64);
            h.update(msg);
            let digest = h.finalize();
            for (w, chunk) in inner.iter_mut().zip(digest.chunks_exact(4)) {
                *w = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
            }
        }
        let mut block = finishing_block(20);
        put_state(&mut block, &inner);
        let mut outer = self.outer_mid;
        compress_block(&mut outer, &block);
        outer
    }

    /// MAC one message from the cached midstates.
    #[inline]
    pub fn mac(&self, msg: &[u8]) -> [u8; 20] {
        let mut out = [0u8; 20];
        put_state(&mut out, &self.mac_state(msg));
        out
    }

    /// MAC truncated to a big-endian `u64` prefix — the form the Bloom
    /// codeword probes consume. Identical to
    /// `u64::from_be_bytes(mac(msg)[..8])` without materialising the
    /// 20-byte digest.
    #[inline]
    pub fn mac_u64(&self, msg: &[u8]) -> u64 {
        state_prefix(&self.mac_state(msg))
    }

    /// Batch entry point: MAC `msgs.len()` messages under this key into
    /// `out`, allocation-free, through the process-default
    /// ([`Backend::auto`]) lane engine.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `msgs`.
    pub fn mac_batch(&self, msgs: &[&[u8]], out: &mut [[u8; 20]]) {
        self.mac_batch_with(Backend::auto(), msgs, out);
    }

    /// [`mac_batch`](Self::mac_batch) through an explicit backend.
    ///
    /// Messages are processed in lane groups of `backend.engine().lanes()`;
    /// within a group the cached inner midstate is resumed in every lane and
    /// the padded message blocks are fed transposed (SoA), so a full group
    /// costs 2 multi-lane compressions regardless of width. Any message
    /// length is accepted — multi-block lanes and ragged tails are handled
    /// as described in the module docs.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `msgs`.
    pub fn mac_batch_with(&self, backend: Backend, msgs: &[&[u8]], out: &mut [[u8; 20]]) {
        assert!(out.len() >= msgs.len(), "output buffer too small");
        let engine = backend.engine();
        let mut states = [[0u32; 5]; MAX_LANES];
        for (group, slots) in msgs
            .chunks(engine.lanes())
            .zip(out.chunks_mut(engine.lanes()))
        {
            self.mac_states_group(engine, group, &mut states);
            for (state, slot) in states.iter().zip(slots.iter_mut()) {
                put_state(slot, state);
            }
        }
    }

    /// The nonce sweep with this key in every lane: `u64` MAC prefixes of
    /// fixed 8-byte messages (record nonces). What the survivor pipeline's
    /// inline drivers call once per trapdoor component; each full lane
    /// group costs exactly 2 multi-lane compressions — the §5.7
    /// "2 compressions per codeword" arithmetic divided by the lane width.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `nonces`.
    pub fn mac_u64_nonces_with(&self, backend: Backend, nonces: &[[u8; 8]], out: &mut [u64]) {
        sweep_nonces(backend, |_| self, nonces, out);
    }

    /// MAC one lane group (1 ≤ `msgs.len()` ≤ `engine.lanes()`) of
    /// arbitrary-length messages, leaving the outer chaining value of
    /// message `i` in `states[i]`.
    ///
    /// The inner hash resumes the cached inner midstate in every lane and
    /// walks the lanes' padded block streams in lock step; a lane whose
    /// message finishes early has its chaining value captured at its own
    /// final block (later dummy blocks churn the register copy, which is
    /// never read). The outer hash is always a single finishing block.
    fn mac_states_group(
        &self,
        engine: &dyn Sha1Lanes,
        msgs: &[&[u8]],
        states: &mut [[u32; 5]; MAX_LANES],
    ) {
        let lanes = engine.lanes();
        debug_assert!(!msgs.is_empty() && msgs.len() <= lanes && lanes <= MAX_LANES);
        // finishing blocks of the inner hash for a message of `len` bytes
        // (the 64-byte ipad block is already folded into the midstate)
        let n_blocks = |len: usize| (len + 9).div_ceil(BLOCK);
        let max_blocks = msgs.iter().map(|m| n_blocks(m.len())).max().expect("≥ 1");

        let mut blocks = [[0u8; BLOCK]; MAX_LANES];
        let mut inner = [[0u32; 5]; MAX_LANES];
        for state in states.iter_mut().take(lanes) {
            *state = self.inner_mid;
        }
        for b in 0..max_blocks {
            for lane in 0..lanes {
                // ragged tail: unused lanes repeat the last real message
                let msg = msgs[lane.min(msgs.len() - 1)];
                fill_padded_block(msg, b, &mut blocks[lane]);
            }
            engine.compress(&mut states[..lanes], &blocks[..lanes]);
            for (lane, msg) in msgs.iter().enumerate() {
                if n_blocks(msg.len()) == b + 1 {
                    inner[lane] = states[lane];
                }
            }
        }
        // outer: one finishing block per lane over that lane's inner digest
        for lane in 0..lanes {
            blocks[lane] = finishing_block(20);
            put_state(&mut blocks[lane], &inner[lane.min(msgs.len() - 1)]);
            states[lane] = self.outer_mid;
        }
        engine.compress(&mut states[..lanes], &blocks[..lanes]);
    }
}

/// Write block `b` of the inner hash's padded message stream
/// (`msg ‖ 0x80 ‖ zeros ‖ bitlen(64 + |msg|)`, a multiple of 64 bytes) into
/// `block`. Blocks past the stream's end come out all-zero — the dummy
/// blocks lock-step lane processing feeds to already-finished lanes.
fn fill_padded_block(msg: &[u8], b: usize, block: &mut [u8; BLOCK]) {
    let len = msg.len();
    let total = (len + 9).div_ceil(BLOCK);
    block.fill(0);
    if b >= total {
        return;
    }
    let start = b * BLOCK;
    if start < len {
        let n = (len - start).min(BLOCK);
        block[..n].copy_from_slice(&msg[start..start + n]);
    }
    if (start..start + BLOCK).contains(&len) {
        block[len - start] = 0x80;
    }
    if b + 1 == total {
        // bit length of ipad block + message
        block[56..].copy_from_slice(&(((BLOCK + len) as u64) * 8).to_be_bytes());
    }
}

/// The nonce sweep, written once: `out[i]` is the `u64` MAC prefix of
/// `nonces[i]` under `key_of(i)`.
///
/// A lane's midstate is per-lane SIMD state, so nothing in the loop cares
/// whether neighbouring lanes resume the same key or different ones; the
/// two entry points differ only in the `key_of` they pass, and each is
/// monomorphised (`inline(always)`) so the single-key form pays nothing for
/// the generality. Per lane group: stamp the inner finishing template with
/// each lane's nonce and resume the lane's inner midstate, compress, stamp
/// the outer template with each lane's inner digest and resume the outer
/// midstate, compress — 2 multi-lane compressions. Ragged tails repeat the
/// last real (key, nonce) pair; the duplicate lane outputs are discarded.
#[inline(always)]
fn sweep_nonces<'k>(
    backend: Backend,
    key_of: impl Fn(usize) -> &'k HmacKey,
    nonces: &[[u8; 8]],
    out: &mut [u64],
) {
    assert!(out.len() >= nonces.len(), "output buffer too small");
    let engine = backend.engine();
    let lanes = engine.lanes();
    let inner_tmpl = finishing_block(8);
    let outer_tmpl = finishing_block(20);
    let last = nonces.len().saturating_sub(1);

    let mut blocks = [[0u8; BLOCK]; MAX_LANES];
    let mut states = [[0u32; 5]; MAX_LANES];
    for (start, slots) in (0..nonces.len()).step_by(lanes).zip(out.chunks_mut(lanes)) {
        for lane in 0..lanes {
            let idx = (start + lane).min(last);
            blocks[lane] = inner_tmpl;
            blocks[lane][..8].copy_from_slice(&nonces[idx]);
            states[lane] = key_of(idx).inner_mid;
        }
        engine.compress(&mut states[..lanes], &blocks[..lanes]);
        for lane in 0..lanes {
            blocks[lane] = outer_tmpl;
            put_state(&mut blocks[lane], &states[lane]);
            states[lane] = key_of((start + lane).min(last)).outer_mid;
        }
        engine.compress(&mut states[..lanes], &blocks[..lanes]);
        for (state, slot) in states.iter().zip(slots.iter_mut()) {
            *slot = state_prefix(state);
        }
    }
}

/// The nonce sweep where **every lane carries its own key**: `keys[i]` MACs
/// `nonces[i]` into `out[i]`. This is what lets a node pack probe work from
/// many concurrent sub-queries (different trapdoors, different component
/// keys) into one full-width compression stream instead of running each
/// query's sweep ragged; the cost is that of
/// [`HmacKey::mac_u64_nonces_with`], 2 multi-lane compressions per full
/// lane group.
///
/// Bit-identical to `keys[i].mac_u64(&nonces[i])` by construction and by the
/// `sha1_lanes_props` suite.
///
/// # Panics
/// Panics when `keys`, `nonces` and `out` lengths disagree (`out` may be
/// longer).
pub fn mac_u64_nonces_keyed_with(
    backend: Backend,
    keys: &[HmacKey],
    nonces: &[[u8; 8]],
    out: &mut [u64],
) {
    assert_eq!(
        keys.len(),
        nonces.len(),
        "one key per nonce: {} keys / {} nonces",
        keys.len(),
        nonces.len()
    );
    sweep_nonces(backend, |i| &keys[i], nonces, out);
}

/// Free-function form of the batch API: HMAC-SHA1 of every message in
/// `msgs` under one precomputed key, written into `out`, zero heap
/// allocation, multi-lane when the CPU allows. The survivor pipeline
/// consumes the specialised nonce sweep; this entry point serves bulk
/// callers — metadata encryption, external tools — and the equivalence
/// test suite.
pub fn hmac_sha1_batch(key: &HmacKey, msgs: &[&[u8]], out: &mut [[u8; 20]]) {
    key.mac_batch(msgs, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Run one vector against both the reference and the midstate path.
    fn check(key: &[u8], msg: &[u8], want_hex: &str) {
        assert_eq!(hex(&hmac_sha1(key, msg)), want_hex, "reference path");
        assert_eq!(hex(&HmacKey::new(key).mac(msg)), want_hex, "midstate path");
    }

    // RFC 2202 test cases — each asserted against BOTH implementations
    #[test]
    fn rfc2202_case1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b617318655057264e28bc0b6fb378c8ef146be00",
        );
    }

    #[test]
    fn rfc2202_case2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        );
    }

    #[test]
    fn rfc2202_case3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        );
    }

    #[test]
    fn rfc2202_case6_long_key() {
        check(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        );
    }

    #[test]
    fn rfc2202_case7_long_key_long_data() {
        check(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        );
    }

    #[test]
    fn keys_separate_outputs() {
        assert_ne!(hmac_sha1(b"k1", b"m"), hmac_sha1(b"k2", b"m"));
        assert_ne!(hmac_sha1(b"k", b"m1"), hmac_sha1(b"k", b"m2"));
    }

    #[test]
    fn empty_message_ok() {
        // deterministic, non-degenerate
        let a = hmac_sha1(b"key", b"");
        let b = hmac_sha1(b"key", b"");
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
        assert_eq!(HmacKey::new(b"key").mac(b""), a);
    }

    #[test]
    fn cached_key_matches_reference_across_message_sizes() {
        // exercise the block-boundary cases of the streamed inner hash:
        // 55 bytes (fits with padding), 56 (padding spills), 64, 65, 200
        let key = HmacKey::new(b"block-boundary-key");
        for len in [0usize, 1, 8, 20, 54, 55, 56, 63, 64, 65, 127, 128, 200] {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(
                key.mac(&msg),
                hmac_sha1(b"block-boundary-key", &msg),
                "message length {len}"
            );
        }
    }

    #[test]
    fn mac_u64_is_prefix() {
        let key = HmacKey::new(b"prefix");
        let d = key.mac(b"msg");
        assert_eq!(
            key.mac_u64(b"msg"),
            u64::from_be_bytes(d[..8].try_into().unwrap())
        );
    }

    #[test]
    fn batch_matches_scalar() {
        let key = HmacKey::new(b"batch-key");
        let msgs_owned: Vec<Vec<u8>> = (0..33u8)
            .map(|i| (0..i).map(|b| b.wrapping_mul(17)).collect())
            .collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
        let mut out = vec![[0u8; 20]; msgs.len()];
        hmac_sha1_batch(&key, &msgs, &mut out);
        for (msg, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, key.mac(msg));
            assert_eq!(*got, hmac_sha1(b"batch-key", msg));
        }
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn batch_rejects_short_output() {
        let key = HmacKey::new(b"k");
        let msgs: Vec<&[u8]> = vec![b"a", b"b"];
        let mut out = [[0u8; 20]; 1];
        key.mac_batch(&msgs, &mut out);
    }

    /// Every available lane engine must produce the reference MACs for a
    /// batch mixing message lengths across block boundaries, at every
    /// ragged batch size (the dedicated property suite widens this).
    #[test]
    fn lane_batches_match_reference_on_all_backends() {
        let key = HmacKey::new(b"lane-batch-key");
        let lens = [0usize, 1, 8, 55, 56, 63, 64, 65, 119, 120, 200];
        let msgs_owned: Vec<Vec<u8>> = lens
            .iter()
            .map(|&n| (0..n).map(|i| (i as u8).wrapping_mul(29)).collect())
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for take in 1..=msgs_owned.len() {
                let msgs: Vec<&[u8]> = msgs_owned[..take].iter().map(Vec::as_slice).collect();
                let mut out = vec![[0u8; 20]; take];
                key.mac_batch_with(backend, &msgs, &mut out);
                for (msg, got) in msgs.iter().zip(&out) {
                    let want = hmac_sha1(b"lane-batch-key", msg);
                    assert_eq!(*got, want, "{} len {}", backend.name(), msg.len());
                }
            }
        }
    }

    /// The keyed sweep — one key per lane — must agree with per-key scalar
    /// MACs on every backend, including ragged group tails where the last
    /// (key, nonce) pair is repeated.
    #[test]
    fn keyed_nonce_sweep_matches_reference_on_all_backends() {
        let keys: Vec<HmacKey> = (0..13u64)
            .map(|i| HmacKey::new(format!("query-key-{i}").as_bytes()))
            .collect();
        let nonces: Vec<[u8; 8]> = (0..13u64)
            .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)).to_be_bytes())
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for take in 1..=nonces.len() {
                let mut out = vec![0u64; take];
                mac_u64_nonces_keyed_with(backend, &keys[..take], &nonces[..take], &mut out);
                for i in 0..take {
                    assert_eq!(
                        out[i],
                        keys[i].mac_u64(&nonces[i]),
                        "{} batch of {take}, lane {i}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one key per nonce")]
    fn keyed_sweep_rejects_mismatched_lengths() {
        let keys = [HmacKey::new(b"a"), HmacKey::new(b"b")];
        let nonces = [[0u8; 8]];
        let mut out = [0u64; 2];
        mac_u64_nonces_keyed_with(Backend::Scalar, &keys, &nonces, &mut out);
    }

    /// The specialised 8-byte-nonce sweep must agree with the generic path
    /// on every backend, including ragged group tails.
    #[test]
    fn nonce_sweep_matches_reference_on_all_backends() {
        let key = HmacKey::new(b"nonce-sweep-key");
        let nonces: Vec<[u8; 8]> = (0..13u64)
            .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)).to_be_bytes())
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for take in 1..=nonces.len() {
                let mut out = vec![0u64; take];
                key.mac_u64_nonces_with(backend, &nonces[..take], &mut out);
                for (nonce, got) in nonces[..take].iter().zip(&out) {
                    assert_eq!(
                        *got,
                        key.mac_u64(nonce),
                        "{} batch of {take}",
                        backend.name()
                    );
                }
            }
        }
    }
}
