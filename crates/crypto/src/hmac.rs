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
//! **The nonce sweep.** The PPS scan path has one MAC shape — the `u64`
//! prefix of the MAC of a fixed 8-byte record nonce — and one loop
//! computing it, [`mac_u64_nonce_runs`]: `nonces` is cut into consecutive
//! *key runs* `(key, len)`, and lane groups of the [`Sha1Lanes`] engine
//! (16 on AVX-512) are filled straight across run boundaries. The boundary
//! to the engine is **a lane group of nonces in, prefixes out**
//! ([`Sha1Lanes::mac_nonce_group`]): the sweep hands it the group's key
//! midstates already transposed ([`LaneStates`] — broadcast once per run,
//! filled lane by lane only for a group that straddles two runs) and
//! slices of the caller's own nonce and output buffers; padding, the two
//! compressions and the hand-over of the inner digest all happen inside
//! the engine's kernel, in registers. A ragged tail goes through a
//! `MAX_LANES`-entry stack copy, so an engine only ever sees whole groups.
//! [`HmacKey::mac_u64_nonces_with`] (the inline drivers of the survivor
//! pipeline) is the one-run case; a node's matcher workers pass one run
//! per resident sub-query.
//!
//! **Key preparation** rides the lanes too: [`HmacKey::prepare`] pushes the
//! `K ⊕ ipad` / `K ⊕ opad` blocks of many keys — a trapdoor's `r`
//! components — through [`Sha1Lanes::compress`] from the IV, `lanes()`
//! blocks per call.
//!
//! Both are pinned bit-identical to the scalar reference by
//! `tests/sha1_lanes_props.rs`.

use crate::sha1::{compress_block, sha1, Backend, LaneStates, Sha1, Sha1Lanes, IV, MAX_LANES};

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

    /// The nonce sweep with this key in every lane: `u64` MAC prefixes of
    /// fixed 8-byte messages (record nonces). What the survivor pipeline's
    /// inline drivers call once per trapdoor component; each full lane
    /// group costs exactly 2 multi-lane compressions — the §5.7
    /// "2 compressions per codeword" arithmetic divided by the lane width.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `nonces`.
    pub fn mac_u64_nonces_with(&self, backend: Backend, nonces: &[[u8; 8]], out: &mut [u64]) {
        mac_u64_nonce_runs(backend.engine(), &[(*self, nonces.len())], nonces, out);
    }

    /// Prepare many keys at once on the lane engine: slot `i` of the result
    /// is `HmacKey::new(keys[i])`, for up to `N` keys. The `2 · keys.len()`
    /// pad blocks go through [`Sha1Lanes::compress`] from the IV, `lanes()`
    /// at a time (a trapdoor's r = 17 components are 34 blocks: 3 AVX-512
    /// groups where [`HmacKey::new`] per key runs 34 scalar compressions).
    /// Slots past `keys.len()` hold an all-zero midstate pair that is no
    /// key's; callers track how many they asked for.
    ///
    /// # Panics
    /// Panics when more than `N` keys are given.
    pub fn prepare<const N: usize>(backend: Backend, keys: &[impl AsRef<[u8]>]) -> [HmacKey; N] {
        assert!(keys.len() <= N, "{} keys for {N} slots", keys.len());
        let engine = backend.engine();
        let lanes = engine.lanes();
        let mut out = [HmacKey {
            inner_mid: [0; 5],
            outer_mid: [0; 5],
        }; N];
        // block 2i is key i's ipad block, block 2i + 1 its opad block
        let mut blocks = [[0u8; BLOCK]; MAX_LANES];
        let mut states = [IV; MAX_LANES];
        for first in (0..2 * keys.len()).step_by(lanes) {
            let group = lanes.min(2 * keys.len() - first);
            for (lane, block) in blocks[..group].iter_mut().enumerate() {
                let (ipad, opad) = pad_blocks(keys[(first + lane) / 2].as_ref());
                *block = if (first + lane) % 2 == 0 { ipad } else { opad };
            }
            // a short last group leaves stale blocks in its unused lanes;
            // their states are never read
            states[..lanes].fill(IV);
            engine.compress(&mut states[..lanes], &blocks[..lanes]);
            for (lane, state) in states[..group].iter().enumerate() {
                let key = &mut out[(first + lane) / 2];
                if (first + lane) % 2 == 0 {
                    key.inner_mid = *state;
                } else {
                    key.outer_mid = *state;
                }
            }
        }
        out
    }
}

/// The nonce sweep — the scan path's one MAC loop: `nonces` is the
/// concatenation of the key runs `runs`, each `(key, len)` covering the
/// next `len` nonces, and `out[i]` becomes the `u64` MAC prefix of
/// `nonces[i]` under its run's key. This is what lets a node pack probe
/// work from many concurrent sub-queries (different trapdoors, different
/// component keys) into full-width lane groups instead of running each
/// query's sweep ragged: a group is filled across run boundaries.
///
/// A lane's midstate is per-lane SIMD state, so the engine's kernel does
/// not care whether neighbouring lanes resume the same key or different
/// ones. A group inside one run reuses that run's broadcast midstates; a
/// group that straddles runs (or the ragged tail) has its midstates filled
/// lane by lane. The engine reads nonces from, and writes prefixes to, the
/// caller's slices directly; only a tail shorter than a group is copied
/// through the stack. `out` past `nonces.len()` is left untouched.
///
/// Bit-identical to `key.mac_u64(&nonces[i])` per element by construction
/// and by the `sha1_lanes_props` suite.
///
/// # Panics
/// Panics when the run lengths do not add up to `nonces.len()`, or when
/// `out` is shorter than `nonces`.
pub fn mac_u64_nonce_runs(
    engine: &dyn Sha1Lanes,
    runs: &[(HmacKey, usize)],
    nonces: &[[u8; 8]],
    out: &mut [u64],
) {
    assert!(out.len() >= nonces.len(), "output buffer too small");
    let covered: usize = runs.iter().map(|&(_, len)| len).sum();
    assert_eq!(
        covered,
        nonces.len(),
        "key runs cover {covered} of {} nonces",
        nonces.len()
    );
    let lanes = engine.lanes();
    let mut inner: LaneStates = [[0; MAX_LANES]; 5];
    let mut outer: LaneStates = [[0; MAX_LANES]; 5];
    // the run the next lane belongs to, how much of it is left, and whether
    // every lane of `inner`/`outer` already holds its key
    let (mut run, mut left, mut whole) = (0, runs.first().map_or(0, |r| r.1), false);
    for start in (0..nonces.len()).step_by(lanes) {
        let group = lanes.min(nonces.len() - start);
        let mut lane = 0;
        while lane < group {
            while left == 0 {
                run += 1;
                (left, whole) = (runs[run].1, false);
            }
            let key = &runs[run].0;
            let take = left.min(lanes - lane);
            if !(whole && take == lanes) {
                for w in 0..5 {
                    for l in lane..lane + take {
                        inner[w][l] = key.inner_mid[w];
                        outer[w][l] = key.outer_mid[w];
                    }
                }
            }
            whole = take == lanes;
            left -= take;
            lane += take;
        }
        // lanes past a ragged tail keep whatever they held: their outputs
        // are dropped
        if group == lanes {
            engine.mac_nonce_group(&inner, &outer, &nonces[start..], &mut out[start..]);
        } else {
            let mut tail = [[0u8; 8]; MAX_LANES];
            let mut macs = [0u64; MAX_LANES];
            tail[..group].copy_from_slice(&nonces[start..]);
            engine.mac_nonce_group(&inner, &outer, &tail, &mut macs);
            out[start..start + group].copy_from_slice(&macs[..group]);
        }
    }
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

    /// The run sweep with a different key in every lane must agree with
    /// per-key scalar MACs on every backend, including ragged group tails.
    #[test]
    fn nonce_runs_of_one_match_reference_on_all_backends() {
        let runs: Vec<(HmacKey, usize)> = (0..13u64)
            .map(|i| (HmacKey::new(format!("query-key-{i}").as_bytes()), 1))
            .collect();
        let nonces: Vec<[u8; 8]> = (0..13u64)
            .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)).to_be_bytes())
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for take in 1..=nonces.len() {
                let mut out = vec![0u64; take];
                mac_u64_nonce_runs(backend.engine(), &runs[..take], &nonces[..take], &mut out);
                for i in 0..take {
                    assert_eq!(
                        out[i],
                        runs[i].0.mac_u64(&nonces[i]),
                        "{} batch of {take}, lane {i}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key runs cover 3 of 1 nonces")]
    fn run_sweep_rejects_mismatched_lengths() {
        let runs = [(HmacKey::new(b"a"), 1), (HmacKey::new(b"b"), 2)];
        let nonces = [[0u8; 8]];
        let mut out = [0u64; 2];
        mac_u64_nonce_runs(Backend::Scalar.engine(), &runs, &nonces, &mut out);
    }

    /// Lane-prepared keys are the scalar-prepared keys, at every count
    /// around the group sizes and for keys on both sides of the block
    /// length (a longer key is hashed first).
    #[test]
    fn prepared_keys_equal_scalar_new_on_all_backends() {
        let keys: Vec<Vec<u8>> = (0..33usize)
            .map(|i| {
                (0..[20, 0, 64, 65, 100][i % 5])
                    .map(|b| (b * 7 + i) as u8)
                    .collect()
            })
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for n in [0usize, 1, 2, 7, 8, 9, 16, 17, 32, 33] {
                let got: [HmacKey; 33] = HmacKey::prepare(backend, &keys[..n]);
                for (key, got) in keys[..n].iter().zip(&got) {
                    assert_eq!(*got, HmacKey::new(key), "{} {n} keys", backend.name());
                }
            }
        }
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
