//! Property tests for the lane-generic SHA-1 execution layer: every
//! available [`Backend`] (scalar x1, SSE2 x4, AVX2 x8, AVX-512 x16) must be
//! bit-identical to the scalar reference —
//!
//! * at the compression-function level, on arbitrary states and blocks and
//!   on the from-the-IV pad-block shape key preparation feeds it;
//! * through the nonce sweep and its fused per-engine kernels: every group
//!   size around the lane width, one key, key runs that straddle lane
//!   groups, a different key in every lane — against scalar
//!   [`HmacKey::mac_u64`] per element and against the same engine held to
//!   the `compress`-staged default ([`Staged`]);
//! * through lane-prepared keys ([`HmacKey::prepare`]).

use proptest::prelude::*;
use roar_crypto::hmac::{mac_u64_nonce_runs, HmacKey};
use roar_crypto::sha1::{Backend, LaneStates, Sha1Lanes, Staged, MAX_LANES};
use std::sync::atomic::{AtomicUsize, Ordering};

fn available_backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

fn nonces(n: usize) -> Vec<[u8; 8]> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).to_be_bytes())
        .collect()
}

/// Cut `n` nonces into runs of `len` cycling over `keys`.
fn runs_of(keys: &[HmacKey], len: usize, n: usize) -> Vec<(HmacKey, usize)> {
    (0..n.div_ceil(len))
        .map(|r| (keys[r % keys.len()], len.min(n - r * len)))
        .collect()
}

/// `runs` over `nonces` on `engine` equals the scalar MAC per element, and
/// the same engine's staged default.
fn assert_sweep(engine: &'static dyn Sha1Lanes, runs: &[(HmacKey, usize)], nonces: &[[u8; 8]]) {
    let mut got = vec![0u64; nonces.len()];
    mac_u64_nonce_runs(engine, runs, nonces, &mut got);
    let keys = runs
        .iter()
        .flat_map(|&(key, len)| std::iter::repeat_n(key, len));
    for (i, (key, nonce)) in keys.zip(nonces).enumerate() {
        assert_eq!(
            got[i],
            key.mac_u64(nonce),
            "{} element {i} of {}",
            engine.name(),
            nonces.len()
        );
    }
    let mut staged = vec![0u64; nonces.len()];
    mac_u64_nonce_runs(&Staged(engine), runs, nonces, &mut staged);
    assert_eq!(got, staged, "{} fused vs staged", engine.name());
}

#[test]
fn engines_report_sane_lane_counts() {
    for b in available_backends() {
        let lanes = b.engine().lanes();
        let expect = match b {
            Backend::Scalar => 1,
            Backend::Sse2 => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 16,
        };
        assert_eq!(lanes, expect, "{}", b.name());
    }
}

/// The nonce sweep (the PPS survivor hot path) at every size around the
/// lane width, under every key arrangement the scan path produces.
#[test]
fn nonce_sweep_sizes_and_key_runs() {
    let keys: Vec<HmacKey> = (0..5)
        .map(|i| HmacKey::new(format!("xq-key-{i}").as_bytes()))
        .collect();
    for backend in available_backends() {
        let engine = backend.engine();
        let lanes = engine.lanes();
        for n in [0, 1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5, 1000] {
            let nonces = nonces(n);
            // one key: the inline drivers
            assert_sweep(engine, &[(keys[0], n)], &nonces);
            let mut out = vec![0u64; n];
            keys[0].mac_u64_nonces_with(backend, &nonces, &mut out);
            let want: Vec<u64> = nonces.iter().map(|x| keys[0].mac_u64(x)).collect();
            assert_eq!(out, want, "{} one key, {n}", backend.name());
            // runs that straddle lane groups, runs far longer than one
            assert_sweep(engine, &runs_of(&keys, 7, n), &nonces);
            assert_sweep(engine, &runs_of(&keys, 300, n), &nonces);
            // a different key every lane
            let each: Vec<(HmacKey, usize)> = (0..n)
                .map(|i| (HmacKey::new(format!("lane-key-{i}").as_bytes()), 1))
                .collect();
            assert_sweep(engine, &each, &nonces);
        }
    }
}

/// Empty runs are skipped wherever they fall.
#[test]
fn empty_runs_are_skipped() {
    let (a, b) = (HmacKey::new(b"a"), HmacKey::new(b"b"));
    for backend in available_backends() {
        let lanes = backend.engine().lanes();
        let runs = [(a, 0), (b, lanes + 2), (a, 0), (a, 0), (a, 3), (b, 0)];
        assert_sweep(backend.engine(), &runs, &nonces(lanes + 5));
    }
}

/// RFC 2202 case 1 is itself an 8-byte message: `"Hi There"` under
/// `0x0b × 20`. The known answer must come out of every lane position.
#[test]
fn rfc2202_case1_in_every_lane() {
    let key = HmacKey::new(&[0x0b; 20]);
    let decoy = HmacKey::new(b"every other lane");
    for backend in available_backends() {
        let engine = backend.engine();
        let lanes = engine.lanes();
        for at in 0..lanes {
            let mut nonces = nonces(lanes);
            nonces[at] = *b"Hi There";
            let mut runs = vec![(decoy, 1); lanes];
            runs[at] = (key, 1);
            let mut out = vec![0u64; lanes];
            mac_u64_nonce_runs(engine, &runs, &nonces, &mut out);
            assert_eq!(
                out[at],
                0xb617_3186_5505_7264,
                "{} lane {at}",
                backend.name()
            );
        }
        let mut out = vec![0u64; 2 * lanes + 1];
        key.mac_u64_nonces_with(backend, &vec![*b"Hi There"; 2 * lanes + 1], &mut out);
        assert!(out.iter().all(|&p| p == 0xb617_3186_5505_7264));
    }
}

/// `out` may be longer than `nonces`; what lies past `nonces.len()` is not
/// written — not even by the group that serves a ragged tail.
#[test]
fn output_past_the_nonces_is_untouched() {
    const CANARY: u64 = 0xdead_beef_dead_beef;
    let key = HmacKey::new(b"canary");
    for backend in available_backends() {
        let lanes = backend.engine().lanes();
        for n in [0, 1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5] {
            let nonces = nonces(n);
            let mut out = vec![CANARY; n + 2 * MAX_LANES];
            key.mac_u64_nonces_with(backend, &nonces, &mut out);
            for (i, nonce) in nonces.iter().enumerate() {
                assert_eq!(out[i], key.mac_u64(nonce), "{} {n}/{i}", backend.name());
            }
            assert!(
                out[n..].iter().all(|&x| x == CANARY),
                "{} wrote past {n} nonces",
                backend.name()
            );
        }
    }
}

/// An engine that checks what the sweep hands its group entry, then
/// forwards to the real one.
struct Checked {
    engine: &'static dyn Sha1Lanes,
    groups: AtomicUsize,
    padded: AtomicUsize,
}

impl Sha1Lanes for Checked {
    fn lanes(&self) -> usize {
        self.engine.lanes()
    }
    fn name(&self) -> &'static str {
        self.engine.name()
    }
    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
        self.engine.compress(states, blocks);
    }
    fn mac_nonce_group(
        &self,
        inner: &LaneStates,
        outer: &LaneStates,
        nonces: &[[u8; 8]],
        out: &mut [u64],
    ) {
        assert!(nonces.len() >= self.lanes(), "short nonce group");
        assert!(out.len() >= self.lanes(), "short output group");
        // ORDERING: Relaxed — single-threaded test counters
        self.groups.fetch_add(1, Ordering::Relaxed);
        if nonces.len() == MAX_LANES && out.len() == MAX_LANES {
            // ORDERING: Relaxed — as above
            self.padded.fetch_add(1, Ordering::Relaxed);
        }
        self.engine.mac_nonce_group(inner, outer, nonces, out);
    }
}

/// The engine entry only ever sees whole groups: full ones as slices of
/// the caller's buffers, a ragged tail as the `MAX_LANES`-entry stack copy.
#[test]
fn ragged_tail_is_served_from_the_stack_copy() {
    let key = HmacKey::new(b"tail");
    for backend in available_backends() {
        let lanes = backend.engine().lanes();
        for n in [1, lanes + 1, 3 * lanes + 5] {
            let checked = Checked {
                engine: backend.engine(),
                groups: AtomicUsize::new(0),
                padded: AtomicUsize::new(0),
            };
            // (no full group of these sizes leaves exactly MAX_LANES
            // elements behind its start, so only the copy is that long)
            let nonces = nonces(n);
            let mut out = vec![0u64; n];
            mac_u64_nonce_runs(&checked, &[(key, n)], &nonces, &mut out);
            for (nonce, got) in nonces.iter().zip(&out) {
                assert_eq!(*got, key.mac_u64(nonce), "{} {n}", backend.name());
            }
            // ORDERING: Relaxed — single-threaded test counters
            let (groups, padded) = (
                checked.groups.load(Ordering::Relaxed),
                checked.padded.load(Ordering::Relaxed),
            );
            assert_eq!(groups, n.div_ceil(lanes), "{} {n}", backend.name());
            assert_eq!(
                padded,
                usize::from(n % lanes != 0),
                "{} {n}",
                backend.name()
            );
        }
    }
}

/// Lane-prepared keys are scalar-prepared keys, for every count around the
/// group sizes.
#[test]
fn prepared_keys_equal_scalar_new() {
    let keys: Vec<[u8; 20]> = (0..32u8)
        .map(|i| core::array::from_fn(|j| i.wrapping_mul(31).wrapping_add(j as u8)))
        .collect();
    for backend in available_backends() {
        for r in [1usize, 7, 8, 9, 16, 17, 32] {
            let got: [HmacKey; 32] = HmacKey::prepare(backend, &keys[..r]);
            for (key, got) in keys[..r].iter().zip(&got) {
                assert_eq!(*got, HmacKey::new(key), "{} r = {r}", backend.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random states/blocks: every engine lane equals the scalar
    /// compression of that lane — also in the shape key preparation uses,
    /// every lane from the IV over a 20-byte key's ipad or opad block.
    #[test]
    fn compress_lanes_equal_scalar(
        seed_states in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 5), 16),
        seed_blocks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 64), 16),
    ) {
        const IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        for backend in available_backends() {
            let engine = backend.engine();
            let l = engine.lanes();
            let states: Vec<[u32; 5]> = seed_states[..l]
                .iter()
                .map(|v| <[u32; 5]>::try_from(v.as_slice()).unwrap())
                .collect();
            let blocks: Vec<[u8; 64]> = seed_blocks[..l]
                .iter()
                .map(|v| <[u8; 64]>::try_from(v.as_slice()).unwrap())
                .collect();
            let pad_blocks: Vec<[u8; 64]> = blocks
                .iter()
                .enumerate()
                .map(|(lane, b)| {
                    let pad = if lane % 2 == 0 { 0x36 } else { 0x5c };
                    core::array::from_fn(|i| if i < 20 { b[i] ^ pad } else { pad })
                })
                .collect();
            for (states, blocks) in [(states, blocks), (vec![IV; l], pad_blocks)] {
                // scalar oracle through the 1-lane engine
                let scalar = Backend::Scalar.engine();
                let mut want = states.clone();
                for (s, blk) in want.iter_mut().zip(&blocks) {
                    scalar.compress(std::slice::from_mut(s), std::slice::from_ref(blk));
                }
                let mut got = states;
                engine.compress(&mut got, &blocks);
                prop_assert_eq!(&got, &want, "backend {}", backend.name());
            }
        }
    }

    /// Random keys, random nonces, random run lengths: the sweep equals the
    /// scalar MAC per element on every backend.
    #[test]
    fn random_key_runs_equal_scalar(
        runs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..80), 0usize..40), 1..12),
        seed: u64,
    ) {
        let runs: Vec<(HmacKey, usize)> =
            runs.iter().map(|(key, len)| (HmacKey::new(key), *len)).collect();
        let n: usize = runs.iter().map(|r| r.1).sum();
        let nonces: Vec<[u8; 8]> = (0..n as u64)
            .map(|i| (seed ^ i).wrapping_mul(0x9e3779b97f4a7c15).to_be_bytes())
            .collect();
        for backend in available_backends() {
            assert_sweep(backend.engine(), &runs, &nonces);
        }
    }
}
