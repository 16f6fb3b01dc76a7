//! 8-lane SHA-1 in AVX2 `__m256i` registers.
//!
//! Same structure-of-arrays layout as the SSE2 engine — lane `l` in 32-bit
//! element `l` of every vector, the shared round body (`rounds.rs`) —
//! at twice the width. AVX2 still lacks a vector rotate (that arrives with
//! AVX-512), so `rotl` is the shift/shift/or emulation; eight blocks per
//! instruction stream more than pays for it.
//!
//! The fused nonce kernel ([`Sha1Lanes::mac_nonce_group`]) loads the
//! group's 8 nonces as two vectors, byte-swaps them with `VPSHUFB` and
//! de-interleaves message words 0 and 1 with a cross-lane permute each;
//! MAC words 0 and 1 are interleaved back into `u64` prefixes and leave in
//! two stores.
//!
//! AVX2 is *not* baseline: [`Backend::available`](super::Backend::available)
//! runtime-detects it, and both trait entries assert the detection so a
//! mis-forced backend fails loudly instead of executing illegal
//! instructions.

use super::rounds::{self, Lane};
use super::{LaneStates, Sha1Lanes};
use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256,
    _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_setr_epi32,
    _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpacklo_epi32, _mm256_xor_si256,
};

/// 8-lane AVX2 engine.
pub struct Avx2Lanes;

impl Sha1Lanes for Avx2Lanes {
    fn lanes(&self) -> usize {
        8
    }

    fn name(&self) -> &'static str {
        "avx2"
    }

    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
        assert!(
            states.len() == 8 && blocks.len() == 8,
            "avx2 engine is 8-lane: got {} states / {} blocks",
            states.len(),
            blocks.len()
        );
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 backend selected on a CPU without AVX2"
        );
        // SAFETY: AVX2 presence just asserted; slices length-checked.
        unsafe { compress8(states, blocks) }
    }

    fn mac_nonce_group(
        &self,
        inner: &LaneStates,
        outer: &LaneStates,
        nonces: &[[u8; 8]],
        out: &mut [u64],
    ) {
        assert!(
            nonces.len() >= 8 && out.len() >= 8,
            "avx2 engine is 8-lane: got {} nonces / {} outputs",
            nonces.len(),
            out.len()
        );
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 backend selected on a CPU without AVX2"
        );
        // SAFETY: AVX2 presence just asserted; both slices hold the 8
        // elements the kernel reads resp. writes.
        unsafe { mac_nonce8(inner, outer, nonces, out) }
    }
}

impl Lane for __m256i {
    // SAFETY: AVX2 register operation; the kernels below are the only
    // callers and are entered only after the feature is detected.
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        _mm256_set1_epi32(x as i32)
    }
    // SAFETY: as `splat`; `p` is valid for reading 8 words (trait contract).
    #[inline(always)]
    unsafe fn load(p: *const u32) -> Self {
        _mm256_loadu_si256(p as *const __m256i)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm256_add_epi32(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        _mm256_xor_si256(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(self) -> Self {
        _mm256_or_si256(_mm256_slli_epi32::<L>(self), _mm256_srli_epi32::<R>(self))
    }
    // Ch(b,c,d) = (b & c) | (!b & d), branch-free as d ^ (b & (c ^ d))
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn ch(b: Self, c: Self, d: Self) -> Self {
        _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)))
    }
    // Maj(b,c,d) = (b & c) | (b & d) | (c & d) = (b & c) | (d & (b | c))
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn maj(b: Self, c: Self, d: Self) -> Self {
        _mm256_or_si256(
            _mm256_and_si256(b, c),
            _mm256_and_si256(d, _mm256_or_si256(b, c)),
        )
    }
}

/// One vector out of one word per lane.
// SAFETY: caller must be executing with AVX2 available; the load reads the
// 32 bytes of the local array.
#[inline(always)]
unsafe fn transposed(word_of_lane: impl Fn(usize) -> u32) -> __m256i {
    let row: [u32; 8] = core::array::from_fn(word_of_lane);
    _mm256_loadu_si256(row.as_ptr() as *const __m256i)
}

// SAFETY: `#[target_feature]` makes calling this UB on a CPU
// without AVX2 — the sole caller (`compress`) runtime-detects it first.
// Both slices must hold exactly 8 lanes (asserted there); all loads/stores
// below go through bounds-checked indexing or `storeu` on a local array.
#[target_feature(enable = "avx2")]
unsafe fn compress8(states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
    // transpose in: lane `l` of vector `i` is word `i` of `states[l]`
    // resp. big-endian word `i` of `blocks[l]`
    let s = core::array::from_fn(|i| transposed(|l| states[l][i]));
    let w = core::array::from_fn(|i| transposed(|l| rounds::be_word(&blocks[l], i)));
    // transpose back: one word-major store per chaining word
    let mut out = [[0u32; 8]; 5];
    for (row, v) in out.iter_mut().zip(rounds::compress(s, w)) {
        _mm256_storeu_si256(row.as_mut_ptr() as *mut __m256i, v);
    }
    for (l, state) in states.iter_mut().enumerate() {
        for (word, row) in out.iter().enumerate() {
            state[word] = row[l];
        }
    }
}

// SAFETY: `#[target_feature]` makes calling this UB on a CPU without AVX2
// — the sole caller (`mac_nonce_group`) runtime-detects it first and
// asserts `nonces.len() >= 8 && out.len() >= 8`: the two unaligned 32-byte
// loads read exactly `nonces[..8]`, the two unaligned 32-byte stores write
// exactly `out[..8]`.
#[target_feature(enable = "avx2")]
unsafe fn mac_nonce8(inner: &LaneStates, outer: &LaneStates, nonces: &[[u8; 8]], out: &mut [u64]) {
    // big-endian dwords → native, per 128-bit half
    let bswap = _mm256_setr_epi8(
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, 3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8,
        15, 14, 13, 12,
    );
    // words 0 of a vector's four nonces to its low half, words 1 to its high
    let split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    let p = nonces.as_ptr() as *const __m256i;
    let load = |i: usize| {
        _mm256_permutevar8x32_epi32(
            _mm256_shuffle_epi8(_mm256_loadu_si256(p.add(i)), bswap),
            split,
        )
    };
    let (lo, hi) = (load(0), load(1)); // nonces 0..4, 4..8
    let w0 = _mm256_permute2x128_si256::<0x20>(lo, hi);
    let w1 = _mm256_permute2x128_si256::<0x31>(lo, hi);

    let (a, b) = rounds::hmac_nonce(inner, outer, w0, w1);

    // out[l] = a[l] << 32 | b[l]: little-endian, so dword pairs (b, a);
    // the unpacks pair lanes {0, 1, 4, 5} and {2, 3, 6, 7}
    let (lo, hi) = (_mm256_unpacklo_epi32(b, a), _mm256_unpackhi_epi32(b, a));
    let q = out.as_mut_ptr() as *mut __m256i;
    _mm256_storeu_si256(q, _mm256_permute2x128_si256::<0x20>(lo, hi));
    _mm256_storeu_si256(q.add(1), _mm256_permute2x128_si256::<0x31>(lo, hi));
}
