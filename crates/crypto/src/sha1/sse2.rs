//! 4-lane SHA-1 in SSE2 `__m128i` registers.
//!
//! Lane `l` occupies 32-bit element `l` of every vector: the five chaining
//! words and the 16-entry rolling message schedule are all transposed
//! (structure-of-arrays), so the shared round body (`rounds.rs`) runs
//! once over four independent blocks. SSE2 has no vector rotate, so `rotl`
//! is a shift/shift/or triple — the throughput win comes from the data
//! parallelism, not the per-op cost.
//!
//! The fused nonce kernel ([`Sha1Lanes::mac_nonce_group`]) loads the
//! group's 4 nonces as two vectors, byte-swaps them with word shuffles and
//! 16-bit shifts (`PSHUFB` is SSSE3) and de-interleaves message words 0 and
//! 1 with one `SHUFPS` each; MAC words 0 and 1 are unpacked back into `u64`
//! prefixes and leave in two stores.
//!
//! SSE2 is part of the x86-64 architectural baseline, so this engine needs
//! no runtime detection on that target; the `unsafe` here is only the
//! intrinsics themselves.

use super::rounds::{self, Lane};
use super::{LaneStates, Sha1Lanes};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_and_si128, _mm_castps_si128, _mm_castsi128_ps, _mm_loadu_si128,
    _mm_or_si128, _mm_set1_epi32, _mm_shuffle_ps, _mm_shufflehi_epi16, _mm_shufflelo_epi16,
    _mm_slli_epi16, _mm_slli_epi32, _mm_srli_epi16, _mm_srli_epi32, _mm_storeu_si128,
    _mm_unpackhi_epi32, _mm_unpacklo_epi32, _mm_xor_si128,
};

/// 4-lane SSE2 engine.
pub struct Sse2Lanes;

impl Sha1Lanes for Sse2Lanes {
    fn lanes(&self) -> usize {
        4
    }

    fn name(&self) -> &'static str {
        "sse2"
    }

    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
        assert!(
            states.len() == 4 && blocks.len() == 4,
            "sse2 engine is 4-lane: got {} states / {} blocks",
            states.len(),
            blocks.len()
        );
        // SAFETY: SSE2 is unconditionally present on x86-64 (this module is
        // only compiled there), and the slices were just length-checked.
        unsafe { compress4(states, blocks) }
    }

    fn mac_nonce_group(
        &self,
        inner: &LaneStates,
        outer: &LaneStates,
        nonces: &[[u8; 8]],
        out: &mut [u64],
    ) {
        assert!(
            nonces.len() >= 4 && out.len() >= 4,
            "sse2 engine is 4-lane: got {} nonces / {} outputs",
            nonces.len(),
            out.len()
        );
        // SAFETY: SSE2 is unconditionally present on x86-64; both slices
        // hold the 4 elements the kernel reads resp. writes.
        unsafe { mac_nonce4(inner, outer, nonces, out) }
    }
}

impl Lane for __m128i {
    // SAFETY: SSE2 register operation, baseline on x86-64 (this module
    // only compiles there).
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        _mm_set1_epi32(x as i32)
    }
    // SAFETY: as `splat`; `p` is valid for reading 4 words (trait contract).
    #[inline(always)]
    unsafe fn load(p: *const u32) -> Self {
        _mm_loadu_si128(p as *const __m128i)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm_add_epi32(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        _mm_xor_si128(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(self) -> Self {
        _mm_or_si128(_mm_slli_epi32::<L>(self), _mm_srli_epi32::<R>(self))
    }
    // Ch(b,c,d) = (b & c) | (!b & d), branch-free as d ^ (b & (c ^ d))
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn ch(b: Self, c: Self, d: Self) -> Self {
        _mm_xor_si128(d, _mm_and_si128(b, _mm_xor_si128(c, d)))
    }
    // Maj(b,c,d) = (b & c) | (b & d) | (c & d) = (b & c) | (d & (b | c))
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn maj(b: Self, c: Self, d: Self) -> Self {
        _mm_or_si128(_mm_and_si128(b, c), _mm_and_si128(d, _mm_or_si128(b, c)))
    }
}

/// One vector out of one word per lane.
// SAFETY: SSE2 is baseline on x86-64; the load reads the 16 bytes of the
// local array.
#[inline(always)]
unsafe fn transposed(word_of_lane: impl Fn(usize) -> u32) -> __m128i {
    let row: [u32; 4] = core::array::from_fn(word_of_lane);
    _mm_loadu_si128(row.as_ptr() as *const __m128i)
}

// SAFETY: SSE2 is unconditionally present on x86-64, so the
// `#[target_feature]` precondition always holds. Both slices must hold
// exactly 4 lanes (asserted by the sole caller, `compress`); all
// loads/stores go through bounds-checked indexing or `storeu` on a local
// array.
#[target_feature(enable = "sse2")]
unsafe fn compress4(states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
    // transpose in: lane `l` of vector `i` is word `i` of `states[l]`
    // resp. big-endian word `i` of `blocks[l]`
    let s = core::array::from_fn(|i| transposed(|l| states[l][i]));
    let w = core::array::from_fn(|i| transposed(|l| rounds::be_word(&blocks[l], i)));
    // transpose back: one word-major store per chaining word
    let mut out = [[0u32; 4]; 5];
    for (row, v) in out.iter_mut().zip(rounds::compress(s, w)) {
        _mm_storeu_si128(row.as_mut_ptr() as *mut __m128i, v);
    }
    for (l, state) in states.iter_mut().enumerate() {
        for (word, row) in out.iter().enumerate() {
            state[word] = row[l];
        }
    }
}

// SAFETY: SSE2 is unconditionally present on x86-64, so the
// `#[target_feature]` precondition always holds. The sole caller
// (`mac_nonce_group`) asserts `nonces.len() >= 4 && out.len() >= 4`: the
// two unaligned 16-byte loads read exactly `nonces[..4]`, the two unaligned
// 16-byte stores write exactly `out[..4]`.
#[target_feature(enable = "sse2")]
unsafe fn mac_nonce4(inner: &LaneStates, outer: &LaneStates, nonces: &[[u8; 8]], out: &mut [u64]) {
    // big-endian dwords → native: swap the 16-bit halves of every dword,
    // then the bytes of every half
    let bswap = |x: __m128i| {
        let x = _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(x));
        _mm_or_si128(_mm_slli_epi16::<8>(x), _mm_srli_epi16::<8>(x))
    };
    let p = nonces.as_ptr() as *const __m128i;
    let lo = _mm_castsi128_ps(bswap(_mm_loadu_si128(p))); // nonces 0, 1: words 0, 1, 0, 1
    let hi = _mm_castsi128_ps(bswap(_mm_loadu_si128(p.add(1)))); // nonces 2, 3
    let w0 = _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(lo, hi));
    let w1 = _mm_castps_si128(_mm_shuffle_ps::<0b11_01_11_01>(lo, hi));

    let (a, b) = rounds::hmac_nonce(inner, outer, w0, w1);

    // out[l] = a[l] << 32 | b[l]: little-endian, so dword pairs (b, a)
    let q = out.as_mut_ptr() as *mut __m128i;
    _mm_storeu_si128(q, _mm_unpacklo_epi32(b, a));
    _mm_storeu_si128(q.add(1), _mm_unpackhi_epi32(b, a));
}
