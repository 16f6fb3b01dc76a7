//! 16-lane SHA-1 in AVX-512 `__m512i` registers.
//!
//! Same structure-of-arrays layout as the SSE2/AVX2 engines — lane `l` in
//! 32-bit element `l` of every vector — at twice AVX2's width, running the
//! shared round body (`rounds.rs`). Two instruction-level wins over
//! the narrower engines: `VPROLD` (`_mm512_rol_epi32`) is a real vector
//! rotate, so the shift/shift/or emulation disappears from both the
//! schedule and the round body, and `VPTERNLOGD`
//! (`_mm512_ternarylogic_epi32`) evaluates Ch and Maj in one instruction
//! each (the three-way xors are written as xors, so that constant schedule
//! words fold; the compiler fuses what is left into `VPTERNLOGD` itself).
//!
//! The fused nonce kernel ([`Sha1Lanes::mac_nonce_group`]) never leaves
//! the registers: two 64-byte loads bring in the group's 16 nonces, a
//! `VPROLD`/`VPTERNLOGD` byte swap and one `VPERMT2D` each split them into
//! message words 0 and 1, and one `VPERMT2D` per output half interleaves
//! MAC words 0 and 1 back into `u64` prefixes. Everything here needs only
//! AVX-512F — no BW/DQ/VL — which is the feature [`Backend::available`]
//! detects.
//!
//! [`Backend::available`]: super::Backend::available
//!
//! AVX-512 is *not* baseline: the runtime detection gates selection, and
//! both trait entries re-assert it so a mis-forced backend fails loudly
//! instead of executing illegal instructions.

use super::rounds::{self, Lane};
use super::{LaneStates, Sha1Lanes};
use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_permutex2var_epi32, _mm512_rol_epi32,
    _mm512_set1_epi32, _mm512_setr_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32,
    _mm512_xor_si512,
};

/// 16-lane AVX-512F engine.
pub struct Avx512Lanes;

impl Sha1Lanes for Avx512Lanes {
    fn lanes(&self) -> usize {
        16
    }

    fn name(&self) -> &'static str {
        "avx512"
    }

    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
        assert!(
            states.len() == 16 && blocks.len() == 16,
            "avx512 engine is 16-lane: got {} states / {} blocks",
            states.len(),
            blocks.len()
        );
        assert!(
            std::arch::is_x86_feature_detected!("avx512f"),
            "avx512 backend selected on a CPU without AVX-512F"
        );
        // SAFETY: AVX-512F presence just asserted; slices length-checked.
        unsafe { compress16(states, blocks) }
    }

    fn mac_nonce_group(
        &self,
        inner: &LaneStates,
        outer: &LaneStates,
        nonces: &[[u8; 8]],
        out: &mut [u64],
    ) {
        assert!(
            nonces.len() >= 16 && out.len() >= 16,
            "avx512 engine is 16-lane: got {} nonces / {} outputs",
            nonces.len(),
            out.len()
        );
        assert!(
            std::arch::is_x86_feature_detected!("avx512f"),
            "avx512 backend selected on a CPU without AVX-512F"
        );
        // SAFETY: AVX-512F presence just asserted; both slices hold the 16
        // elements the kernel reads resp. writes.
        unsafe { mac_nonce16(inner, outer, nonces, out) }
    }
}

impl Lane for __m512i {
    // SAFETY: AVX-512F register operation; the kernels below are the only
    // callers and are entered only after the feature is detected.
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        _mm512_set1_epi32(x as i32)
    }
    // SAFETY: as `splat`; `p` is valid for reading 16 words (trait contract).
    #[inline(always)]
    unsafe fn load(p: *const u32) -> Self {
        _mm512_loadu_si512(p as *const __m512i)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm512_add_epi32(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        _mm512_xor_si512(self, o)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(self) -> Self {
        _mm512_rol_epi32::<L>(self)
    }
    // one VPTERNLOGD per round function, truth-table immediates over
    // (b, c, d): Ch = 0xCA, Maj = 0xE8
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn ch(b: Self, c: Self, d: Self) -> Self {
        _mm512_ternarylogic_epi32::<0xCA>(b, c, d)
    }
    // SAFETY: as `splat`.
    #[inline(always)]
    unsafe fn maj(b: Self, c: Self, d: Self) -> Self {
        _mm512_ternarylogic_epi32::<0xE8>(b, c, d)
    }
}

/// One vector out of one word per lane.
// SAFETY: caller must be executing with AVX-512F available; the load reads
// the 64 bytes of the local array.
#[inline(always)]
unsafe fn transposed(word_of_lane: impl Fn(usize) -> u32) -> __m512i {
    let row: [u32; 16] = core::array::from_fn(word_of_lane);
    _mm512_loadu_si512(row.as_ptr() as *const __m512i)
}

// SAFETY: `#[target_feature]` makes calling this UB on a CPU
// without AVX-512F — the sole caller (`compress`) runtime-detects it
// first. Both slices must hold exactly 16 lanes (asserted there); all
// loads/stores go through bounds-checked indexing or `storeu` on a local
// array.
#[target_feature(enable = "avx512f")]
unsafe fn compress16(states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
    // transpose in: lane `l` of vector `i` is word `i` of `states[l]`
    // resp. big-endian word `i` of `blocks[l]`
    let s = core::array::from_fn(|i| transposed(|l| states[l][i]));
    let w = core::array::from_fn(|i| transposed(|l| rounds::be_word(&blocks[l], i)));
    // transpose back: one word-major store per chaining word
    let mut out = [[0u32; 16]; 5];
    for (row, v) in out.iter_mut().zip(rounds::compress(s, w)) {
        _mm512_storeu_si512(row.as_mut_ptr() as *mut __m512i, v);
    }
    for (l, state) in states.iter_mut().enumerate() {
        for (word, row) in out.iter().enumerate() {
            state[word] = row[l];
        }
    }
}

// SAFETY: `#[target_feature]` makes calling this UB on a CPU without
// AVX-512F — the sole caller (`mac_nonce_group`) runtime-detects it first
// and asserts `nonces.len() >= 16 && out.len() >= 16`: the two unaligned
// 64-byte loads read exactly `nonces[..16]`, the two unaligned 64-byte
// stores write exactly `out[..16]`.
#[target_feature(enable = "avx512f")]
unsafe fn mac_nonce16(inner: &LaneStates, outer: &LaneStates, nonces: &[[u8; 8]], out: &mut [u64]) {
    // byte swap without AVX-512BW's VPSHUFB: bytes 0 and 2 of the result
    // come from the dword rotated by 8, bytes 1 and 3 from it rotated by 24
    let bswap = |x: __m512i| {
        _mm512_ternarylogic_epi32::<0xCA>(
            _mm512_set1_epi32(0x00FF_00FF),
            _mm512_rol_epi32::<8>(x),
            _mm512_rol_epi32::<24>(x),
        )
    };
    let p = nonces.as_ptr() as *const __m512i;
    let lo = bswap(_mm512_loadu_si512(p)); // nonces 0..8: words 0, 1 alternating
    let hi = bswap(_mm512_loadu_si512(p.add(1))); // nonces 8..16
    let evens = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    let odds = _mm512_add_epi32(evens, _mm512_set1_epi32(1));
    let w0 = _mm512_permutex2var_epi32(lo, evens, hi);
    let w1 = _mm512_permutex2var_epi32(lo, odds, hi);

    let (a, b) = rounds::hmac_nonce(inner, outer, w0, w1);

    // out[l] = a[l] << 32 | b[l]: little-endian, so dword pairs (b, a)
    let first = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    let second = _mm512_add_epi32(first, _mm512_set1_epi32(8));
    let q = out.as_mut_ptr() as *mut __m512i;
    _mm512_storeu_si512(q, _mm512_permutex2var_epi32(b, first, a));
    _mm512_storeu_si512(q.add(1), _mm512_permutex2var_epi32(b, second, a));
}
