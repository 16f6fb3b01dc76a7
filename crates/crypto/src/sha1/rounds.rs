//! What the SIMD engines share: the 80 SHA-1 rounds and the fused
//! HMAC-of-a-nonce evaluation, written once over a vector of 32-bit lanes.
//!
//! An engine supplies the handful of register operations in [`Lane`] for
//! its vector type, and how it loads and stores a lane group; everything
//! that is SHA-1 lives here. The round sequence is spelled out by macro
//! rather than looped: every schedule index is then a literal, the 16-entry
//! rolling schedule stays in registers, and a schedule word the caller
//! passed as a constant (the padding of a finishing block) folds out of
//! the xors it feeds.
//!
//! Nothing here carries a `#[target_feature]`: every function is
//! `inline(always)` and only ever instantiated inside an engine's
//! feature-gated kernel, which is where the instructions are emitted.

use super::LaneStates;

/// One SIMD register of independent 32-bit lanes.
///
/// An implementation's contract is that of the instruction set it wraps
/// (see each engine); all but `load` are register-only.
pub(super) trait Lane: Copy {
    // SAFETY: (all methods) callable only where the implementing
    // engine's instruction set is available — each engine reaches them
    // solely from its own feature-checked kernels.
    unsafe fn splat(x: u32) -> Self;
    /// Unaligned load of one register's worth of words.
    // SAFETY: as above, and `p` must be valid for reading that many words.
    unsafe fn load(p: *const u32) -> Self;
    // SAFETY: as above.
    unsafe fn add(self, o: Self) -> Self;
    // SAFETY: as above.
    unsafe fn xor(self, o: Self) -> Self;
    /// Rotate every lane left by `L` bits; `R` must be `32 - L` (engines
    /// without a vector rotate shift both ways, and `32 - L` is not a legal
    /// const expression in an immediate position).
    // SAFETY: as above.
    unsafe fn rotl<const L: i32, const R: i32>(self) -> Self;
    /// `(b & c) | (!b & d)`.
    // SAFETY: as above.
    unsafe fn ch(b: Self, c: Self, d: Self) -> Self;
    /// `(b & c) | (b & d) | (c & d)`.
    // SAFETY: as above.
    unsafe fn maj(b: Self, c: Self, d: Self) -> Self;
    /// `b ^ c ^ d`.
    // SAFETY: as above.
    #[inline(always)]
    unsafe fn parity(b: Self, c: Self, d: Self) -> Self {
        b.xor(c).xor(d)
    }
}

/// Fold one block per lane (`w`, big-endian words, transposed) into the
/// chaining values `s`: the 80 rounds and the feed-forward.
// SAFETY: register-only; callable wherever `V`'s operations are (see
// [`Lane`]).
#[inline(always)]
#[allow(unused_assignments)] // the last three schedule words are written and never read
pub(super) unsafe fn compress<V: Lane>(s: [V; 5], mut w: [V; 16]) -> [V; 5] {
    let [mut a, mut b, mut c, mut d, mut e] = s;
    macro_rules! round {
        ($t:expr, $f:ident, $k:expr) => {{
            let wt = if $t < 16 {
                w[$t & 15]
            } else {
                // rolling schedule: w[t] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16])
                let x = w[($t - 3) & 15]
                    .xor(w[($t - 8) & 15])
                    .xor(w[($t - 14) & 15].xor(w[$t & 15]))
                    .rotl::<1, 31>();
                w[$t & 15] = x;
                x
            };
            // k + w[t] first: off the a → a dependency chain, and a
            // constant when the schedule word is one
            let tmp = a
                .rotl::<5, 27>()
                .add(V::$f(b, c, d))
                .add(e)
                .add(V::splat($k).add(wt));
            e = d;
            d = c;
            c = b.rotl::<30, 2>();
            b = a;
            a = tmp;
        }};
    }
    macro_rules! twenty_rounds {
        ($t:expr, $f:ident, $k:expr) => {
            round!($t, $f, $k);
            round!($t + 1, $f, $k);
            round!($t + 2, $f, $k);
            round!($t + 3, $f, $k);
            round!($t + 4, $f, $k);
            round!($t + 5, $f, $k);
            round!($t + 6, $f, $k);
            round!($t + 7, $f, $k);
            round!($t + 8, $f, $k);
            round!($t + 9, $f, $k);
            round!($t + 10, $f, $k);
            round!($t + 11, $f, $k);
            round!($t + 12, $f, $k);
            round!($t + 13, $f, $k);
            round!($t + 14, $f, $k);
            round!($t + 15, $f, $k);
            round!($t + 16, $f, $k);
            round!($t + 17, $f, $k);
            round!($t + 18, $f, $k);
            round!($t + 19, $f, $k);
        };
    }
    twenty_rounds!(0, ch, 0x5A82_7999);
    twenty_rounds!(20, parity, 0x6ED9_EBA1);
    twenty_rounds!(40, maj, 0x8F1B_BCDC);
    twenty_rounds!(60, parity, 0xCA62_C1D6);
    [
        a.add(s[0]),
        b.add(s[1]),
        c.add(s[2]),
        d.add(s[3]),
        e.add(s[4]),
    ]
}

/// HMAC-SHA1 of one 8-byte nonce per lane, from the key midstates `inner`
/// and `outer`: chaining words 0 and 1 of the MAC (its `u64` prefix).
/// `w0`/`w1` are the nonce's two big-endian words.
///
/// Both hashes are one finishing block each, and all of either block but
/// the nonce (resp. the inner digest) is padding: those words are
/// constants here, so the schedule terms they feed fold away, and the
/// inner digest goes from one compression to the next in registers.
// SAFETY: callable wherever `V`'s operations are (see [`Lane`]); the loads
// read one register (≤ `MAX_LANES` words) from the start of each row.
#[inline(always)]
pub(super) unsafe fn hmac_nonce<V: Lane>(
    inner: &LaneStates,
    outer: &LaneStates,
    w0: V,
    w1: V,
) -> (V, V) {
    // the engine's lanes are the first words of a row's `MAX_LANES`
    let rows = |states: &LaneStates| core::array::from_fn(|w| V::load(states[w].as_ptr()));
    let zero = V::splat(0);
    let end = V::splat(0x8000_0000);
    // inner: ipad block ‖ nonce ‖ 0x80 ‖ zeros ‖ bitlen(64 + 8)
    let mut w = [zero; 16];
    (w[0], w[1], w[2], w[15]) = (w0, w1, end, V::splat((64 + 8) * 8));
    let digest = compress(rows(inner), w);
    // outer: opad block ‖ inner digest ‖ 0x80 ‖ zeros ‖ bitlen(64 + 20)
    let mut w = [zero; 16];
    w[..5].copy_from_slice(&digest);
    (w[5], w[15]) = (end, V::splat((64 + 20) * 8));
    let [a, b, ..] = compress(rows(outer), w);
    (a, b)
}

/// Big-endian word `i` of a message block.
#[inline(always)]
pub(super) fn be_word(block: &[u8; 64], i: usize) -> u32 {
    u32::from_be_bytes([
        block[i * 4],
        block[i * 4 + 1],
        block[i * 4 + 2],
        block[i * 4 + 3],
    ])
}
