//! Pseudorandom permutation via a Feistel network over HMAC-SHA1.
//!
//! The PPS primitives (§5.4.1) include a pseudorandom permutation `E_K`,
//! which the thesis instantiates with AES-128 (its Dictionary keyword
//! scheme, §5.5.2, shuffles the dictionary with it). AES is unavailable in
//! the offline crate set, so we use the classic Luby–Rackoff result: a
//! 4-round Feistel network with pseudorandom round functions is a strong
//! pseudorandom permutation. Rounds use independent HMAC-SHA1 PRFs derived
//! from the key.
//!
//! The permutation acts on a configurable domain `[0, 2^bits)` with even
//! `bits ≤ 62`. To permute an arbitrary-size dictionary of `n` entries we use
//! cycle walking over the smallest even-bit domain ≥ n — the standard
//! technique for format-preserving permutations.

use crate::prf::{HmacPrf, Prf};

/// A keyed pseudorandom permutation over `[0, n)`.
pub struct FeistelPrp {
    rounds: Vec<HmacPrf>,
    half_bits: u32,
    domain_pow2: u64,
    n: u64,
}

const ROUNDS: usize = 4;

impl FeistelPrp {
    /// Build a PRP over `[0, n)` keyed by `key`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > 2^62`.
    pub fn new(key: &[u8], n: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(n <= 1 << 62, "domain too large");
        let root = HmacPrf::new(key);
        // smallest even bit width whose 2^bits >= n (min 2 so halves exist)
        let mut bits = 64 - (n - 1).leading_zeros();
        if bits < 2 {
            bits = 2;
        }
        if bits % 2 == 1 {
            bits += 1;
        }
        let rounds = (0..ROUNDS)
            .map(|i| root.derive(format!("feistel:{i}").as_bytes()))
            .collect();
        FeistelPrp {
            rounds,
            half_bits: bits / 2,
            domain_pow2: 1u64 << bits,
            n,
        }
    }

    /// Domain size `n`.
    pub fn domain(&self) -> u64 {
        self.n
    }

    fn round(&self, i: usize, half: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        self.rounds[i].eval_u64(&half.to_be_bytes()) & mask
    }

    fn permute_pow2(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut l = x >> self.half_bits;
        let mut r = x & mask;
        for i in 0..ROUNDS {
            let nl = r;
            let nr = l ^ self.round(i, r);
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    fn invert_pow2(&self, y: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut l = y >> self.half_bits;
        let mut r = y & mask;
        for i in (0..ROUNDS).rev() {
            let pr = l;
            let pl = r ^ self.round(i, l);
            l = pl;
            r = pr;
        }
        (l << self.half_bits) | r
    }

    /// Forward permutation: `E_K(x)` for `x < n`.
    ///
    /// Cycle-walks until the image lands inside `[0, n)`; expected iterations
    /// are `2^bits / n ≤ 4`.
    ///
    /// # Panics
    /// Panics if `x >= n`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.n, "input {x} outside domain {}", self.n);
        let mut y = self.permute_pow2(x);
        while y >= self.n {
            y = self.permute_pow2(y);
        }
        y
    }

    /// Inverse permutation: `E_K^{-1}(y)` for `y < n`.
    ///
    /// # Panics
    /// Panics if `y >= n`.
    pub fn invert(&self, y: u64) -> u64 {
        assert!(y < self.n, "input {y} outside domain {}", self.n);
        let mut x = self.invert_pow2(y);
        while x >= self.n {
            x = self.invert_pow2(x);
        }
        x
    }

    /// Guaranteed-to-terminate check used in debug builds: the cycle walk is
    /// finite because `permute_pow2` is a bijection on `[0, 2^bits)`.
    #[doc(hidden)]
    pub fn pow2_domain(&self) -> u64 {
        self.domain_pow2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn is_bijection_small_domain() {
        for n in [1u64, 2, 3, 7, 16, 100, 257] {
            let prp = FeistelPrp::new(b"key", n);
            let images: HashSet<u64> = (0..n).map(|x| prp.permute(x)).collect();
            assert_eq!(images.len() as u64, n, "n={n}");
            assert!(images.iter().all(|&y| y < n), "n={n}");
        }
    }

    #[test]
    fn invert_roundtrip() {
        let prp = FeistelPrp::new(b"roundtrip", 1000);
        for x in 0..1000 {
            assert_eq!(prp.invert(prp.permute(x)), x);
        }
    }

    #[test]
    fn different_keys_different_permutations() {
        let a = FeistelPrp::new(b"k1", 4096);
        let b = FeistelPrp::new(b"k2", 4096);
        let same = (0..4096).filter(|&x| a.permute(x) == b.permute(x)).count();
        // expected collisions of two random permutations ≈ 1
        assert!(
            same < 32,
            "suspiciously similar permutations: {same} fixed agreements"
        );
    }

    #[test]
    fn not_identity() {
        let prp = FeistelPrp::new(b"id-check", 1 << 16);
        let fixed = (0..1u64 << 16).filter(|&x| prp.permute(x) == x).count();
        // E[#fixed points of a random permutation] = 1
        assert!(fixed < 16, "too many fixed points: {fixed}");
    }

    #[test]
    fn domain_one_trivial() {
        let prp = FeistelPrp::new(b"k", 1);
        assert_eq!(prp.permute(0), 0);
        assert_eq!(prp.invert(0), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_domain_rejected() {
        let prp = FeistelPrp::new(b"k", 10);
        let _ = prp.permute(10);
    }

    #[test]
    fn pow2_domain_covers_n() {
        let prp = FeistelPrp::new(b"k", 1000);
        assert!(prp.pow2_domain() >= prp.domain());
        assert!(prp.pow2_domain() <= 4 * prp.domain());
    }
}
