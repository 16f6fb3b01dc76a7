//! Bloom filter with the paper's PPS parameterisation.
//!
//! Goh's keyword scheme (§5.5.2) stores each document's keywords in a Bloom
//! filter. The thesis picks a 1-in-100,000 false-positive rate, which gives
//! r = 17 hash functions and ~25 bits per element; for 50 keywords that is a
//! ~160-byte filter. [`BloomParams::for_fp_rate`] performs exactly that
//! sizing computation.

/// Sizing parameters for a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomParams {
    /// Number of bits `m`.
    pub bits: usize,
    /// Number of hash functions `r` (the paper's letter for it).
    pub hashes: usize,
}

impl BloomParams {
    /// Optimal parameters for `n_elems` elements at false-positive rate `fp`.
    ///
    /// `m = -n·ln(fp)/ln(2)^2`, `r = m/n·ln(2)` — the textbook optimum the
    /// thesis quotes ("the optimal value of r is 17, we would use 25 bits for
    /// each element" for fp = 1e-5).
    pub fn for_fp_rate(n_elems: usize, fp: f64) -> Self {
        assert!(n_elems > 0, "need at least one element");
        assert!(fp > 0.0 && fp < 1.0, "fp must be in (0,1), got {fp}");
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n_elems as f64) * fp.ln() / (ln2 * ln2)).ceil().max(8.0) as usize;
        let r = ((m as f64 / n_elems as f64) * ln2).round().max(1.0) as usize;
        BloomParams { bits: m, hashes: r }
    }

    /// Expected false-positive rate with these parameters at `n_elems` load.
    pub fn expected_fp(&self, n_elems: usize) -> f64 {
        let exp = -((self.hashes * n_elems) as f64) / self.bits as f64;
        (1.0 - exp.exp()).powi(self.hashes as i32)
    }
}

/// A plain bit-array Bloom filter.
///
/// Deliberately decoupled from hashing: the PPS scheme computes the bit
/// positions itself (they are keyed PRF outputs, the "codewords" of §5.5.2),
/// so the filter only stores and tests bit positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
}

impl BloomFilter {
    pub fn new(n_bits: usize) -> Self {
        assert!(n_bits > 0, "empty filter");
        BloomFilter {
            bits: vec![0u64; n_bits.div_ceil(64)],
            n_bits,
        }
    }

    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Set the bit for a position (positions are reduced mod `n_bits`).
    pub fn set(&mut self, pos: u64) {
        let i = (pos % self.n_bits as u64) as usize;
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Test a position.
    pub fn get(&self, pos: u64) -> bool {
        let i = (pos % self.n_bits as u64) as usize;
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits — used to pad filters to a constant population so
    /// the server cannot count a document's keywords (§5.5.2: "we can add
    /// random bits to the BF to simulate the proper number of words").
    pub fn popcount(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The bit array as 64-bit words, bit `i` at `words[i / 64] >> (i % 64)`.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Serialise to bytes (little-endian words, trailing bits zero).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() * 8);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialise from [`BloomFilter::to_bytes`] output.
    ///
    /// Returns `None` when `n_bits` is zero (as [`BloomFilter::new`]
    /// refuses it: positions are reduced modulo `n_bits`) or the byte
    /// length does not match `n_bits`.
    pub fn from_bytes(bytes: &[u8], n_bits: usize) -> Option<Self> {
        let words = n_bits.div_ceil(64);
        if n_bits == 0 || bytes.len() != words * 8 {
            return None;
        }
        let bits = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(BloomFilter { bits, n_bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn paper_parameterisation() {
        // fp = 1e-5 → r = 17, ~24-25 bits per element (thesis §5.5.2)
        let p = BloomParams::for_fp_rate(50, 1e-5);
        assert_eq!(p.hashes, 17, "paper says 17 hash functions");
        let bits_per_elem = p.bits as f64 / 50.0;
        assert!(
            (23.0..26.0).contains(&bits_per_elem),
            "bits/elem = {bits_per_elem}"
        );
    }

    #[test]
    fn expected_fp_near_target() {
        let p = BloomParams::for_fp_rate(100, 1e-3);
        let fp = p.expected_fp(100);
        assert!(fp < 2e-3, "fp = {fp}");
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = BloomFilter::new(1000);
        for pos in [0u64, 1, 63, 64, 999, 12345] {
            f.set(pos);
        }
        for pos in [0u64, 1, 63, 64, 999, 12345] {
            assert!(f.get(pos));
        }
    }

    #[test]
    fn empty_filter_all_clear() {
        let f = BloomFilter::new(128);
        for pos in 0..128u64 {
            assert!(!f.get(pos));
        }
        assert_eq!(f.popcount(), 0);
    }

    #[test]
    fn positions_wrap_modulo() {
        let mut f = BloomFilter::new(10);
        f.set(13); // lands on bit 3
        assert!(f.get(3));
        assert!(f.get(13));
        assert!(!f.get(4));
    }

    #[test]
    fn measured_fp_rate_within_bound() {
        // insert 50 elements into a filter sized for 1e-3, probe 20k misses
        let params = BloomParams::for_fp_rate(50, 1e-3);
        let mut f = BloomFilter::new(params.bits);
        let mut rng = roar_util_test_rng();
        let insert_positions = |f: &mut BloomFilter, elem: u64| {
            for h in 0..params.hashes as u64 {
                // simple double hashing for the test (scheme uses PRFs)
                let pos = elem
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(h.wrapping_mul(0xC2B2AE3D27D4EB4F))
                    .rotate_left((h % 63) as u32);
                f.set(pos);
            }
        };
        for e in 0..50u64 {
            insert_positions(&mut f, e);
        }
        let mut fps = 0usize;
        let probes = 20_000;
        for _ in 0..probes {
            let e: u64 = rng.gen_range(1_000_000..u64::MAX);
            let hit = (0..params.hashes as u64).all(|h| {
                let pos = e
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(h.wrapping_mul(0xC2B2AE3D27D4EB4F))
                    .rotate_left((h % 63) as u32);
                f.get(pos)
            });
            if hit {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        assert!(rate < 0.01, "measured fp rate {rate}");
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut f = BloomFilter::new(300);
        for pos in [5u64, 77, 200, 299] {
            f.set(pos);
        }
        let bytes = f.to_bytes();
        let g = BloomFilter::from_bytes(&bytes, 300).unwrap();
        assert_eq!(f, g);
        assert!(
            BloomFilter::from_bytes(&bytes, 301).is_none()
                || 301usize.div_ceil(64) == 300usize.div_ceil(64)
        );
        assert!(BloomFilter::from_bytes(&bytes[1..], 300).is_none());
        // a zero-bit filter would divide by zero on its first probe
        assert!(BloomFilter::from_bytes(&[], 0).is_none());
    }

    fn roar_util_test_rng() -> impl Rng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(99)
    }
}
