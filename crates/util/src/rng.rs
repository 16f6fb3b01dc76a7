//! Deterministic RNG construction.
//!
//! Every experiment in the reproduction harness is seeded so the tables
//! `repro` renders under `results/` are exactly re-derivable. We use `rand`'s `StdRng` seeded
//! from a 64-bit value expanded with SplitMix64 — the standard way to turn a
//! small seed into a full 32-byte seed without bias.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 step — used to expand a u64 seed into 32 bytes.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Build a deterministic [`StdRng`] from a 64-bit seed.
pub fn det_rng(seed: u64) -> StdRng {
    let mut state = seed;
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    StdRng::from_seed(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = det_rng(42);
        let mut b = det_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = det_rng(1);
        let mut b = det_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_usable() {
        let mut r = det_rng(0);
        // must not be a degenerate all-zero stream
        let xs: Vec<u64> = (0..4).map(|_| r.gen()).collect();
        assert!(xs.iter().any(|&x| x != 0));
    }
}
