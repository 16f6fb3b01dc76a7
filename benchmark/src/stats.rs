//! Sample statistics the benchmark reports: percentiles per round, the
//! median over rounds, and the quartile spread the A/A harness judges by.

/// Linear-interpolated percentile (0..=100) of unsorted samples; `0.0`
/// when empty.
pub use roar_util::percentile;

/// Median; `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Every timed end-to-end metric is the median of a per-round statistic:
/// one noisy-neighbour burst moves one round, not the result. Rounds with
/// no samples are left out (a round in which nothing completed has no
/// percentile; its zero *rate* is the caller's to include).
pub fn median_of_rounds<R: AsRef<[f64]>>(rounds: &[R], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(AsRef::as_ref)
        .filter(|r| !r.is_empty())
        .map(stat)
        .collect();
    median(&per_round)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method) — the
/// rule the acceptance check applies to ten runs of one metric.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a over 64-bit words — the input fingerprint two commits compare to
/// show they were handed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_empty() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), 4.0);
        assert!((percentile(&[4.0, 1.0, 3.0, 2.0], 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 90.0) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        // five quiet rounds around 10 ms and one burst round at 90 ms: the
        // result stays with the quiet rounds
        let mut rounds: Vec<Vec<f64>> = (0..5).map(|i| vec![10.0 + i as f64 * 0.1; 20]).collect();
        rounds.push(vec![90.0; 20]);
        let m = median_of_rounds(&rounds, |r| percentile(r, 50.0));
        assert!((10.0..10.5).contains(&m), "median of rounds {m}");
        // a pooled p90 over the same samples would sit in the burst
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        assert!(percentile(&pooled, 90.0) > 80.0);
    }

    #[test]
    fn median_of_rounds_skips_empty_rounds() {
        let rounds = vec![vec![], vec![2.0], vec![4.0], vec![]];
        assert_eq!(median_of_rounds(&rounds, |r| percentile(r, 50.0)), 3.0);
        let none: [Vec<f64>; 0] = [];
        assert_eq!(median_of_rounds(&none, |r| percentile(r, 50.0)), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let mut a = Fnv64::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv64::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::default();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
    }
}
