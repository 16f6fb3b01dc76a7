//! Descriptive statistics over `f64` samples.
//!
//! Used throughout the evaluation harness: mean query delay, delay
//! percentiles (Fig 7.8's delay distribution), standard deviations for the
//! heterogeneity experiments, and load-imbalance summaries.

use crate::Json;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `0.0` for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Linear-interpolated percentile, `q` in `[0, 100]`.
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// Returns `0.0` for an empty slice. NaN samples are rejected by debug
/// assertion — delay series must never contain NaN.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    debug_assert!(
        v.iter().all(|x| !x.is_nan()),
        "NaN sample in percentile input"
    );
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, q)
}

/// Percentile over an already-sorted slice (ascending).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One-pass summary of a sample set.
///
/// `Summary::from` sorts once and derives every statistic the reproduction
/// harness prints, so experiment code never recomputes percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `xs`. Empty input produces an all-zero summary.
    pub fn from(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Summary {
            count: v.len(),
            mean: mean(&v),
            stddev: stddev(&v),
            min: v[0],
            p50: percentile_sorted(&v, 50.0),
            p90: percentile_sorted(&v, 90.0),
            p99: percentile_sorted(&v, 99.0),
            max: v[v.len() - 1],
        }
    }

    /// The latency columns of a benchmark artifact: every statistic as a
    /// `<name>_<unit>` member (`mean_ms`, `p99_ms`, …), three decimals —
    /// microsecond resolution at the `ms` unit the benches report in.
    pub fn to_json(&self, unit: &str) -> Json {
        let columns = [
            ("mean", self.mean),
            ("stddev", self.stddev),
            ("min", self.min),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
            ("max", self.max),
        ];
        Json::obj(
            columns
                .into_iter()
                .map(|(name, v)| (format!("{name}_{unit}"), Json::rounded(v, 3))),
        )
    }
}

/// Load imbalance as defined by the paper (Definition 3):
/// `max_i(load_i) / mean(load)`. Perfectly even assignment yields 1.0; all
/// items on one of `n` servers yields `n`. Returns 1.0 when the total load is
/// zero (an idle system is, vacuously, balanced).
pub fn load_imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let avg = mean(loads);
    if avg <= 0.0 {
        return 1.0;
    }
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    max / avg
}

/// Empirical CDF points `(value, fraction ≤ value)` for plotting delay
/// distributions (Fig 7.8). Produces at most `points` evenly spaced entries.
pub fn ecdf(xs: &[f64], points: usize) -> Vec<(f64, f64)> {
    if xs.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let step = (n.max(points) / points).max(1);
    let mut out = Vec::with_capacity(points + 1);
    let mut i = 0;
    while i < n {
        out.push((v[i], (i + 1) as f64 / n as f64));
        i += step;
    }
    if out.last().map(|&(x, _)| x) != Some(v[n - 1]) {
        out.push((v[n - 1], 1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stddev_constant_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // population stddev of {2,4,4,4,5,5,7,9} is exactly 2
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_out_of_range_q() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 300.0), 2.0);
    }

    #[test]
    fn summary_consistency() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p90 > s.p50 && s.p99 > s.p90);
    }

    #[test]
    fn summary_json_columns_carry_the_unit() {
        let s = Summary::from(&[1.0, 2.0, 3.0004]);
        let j = s.to_json("ms");
        assert_eq!(j.get("p50_ms").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("max_ms").and_then(Json::as_f64), Some(3.0));
        for key in ["mean_ms", "stddev_ms", "min_ms", "p90_ms", "p99_ms"] {
            assert!(j.get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn load_imbalance_even() {
        assert!((load_imbalance(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_one_server() {
        // all items on one of 4 servers => imbalance 4 (Definition 3)
        assert!((load_imbalance(&[8.0, 0.0, 0.0, 0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_idle_system() {
        assert_eq!(load_imbalance(&[0.0, 0.0]), 1.0);
        assert_eq!(load_imbalance(&[]), 1.0);
    }

    #[test]
    fn ecdf_reaches_one() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = ecdf(&xs, 3);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, 5.0);
        // monotone in both coordinates
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
