//! Diurnal load patterns (§4.9.1).
//!
//! "Most online services see fluctuating load with diurnal and weekly
//! patterns. The ratio between the mean load in different parts of the day
//! or week is 2× to 4×." The fig7_5 experiment drives ROAR's p-adaptation
//! with this pattern, and the §4.9.1 experiment's ring on/off policy
//! tracks it.

/// A sinusoidal day/night load pattern plus optional step events (flash
/// crowds).
///
/// The sinusoid interpolates in log-space between `mean/√swing` and
/// `mean·√swing`, so the peak-to-trough ratio is exactly `swing`; each
/// surge multiplies the rate inside its `[start, end)` window.
///
/// # Examples
///
/// ```
/// use roar_workload::DiurnalPattern;
///
/// let day = DiurnalPattern::new(100.0, 4.0, 86_400.0) // mean, swing, period
///     .with_surge(3_600.0, 7_200.0, 3.0);             // 3x crowd in hour two
/// assert!((day.peak() - 200.0).abs() < 1e-9);   // 100·√4
/// assert!((day.trough() - 50.0).abs() < 1e-9);  // 100/√4
/// assert!(day.rate_at(5_000.0) > day.rate_at(0.0)); // surge in effect
/// ```
#[derive(Debug, Clone)]
pub struct DiurnalPattern {
    /// Mean arrival rate, queries/second.
    pub mean_rate: f64,
    /// Peak-to-trough ratio (paper: 2–4).
    pub swing: f64,
    /// Period of one "day" in seconds (compressed for experiments).
    pub period_s: f64,
    /// `(start_s, end_s, multiplier)` flash-crowd events.
    pub surges: Vec<(f64, f64, f64)>,
}

impl DiurnalPattern {
    pub fn new(mean_rate: f64, swing: f64, period_s: f64) -> Self {
        assert!(mean_rate > 0.0 && swing >= 1.0 && period_s > 0.0);
        DiurnalPattern {
            mean_rate,
            swing,
            period_s,
            surges: Vec::new(),
        }
    }

    /// Add a flash crowd: rate multiplied by `mult` during `[start, end)`.
    pub fn with_surge(mut self, start_s: f64, end_s: f64, mult: f64) -> Self {
        assert!(end_s > start_s && mult > 0.0);
        self.surges.push((start_s, end_s, mult));
        self
    }

    /// Arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        // sinusoid between mean/sqrt(swing) and mean*sqrt(swing) so the
        // peak/trough ratio is exactly `swing`
        let amp = self.swing.sqrt();
        let phase = (2.0 * std::f64::consts::PI * t / self.period_s).sin();
        // log-space interpolation keeps the ratio exact
        let base = self.mean_rate * amp.powf(phase);
        let surge: f64 = self
            .surges
            .iter()
            .filter(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, m)| m)
            .product();
        base * surge
    }

    /// Peak rate over one period (ignoring surges).
    pub fn peak(&self) -> f64 {
        self.mean_rate * self.swing.sqrt()
    }

    /// Trough rate over one period (ignoring surges).
    pub fn trough(&self) -> f64 {
        self.mean_rate / self.swing.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swing_ratio_exact() {
        let p = DiurnalPattern::new(100.0, 4.0, 86_400.0);
        assert!((p.peak() / p.trough() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rate_oscillates_within_bounds() {
        let p = DiurnalPattern::new(10.0, 3.0, 100.0);
        for i in 0..200 {
            let r = p.rate_at(i as f64);
            assert!(r >= p.trough() - 1e-9 && r <= p.peak() + 1e-9, "t={i}: {r}");
        }
    }

    #[test]
    fn surge_multiplies() {
        let p = DiurnalPattern::new(10.0, 1.0, 100.0).with_surge(50.0, 60.0, 5.0);
        assert!((p.rate_at(55.0) - 50.0).abs() < 1e-9);
        assert!((p.rate_at(45.0) - 10.0).abs() < 1e-9);
        assert!((p.rate_at(60.0) - 10.0).abs() < 1e-9, "end exclusive");
    }

    #[test]
    fn flat_pattern_when_swing_one() {
        let p = DiurnalPattern::new(7.0, 1.0, 10.0);
        for i in 0..20 {
            assert!((p.rate_at(i as f64) - 7.0).abs() < 1e-9);
        }
    }
}
