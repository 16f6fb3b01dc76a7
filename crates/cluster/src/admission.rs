//! SLO-driven admission control at the front-end door (§2.1).
//!
//! "When systems are overloaded it may be desirable to drop some queries
//! altogether to ensure the rest of the queries are executed." ROAR's
//! framing, after Brewer's harvest/yield: under overload the system sheds
//! **yield** (whole queries refused at the door, before any node works on
//! them) and never **harvest** (every admitted query still scans its full
//! window set).
//!
//! The rule is the simulator's predicted-completion test
//! (`roar-sim`'s `run_sim_yield`), ported to the live path through the one
//! shared implementation [`roar_dr::sched::predicted_completion`]: plan
//! the query, ask the front-end's [`roar_core::stats::ServerStats`] (the
//! same [`roar_dr::sched::FinishEstimator`] the scheduler just used) when
//! the slowest sub-query would finish, and shed the query when that
//! exceeds the current delay bound.
//!
//! [`SloConfig`] states the operator's contract — a target p99 and a
//! yield floor — and the [`AdmissionController`] auto-tunes around it off
//! *observed* quantiles: the delay bound tightens when the measured
//! admitted-query p99 creeps over the target (predictions are means, the
//! SLO is a tail), and relaxes back toward the target when there is
//! headroom. The same observations drive the §4.8.2 knob advice:
//! [`AdmissionController::recommended_hedge_delay`] (hedge at observed
//! p90) and [`AdmissionController::recommended_pq`] (over-partition when
//! the tail is out of SLO).
//!
//! Wire-up: [`crate::client::QueryBuilder::admission`] attaches a
//! controller to a query; the builder plans first, consults the
//! controller, and either dispatches or returns an already-resolved stream
//! whose [`crate::frontend::QueryOutput::admitted`] is `false`.

use parking_lot::Mutex;
use roar_util::percentile;
use std::collections::VecDeque;
use std::time::Duration;

/// Retained admitted-query latency samples (the quantile window).
const SAMPLES: usize = 512;
/// Sliding decision window for the yield floor.
const WINDOW: usize = 128;
/// Re-tune the bound after this many fresh observations.
const TUNE_EVERY: usize = 32;
/// The bound never tightens below this fraction of the target p99.
const BOUND_FLOOR: f64 = 0.05;

/// The operator's service-level contract for one admission door.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Target p99 end-to-end latency for **admitted** queries. Doubles as
    /// the initial predicted-delay bound.
    pub target_p99: Duration,
    /// Minimum recent admit fraction in `[0, 1]`: when shedding one more
    /// query would push the sliding-window yield below this floor, the
    /// query is admitted anyway (the operator prefers serving late to
    /// serving nothing). `0.0` — the default — disables the floor.
    pub yield_floor: f64,
    /// Auto-tune the delay bound off observed quantiles (default on).
    pub auto_tune: bool,
}

impl SloConfig {
    /// A contract with the given target p99, no yield floor, auto-tuning
    /// on.
    pub fn new(target_p99: Duration) -> Self {
        assert!(target_p99 > Duration::ZERO, "SLO target must be positive");
        SloConfig {
            target_p99,
            yield_floor: 0.0,
            auto_tune: true,
        }
    }

    /// Set the yield floor (clamped to `[0, 1]`).
    pub fn yield_floor(mut self, floor: f64) -> Self {
        self.yield_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Disable auto-tuning: the bound stays pinned at the target p99.
    pub fn manual(mut self) -> Self {
        self.auto_tune = false;
        self
    }
}

/// A point-in-time view of one controller's books.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionStats {
    /// Queries offered to the door.
    pub offered: u64,
    /// Queries admitted (dispatched).
    pub admitted: u64,
    /// Queries shed at the door.
    pub shed: u64,
    /// Brewer's yield: `admitted / offered` (1.0 when nothing offered).
    pub yield_frac: f64,
    /// The current predicted-delay bound, seconds.
    pub bound_s: f64,
    /// Observed p50 over recent admitted queries, if enough samples.
    pub observed_p50_s: Option<f64>,
    /// Observed p99 over recent admitted queries, if enough samples.
    pub observed_p99_s: Option<f64>,
}

struct Inner {
    /// Current admission bound on *predicted* delay, seconds.
    bound_s: f64,
    /// Recent admitted-query wall times, seconds.
    samples: VecDeque<f64>,
    /// Observations since the last tuning pass.
    since_tune: usize,
    /// Recent admit/shed decisions (the yield-floor window).
    window: VecDeque<bool>,
    offered: u64,
    admitted: u64,
    shed: u64,
}

/// The admission door: share one per cluster (behind an `Arc`) across
/// every client that should count against the same SLO.
pub struct AdmissionController {
    slo: SloConfig,
    inner: Mutex<Inner>,
}

impl AdmissionController {
    pub fn new(slo: SloConfig) -> Self {
        AdmissionController {
            slo,
            inner: Mutex::new(Inner {
                bound_s: slo.target_p99.as_secs_f64(),
                samples: VecDeque::with_capacity(SAMPLES),
                since_tune: 0,
                window: VecDeque::with_capacity(WINDOW),
                offered: 0,
                admitted: 0,
                shed: 0,
            }),
        }
    }

    /// The contract this door enforces.
    pub fn slo(&self) -> &SloConfig {
        &self.slo
    }

    /// The current predicted-delay bound.
    pub fn bound(&self) -> Duration {
        Duration::from_secs_f64(self.inner.lock().bound_s)
    }

    /// Admit or shed one planned query given its predicted delay (seconds
    /// from now to its slowest sub-query's estimated finish). Records the
    /// decision either way.
    pub fn decide(&self, predicted_delay_s: f64) -> bool {
        let mut g = self.inner.lock();
        g.offered += 1;
        let over = predicted_delay_s > g.bound_s || predicted_delay_s.is_nan();
        // the yield floor: shedding must not push the recent admit
        // fraction below the operator's floor
        let forced = over && self.slo.yield_floor > 0.0 && {
            let recent_admits = g.window.iter().filter(|&&a| a).count() as f64;
            recent_admits / (g.window.len() as f64 + 1.0) < self.slo.yield_floor
        };
        let admit = !over || forced;
        if g.window.len() == WINDOW {
            g.window.pop_front();
        }
        g.window.push_back(admit);
        if admit {
            g.admitted += 1;
        } else {
            g.shed += 1;
        }
        admit
    }

    /// Feed one admitted query's measured end-to-end latency back into the
    /// quantile window; every `TUNE_EVERY` observations the bound
    /// re-tunes (unless [`SloConfig::manual`]): proportionally tighter
    /// when the observed p99 is over target, gently back toward the target
    /// when under.
    pub fn observe(&self, wall_s: f64) {
        if !wall_s.is_finite() || wall_s < 0.0 {
            return;
        }
        let mut g = self.inner.lock();
        if g.samples.len() == SAMPLES {
            g.samples.pop_front();
        }
        g.samples.push_back(wall_s);
        g.since_tune += 1;
        if !self.slo.auto_tune || g.since_tune < TUNE_EVERY || g.samples.len() < TUNE_EVERY {
            return;
        }
        g.since_tune = 0;
        let target = self.slo.target_p99.as_secs_f64();
        let p99 = sorted_quantile(&g.samples, 99.0);
        if p99 > target {
            // multiplicative decrease proportional to the overshoot,
            // bounded so one noisy window cannot slam the door shut
            let shrink = (target / p99).max(0.5);
            g.bound_s = (g.bound_s * shrink).max(target * BOUND_FLOOR);
        } else if p99 < target * 0.7 {
            // headroom: relax back toward (never past) the target
            g.bound_s = (g.bound_s * 1.15).min(target);
        }
    }

    /// Observed quantile over recent admitted queries, seconds. `None`
    /// until enough samples have landed to make a tail meaningful.
    pub fn observed_quantile(&self, pct: f64) -> Option<f64> {
        let g = self.inner.lock();
        if g.samples.len() < TUNE_EVERY {
            return None;
        }
        Some(sorted_quantile(&g.samples, pct))
    }

    /// Hedge-delay advice: the observed p90 of admitted-query latency
    /// (floored at 1 ms). Hedging a sub-query that has outlived p90 cuts
    /// the straggler tail without meaningful duplicate fan-out.
    pub fn recommended_hedge_delay(&self) -> Option<Duration> {
        self.observed_quantile(90.0)
            .map(|p90| Duration::from_secs_f64(p90.max(1e-3)))
    }

    /// Over-partitioning advice (§4.8.2, Fig 7.7): when the observed p99
    /// is out of SLO and the ring has headroom, split each query 1.5×
    /// wider so the per-node service quantum a straggler can hide behind
    /// shrinks. `None` while in SLO (or without enough samples).
    pub fn recommended_pq(&self, p: usize, n: usize) -> Option<usize> {
        let p99 = self.observed_quantile(99.0)?;
        if p99 > self.slo.target_p99.as_secs_f64() && p < n {
            Some((p + p / 2).clamp(p + 1, n))
        } else {
            None
        }
    }

    /// Snapshot the books.
    pub fn snapshot(&self) -> AdmissionStats {
        let g = self.inner.lock();
        let (p50, p99) = if g.samples.len() >= TUNE_EVERY {
            (
                Some(sorted_quantile(&g.samples, 50.0)),
                Some(sorted_quantile(&g.samples, 99.0)),
            )
        } else {
            (None, None)
        };
        AdmissionStats {
            offered: g.offered,
            admitted: g.admitted,
            shed: g.shed,
            yield_frac: if g.offered == 0 {
                1.0
            } else {
                g.admitted as f64 / g.offered as f64
            },
            bound_s: g.bound_s,
            observed_p50_s: p50,
            observed_p99_s: p99,
        }
    }
}

/// Percentile over an unsorted sample window.
fn sorted_quantile(samples: &VecDeque<f64>, pct: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile(&v, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(target_ms: u64) -> AdmissionController {
        AdmissionController::new(SloConfig::new(Duration::from_millis(target_ms)))
    }

    #[test]
    fn sheds_only_over_bound() {
        let c = ctrl(100);
        assert!(c.decide(0.05));
        assert!(c.decide(0.1)); // exactly at the bound is admitted
        assert!(!c.decide(0.11));
        assert!(!c.decide(f64::NAN), "NaN prediction must shed, not admit");
        let s = c.snapshot();
        assert_eq!((s.offered, s.admitted, s.shed), (4, 2, 2));
        assert!((s.yield_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn yield_floor_one_admits_everything() {
        let c =
            AdmissionController::new(SloConfig::new(Duration::from_millis(10)).yield_floor(1.0));
        for i in 0..200 {
            assert!(c.decide(10.0 + i as f64), "floor 1.0 must force admit");
        }
        assert_eq!(c.snapshot().shed, 0);
    }

    #[test]
    fn yield_floor_keeps_minimum_service() {
        let floor = 0.25;
        let c =
            AdmissionController::new(SloConfig::new(Duration::from_millis(10)).yield_floor(floor));
        // hopeless predictions forever: the floor must still admit ~25%
        for _ in 0..400 {
            c.decide(5.0);
        }
        let s = c.snapshot();
        assert!(
            s.yield_frac >= floor - 0.02,
            "floor violated: {}",
            s.yield_frac
        );
        assert!(s.yield_frac < 0.5, "floor must not admit everything");
    }

    #[test]
    fn auto_tune_tightens_on_overshoot_and_relaxes_with_headroom() {
        let c = ctrl(100);
        let target = 0.1;
        // observed p99 4x the target: bound must tighten below the target
        for _ in 0..2 * TUNE_EVERY {
            c.observe(0.4);
        }
        let tightened = c.snapshot().bound_s;
        assert!(tightened < target, "bound should tighten: {tightened}");
        assert!(tightened >= target * BOUND_FLOOR);
        // fast completions: bound relaxes back toward (never past) target
        for _ in 0..40 * TUNE_EVERY {
            c.observe(0.001);
        }
        let relaxed = c.snapshot().bound_s;
        assert!(relaxed > tightened, "bound should relax: {relaxed}");
        assert!(relaxed <= target + 1e-12);
    }

    #[test]
    fn manual_mode_pins_the_bound() {
        let c = AdmissionController::new(SloConfig::new(Duration::from_millis(100)).manual());
        for _ in 0..4 * TUNE_EVERY {
            c.observe(9.9);
        }
        assert!((c.snapshot().bound_s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn knob_advice_needs_samples_then_tracks_slo() {
        let c = ctrl(100);
        assert!(c.recommended_hedge_delay().is_none());
        assert!(c.recommended_pq(4, 16).is_none());
        for _ in 0..TUNE_EVERY {
            c.observe(0.5);
        }
        let hedge = c.recommended_hedge_delay().expect("enough samples");
        assert!((hedge.as_secs_f64() - 0.5).abs() < 0.05);
        // out of SLO: widen pq
        assert_eq!(c.recommended_pq(4, 16), Some(6));
        assert_eq!(c.recommended_pq(16, 16), None, "no headroom");
        // in SLO: no advice
        let calm = ctrl(100);
        for _ in 0..TUNE_EVERY {
            calm.observe(0.01);
        }
        assert_eq!(calm.recommended_pq(4, 16), None);
    }
}
