//! The congestion-collapse comparison (`BENCH_congestion.json`):
//! fixed-RTO UDP vs `ccudp` as cross traffic ramps toward saturation.
//!
//! §4.8.4 prescribes UDP with a short app-level RTO and immediately
//! caveats it: a production deployment must "avoid congestion collapse in
//! pathological cases". This bench *builds* the pathological case. Every
//! node's replies (and acks) cross one shared bottleneck queue
//! ([`CrossTrafficSpec`]) in front of the front-end's fan-in port, and a
//! competing background flow is ramped from 0% to 95% of the bottleneck's
//! drain rate. What remains for the scatter-gather replies is the residual
//! capacity — and how a transport spends it is the whole story:
//!
//! * `udp_fixed_rto` re-offers every unanswered reply on a fixed 5 ms
//!   timer, regardless of how congested the queue is. Once the backlog's
//!   queueing delay exceeds its RTO — which one fan-in burst plus cross
//!   traffic achieves — every reply in flight is re-polled ~`delay / 5 ms`
//!   times before its first copy even arrives, each re-offer enqueueing a
//!   duplicate that burns drain capacity everyone needed (Floyd & Fall's
//!   collapse-from-duplicates). The backlog feeds on itself, the queue
//!   tail-drops, and goodput collapses while latency rides the full
//!   queue.
//! * `ccudp` samples delivered RTTs — queueing delay included — into its
//!   SRTT, so the adaptive RTO automatically rises above the backlog;
//!   timeout-detected losses back it off exponentially and halve the
//!   in-flight window, and pacing spreads what it does send. Its offered
//!   load *decays to fit the residual capacity*: almost no duplicates,
//!   the queue serves useful traffic, goodput holds.
//!
//! Goodput is measured as scanned records per wall second (failed windows
//! scan nothing — collapse shows up as goodput, not just latency, exactly
//! the degradation-under-overload lens of Badue et al.'s capacity
//! planning work). The committed headline: at the top of the ramp, ccudp
//! sustains goodput and beats the fixed-RTO p99. `repro bench_congestion
//! --quick` re-checks that inequality as a CI gate.

use crate::Scale;
use rand::Rng;
use roar_cluster::{
    spawn_cluster, AdaptiveConfig, ClusterConfig, CrossTrafficSpec, DatagramConfig, FixedRto,
    LossSpec, QueryBody, SchedOpts, TransportSpec,
};
use roar_util::{det_rng, percentile};
use std::time::{Duration, Instant};

/// The fixed app-level RTO of the §4.8.4 UDP path.
pub const FIXED_RTO: Duration = Duration::from_millis(5);

/// Bottleneck drain rate (datagrams/s): small enough that a handful of
/// hammering windows saturates it, the loopback stand-in for the
/// front-end's oversubscribed fan-in port.
pub const DRAIN_DGRAMS_PER_S: f64 = 600.0;

/// Bottleneck queue capacity (datagrams): ~107 ms of backlog at the drain
/// rate — deep enough that a fixed 5 ms timer re-offers each reply ~20
/// times before the first copy delivers.
pub const QUEUE_CAP: f64 = 64.0;

/// One measurement at one offered cross-traffic level.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Cross traffic as a fraction of the drain rate.
    pub cross_frac: f64,
    pub queries: usize,
    /// Queries that achieved full harvest.
    pub completed: usize,
    pub mean_harvest: f64,
    /// Scanned records per wall second across the whole point — the
    /// goodput axis (lost windows scan nothing).
    pub goodput_records_per_s: f64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Datagrams the shared bottleneck forwarded / tail-dropped during
    /// the measurement (admission pressure, for the report).
    pub bottleneck_admitted: u64,
    pub bottleneck_dropped: u64,
}

/// One transport across the whole ramp.
#[derive(Debug, Clone)]
pub struct ModeRun {
    pub name: &'static str,
    pub points: Vec<PointResult>,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct BenchCongestion {
    pub nodes: usize,
    pub p: usize,
    pub ids: usize,
    pub queries_per_point: usize,
    pub cross_fracs: Vec<f64>,
    pub modes: Vec<ModeRun>,
    /// p99(udp_fixed_rto) / p99(ccudp) at the top of the ramp (> 1 means
    /// ccudp wins).
    pub p99_speedup_ccudp_vs_fixed: f64,
    /// goodput(ccudp) / goodput(udp_fixed_rto) at the top of the ramp.
    pub goodput_ratio_ccudp_vs_fixed: f64,
}

fn fixed_spec(server_loss: LossSpec) -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto { rto: FIXED_RTO },
            // the same liveness budget the incast bench grants: 64
            // fixed-cadence windows = 320 ms of consecutive silence
            max_attempts: 64,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

fn cc_spec(server_loss: LossSpec) -> TransportSpec {
    TransportSpec::CcUdp {
        cfg: DatagramConfig {
            max_attempts: 16,
            policy: AdaptiveConfig {
                min_rto: FIXED_RTO, // same floor as the fixed path: a clean
                // network costs ccudp nothing extra
                init_rto: Duration::from_millis(10),
                max_rto: Duration::from_millis(200),
                ..AdaptiveConfig::default()
            },
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

async fn run_point(
    spec_for: fn(LossSpec) -> TransportSpec,
    cross_frac: f64,
    n: usize,
    p: usize,
    ids: &[u64],
    queries: usize,
) -> PointResult {
    // quiet while the cluster boots and stores (control traffic must not
    // skew the measurement), then ramp the background flow
    let bottleneck = CrossTrafficSpec::quiet(DRAIN_DGRAMS_PER_S, QUEUE_CAP).build();
    let spec = spec_for(LossSpec::Bottleneck(bottleneck.clone()));
    let h = spawn_cluster(ClusterConfig::uniform(n, 1e7, p).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");
    bottleneck.set_cross_rate(cross_frac * DRAIN_DGRAMS_PER_S);
    let admitted0 = bottleneck.admitted();
    let dropped0 = bottleneck.dropped();

    let mut delays_ms = Vec::with_capacity(queries);
    let mut harvests = Vec::with_capacity(queries);
    let mut completed = 0usize;
    let mut scanned_total = 0u64;
    let t_all = Instant::now();
    for _ in 0..queries {
        let t0 = Instant::now();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        delays_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        harvests.push(out.harvest);
        scanned_total += out.scanned;
        if out.harvest >= 1.0 {
            completed += 1;
        }
    }
    let elapsed_s = t_all.elapsed().as_secs_f64();
    delays_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    PointResult {
        cross_frac,
        queries,
        completed,
        mean_harvest: roar_util::mean(&harvests),
        goodput_records_per_s: scanned_total as f64 / elapsed_s,
        mean_ms: roar_util::mean(&delays_ms),
        p50_ms: percentile(&delays_ms, 50.0),
        p99_ms: percentile(&delays_ms, 99.0),
        max_ms: delays_ms.last().copied().unwrap_or(0.0),
        bottleneck_admitted: bottleneck.admitted() - admitted0,
        bottleneck_dropped: bottleneck.dropped() - dropped0,
    }
}

/// Run the comparison. `Quick` shrinks the cluster, the ramp and the query
/// count for CI smoke runs.
pub fn run(scale: Scale) -> BenchCongestion {
    let n = scale.pick(8, 4);
    let p = n / 2;
    let queries = scale.pick(30, 10);
    let n_ids = scale.pick(800, 300);
    let cross_fracs: Vec<f64> = match scale {
        Scale::Full => vec![0.0, 0.5, 0.8, 0.95],
        Scale::Quick => vec![0.0, 0.8],
    };
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async {
        let mut rng = det_rng(585);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen()).collect();
        let mut modes = Vec::new();
        for (name, spec_for) in [
            ("udp_fixed_rto", fixed_spec as fn(LossSpec) -> TransportSpec),
            ("ccudp", cc_spec as fn(LossSpec) -> TransportSpec),
        ] {
            let mut points = Vec::new();
            for &frac in &cross_fracs {
                points.push(run_point(spec_for, frac, n, p, &ids, queries).await);
            }
            modes.push(ModeRun { name, points });
        }
        let top_fixed = modes[0].points.last().expect("ramp non-empty").clone();
        let top_cc = modes[1].points.last().expect("ramp non-empty").clone();
        BenchCongestion {
            nodes: n,
            p,
            ids: n_ids,
            queries_per_point: queries,
            cross_fracs,
            modes,
            p99_speedup_ccudp_vs_fixed: top_fixed.p99_ms / top_cc.p99_ms,
            goodput_ratio_ccudp_vs_fixed: top_cc.goodput_records_per_s
                / top_fixed.goodput_records_per_s,
        }
    })
}

impl BenchCongestion {
    /// The measurement at the top of the ramp for `mode`.
    pub fn top_point(&self, mode: &str) -> &PointResult {
        self.modes
            .iter()
            .find(|m| m.name == mode)
            .expect("mode exists")
            .points
            .last()
            .expect("ramp non-empty")
    }

    /// The CI gate: under the heaviest cross traffic, ccudp must beat the
    /// fixed-RTO path's p99 and sustain at least its goodput.
    pub fn ccudp_beats_fixed(&self) -> bool {
        let fixed = self.top_point("udp_fixed_rto");
        let cc = self.top_point("ccudp");
        cc.p99_ms <= fixed.p99_ms && cc.goodput_records_per_s >= fixed.goodput_records_per_s
    }

    /// Render as JSON (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"congestion_cross_traffic\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"nodes\": {}, \"p\": {}, \"ids\": {}, \"queries_per_point\": {}, \
             \"drain_dgrams_per_s\": {}, \"queue_cap\": {}, \"fixed_rto_ms\": {}, \
             \"loss\": \"all server datagrams share one bottleneck queue with ramped cross traffic\"}},\n",
            self.nodes,
            self.p,
            self.ids,
            self.queries_per_point,
            DRAIN_DGRAMS_PER_S,
            QUEUE_CAP,
            FIXED_RTO.as_millis(),
        ));
        s.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            s.push_str(&format!("    {{\"name\": \"{}\", \"points\": [\n", m.name));
            for (j, pt) in m.points.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"cross_frac\": {:.2}, \"queries\": {}, \"completed\": {}, \
                     \"mean_harvest\": {:.3}, \"goodput_records_per_s\": {:.0}, \
                     \"mean_ms\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
                     \"max_ms\": {:.2}, \"bottleneck_admitted\": {}, \
                     \"bottleneck_dropped\": {}}}{}\n",
                    pt.cross_frac,
                    pt.queries,
                    pt.completed,
                    pt.mean_harvest,
                    pt.goodput_records_per_s,
                    pt.mean_ms,
                    pt.p50_ms,
                    pt.p99_ms,
                    pt.max_ms,
                    pt.bottleneck_admitted,
                    pt.bottleneck_dropped,
                    if j + 1 < m.points.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < self.modes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"p99_speedup_ccudp_vs_fixed\": {:.2},\n  \"goodput_ratio_ccudp_vs_fixed\": {:.2}\n}}\n",
            self.p99_speedup_ccudp_vs_fixed, self.goodput_ratio_ccudp_vs_fixed
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_congestion_shows_the_484_direction() {
        let b = run(Scale::Quick);
        let fixed = b.top_point("udp_fixed_rto");
        let cc = b.top_point("ccudp");
        // the acceptance criterion: under cross traffic the adaptive path
        // must not lose on the tail, and must sustain goodput
        assert!(
            b.ccudp_beats_fixed(),
            "ccudp must beat fixed-RTO under cross traffic: \
             p99 {:.1} vs {:.1} ms, goodput {:.0} vs {:.0} rec/s",
            cc.p99_ms,
            fixed.p99_ms,
            cc.goodput_records_per_s,
            fixed.goodput_records_per_s,
        );
        // the quiet points must be healthy for both (no cross traffic, no
        // collapse): congestion control must cost ~nothing when idle
        for m in &b.modes {
            let quiet = &m.points[0];
            assert_eq!(quiet.cross_frac, 0.0);
            assert!(
                quiet.mean_harvest > 0.99,
                "{}: quiet network must not lose windows",
                m.name
            );
        }
        let json = b.to_json();
        assert!(json.contains("congestion_cross_traffic"));
        assert!(json.contains("p99_speedup_ccudp_vs_fixed"));
    }
}
