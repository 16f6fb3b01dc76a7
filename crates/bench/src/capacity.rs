//! Open-loop capacity curves + SLO admission (`BENCH_capacity.json`).
//!
//! Every other cluster bench in this crate is **closed-loop**: a worker
//! issues the next query when the previous one returns, so offered load
//! can never exceed completion rate and the latency–throughput knee is
//! structurally invisible. This bench drives the cluster **open-loop**
//! ([`roar_workload::OpenLoopGen`]): Poisson arrivals at a fixed offered
//! rate, launched whether or not earlier queries have finished, swept from
//! well under to well past saturation per transport. Past the knee,
//! goodput flatlines at capacity while latency grows with queue depth —
//! the curve an operator provisions against (`docs/capacity-planning.md`).
//!
//! The second half is the payoff: at ~2× the measured knee, the same
//! arrival schedule runs twice on fresh clusters — once bare, once behind
//! an [`roar_cluster::AdmissionController`] (§2.1). The gate: the
//! admission door holds admitted-query p99 within the SLO and keeps full
//! harvest on every admitted query (yield absorbs the overload), while
//! the bare cluster's p99 blows past 3× the SLO.
//!
//! Nodes run the serial service model (`Admin::set_serial_service`,
//! Definition 8): one scanner per node, so overload builds a real M/G/1
//! backlog instead of co-sleeping every sub-query in parallel. Each
//! sweep point gets a **fresh cluster** — backlog must not leak between
//! points.

use crate::Scale;
use rand::Rng;
use roar_cluster::{
    spawn_cluster, AdaptiveConfig, AdmissionController, ClusterConfig, ClusterHandle,
    DatagramConfig, FixedRto, LossSpec, QueryBody, SloConfig, TransportSpec,
};
use roar_util::{det_rng, percentile};
use roar_workload::OpenLoopGen;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for the synthetic corpus and the arrival schedules.
pub const CAPACITY_SEED: u64 = 4181;

/// A point declares saturation when goodput falls below this fraction of
/// the offered rate; the knee is the highest offered rate still above it.
pub const KNEE_GOODPUT_FRAC: f64 = 0.9;

/// Overload factor for the admission comparison, relative to the knee.
pub const OVERLOAD_FACTOR: f64 = 2.0;

/// Full-scale gate: the bare cluster's overload p99 must exceed this many
/// multiples of the SLO (the admission run must stay within 1×).
pub const BASELINE_BLOWUP: f64 = 3.0;

/// Transport names, in artifact order.
pub const TRANSPORTS: [&str; 3] = ["tcp", "udp", "ccudp"];

fn spec_by_name(name: &str) -> TransportSpec {
    match name {
        "tcp" => TransportSpec::Tcp,
        // the same liveness budgets the harness suite runs under
        "udp" => TransportSpec::Udp {
            cfg: DatagramConfig {
                policy: FixedRto {
                    rto: Duration::from_millis(10),
                },
                max_attempts: 50,
                ..DatagramConfig::default()
            },
            client_loss: LossSpec::None,
            server_loss: LossSpec::None,
        },
        "ccudp" => TransportSpec::CcUdp {
            cfg: DatagramConfig {
                max_attempts: 8,
                policy: AdaptiveConfig {
                    min_rto: Duration::from_millis(10),
                    init_rto: Duration::from_millis(20),
                    max_rto: Duration::from_millis(50),
                    ..AdaptiveConfig::default()
                },
                ..DatagramConfig::default()
            },
            client_loss: LossSpec::None,
            server_loss: LossSpec::None,
        },
        other => panic!("unknown transport {other:?} (tcp|udp|ccudp)"),
    }
}

/// One offered-load point on the capacity curve.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Target offered arrival rate, queries/second.
    pub offered_qps: f64,
    /// Arrivals actually generated (Poisson draw).
    pub arrivals: usize,
    /// The Poisson realization's actual rate: `arrivals / duration` —
    /// what the knee test compares goodput against.
    pub realized_qps: f64,
    /// Queries that completed with full harvest **inside the offered
    /// window** (post-window backlog drain does not count).
    pub completed_full: usize,
    /// In-window full-harvest completions per second — the axis that
    /// flatlines at capacity.
    pub goodput_qps: f64,
    /// Fraction of arrivals that eventually completed with full harvest
    /// (any time, including the drain).
    pub full_harvest_frac: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// The bare-vs-admission overload comparison at ~2× the knee.
#[derive(Debug, Clone)]
pub struct AdmissionComparison {
    /// Offered rate both runs were driven at, queries/second.
    pub offered_qps: f64,
    pub arrivals: usize,
    /// End-to-end p50/p99 over **admitted** queries.
    pub admitted_p50_ms: f64,
    pub admitted_p99_ms: f64,
    /// End-to-end p50/p99 of the bare run (every query dispatched).
    pub baseline_p50_ms: f64,
    pub baseline_p99_ms: f64,
    /// Brewer's yield of the admission run: admitted / offered.
    pub yield_frac: f64,
    pub admitted: usize,
    pub shed: usize,
    /// Minimum harvest over admitted queries — must be 1.0 (§2.1:
    /// admission trades yield, never harvest).
    pub admitted_min_harvest: f64,
    /// Full-harvest completions per second, admission run.
    pub admitted_goodput_qps: f64,
    /// Full-harvest completions per second, bare run.
    pub baseline_goodput_qps: f64,
}

/// One transport's sweep plus its overload comparison.
#[derive(Debug, Clone)]
pub struct TransportCapacity {
    pub name: &'static str,
    pub points: Vec<LoadPoint>,
    /// Highest offered rate whose goodput stayed within
    /// [`KNEE_GOODPUT_FRAC`] of offered (falls back to the max-goodput
    /// point when even the lightest load saturated).
    pub knee_qps: f64,
    pub admission: AdmissionComparison,
}

/// The whole artifact.
#[derive(Debug, Clone)]
pub struct BenchCapacity {
    pub nodes: usize,
    pub p: usize,
    pub ids: usize,
    /// Node scan speed, records/second.
    pub speed: f64,
    /// Offered window per sweep point, seconds.
    pub duration_s: f64,
    /// The admission run's SLO target p99, milliseconds.
    pub slo_ms: f64,
    pub transports: Vec<TransportCapacity>,
}

struct Params {
    nodes: usize,
    p: usize,
    ids: usize,
    speed: f64,
    duration_s: f64,
    /// Client deadline on sweep points (bounds the drain; overload
    /// comparison runs uncensored).
    sweep_deadline: Duration,
    warmup: usize,
    slo: Duration,
    /// Offered rates as multiples of the analytic capacity
    /// `nodes · speed / ids`.
    multipliers: &'static [f64],
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            // capacity = 8 · 20k / 400 = 400 q/s; per-sub service 5 ms
            Scale::Full => Params {
                nodes: 8,
                p: 4,
                ids: 400,
                speed: 20e3,
                duration_s: 3.0,
                sweep_deadline: Duration::from_millis(2500),
                warmup: 30,
                slo: Duration::from_millis(150),
                multipliers: &[0.3, 0.6, 0.9, 1.2, 1.5],
            },
            // capacity = 6 · 12k / 300 = 240 q/s
            Scale::Quick => Params {
                nodes: 6,
                p: 3,
                ids: 300,
                speed: 12e3,
                duration_s: 1.2,
                sweep_deadline: Duration::from_millis(1000),
                warmup: 20,
                slo: Duration::from_millis(250),
                multipliers: &[0.5, 1.5],
            },
        }
    }

    fn capacity_qps(&self) -> f64 {
        self.nodes as f64 * self.speed / self.ids as f64
    }
}

/// One finished query's measurement.
struct Obs {
    wall_s: f64,
    /// Completion time relative to the drive epoch — goodput counts only
    /// completions inside the offered window, otherwise the post-window
    /// backlog drain inflates a saturated point's apparent throughput
    /// past true capacity.
    done_s: f64,
    harvest: f64,
    admitted: bool,
}

/// Spawn a fresh serial-service cluster, load the corpus, converge the
/// front-end's speed EWMAs with sequential warmup queries.
async fn fresh_cluster(p: &Params, ids: &[u64], spec: TransportSpec) -> ClusterHandle {
    let h = spawn_cluster(ClusterConfig::uniform(p.nodes, p.speed, p.p).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");
    h.admin
        .set_serial_service(true)
        .await
        .expect("serial service model");
    for _ in 0..p.warmup {
        let out = h.client.query(QueryBody::Synthetic).run().await;
        assert_eq!(out.harvest, 1.0, "warmup must be full-harvest");
    }
    h
}

/// Launch every arrival open-loop (at its scheduled time, regardless of
/// earlier completions) and collect per-query observations.
async fn drive(
    h: &ClusterHandle,
    arrivals: &[roar_workload::Arrival],
    deadline: Option<Duration>,
    admission: Option<Arc<AdmissionController>>,
) -> Vec<Obs> {
    let t0 = Instant::now();
    let mut tasks = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let client = h.client.clone();
        let ctrl = admission.clone();
        let at = Duration::from_secs_f64(a.at_s);
        tasks.push(tokio::spawn(async move {
            // the shim has no sleep_until; compute the gap from the epoch
            tokio::time::sleep(at.saturating_sub(t0.elapsed())).await;
            let q0 = Instant::now();
            let mut b = client.query(QueryBody::Synthetic);
            match ctrl {
                Some(c) => b = b.admission(c),
                None => {
                    if let Some(d) = deadline {
                        b = b.deadline(d);
                    }
                }
            }
            let out = b.run().await;
            Obs {
                wall_s: q0.elapsed().as_secs_f64(),
                done_s: t0.elapsed().as_secs_f64(),
                harvest: out.harvest,
                admitted: out.admitted,
            }
        }));
    }
    let mut obs = Vec::with_capacity(tasks.len());
    for t in tasks {
        obs.push(t.await.expect("query task"));
    }
    obs
}

fn pctls_ms(walls: &mut [f64]) -> (f64, f64, f64) {
    if walls.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (
        percentile(walls, 50.0) * 1e3,
        percentile(walls, 99.0) * 1e3,
        walls.last().copied().unwrap_or(0.0) * 1e3,
    )
}

async fn run_point(p: &Params, ids: &[u64], spec: TransportSpec, offered: f64) -> LoadPoint {
    let h = fresh_cluster(p, ids, spec).await;
    let arrivals =
        OpenLoopGen::constant(offered, CAPACITY_SEED ^ offered.to_bits()).schedule(p.duration_s);
    let obs = drive(&h, &arrivals, Some(p.sweep_deadline), None).await;
    let completed_full = obs
        .iter()
        .filter(|o| o.harvest >= 1.0 && o.done_s <= p.duration_s)
        .count();
    let full_ever = obs.iter().filter(|o| o.harvest >= 1.0).count();
    let mut walls: Vec<f64> = obs.iter().map(|o| o.wall_s).collect();
    let (p50_ms, p99_ms, max_ms) = pctls_ms(&mut walls);
    LoadPoint {
        offered_qps: offered,
        arrivals: arrivals.len(),
        realized_qps: arrivals.len() as f64 / p.duration_s,
        completed_full,
        goodput_qps: completed_full as f64 / p.duration_s,
        full_harvest_frac: full_ever as f64 / arrivals.len().max(1) as f64,
        p50_ms,
        p99_ms,
        max_ms,
    }
}

/// Knee: highest realized rate still delivering [`KNEE_GOODPUT_FRAC`] of
/// itself as in-window goodput; if every point saturated, the max-goodput
/// point (≈ measured capacity).
fn knee_of(points: &[LoadPoint]) -> f64 {
    points
        .iter()
        .filter(|pt| pt.goodput_qps >= KNEE_GOODPUT_FRAC * pt.realized_qps)
        .map(|pt| pt.realized_qps)
        .fold(f64::NAN, f64::max)
        .max(
            points
                .iter()
                .map(|pt| pt.goodput_qps)
                .fold(0.0f64, f64::max),
        )
}

async fn run_overload(
    p: &Params,
    ids: &[u64],
    name: &'static str,
    offered: f64,
) -> AdmissionComparison {
    let arrivals = OpenLoopGen::constant(offered, CAPACITY_SEED ^ 0xC0FFEE).schedule(p.duration_s);

    // bare run: every query dispatched, uncensored latency
    let bare = fresh_cluster(p, ids, spec_by_name(name)).await;
    let base_obs = drive(&bare, &arrivals, None, None).await;
    drop(bare);

    // admission run: same schedule, fresh cluster, SLO door
    let ctrl = Arc::new(AdmissionController::new(
        SloConfig::new(p.slo).yield_floor(0.05),
    ));
    let door = fresh_cluster(p, ids, spec_by_name(name)).await;
    let adm_obs = drive(&door, &arrivals, None, Some(Arc::clone(&ctrl))).await;

    let in_window_full = |obs: &[Obs]| {
        obs.iter()
            .filter(|o| o.harvest >= 1.0 && o.done_s <= p.duration_s)
            .count()
    };
    let mut base_walls: Vec<f64> = base_obs.iter().map(|o| o.wall_s).collect();
    let (baseline_p50_ms, baseline_p99_ms, _) = pctls_ms(&mut base_walls);
    let baseline_full = in_window_full(&base_obs);

    let admitted_obs: Vec<&Obs> = adm_obs.iter().filter(|o| o.admitted).collect();
    let mut adm_walls: Vec<f64> = admitted_obs.iter().map(|o| o.wall_s).collect();
    let (admitted_p50_ms, admitted_p99_ms, _) = pctls_ms(&mut adm_walls);
    let admitted_full = admitted_obs
        .iter()
        .filter(|o| o.harvest >= 1.0 && o.done_s <= p.duration_s)
        .count();

    AdmissionComparison {
        offered_qps: offered,
        arrivals: arrivals.len(),
        admitted_p50_ms,
        admitted_p99_ms,
        baseline_p50_ms,
        baseline_p99_ms,
        yield_frac: admitted_obs.len() as f64 / adm_obs.len().max(1) as f64,
        admitted: admitted_obs.len(),
        shed: adm_obs.len() - admitted_obs.len(),
        admitted_min_harvest: admitted_obs
            .iter()
            .map(|o| o.harvest)
            .fold(1.0f64, f64::min),
        admitted_goodput_qps: admitted_full as f64 / p.duration_s,
        baseline_goodput_qps: baseline_full as f64 / p.duration_s,
    }
}

/// Run the full matrix (every offered load × every transport).
pub fn run(scale: Scale) -> BenchCapacity {
    run_filtered(scale, None)
}

/// Run one transport's column (`None` = all).
pub fn run_filtered(scale: Scale, transport: Option<&str>) -> BenchCapacity {
    let p = Params::of(scale);
    let capacity = p.capacity_qps();

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async {
        let mut rng = det_rng(CAPACITY_SEED);
        let ids: Vec<u64> = (0..p.ids).map(|_| rng.gen()).collect();
        let mut transports = Vec::new();
        for t_name in TRANSPORTS {
            if transport.is_some_and(|t| t != t_name) {
                continue;
            }
            let mut points = Vec::new();
            for &m in p.multipliers {
                points.push(run_point(&p, &ids, spec_by_name(t_name), m * capacity).await);
            }
            let knee_qps = knee_of(&points);
            let admission = run_overload(&p, &ids, t_name, OVERLOAD_FACTOR * knee_qps).await;
            transports.push(TransportCapacity {
                name: t_name,
                points,
                knee_qps,
                admission,
            });
        }
        BenchCapacity {
            nodes: p.nodes,
            p: p.p,
            ids: p.ids,
            speed: p.speed,
            duration_s: p.duration_s,
            slo_ms: p.slo.as_secs_f64() * 1e3,
            transports,
        }
    })
}

impl BenchCapacity {
    /// The named transport's column, if it ran.
    pub fn column(&self, transport: &str) -> Option<&TransportCapacity> {
        self.transports.iter().find(|t| t.name == transport)
    }

    /// The smoke gate (every scale): on every transport that ran, the
    /// admission door must beat the bare cluster's overload p99, keep full
    /// harvest on every admitted query, and actually shed something.
    pub fn admission_beats_baseline(&self) -> bool {
        !self.transports.is_empty()
            && self.transports.iter().all(|t| {
                let a = &t.admission;
                a.admitted_p99_ms < a.baseline_p99_ms
                    && a.admitted_min_harvest >= 1.0
                    && a.shed > 0
                    && a.admitted > 0
            })
    }

    /// The full-scale acceptance gate: admitted p99 within the SLO while
    /// the bare run blows past [`BASELINE_BLOWUP`]× it, with graceful
    /// (non-collapsed) yield.
    pub fn slo_holds(&self) -> bool {
        self.admission_beats_baseline()
            && self.transports.iter().all(|t| {
                let a = &t.admission;
                a.admitted_p99_ms <= self.slo_ms
                    && a.baseline_p99_ms > BASELINE_BLOWUP * self.slo_ms
                    && (0.05..0.98).contains(&a.yield_frac)
            })
    }

    /// Render as JSON (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"capacity\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"nodes\": {}, \"p\": {}, \"ids\": {}, \
             \"speed_records_per_s\": {}, \"duration_s\": {}, \"seed\": {}, \
             \"knee_goodput_frac\": {}, \"overload_factor\": {}}},\n",
            self.nodes,
            self.p,
            self.ids,
            self.speed,
            self.duration_s,
            CAPACITY_SEED,
            KNEE_GOODPUT_FRAC,
            OVERLOAD_FACTOR,
        ));
        s.push_str(&format!("  \"slo_ms\": {:.1},\n", self.slo_ms));
        s.push_str("  \"transports\": [\n");
        for (i, t) in self.transports.iter().enumerate() {
            s.push_str(&format!("    {{\"name\": \"{}\", \"points\": [\n", t.name));
            for (j, pt) in t.points.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"offered_qps\": {:.1}, \"arrivals\": {}, \
                     \"realized_qps\": {:.1}, \
                     \"completed_full\": {}, \"goodput_qps\": {:.1}, \
                     \"full_harvest_frac\": {:.3}, \"p50_ms\": {:.2}, \
                     \"p99_ms\": {:.2}, \"max_ms\": {:.2}}}{}\n",
                    pt.offered_qps,
                    pt.arrivals,
                    pt.realized_qps,
                    pt.completed_full,
                    pt.goodput_qps,
                    pt.full_harvest_frac,
                    pt.p50_ms,
                    pt.p99_ms,
                    pt.max_ms,
                    if j + 1 < t.points.len() { "," } else { "" }
                ));
            }
            let a = &t.admission;
            s.push_str(&format!("    ], \"knee_qps\": {:.1},\n", t.knee_qps));
            s.push_str(&format!(
                "    \"admission\": {{\"offered_qps\": {:.1}, \"arrivals\": {}, \
                 \"admitted\": {}, \"shed\": {}, \"yield_frac\": {:.3}, \
                 \"admitted_min_harvest\": {:.3}, \"admitted_p50_ms\": {:.2}, \
                 \"admitted_p99_ms\": {:.2}, \"baseline_p50_ms\": {:.2}, \
                 \"baseline_p99_ms\": {:.2}, \"admitted_goodput_qps\": {:.1}, \
                 \"baseline_goodput_qps\": {:.1}}}}}{}\n",
                a.offered_qps,
                a.arrivals,
                a.admitted,
                a.shed,
                a.yield_frac,
                a.admitted_min_harvest,
                a.admitted_p50_ms,
                a.admitted_p99_ms,
                a.baseline_p50_ms,
                a.baseline_p99_ms,
                a.admitted_goodput_qps,
                a.baseline_goodput_qps,
                if i + 1 < self.transports.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_capacity_curve_and_admission_over_tcp() {
        // the CI smoke's shape, one transport: the under-load point keeps
        // goodput near offered, and at 2x the knee the admission door
        // beats the bare cluster's p99 without ever trading harvest
        let b = run_filtered(Scale::Quick, Some("tcp"));
        let col = b.column("tcp").expect("tcp column ran");
        assert_eq!(col.points.len(), 2);
        let light = &col.points[0];
        assert!(
            light.goodput_qps >= 0.8 * light.realized_qps,
            "under-load goodput must track offered: {light:?}"
        );
        assert!(col.knee_qps > 0.0);
        let a = &col.admission;
        assert!(a.shed > 0, "overload must shed: {a:?}");
        assert!(a.admitted > 0, "but not collapse: {a:?}");
        assert_eq!(
            a.admitted_min_harvest, 1.0,
            "admission trades yield, never harvest: {a:?}"
        );
        assert!(
            a.admitted_p99_ms < a.baseline_p99_ms,
            "door must beat bare overload p99: {a:?}"
        );
        let json = b.to_json();
        assert!(json.contains("\"benchmark\": \"capacity\""));
        crate::schema::check_artifact("BENCH_capacity.json", &json)
            .expect("writer output must satisfy its own schema");
    }
}
