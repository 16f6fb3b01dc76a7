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

use crate::driver::{block_on, synthetic_ids, transport_by_name};
use crate::{number, Filters, Scale};
use roar_cluster::{
    spawn_cluster, AdmissionController, ClusterConfig, ClusterHandle, QueryBody, SloConfig,
    TransportSpec,
};
use roar_util::{Json, Summary};
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

/// Wall-time summary of `obs`, in milliseconds.
fn walls_ms<'a>(obs: impl IntoIterator<Item = &'a Obs>) -> Summary {
    let walls: Vec<f64> = obs.into_iter().map(|o| o.wall_s * 1e3).collect();
    Summary::from(&walls)
}

/// Queries that completed with full harvest **inside the offered window**
/// (post-window backlog drain does not count). Per second of window this
/// is goodput — the axis that flatlines at capacity.
fn full_in_window<'a>(obs: impl IntoIterator<Item = &'a Obs>, duration_s: f64) -> usize {
    obs.into_iter()
        .filter(|o| o.harvest >= 1.0 && o.done_s <= duration_s)
        .count()
}

/// One offered-load point on the capacity curve.
async fn run_point(p: &Params, ids: &[u64], spec: TransportSpec, offered: f64) -> Json {
    let h = fresh_cluster(p, ids, spec).await;
    let arrivals =
        OpenLoopGen::constant(offered, CAPACITY_SEED ^ offered.to_bits()).schedule(p.duration_s);
    let obs = drive(&h, &arrivals, Some(p.sweep_deadline), None).await;
    let completed_full = full_in_window(&obs, p.duration_s);
    let full_ever = obs.iter().filter(|o| o.harvest >= 1.0).count();
    Json::obj([
        // target offered arrival rate, queries/second
        ("offered_qps", Json::rounded(offered, 1)),
        // arrivals actually generated (Poisson draw), and the realization's
        // actual rate — what the knee test compares goodput against
        ("arrivals", arrivals.len().into()),
        (
            "realized_qps",
            Json::rounded(arrivals.len() as f64 / p.duration_s, 1),
        ),
        ("completed_full", completed_full.into()),
        (
            "goodput_qps",
            Json::rounded(completed_full as f64 / p.duration_s, 1),
        ),
        // fraction of arrivals that eventually completed with full harvest
        // (any time, including the drain)
        (
            "full_harvest_frac",
            Json::rounded(full_ever as f64 / arrivals.len().max(1) as f64, 3),
        ),
    ])
    .merge(walls_ms(&obs).to_json("ms"))
}

/// Knee: highest realized rate still delivering [`KNEE_GOODPUT_FRAC`] of
/// itself as in-window goodput; if every point saturated, the max-goodput
/// point (≈ measured capacity).
fn knee_of(points: &[Json]) -> Result<f64, String> {
    let mut knee = f64::NAN;
    let mut max_goodput = 0.0f64;
    for pt in points {
        // goodput ≥ frac · realized, on the exact counts behind both rates
        if number(pt, &["completed_full"])? >= KNEE_GOODPUT_FRAC * number(pt, &["arrivals"])? {
            knee = knee.max(number(pt, &["realized_qps"])?);
        }
        max_goodput = max_goodput.max(number(pt, &["goodput_qps"])?);
    }
    Ok(knee.max(max_goodput))
}

/// The bare-vs-admission overload comparison at ~2× the knee: the same
/// arrival schedule on two fresh clusters.
async fn run_overload(p: &Params, ids: &[u64], name: &str, offered: f64) -> Json {
    let arrivals = OpenLoopGen::constant(offered, CAPACITY_SEED ^ 0xC0FFEE).schedule(p.duration_s);

    // bare run: every query dispatched, uncensored latency
    let bare = fresh_cluster(p, ids, transport_by_name(name)).await;
    let base_obs = drive(&bare, &arrivals, None, None).await;
    drop(bare);

    // admission run: same schedule, fresh cluster, SLO door
    let ctrl = Arc::new(AdmissionController::new(
        SloConfig::new(p.slo).yield_floor(0.05),
    ));
    let door = fresh_cluster(p, ids, transport_by_name(name)).await;
    let adm_obs = drive(&door, &arrivals, None, Some(Arc::clone(&ctrl))).await;

    let admitted: Vec<&Obs> = adm_obs.iter().filter(|o| o.admitted).collect();
    let (admitted_ms, baseline_ms) = (walls_ms(admitted.iter().copied()), walls_ms(&base_obs));
    // minimum harvest over admitted queries — must be 1.0 (§2.1: admission
    // trades yield, never harvest)
    let min_harvest = admitted.iter().map(|o| o.harvest).fold(1.0f64, f64::min);
    let qps = |full: usize| Json::rounded(full as f64 / p.duration_s, 1);
    Json::obj([
        ("offered_qps", Json::rounded(offered, 1)),
        ("arrivals", arrivals.len().into()),
        ("admitted", admitted.len().into()),
        ("shed", (adm_obs.len() - admitted.len()).into()),
        // Brewer's yield of the admission run: admitted / offered
        (
            "yield_frac",
            Json::rounded(admitted.len() as f64 / adm_obs.len().max(1) as f64, 3),
        ),
        ("admitted_min_harvest", Json::rounded(min_harvest, 3)),
        // end-to-end p50/p99 over admitted queries, and of the bare run
        ("admitted_p50_ms", Json::rounded(admitted_ms.p50, 2)),
        ("admitted_p99_ms", Json::rounded(admitted_ms.p99, 2)),
        ("baseline_p50_ms", Json::rounded(baseline_ms.p50, 2)),
        ("baseline_p99_ms", Json::rounded(baseline_ms.p99, 2)),
        (
            "admitted_goodput_qps",
            qps(full_in_window(admitted.iter().copied(), p.duration_s)),
        ),
        (
            "baseline_goodput_qps",
            qps(full_in_window(&base_obs, p.duration_s)),
        ),
    ])
}

/// Run every offered load × every transport `filters` selects. Per
/// transport: the sweep `points`, `knee_qps` — the highest offered rate
/// whose goodput stayed within [`KNEE_GOODPUT_FRAC`] of offered — and the
/// overload `admission` comparison at [`OVERLOAD_FACTOR`]× that knee.
pub fn run(scale: Scale, filters: &Filters) -> Result<Json, String> {
    let p = Params::of(scale);
    let capacity = p.capacity_qps();
    let ids = synthetic_ids(CAPACITY_SEED, p.ids);
    block_on(async {
        let mut transports = Vec::new();
        for name in filters.transports() {
            let mut points = Vec::new();
            for &m in p.multipliers {
                points.push(run_point(&p, &ids, transport_by_name(name), m * capacity).await);
            }
            let knee_qps = knee_of(&points)?;
            let admission = run_overload(&p, &ids, name, OVERLOAD_FACTOR * knee_qps).await;
            transports.push(Json::obj([
                ("name", name.into()),
                ("points", Json::Arr(points)),
                ("knee_qps", Json::rounded(knee_qps, 1)),
                ("admission", admission),
            ]));
        }
        Ok(Json::obj([
            ("benchmark", "capacity".into()),
            (
                "config",
                Json::obj([
                    ("nodes", p.nodes.into()),
                    ("p", p.p.into()),
                    ("ids", p.ids.into()),
                    ("speed_records_per_s", p.speed.into()),
                    ("duration_s", p.duration_s.into()),
                    ("seed", CAPACITY_SEED.into()),
                    ("knee_goodput_frac", KNEE_GOODPUT_FRAC.into()),
                    ("overload_factor", OVERLOAD_FACTOR.into()),
                ]),
            ),
            // the admission run's SLO target p99
            ("slo_ms", Json::rounded(p.slo.as_secs_f64() * 1e3, 1)),
            ("transports", Json::Arr(transports)),
        ]))
    })
}

/// Two gates over every transport that ran. The smoke gate (every scale):
/// the admission door must beat the bare cluster's overload p99, keep full
/// harvest on every admitted query, and actually shed something without
/// collapsing. The full-scale acceptance gate adds: admitted p99 within
/// the SLO while the bare run blows past [`BASELINE_BLOWUP`]× it, with
/// graceful (non-collapsed) yield.
pub fn gate(doc: &Json, scale: Scale) -> Result<(), String> {
    let slo_ms = number(doc, &["slo_ms"])?;
    let transports = doc.get("transports").and_then(Json::as_array);
    let transports = transports
        .filter(|t| !t.is_empty())
        .ok_or("no transport ran")?;
    for t in transports {
        let name = t.get("name").and_then(Json::as_str).unwrap_or("?");
        let a = |key: &str| number(t, &["admission", key]);
        let (admitted_p99, baseline_p99) = (a("admitted_p99_ms")?, a("baseline_p99_ms")?);
        if admitted_p99 >= baseline_p99
            || a("admitted_min_harvest")? < 1.0
            || a("shed")? == 0.0
            || a("admitted")? == 0.0
        {
            return Err(format!(
                "{name}: admission must shed, keep full harvest on admitted queries \
                 and beat the bare overload p99"
            ));
        }
        if scale == Scale::Full
            && (admitted_p99 > slo_ms
                || baseline_p99 <= BASELINE_BLOWUP * slo_ms
                || !(0.05..0.98).contains(&a("yield_frac")?))
        {
            return Err(format!(
                "{name}: admitted p99 must hold within the {slo_ms:.0} ms SLO while the \
                 bare baseline exceeds {BASELINE_BLOWUP:.0}x it"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_capacity_curve_and_admission_over_tcp() {
        // the CI smoke's shape, one transport: the under-load point keeps
        // goodput near offered, and at 2x the knee the admission door
        // beats the bare cluster's p99 without ever trading harvest
        let filters = Filters {
            transport: Some("tcp".into()),
            ..Filters::default()
        };
        let b = run(Scale::Quick, &filters).unwrap();
        let col = b.get("transports").unwrap().find("name", "tcp").unwrap();
        let points = col.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 2);
        let light = &points[0];
        assert!(
            number(light, &["goodput_qps"]).unwrap()
                >= 0.8 * number(light, &["realized_qps"]).unwrap(),
            "under-load goodput must track offered: {light:?}"
        );
        assert!(number(col, &["knee_qps"]).unwrap() > 0.0);
        // shed > 0 but no collapse, harvest never traded, door beats bare p99
        gate(&b, Scale::Quick).unwrap_or_else(|e| panic!("{e}: {col:?}"));
    }

    #[test]
    fn gates_separate_the_smoke_bar_from_the_slo_bar() {
        let doc = |admitted_p99: f64, baseline_p99: f64, shed: usize, yield_frac: f64| {
            let admission = Json::obj([
                ("admitted_p99_ms", admitted_p99.into()),
                ("baseline_p99_ms", baseline_p99.into()),
                ("admitted_min_harvest", Json::Num(1.0)),
                ("shed", shed.into()),
                ("admitted", 10usize.into()),
                ("yield_frac", yield_frac.into()),
            ]);
            let tcp = Json::obj([("name", "tcp".into()), ("admission", admission)]);
            Json::obj([
                ("slo_ms", Json::Num(150.0)),
                ("transports", Json::Arr(vec![tcp])),
            ])
        };
        assert!(gate(&doc(120.0, 900.0, 40, 0.5), Scale::Full).is_ok());
        // beats the baseline but misses the SLO: smoke passes, full fails
        assert!(gate(&doc(200.0, 900.0, 40, 0.5), Scale::Quick).is_ok());
        assert!(gate(&doc(200.0, 900.0, 40, 0.5), Scale::Full)
            .unwrap_err()
            .contains("SLO"));
        // baseline never blew up: nothing was demonstrated at full scale
        assert!(gate(&doc(120.0, 300.0, 40, 0.5), Scale::Full).is_err());
        assert!(
            gate(&doc(120.0, 900.0, 40, 0.99), Scale::Full).is_err(),
            "yield must be graceful"
        );
        assert!(
            gate(&doc(120.0, 900.0, 0, 0.5), Scale::Quick).is_err(),
            "must shed"
        );
        assert!(
            gate(&doc(950.0, 900.0, 40, 0.5), Scale::Quick).is_err(),
            "must beat bare p99"
        );
        let none = Json::obj([
            ("slo_ms", Json::Num(150.0)),
            ("transports", Json::Arr(vec![])),
        ]);
        assert!(gate(&none, Scale::Quick).is_err());
    }
}
