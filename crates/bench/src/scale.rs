//! Cluster-size scaling (`BENCH_scale.json`): queries/s and tail latency
//! vs cluster size, per transport — the measurement the reactor runtime
//! exists to make possible.
//!
//! The seed thread-per-task executor capped harness clusters at ~16 nodes
//! (every node, link and timer burned an OS thread). With the epoll
//! reactor, one process hosts 512 nodes, so the paper's scaling story
//! becomes measurable on one machine: a fixed synthetic corpus spread
//! over `p = n/4` partitions means each sub-query scans `corpus/p`
//! records, so doubling the fleet halves the per-partition scan and a
//! closed-loop client sees throughput rise with cluster size until
//! dispatch fan-out (p RPCs per query) eats the gain — the
//! latency–throughput shape Badue et al. measure on real vertical-search
//! fleets.
//!
//! Node scan speed is deliberately slow (5k records/s) so the scan term
//! dominates at small n: the ratio between the 512-node and 16-node
//! figures is then a property of the partitioning, not of loopback RPC
//! noise. The headline gate: 512-node throughput ≥ 4× the 16-node figure
//! on at least one transport.

use crate::Scale;
use rand::Rng;
use roar_cluster::{
    spawn_cluster, AdaptiveConfig, ClusterConfig, DatagramConfig, FixedRto, LossSpec, QueryBody,
    SchedOpts, TransportSpec,
};
use roar_util::{det_rng, percentile};
use std::time::{Duration, Instant};

/// Seed for the synthetic corpus.
pub const SCALE_SEED: u64 = 8117;

/// The full-scale ratio gate: largest-cluster qps over smallest-cluster
/// qps must reach this on at least one transport.
pub const SCALING_FLOOR: f64 = 4.0;

/// One cluster size under one transport.
#[derive(Debug, Clone)]
pub struct SizePoint {
    pub nodes: usize,
    pub p: usize,
    pub queries: usize,
    pub qps: f64,
    pub mean_harvest: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// All sizes under one transport.
#[derive(Debug, Clone)]
pub struct TransportScaling {
    pub name: &'static str,
    pub points: Vec<SizePoint>,
    /// qps at the largest size over qps at the smallest.
    pub scaling: f64,
}

/// The whole matrix.
#[derive(Debug, Clone)]
pub struct BenchScale {
    pub sizes: Vec<usize>,
    pub ids: usize,
    pub speed: f64,
    pub queries_per_size: usize,
    pub transports: Vec<TransportScaling>,
    /// Best `scaling` across transports — the gated figure.
    pub best_scaling: f64,
}

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

/// Partitioning level at each size: `n/4` keeps replication at a constant
/// r = 4 while the per-partition scan shrinks with the fleet.
fn p_for(n: usize) -> usize {
    (n / 4).max(1)
}

async fn run_size(
    n: usize,
    speed: f64,
    ids: &[u64],
    queries: usize,
    warmup: usize,
    spec: TransportSpec,
) -> SizePoint {
    let p = p_for(n);
    let h = spawn_cluster(ClusterConfig::uniform(n, speed, p).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");

    for _ in 0..warmup {
        h.client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
    }

    let mut delays_ms = Vec::with_capacity(queries);
    let mut harvests = Vec::with_capacity(queries);
    let t0 = Instant::now();
    for _ in 0..queries {
        let q0 = Instant::now();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        delays_ms.push(q0.elapsed().as_secs_f64() * 1e3);
        harvests.push(out.harvest);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    delays_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    SizePoint {
        nodes: n,
        p,
        queries,
        qps: queries as f64 / elapsed,
        mean_harvest: roar_util::mean(&harvests),
        p50_ms: percentile(&delays_ms, 50.0),
        p99_ms: percentile(&delays_ms, 99.0),
        max_ms: delays_ms.last().copied().unwrap_or(0.0),
    }
}

/// Run the full matrix (every size × every transport).
pub fn run(scale: Scale) -> BenchScale {
    run_filtered(scale, None)
}

/// Run one transport's column (`None` = all). CI's `scale-smoke` job runs
/// one transport per leg.
pub fn run_filtered(scale: Scale, transport: Option<&str>) -> BenchScale {
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![16, 64, 128, 512],
        Scale::Quick => vec![16, 128],
    };
    let n_ids = scale.pick(4000, 1500);
    let queries = scale.pick(30, 8);
    let warmup = 2;
    // slow enough that the per-partition scan dominates loopback RPC cost
    // at the small end — the scaling ratio then measures partitioning
    let speed = 5e3;

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async {
        let mut rng = det_rng(SCALE_SEED);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen()).collect();
        let mut transports = Vec::new();
        for t_name in TRANSPORTS {
            if transport.is_some_and(|t| t != t_name) {
                continue;
            }
            let mut points = Vec::new();
            for &n in &sizes {
                points.push(run_size(n, speed, &ids, queries, warmup, spec_by_name(t_name)).await);
            }
            let scaling = match (points.first(), points.last()) {
                (Some(a), Some(b)) if a.qps > 0.0 => b.qps / a.qps,
                _ => 0.0,
            };
            transports.push(TransportScaling {
                name: t_name,
                points,
                scaling,
            });
        }
        let best_scaling = transports.iter().map(|t| t.scaling).fold(0.0f64, f64::max);
        BenchScale {
            sizes,
            ids: n_ids,
            speed,
            queries_per_size: queries,
            transports,
            best_scaling,
        }
    })
}

impl BenchScale {
    /// The named transport's column, if it ran.
    pub fn column(&self, transport: &str) -> Option<&TransportScaling> {
        self.transports.iter().find(|t| t.name == transport)
    }

    /// Every point must be full-harvest — scaling up the fleet must not
    /// cost correctness — and throughput must grow with cluster size by
    /// at least `floor` on one transport.
    pub fn scaling_holds(&self, floor: f64) -> bool {
        let mut saw_any = false;
        for t in &self.transports {
            for pt in &t.points {
                saw_any = true;
                if pt.mean_harvest < 1.0 {
                    return false;
                }
            }
        }
        saw_any && self.best_scaling >= floor
    }

    /// Render as JSON (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"scale\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"sizes\": [{}], \"ids\": {}, \"speed_records_per_s\": {}, \
             \"queries_per_size\": {}, \"seed\": {}, \"p_rule\": \"n/4\"}},\n",
            self.sizes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.ids,
            self.speed,
            self.queries_per_size,
            SCALE_SEED,
        ));
        s.push_str("  \"transports\": [\n");
        for (i, t) in self.transports.iter().enumerate() {
            s.push_str(&format!("    {{\"name\": \"{}\", \"sizes\": [\n", t.name));
            for (j, pt) in t.points.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"nodes\": {}, \"p\": {}, \"queries\": {}, \"qps\": {:.2}, \
                     \"mean_harvest\": {:.3}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
                     \"max_ms\": {:.2}}}{}\n",
                    pt.nodes,
                    pt.p,
                    pt.queries,
                    pt.qps,
                    pt.mean_harvest,
                    pt.p50_ms,
                    pt.p99_ms,
                    pt.max_ms,
                    if j + 1 < t.points.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "    ], \"scaling\": {:.2}}}{}\n",
                t.scaling,
                if i + 1 < self.transports.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"best_scaling\": {:.2},\n  \"scaling_floor\": {:.2}\n}}\n",
            self.best_scaling, SCALING_FLOOR
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scaling_improves_with_cluster_size_over_tcp() {
        // the CI scale-smoke invocation, minus the process boundary: two
        // sizes, one transport. The full 4x floor is the nightly gate's
        // job at {16..512}; a quick {16,128} run on a loaded CI core must
        // still show clear improvement and exact harvest
        let b = run_filtered(Scale::Quick, Some("tcp"));
        let col = b.column("tcp").expect("tcp column ran");
        assert_eq!(col.points.len(), 2);
        for pt in &col.points {
            assert_eq!(pt.mean_harvest, 1.0, "scaling must not cost harvest");
        }
        assert!(
            col.scaling >= 1.5,
            "128-node qps must clearly beat 16-node: {col:?}"
        );
        let json = b.to_json();
        assert!(json.contains("\"benchmark\": \"scale\""));
        assert!(json.contains("best_scaling"));
        crate::schema::check_artifact("BENCH_scale.json", &json)
            .expect("writer output must satisfy its own schema");
    }
}
