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

use crate::driver::{block_on, closed_loop, synthetic_ids, transport_by_name};
use crate::{number, Filters, Scale};
use roar_cluster::{spawn_cluster, ClusterConfig, TransportSpec};
use roar_util::{Json, Summary};
use std::time::Instant;

/// Seed for the synthetic corpus.
pub const SCALE_SEED: u64 = 8117;

/// The full-scale ratio gate: largest-cluster qps over smallest-cluster
/// qps must reach this on at least one transport.
pub const SCALING_FLOOR: f64 = 4.0;

/// The looser floor for the quick {16,128} smoke on a shared CI core.
pub const QUICK_SCALING_FLOOR: f64 = 1.5;

/// Node scan speed, records/s: slow enough that the per-partition scan
/// dominates loopback RPC cost at the small end — the scaling ratio then
/// measures partitioning.
const SPEED: f64 = 5e3;

/// One cluster size under one transport. Partitioning is `n/4`: replication
/// stays at a constant r = 4 while the per-partition scan shrinks with the
/// fleet.
async fn run_size(n: usize, ids: &[u64], queries: usize, spec: TransportSpec) -> Json {
    let p = (n / 4).max(1);
    let h = spawn_cluster(ClusterConfig::uniform(n, SPEED, p).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");

    closed_loop(&h.client, 2, |q| q).await; // warm-up
    let t0 = Instant::now();
    let (delays_ms, outputs) = closed_loop(&h.client, queries, |q| q).await;
    let elapsed = t0.elapsed().as_secs_f64();

    let harvests: Vec<f64> = outputs.iter().map(|o| o.harvest).collect();
    Json::obj([
        ("nodes", n.into()),
        ("p", p.into()),
        ("queries", queries.into()),
        ("qps", Json::rounded(queries as f64 / elapsed, 2)),
        // six decimals: one lost window in a 512-node run (1/3840 of the
        // point's harvest) must still read as < 1 to the gate
        ("mean_harvest", Json::rounded(roar_util::mean(&harvests), 6)),
    ])
    .merge(Summary::from(&delays_ms).to_json("ms"))
}

/// Run the matrix: every size × every transport `filters` selects (CI's
/// `scale-smoke` job runs one transport per leg). A transport's `scaling`
/// is its qps at the largest size over qps at the smallest; `best_scaling`
/// is the best across transports — the gated figure.
pub fn run(scale: Scale, filters: &Filters) -> Result<Json, String> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[16, 64, 128, 512],
        Scale::Quick => &[16, 128],
    };
    let ids = synthetic_ids(SCALE_SEED, scale.pick(4000, 1500));
    let queries = scale.pick(30, 8);
    block_on(async {
        let mut transports = Vec::new();
        let mut best_scaling = 0.0f64;
        for name in filters.transports() {
            let mut points = Vec::new();
            for &n in sizes {
                points.push(run_size(n, &ids, queries, transport_by_name(name)).await);
            }
            let qps = |point: &Json| number(point, &["qps"]);
            let (small, large) = (qps(&points[0])?, qps(&points[points.len() - 1])?);
            let scaling = if small > 0.0 { large / small } else { 0.0 };
            best_scaling = best_scaling.max(scaling);
            transports.push(Json::obj([
                ("name", name.into()),
                ("sizes", Json::Arr(points)),
                ("scaling", Json::rounded(scaling, 2)),
            ]));
        }
        Ok(Json::obj([
            ("benchmark", "scale".into()),
            (
                "config",
                Json::obj([
                    ("sizes", sizes.iter().copied().collect()),
                    ("ids", ids.len().into()),
                    ("speed_records_per_s", SPEED.into()),
                    ("queries_per_size", queries.into()),
                    ("seed", SCALE_SEED.into()),
                    ("p_rule", "n/4".into()),
                ]),
            ),
            ("transports", Json::Arr(transports)),
            ("best_scaling", Json::rounded(best_scaling, 2)),
            ("scaling_floor", SCALING_FLOOR.into()),
        ]))
    })
}

/// The gate: every point must be full-harvest — scaling up the fleet must
/// not cost correctness — and throughput must grow with cluster size by
/// the scale's floor on at least one transport.
pub fn gate(doc: &Json, scale: Scale) -> Result<(), String> {
    let floor = match scale {
        Scale::Full => SCALING_FLOOR,
        Scale::Quick => QUICK_SCALING_FLOOR,
    };
    let transports = doc.get("transports").and_then(Json::as_array);
    let points: Vec<&Json> = transports
        .into_iter()
        .flatten()
        .filter_map(|t| t.get("sizes")?.as_array())
        .flatten()
        .collect();
    if points.is_empty() {
        return Err("no point ran".into());
    }
    for point in points {
        if number(point, &["mean_harvest"])? < 1.0 {
            return Err(format!("harvest dropped below 1.0 at {point:?}"));
        }
    }
    let best = number(doc, &["best_scaling"])?;
    if best < floor {
        return Err(format!(
            "best scaling {best:.2}x is under the {floor:.1}x floor"
        ));
    }
    Ok(())
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
        let filters = Filters {
            transport: Some("tcp".into()),
            ..Filters::default()
        };
        let b = run(Scale::Quick, &filters).unwrap();
        let transports = b.get("transports").unwrap();
        assert_eq!(transports.as_array().unwrap().len(), 1, "one column ran");
        let col = transports.find("name", "tcp").expect("tcp column ran");
        assert_eq!(col.get("sizes").unwrap().as_array().unwrap().len(), 2);
        gate(&b, Scale::Quick).expect("128-node qps must clearly beat 16-node at full harvest");
    }

    #[test]
    fn gate_judges_harvest_and_floor() {
        let doc = |harvest: f64, best: f64| {
            let point = Json::obj([("mean_harvest", harvest.into())]);
            let col = Json::obj([("name", "tcp".into()), ("sizes", Json::Arr(vec![point]))]);
            Json::obj([
                ("transports", Json::Arr(vec![col])),
                ("best_scaling", best.into()),
            ])
        };
        assert!(gate(&doc(1.0, 4.0), Scale::Full).is_ok());
        assert!(gate(&doc(1.0, 3.9), Scale::Full)
            .unwrap_err()
            .contains("floor"));
        assert!(
            gate(&doc(1.0, 3.9), Scale::Quick).is_ok(),
            "quick floor is 1.5x"
        );
        assert!(gate(&doc(0.999_74, 9.0), Scale::Full)
            .unwrap_err()
            .contains("harvest"));
        let empty = Json::obj([
            ("transports", Json::Arr(vec![])),
            ("best_scaling", Json::Num(9.0)),
        ]);
        assert!(
            gate(&empty, Scale::Full).is_err(),
            "an empty matrix proves nothing"
        );
    }
}
