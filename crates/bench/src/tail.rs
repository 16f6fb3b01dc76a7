//! Tail-latency comparison: hedged vs unhedged scatter-gather under a
//! deterministic straggler (`BENCH_tail.json`).
//!
//! Kraus et al. (*Tail-Tolerant Distributed Search*) locate the p99 win in
//! exactly one place: a scatter-gather that can observe partial harvest and
//! re-dispatch the straggling sub-query to a spare replica. This benchmark
//! reproduces that shape on the UDP transport with a **transport-level**
//! straggler — one node's server endpoint drops the first transmission of
//! every response ([`LossSpec::FirstReplyPerRequest`]), so its replies only
//! arrive when the front-end's re-poll timer fires, one client RTO late.
//! Crucially the node *processes* fast and reports a tiny `proc_s`, so the
//! EWMA scheduler cannot learn to route around it: the tail is invisible to
//! Algorithm 1 and only hedging ([`HedgePolicy`]) can cut it.
//!
//! Every query fans out to all `n` nodes (`pq = n`), so the straggler is in
//! every plan and the unhedged p50 ≈ p99 ≈ the client RTO. The hedged mode
//! re-dispatches any sub-query still unanswered after [`HEDGE_DELAY`] to a
//! spare replica whose coverage holds the window; one hedge per query means
//! a fan-out overhead of `1/n` ≤ 10% for `n ≥ 10`, which the committed
//! full-scale run satisfies (`n = 16` → 6.25%).

use crate::driver::{block_on, closed_loop, synthetic_ids};
use crate::{millis, number, Filters, Scale};
use roar_cluster::harness::spawn_extra_node_with;
use roar_cluster::{connect_with, DatagramConfig, FixedRto, HedgePolicy, LossSpec, TransportSpec};
use roar_util::{Json, Summary};
use std::time::Duration;

/// The front-end's re-poll timer: how late a dropped response arrives. This
/// plays the role of the tail (GC pause / overloaded NIC / switch drop) the
/// hedge is meant to cut.
pub const CLIENT_RTO: Duration = Duration::from_millis(40);

/// How long a sub-query may straggle before the hedge fires — around the
/// healthy fleet's p99, far below the straggler's RTO stall.
pub const HEDGE_DELAY: Duration = Duration::from_millis(10);

/// A UDP spec with fast retransmit housekeeping. Nodes run it at a 5 ms
/// RTO with the given response-loss policy (the straggler drops every
/// first reply); the front-end runs it loss-free at [`CLIENT_RTO`] — its
/// re-poll timer IS the straggler stall.
fn udp_spec(rto: Duration, server_loss: LossSpec) -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto { rto },
            max_attempts: 200,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

/// One measured mode. `subqueries` / `hedges` total the primary-path and
/// hedge sub-queries dispatched across all queries.
async fn run_mode(
    name: &str,
    hedged: bool,
    n: usize,
    p: usize,
    ids: &[u64],
    queries: usize,
) -> Json {
    // fresh fleet per mode so EWMA state never leaks across modes; node 0
    // is the straggler
    let mut addrs = Vec::new();
    let mut nodes = Vec::new();
    for id in 0..n {
        let loss = if id == 0 {
            LossSpec::FirstReplyPerRequest
        } else {
            LossSpec::None
        };
        let spec = udp_spec(Duration::from_millis(5), loss);
        let (addr, node) = spawn_extra_node_with(id, 1e7, 0.0, &spec)
            .await
            .expect("node");
        addrs.push(addr);
        nodes.push(node);
    }
    let frontend = udp_spec(CLIENT_RTO, LossSpec::None);
    let (client, admin) = connect_with(&addrs, p, 1.0, frontend.build())
        .await
        .expect("front-end");
    admin.store_synthetic(ids).await.expect("store");

    let (delays_ms, outputs) = closed_loop(&client, queries, |q| {
        let q = q.pq(n);
        if hedged {
            q.hedge(HedgePolicy::after(HEDGE_DELAY))
        } else {
            q
        }
    })
    .await;
    for (q, out) in outputs.iter().enumerate() {
        assert_eq!(out.harvest, 1.0, "{name}: query {q} lost windows");
        assert_eq!(
            out.scanned,
            ids.len() as u64,
            "{name}: query {q} not exactly-once"
        );
    }
    let subqueries: usize = outputs.iter().map(|o| o.subqueries).sum();
    let hedges: usize = outputs.iter().map(|o| o.hedges).sum();
    Json::obj([
        ("name", name.into()),
        ("hedged", hedged.into()),
        ("queries", queries.into()),
    ])
    .merge(Summary::from(&delays_ms).to_json("ms"))
    .merge(Json::obj([
        ("subqueries", subqueries.into()),
        ("hedges", hedges.into()),
    ]))
}

/// Run the comparison. `Quick` shrinks the fleet and query count for CI
/// smoke runs (note: at `n = 8` the structural fan-out overhead is 1/8;
/// the ≤ 10% acceptance bound is on the committed `Full` run's `n = 16`).
///
/// Headline members: `p99_speedup_hedged` = p99(unhedged) / p99(hedged),
/// and `fanout_overhead` = hedges / primary sub-queries in the hedged mode.
pub fn run(scale: Scale, _: &Filters) -> Result<Json, String> {
    let n = scale.pick(16, 8);
    let p = 4usize;
    let queries = scale.pick(60, 10);
    let ids = synthetic_ids(485, scale.pick(1600, 400));
    block_on(async {
        let unhedged = run_mode("unhedged", false, n, p, &ids, queries).await;
        let hedged = run_mode("hedged", true, n, p, &ids, queries).await;
        let speedup = number(&unhedged, &["p99_ms"])? / number(&hedged, &["p99_ms"])?;
        let overhead = number(&hedged, &["hedges"])? / number(&hedged, &["subqueries"])?.max(1.0);
        Ok(Json::obj([
            ("benchmark", "tail_hedged_scatter_gather".into()),
            (
                "config",
                Json::obj([
                    ("nodes", n.into()),
                    ("p", p.into()),
                    ("ids", ids.len().into()),
                    ("queries", queries.into()),
                    ("client_rto_ms", millis(CLIENT_RTO)),
                    ("hedge_delay_ms", millis(HEDGE_DELAY)),
                    (
                        "straggler",
                        "node 0 drops the first transmission of every reply".into(),
                    ),
                ]),
            ),
            ("modes", Json::Arr(vec![unhedged, hedged])),
            ("p99_speedup_hedged", Json::rounded(speedup, 2)),
            ("fanout_overhead", Json::rounded(overhead, 4)),
        ]))
    })
}

/// `mode`'s p99 in a tail document.
fn p99_of(doc: &Json, mode: &str) -> Result<f64, String> {
    let modes = doc.get("modes").ok_or("no modes")?;
    number(modes.find("name", mode).ok_or("mode missing")?, &["p99_ms"])
}

/// The CI gate: hedging must never make the tail worse.
pub fn gate(doc: &Json, _: Scale) -> Result<(), String> {
    let (hedged, unhedged) = (p99_of(doc, "hedged")?, p99_of(doc, "unhedged")?);
    if hedged > unhedged {
        return Err(format!(
            "hedged p99 {hedged:.1} ms exceeds unhedged p99 {unhedged:.1} ms"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tail_shows_hedging_wins() {
        let b = run(Scale::Quick, &Filters::default()).unwrap();
        // the acceptance direction: hedged p99 at or below unhedged p99
        gate(&b, Scale::Quick).expect("hedged p99 must not exceed unhedged p99");
        let modes = b.get("modes").unwrap();
        // the unhedged tail is RTO-shaped: every query waits out the re-poll
        let unhedged_p50 = number(modes.find("name", "unhedged").unwrap(), &["p50_ms"]).unwrap();
        assert!(
            unhedged_p50 >= CLIENT_RTO.as_millis() as f64 * 0.9,
            "unhedged p50 {unhedged_p50:.1} ms should carry the {} ms re-poll stall",
            CLIENT_RTO.as_millis()
        );
        let hedges = number(modes.find("name", "hedged").unwrap(), &["hedges"]).unwrap();
        assert!(hedges >= 1.0, "the straggler must actually be hedged");
    }

    #[test]
    fn gate_fails_when_hedging_hurts() {
        let mode =
            |name: &str, p99: f64| Json::obj([("name", name.into()), ("p99_ms", p99.into())]);
        let doc = |hedged| {
            Json::obj([(
                "modes",
                Json::Arr(vec![mode("unhedged", 40.0), mode("hedged", hedged)]),
            )])
        };
        assert!(gate(&doc(12.0), Scale::Quick).is_ok());
        assert!(gate(&doc(40.0), Scale::Quick).is_ok(), "a tie is not worse");
        assert!(gate(&doc(41.0), Scale::Quick)
            .unwrap_err()
            .contains("exceeds"));
    }
}
