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

use crate::Scale;
use rand::Rng;
use roar_cluster::harness::spawn_extra_node_with;
use roar_cluster::{
    connect_with, Backend, DatagramConfig, FixedRto, HedgePolicy, LossSpec, QueryBody, SchedOpts,
    TransportSpec,
};
use roar_util::{det_rng, percentile};
use std::time::{Duration, Instant};

/// The front-end's re-poll timer: how late a dropped response arrives. This
/// plays the role of the tail (GC pause / overloaded NIC / switch drop) the
/// hedge is meant to cut.
pub const CLIENT_RTO: Duration = Duration::from_millis(40);

/// How long a sub-query may straggle before the hedge fires — around the
/// healthy fleet's p99, far below the straggler's RTO stall.
pub const HEDGE_DELAY: Duration = Duration::from_millis(10);

/// One measured mode.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub name: &'static str,
    pub hedged: bool,
    pub queries: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Total primary-path sub-queries dispatched across all queries.
    pub subqueries: usize,
    /// Total hedge sub-queries dispatched across all queries.
    pub hedges: usize,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct BenchTail {
    pub nodes: usize,
    pub p: usize,
    pub ids: usize,
    pub queries: usize,
    pub modes: Vec<ModeResult>,
    /// p99(unhedged) / p99(hedged) — the headline.
    pub p99_speedup_hedged: f64,
    /// hedges / primary sub-queries in the hedged mode — must stay ≤ 0.10
    /// at full scale (the acceptance bound on fan-out overhead).
    pub fanout_overhead: f64,
}

/// A node-side UDP spec: fast retransmit housekeeping, with the given
/// response-loss policy (the straggler drops every first reply).
fn node_spec(server_loss: LossSpec) -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto {
                rto: Duration::from_millis(5),
            },
            max_attempts: 200,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

/// The front-end's UDP spec: the re-poll timer IS the straggler stall.
fn frontend_spec() -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto { rto: CLIENT_RTO },
            max_attempts: 200,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss: LossSpec::None,
    }
}

async fn run_mode(
    name: &'static str,
    hedged: bool,
    n: usize,
    p: usize,
    ids: &[u64],
    queries: usize,
) -> ModeResult {
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
        let (addr, node) = spawn_extra_node_with(id, 1e7, 0.0, &node_spec(loss), Backend::auto())
            .await
            .expect("node");
        addrs.push(addr);
        nodes.push(node);
    }
    let (client, admin) = connect_with(&addrs, p, 1.0, frontend_spec().build())
        .await
        .expect("front-end");
    admin.store_synthetic(ids).await.expect("store");

    let mut delays_ms = Vec::with_capacity(queries);
    let mut subqueries = 0usize;
    let mut hedges = 0usize;
    for q in 0..queries {
        let mut builder = client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(n);
        if hedged {
            builder = builder.hedge(HedgePolicy::after(HEDGE_DELAY));
        }
        let t0 = Instant::now();
        let out = builder.run().await;
        assert_eq!(out.harvest, 1.0, "{name}: query {q} lost windows");
        assert_eq!(
            out.scanned,
            ids.len() as u64,
            "{name}: query {q} not exactly-once"
        );
        delays_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        subqueries += out.subqueries;
        hedges += out.hedges;
    }
    delays_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ModeResult {
        name,
        hedged,
        queries,
        mean_ms: roar_util::mean(&delays_ms),
        p50_ms: percentile(&delays_ms, 50.0),
        p90_ms: percentile(&delays_ms, 90.0),
        p99_ms: percentile(&delays_ms, 99.0),
        max_ms: delays_ms.last().copied().unwrap_or(0.0),
        subqueries,
        hedges,
    }
}

/// Run the comparison. `Quick` shrinks the fleet and query count for CI
/// smoke runs (note: at `n = 8` the structural fan-out overhead is 1/8;
/// the ≤ 10% acceptance bound is on the committed `Full` run's `n = 16`).
pub fn run(scale: Scale) -> BenchTail {
    let n = scale.pick(16, 8);
    let p = 4usize;
    let queries = scale.pick(60, 10);
    let n_ids = scale.pick(1600, 400);
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async {
        let mut rng = det_rng(485);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen()).collect();
        let modes = vec![
            run_mode("unhedged", false, n, p, &ids, queries).await,
            run_mode("hedged", true, n, p, &ids, queries).await,
        ];
        let unhedged_p99 = modes[0].p99_ms;
        let hedged = &modes[1];
        let p99_speedup_hedged = unhedged_p99 / hedged.p99_ms;
        let fanout_overhead = hedged.hedges as f64 / hedged.subqueries.max(1) as f64;
        BenchTail {
            nodes: n,
            p,
            ids: n_ids,
            queries,
            modes,
            p99_speedup_hedged,
            fanout_overhead,
        }
    })
}

impl BenchTail {
    /// Render as JSON (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"tail_hedged_scatter_gather\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"nodes\": {}, \"p\": {}, \"ids\": {}, \"queries\": {}, \
             \"client_rto_ms\": {}, \"hedge_delay_ms\": {}, \
             \"straggler\": \"node 0 drops the first transmission of every reply\"}},\n",
            self.nodes,
            self.p,
            self.ids,
            self.queries,
            CLIENT_RTO.as_millis(),
            HEDGE_DELAY.as_millis()
        ));
        s.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"hedged\": {}, \"queries\": {}, \"mean_ms\": {:.2}, \
                 \"p50_ms\": {:.2}, \"p90_ms\": {:.2}, \"p99_ms\": {:.2}, \"max_ms\": {:.2}, \
                 \"subqueries\": {}, \"hedges\": {}}}{}\n",
                m.name,
                m.hedged,
                m.queries,
                m.mean_ms,
                m.p50_ms,
                m.p90_ms,
                m.p99_ms,
                m.max_ms,
                m.subqueries,
                m.hedges,
                if i + 1 < self.modes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"p99_speedup_hedged\": {:.2},\n  \"fanout_overhead\": {:.4}\n}}\n",
            self.p99_speedup_hedged, self.fanout_overhead
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tail_shows_hedging_wins() {
        let b = run(Scale::Quick);
        let unhedged = b.modes.iter().find(|m| m.name == "unhedged").unwrap();
        let hedged = b.modes.iter().find(|m| m.name == "hedged").unwrap();
        // the acceptance direction: hedged p99 at or below unhedged p99
        assert!(
            hedged.p99_ms <= unhedged.p99_ms,
            "hedged p99 {:.1} ms must not exceed unhedged p99 {:.1} ms",
            hedged.p99_ms,
            unhedged.p99_ms
        );
        // the unhedged tail is RTO-shaped: every query waits out the re-poll
        assert!(
            unhedged.p50_ms >= CLIENT_RTO.as_millis() as f64 * 0.9,
            "unhedged p50 {:.1} ms should carry the {} ms re-poll stall",
            unhedged.p50_ms,
            CLIENT_RTO.as_millis()
        );
        assert!(hedged.hedges >= 1, "the straggler must actually be hedged");
        let json = b.to_json();
        assert!(json.contains("tail_hedged_scatter_gather"));
        assert!(json.contains("fanout_overhead"));
    }
}
