//! The §4.8.4 incast comparison, at cluster scale
//! (`BENCH_incast.json`).
//!
//! One front-end fans a query out to all `n` nodes; the `n` replies arrive
//! simultaneously — the TCP-incast moment, where the thesis observes the
//! synchronized burst overflowing the front-end's switch buffer. The loss
//! is modelled with [`LossSpec::FirstReplyPerRequest`]: every node drops
//! the **first transmission** of every reply (the burst is lost at the
//! fan-in), and delivery then depends entirely on the sender's
//! retransmission timer:
//!
//! * `udp_app_rto` — the thesis's prescription: application-level acks and
//!   a millisecond retransmission timer; recovery costs one app RTO.
//! * `tcp_min_rto_sim` — the same datagram machinery with its timer pinned
//!   to 200 ms, TCP's conservative minimum RTO: what the paper's
//!   unmodified-TCP deployment suffers ("a long retransmit timeout must
//!   expire"). Loopback TCP cannot lose packets, so the min-RTO stall is
//!   reproduced by the timer, not by a kernel.
//! * `udp_no_loss` / `tcp_loopback` — loss-free references for both stacks
//!   (the fan-in cost without any recovery).
//!
//! The headline number is the p99 scatter-gather delay: the paper's
//! direction is that the UDP path completes the synchronized fan-in orders
//! of magnitude faster than a min-RTO-bound TCP.

use crate::Scale;
use rand::Rng;
use roar_cluster::SchedOpts;
use roar_cluster::{
    spawn_cluster, ClusterConfig, DatagramConfig, FixedRto, LossSpec, QueryBody, TransportSpec,
};
use roar_util::{det_rng, percentile};
use std::time::{Duration, Instant};

/// TCP's conservative minimum retransmission timeout (RFC 6298 lower bound
/// in common server kernels; the thesis measures 200 ms on Linux).
pub const TCP_MIN_RTO: Duration = Duration::from_millis(200);

/// The application-level RTO of the UDP path ("retransmissions will happen
/// after a few ms").
pub const APP_RTO: Duration = Duration::from_millis(5);

/// One measured mode.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub name: &'static str,
    pub transport: &'static str,
    pub rto_ms: f64,
    pub synchronized_loss: bool,
    pub queries: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct BenchIncast {
    pub nodes: usize,
    pub fanout: usize,
    pub ids: usize,
    pub queries: usize,
    pub modes: Vec<ModeResult>,
    /// p99(tcp_min_rto_sim) / p99(udp_app_rto) — the §4.8.4 headline.
    pub p99_speedup_udp_vs_tcp: f64,
}

fn udp_spec(rto: Duration, jitter: f64, server_loss: LossSpec) -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto { rto },
            // liveness budget: never mistake a min-RTO stall for a dead
            // node (acks reset the counter either way)
            max_attempts: 64,
            // the app-RTO modes carry the UDP path's real ±20% jitter;
            // the simulated-TCP mode pins 0 — a kernel's min-RTO timer
            // does not jitter, and neither may its stand-in
            jitter,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

async fn run_mode(
    name: &'static str,
    spec: TransportSpec,
    rto: Duration,
    synchronized_loss: bool,
    n: usize,
    ids: &[u64],
    queries: usize,
) -> ModeResult {
    let transport = spec.name();
    // fast nodes: processing is negligible, the measured delay is the
    // fan-in and its recovery
    let h = spawn_cluster(ClusterConfig::uniform(n, 1e7, n).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");
    let mut delays_ms = Vec::with_capacity(queries);
    for q in 0..queries {
        let t0 = Instant::now();
        // full fan-out: all n nodes reply at once
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(n)
            .run()
            .await;
        assert_eq!(out.harvest, 1.0, "{name}: query {q} lost windows");
        assert_eq!(
            out.scanned,
            ids.len() as u64,
            "{name}: query {q} not exactly-once"
        );
        delays_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    delays_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ModeResult {
        name,
        transport,
        rto_ms: rto.as_secs_f64() * 1e3,
        synchronized_loss,
        queries,
        mean_ms: roar_util::mean(&delays_ms),
        p50_ms: percentile(&delays_ms, 50.0),
        p90_ms: percentile(&delays_ms, 90.0),
        p99_ms: percentile(&delays_ms, 99.0),
        max_ms: delays_ms.last().copied().unwrap_or(0.0),
    }
}

/// Run the comparison. `Quick` shrinks the cluster and query count for CI
/// smoke runs.
pub fn run(scale: Scale) -> BenchIncast {
    let n = scale.pick(16, 5);
    let queries = scale.pick(40, 8);
    let n_ids = scale.pick(1600, 400);
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async {
        let mut rng = det_rng(484);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen()).collect();
        let modes = vec![
            run_mode(
                "udp_app_rto",
                udp_spec(APP_RTO, 0.2, LossSpec::FirstReplyPerRequest),
                APP_RTO,
                true,
                n,
                &ids,
                queries,
            )
            .await,
            run_mode(
                "tcp_min_rto_sim",
                udp_spec(TCP_MIN_RTO, 0.0, LossSpec::FirstReplyPerRequest),
                TCP_MIN_RTO,
                true,
                n,
                &ids,
                queries,
            )
            .await,
            run_mode(
                "udp_no_loss",
                udp_spec(APP_RTO, 0.2, LossSpec::None),
                APP_RTO,
                false,
                n,
                &ids,
                queries,
            )
            .await,
            run_mode(
                "tcp_loopback",
                TransportSpec::Tcp,
                TCP_MIN_RTO,
                false,
                n,
                &ids,
                queries,
            )
            .await,
        ];
        let udp_p99 = modes[0].p99_ms;
        let tcp_p99 = modes[1].p99_ms;
        BenchIncast {
            nodes: n,
            fanout: n,
            ids: n_ids,
            queries,
            modes,
            p99_speedup_udp_vs_tcp: tcp_p99 / udp_p99,
        }
    })
}

impl BenchIncast {
    /// Render as JSON (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"incast_scatter_gather\",\n");
        s.push_str(&format!(
            "  \"config\": {{\"nodes\": {}, \"fanout\": {}, \"ids\": {}, \"queries\": {}, \
             \"app_rto_ms\": {}, \"tcp_min_rto_ms\": {}, \
             \"loss\": \"every node drops the first transmission of every reply\"}},\n",
            self.nodes,
            self.fanout,
            self.ids,
            self.queries,
            APP_RTO.as_millis(),
            TCP_MIN_RTO.as_millis()
        ));
        s.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"transport\": \"{}\", \"rto_ms\": {:.0}, \
                 \"synchronized_loss\": {}, \"queries\": {}, \"mean_ms\": {:.2}, \
                 \"p50_ms\": {:.2}, \"p90_ms\": {:.2}, \"p99_ms\": {:.2}, \"max_ms\": {:.2}}}{}\n",
                m.name,
                m.transport,
                m.rto_ms,
                m.synchronized_loss,
                m.queries,
                m.mean_ms,
                m.p50_ms,
                m.p90_ms,
                m.p99_ms,
                m.max_ms,
                if i + 1 < self.modes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"p99_speedup_udp_vs_tcp\": {:.2}\n}}\n",
            self.p99_speedup_udp_vs_tcp
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_incast_shows_the_424_direction() {
        let b = run(Scale::Quick);
        let udp = b.modes.iter().find(|m| m.name == "udp_app_rto").unwrap();
        let tcp = b
            .modes
            .iter()
            .find(|m| m.name == "tcp_min_rto_sim")
            .unwrap();
        // the acceptance criterion: under synchronized reply loss the UDP
        // path's p99 beats the simulated TCP min-RTO path
        assert!(
            udp.p99_ms < tcp.p99_ms,
            "udp p99 {:.1} ms must beat tcp-min-RTO p99 {:.1} ms",
            udp.p99_ms,
            tcp.p99_ms
        );
        // and the stall is min-RTO-shaped: the TCP path cannot finish a
        // lossy fan-in faster than the 200 ms timer
        assert!(
            tcp.p50_ms >= 200.0,
            "tcp-sim p50 {:.1} ms should carry the min-RTO stall",
            tcp.p50_ms
        );
        let json = b.to_json();
        assert!(json.contains("incast_scatter_gather"));
        assert!(json.contains("p99_speedup_udp_vs_tcp"));
    }
}
