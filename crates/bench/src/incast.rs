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

use crate::driver::{block_on, closed_loop, synthetic_ids};
use crate::{millis, number, Filters, Scale};
use roar_cluster::{
    spawn_cluster, ClusterConfig, DatagramConfig, FixedRto, LossSpec, TransportSpec,
};
use roar_util::{Json, Summary};
use std::time::Duration;

/// TCP's conservative minimum retransmission timeout (RFC 6298 lower bound
/// in common server kernels; the thesis measures 200 ms on Linux).
pub const TCP_MIN_RTO: Duration = Duration::from_millis(200);

/// The application-level RTO of the UDP path ("retransmissions will happen
/// after a few ms").
pub const APP_RTO: Duration = Duration::from_millis(5);

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

/// One measured mode: a fresh `n`-node cluster, `queries` full fan-outs.
async fn run_mode(
    name: &str,
    spec: TransportSpec,
    rto: Duration,
    synchronized_loss: bool,
    n: usize,
    ids: &[u64],
    queries: usize,
) -> Json {
    let transport = spec.name();
    // fast nodes: processing is negligible, the measured delay is the
    // fan-in and its recovery
    let h = spawn_cluster(ClusterConfig::uniform(n, 1e7, n).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");
    // full fan-out: all n nodes reply at once
    let (delays_ms, outputs) = closed_loop(&h.client, queries, |q| q.pq(n)).await;
    for (q, out) in outputs.iter().enumerate() {
        assert_eq!(out.harvest, 1.0, "{name}: query {q} lost windows");
        assert_eq!(
            out.scanned,
            ids.len() as u64,
            "{name}: query {q} not exactly-once"
        );
    }
    Json::obj([
        ("name", name.into()),
        ("transport", transport.into()),
        ("rto_ms", millis(rto)),
        ("synchronized_loss", synchronized_loss.into()),
        ("queries", queries.into()),
    ])
    .merge(Summary::from(&delays_ms).to_json("ms"))
}

/// Run the comparison. `Quick` shrinks the cluster and query count for CI
/// smoke runs. The headline member, `p99_speedup_udp_vs_tcp`, is
/// p99(tcp_min_rto_sim) / p99(udp_app_rto) — the §4.8.4 direction.
pub fn run(scale: Scale, _: &Filters) -> Result<Json, String> {
    let n = scale.pick(16, 5);
    let queries = scale.pick(40, 8);
    let ids = synthetic_ids(484, scale.pick(1600, 400));
    let lossy = LossSpec::FirstReplyPerRequest;
    let modes = [
        (
            "udp_app_rto",
            udp_spec(APP_RTO, 0.2, lossy.clone()),
            APP_RTO,
            true,
        ),
        (
            "tcp_min_rto_sim",
            udp_spec(TCP_MIN_RTO, 0.0, lossy),
            TCP_MIN_RTO,
            true,
        ),
        (
            "udp_no_loss",
            udp_spec(APP_RTO, 0.2, LossSpec::None),
            APP_RTO,
            false,
        ),
        ("tcp_loopback", TransportSpec::Tcp, TCP_MIN_RTO, false),
    ];
    block_on(async {
        let mut measured = Vec::new();
        for (name, spec, rto, loss) in modes {
            measured.push(run_mode(name, spec, rto, loss, n, &ids, queries).await);
        }
        let p99 = |mode: usize| number(&measured[mode], &["p99_ms"]);
        let speedup = p99(1)? / p99(0)?;
        Ok(Json::obj([
            ("benchmark", "incast_scatter_gather".into()),
            (
                "config",
                Json::obj([
                    ("nodes", n.into()),
                    ("fanout", n.into()),
                    ("ids", ids.len().into()),
                    ("queries", queries.into()),
                    ("app_rto_ms", millis(APP_RTO)),
                    ("tcp_min_rto_ms", millis(TCP_MIN_RTO)),
                    (
                        "loss",
                        "every node drops the first transmission of every reply".into(),
                    ),
                ]),
            ),
            ("modes", Json::Arr(measured)),
            ("p99_speedup_udp_vs_tcp", Json::rounded(speedup, 2)),
        ]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_incast_shows_the_424_direction() {
        let b = run(Scale::Quick, &Filters::default()).unwrap();
        let modes = b.get("modes").unwrap();
        let stat =
            |mode: &str, key: &str| number(modes.find("name", mode).unwrap(), &[key]).unwrap();
        // the acceptance criterion: under synchronized reply loss the UDP
        // path's p99 beats the simulated TCP min-RTO path
        let (udp, tcp) = (
            stat("udp_app_rto", "p99_ms"),
            stat("tcp_min_rto_sim", "p99_ms"),
        );
        assert!(
            udp < tcp,
            "udp p99 {udp:.1} ms must beat tcp-min-RTO p99 {tcp:.1} ms"
        );
        // and the stall is min-RTO-shaped: the TCP path cannot finish a
        // lossy fan-in faster than the 200 ms timer
        let tcp_p50 = stat("tcp_min_rto_sim", "p50_ms");
        assert!(
            tcp_p50 >= 200.0,
            "tcp-sim p50 {tcp_p50:.1} ms should carry the min-RTO stall"
        );
        assert!(number(&b, &["p99_speedup_udp_vs_tcp"]).unwrap() > 1.0);
    }
}
