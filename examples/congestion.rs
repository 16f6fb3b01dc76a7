//! Congestion control on the datagram path: fixed-RTO UDP vs `ccudp`
//! when every reply crosses a shared, cross-traffic-loaded bottleneck.
//!
//! The §4.8.4 caveat in one run: the fixed 5 ms retransmission timer
//! keeps re-offering replies into a backlogged queue (duplicates burning
//! the drain rate), while ccudp's RTT-adaptive RTO rises with the
//! queueing delay, its AIMD window shrinks on loss, and pacing spreads
//! the rest — same cluster, same bottleneck, very different tail.
//!
//! Run with: `cargo run --release --example congestion`

use rand::Rng;
use roar::cluster::{
    spawn_cluster, ClusterConfig, CrossTrafficSpec, DatagramConfig, FixedRto, LossSpec, QueryBody,
    SchedOpts, TransportSpec,
};
use roar::util::det_rng;
use std::time::{Duration, Instant};

/// Emulated fan-in port: 600 datagrams/s drain, ~107 ms of buffer.
const DRAIN: f64 = 600.0;
const QUEUE_CAP: f64 = 64.0;
/// Background flows at 80% of the drain rate.
const CROSS_FRAC: f64 = 0.8;

async fn run_one(name: &str, spec_for: fn(LossSpec) -> TransportSpec) {
    // bring the cluster up on a quiet network, then ramp the cross traffic
    let bottleneck = CrossTrafficSpec::quiet(DRAIN, QUEUE_CAP).build();
    let spec = spec_for(LossSpec::Bottleneck(bottleneck.clone()));
    let h = spawn_cluster(ClusterConfig::uniform(6, 1e7, 3).with_transport(spec))
        .await
        .expect("cluster");
    let mut rng = det_rng(42);
    let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
    h.admin.store_synthetic(&ids).await.expect("store");
    bottleneck.set_cross_rate(CROSS_FRAC * DRAIN);
    // count only the congested phase: the quiet boot/store datagrams are
    // not part of the comparison
    let (admitted0, dropped0) = (bottleneck.admitted(), bottleneck.dropped());

    let mut worst = Duration::ZERO;
    let t_all = Instant::now();
    let queries = 12;
    let mut scanned = 0u64;
    for _ in 0..queries {
        let t0 = Instant::now();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        scanned += out.scanned;
        worst = worst.max(t0.elapsed());
    }
    let goodput = scanned as f64 / t_all.elapsed().as_secs_f64();
    println!(
        "{name:>13}: worst query {:>6.1} ms, goodput {goodput:>6.0} records/s, \
         bottleneck admitted {} / dropped {}",
        worst.as_secs_f64() * 1e3,
        bottleneck.admitted() - admitted0,
        bottleneck.dropped() - dropped0,
    );
}

#[tokio::main]
async fn main() {
    println!(
        "shared bottleneck: {DRAIN:.0} dgrams/s drain, {QUEUE_CAP:.0}-slot queue, \
         cross traffic at {:.0}% of drain\n",
        CROSS_FRAC * 100.0
    );
    run_one("udp_fixed_rto", |loss| TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto {
                rto: Duration::from_millis(5),
            },
            max_attempts: 64,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss: loss,
    })
    .await;
    run_one("ccudp", |loss| TransportSpec::CcUdp {
        cfg: DatagramConfig::default(),
        client_loss: LossSpec::None,
        server_loss: loss,
    })
    .await;
    println!(
        "\nthe fixed timer re-offers every reply ~20x under a full queue \
         (duplicates, then tail-drops);\nccudp folds the queueing delay into \
         its RTO and paces into the residual capacity."
    );
}
