//! What the cluster benches share: the runtime they run on, the transports
//! they sweep, their seeded corpus, and the one closed-loop query driver.
//!
//! Nothing here knows which bench calls it. Benches whose load is shaped
//! by something else keep their own loop: `churn` couples its stream to a
//! fault driver, `capacity` launches open-loop on a Poisson schedule.

use rand::Rng;
use roar_cluster::{
    AdaptiveConfig, DatagramConfig, FixedRto, LossSpec, QueryBody, QueryBuilder, QueryClient,
    QueryOutput, SchedOpts, TransportSpec,
};
use roar_util::det_rng;
use std::future::Future;
use std::time::{Duration, Instant};

/// Transport names, in artifact order.
pub const TRANSPORTS: [&str; 3] = ["tcp", "udp", "ccudp"];

/// The named transport under the liveness budgets the harness suite runs
/// under: a UDP RTO well below TCP's min-RTO with enough attempts that a
/// loaded CI machine does not false-positive the dead-peer detector, and
/// a ccudp dead-peer budget tight enough that probing a corpse (churn does
/// so constantly) costs milliseconds, not seconds.
pub fn transport_by_name(name: &str) -> TransportSpec {
    match name {
        "tcp" => TransportSpec::Tcp,
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
        other => panic!("unknown transport {other:?} ({})", TRANSPORTS.join("|")),
    }
}

/// `n` synthetic record ids, deterministic per `seed`.
pub fn synthetic_ids(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = det_rng(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Run one bench to completion on a fresh runtime (a bench owns its
/// runtime so no reactor state leaks from one artifact into the next).
pub fn block_on<F: Future>(bench: F) -> F::Output {
    tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime")
        .block_on(bench)
}

/// The closed-loop driver: `queries` synthetic queries back to back — the
/// next leaves when the previous returns — each shaped by `decorate`.
/// Scheduler optimisations are off ([`SchedOpts::default`]) so a bench
/// measures the mechanism it names, not §4.8.2's re-balancing around it.
/// Returns each query's wall time in milliseconds and its output.
pub async fn closed_loop(
    client: &QueryClient,
    queries: usize,
    decorate: impl Fn(QueryBuilder) -> QueryBuilder,
) -> (Vec<f64>, Vec<QueryOutput>) {
    let mut wall_ms = Vec::with_capacity(queries);
    let mut outputs = Vec::with_capacity(queries);
    for _ in 0..queries {
        let query = decorate(
            client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default()),
        );
        let t0 = Instant::now();
        outputs.push(query.run().await);
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (wall_ms, outputs)
}
