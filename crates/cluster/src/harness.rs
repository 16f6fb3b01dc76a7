//! In-process cluster harness: spawn `n` data nodes on loopback plus a
//! connected front-end — the one-machine stand-in for the thesis's Hen
//! testbed. Heterogeneity comes from per-node synthetic speeds; everything
//! else (framing, scheduling, failover, reconfiguration) is the real
//! networked code path.
//!
//! The transport is part of the configuration
//! ([`ClusterConfig::transport`]): the same harness runs over TCP framing,
//! the §4.8.4 datagram endpoint under either congestion policy (`udp`,
//! `ccudp`), and the tests below run every scenario under all three (see the
//! `per_transport!` macro) — the point of the [`crate::transport`] trait
//! boundary. The front-end comes back as the
//! typed handle pair: [`ClusterHandle::client`] for queries,
//! [`ClusterHandle::admin`] for control.

use crate::admin::Admin;
use crate::client::{connect_with, QueryClient};
use crate::node::{DataNode, NodeConfig};
use crate::transport::{NetGate, TransportSpec};
use std::sync::Arc;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-node synthetic scan speeds (records/second); length = n.
    pub speeds: Vec<f64>,
    /// Initial partitioning level.
    pub p: usize,
    /// Fixed per-sub-query node overhead, seconds.
    pub overhead_s: f64,
    /// Which transport the nodes serve and the front-end dispatches over.
    pub transport: TransportSpec,
    /// Give every node a [`NetGate`] partition switch in front of its
    /// server loss policy, so a fault injector can cut and heal individual
    /// nodes ([`crate::faults::FaultKind::Partition`]). Datagram
    /// transports only — TCP has no loss-injection hook, so its gate slots
    /// stay `None`.
    pub fault_gates: bool,
}

impl ClusterConfig {
    pub fn uniform(n: usize, speed: f64, p: usize) -> Self {
        ClusterConfig {
            speeds: vec![speed; n],
            p,
            overhead_s: 0.0,
            transport: TransportSpec::Tcp,
            fault_gates: false,
        }
    }

    /// Select the cluster transport (builder style).
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// Enable per-node partition gates (builder style). See
    /// [`ClusterConfig::fault_gates`].
    pub fn with_fault_gates(mut self) -> Self {
        self.fault_gates = true;
        self
    }
}

/// Wrap a node's server-side loss policy behind `gate`; `None` when the
/// transport has no loss-injection hook (TCP).
fn gate_transport(spec: &TransportSpec, gate: &NetGate) -> Option<TransportSpec> {
    match spec.clone() {
        TransportSpec::Tcp => None,
        TransportSpec::Udp {
            cfg,
            client_loss,
            server_loss,
        } => Some(TransportSpec::Udp {
            cfg,
            client_loss,
            server_loss: server_loss.gated(gate.clone()),
        }),
        TransportSpec::CcUdp {
            cfg,
            client_loss,
            server_loss,
        } => Some(TransportSpec::CcUdp {
            cfg,
            client_loss,
            server_loss: server_loss.gated(gate.clone()),
        }),
    }
}

/// A running cluster: the typed front-end handles plus node handles (for
/// direct inspection in tests/experiments).
pub struct ClusterHandle {
    /// Data plane: build queries, stream partial results.
    pub client: QueryClient,
    /// Control plane: membership, repartitioning, balancing, ingest.
    pub admin: Admin,
    pub nodes: Vec<Arc<DataNode>>,
    pub addrs: Vec<std::net::SocketAddr>,
    /// The spec every role was built from (backups and late joiners must
    /// speak the same transport).
    pub transport: TransportSpec,
    /// Per-node partition switches, index-aligned with `nodes`; populated
    /// only under [`ClusterConfig::fault_gates`] on a datagram transport.
    pub gates: Vec<Option<NetGate>>,
}

/// Spawn one extra data node over TCP (for §4.3 live-join experiments);
/// returns its bound address and handle. It serves but is not yet on any
/// ring — hand the address to [`Admin::add_node`].
pub async fn spawn_extra_node(
    id: usize,
    speed: f64,
    overhead_s: f64,
) -> std::io::Result<(std::net::SocketAddr, Arc<DataNode>)> {
    spawn_extra_node_with(id, speed, overhead_s, &TransportSpec::Tcp).await
}

/// [`spawn_extra_node`] over an explicit transport.
pub async fn spawn_extra_node_with(
    id: usize,
    speed: f64,
    overhead_s: f64,
    transport: &TransportSpec,
) -> std::io::Result<(std::net::SocketAddr, Arc<DataNode>)> {
    let node = Arc::new(DataNode::new(NodeConfig {
        id,
        speed,
        overhead_s,
    }));
    let (tx, rx) = tokio::sync::oneshot::channel();
    let n2 = Arc::clone(&node);
    let t = transport.build();
    tokio::spawn(async move {
        let _ = n2.serve_with(t, tx).await;
    });
    let addr = rx
        .await
        .map_err(|_| std::io::Error::other("node failed to bind"))?;
    Ok((addr, node))
}

/// Spawn the nodes, wait for them to bind, connect the front-end.
pub async fn spawn_cluster(cfg: ClusterConfig) -> std::io::Result<ClusterHandle> {
    assert!(!cfg.speeds.is_empty());
    assert!(cfg.p >= 1 && cfg.p <= cfg.speeds.len());
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    let mut gates = Vec::new();
    for (id, &speed) in cfg.speeds.iter().enumerate() {
        let (node_spec, gate) = if cfg.fault_gates {
            let gate = NetGate::open_gate();
            match gate_transport(&cfg.transport, &gate) {
                Some(spec) => (spec, Some(gate)),
                None => (cfg.transport.clone(), None),
            }
        } else {
            (cfg.transport.clone(), None)
        };
        let (addr, node) = spawn_extra_node_with(id, speed, cfg.overhead_s, &node_spec).await?;
        nodes.push(node);
        addrs.push(addr);
        gates.push(gate);
    }
    let default_speed_work = 1.0; // replaced by EWMA after first completions
    let (client, admin) =
        connect_with(&addrs, cfg.p, default_speed_work, cfg.transport.build()).await?;
    Ok(ClusterHandle {
        client,
        admin,
        nodes,
        addrs,
        transport: cfg.transport,
        gates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminError;
    use crate::client::{connect_backup_with, connect_with, HedgePolicy, SubStatus};
    use crate::faults::{FaultInjector, FaultKind, FaultSchedule};
    use crate::frontend::SchedOpts;
    use crate::proto::QueryBody;
    use crate::reconcile::{DesiredTopology, Reconciler};
    use crate::transport::{AdaptiveConfig, DatagramConfig, FixedRto, LossSpec, RpcError};
    use rand::Rng;
    use roar_core::placement::RoarRing;
    use roar_util::det_rng;
    use std::time::Duration;

    /// The UDP configuration the parametrized suite runs under: app-level
    /// RTO far below TCP's minimum, generous liveness budget so loaded CI
    /// machines do not false-positive the dead-peer detector.
    fn udp_spec() -> TransportSpec {
        TransportSpec::Udp {
            cfg: DatagramConfig {
                policy: FixedRto {
                    rto: Duration::from_millis(10),
                },
                max_attempts: 50,
                ..DatagramConfig::default()
            },
            client_loss: LossSpec::None,
            server_loss: LossSpec::None,
        }
    }

    /// The congestion-controlled configuration the parametrized suite runs
    /// under: RTO floor above loopback scheduler jitter, and a dead-peer
    /// budget kept *tight* — scenarios that kill nodes probe the corpse
    /// once per store/RPC, so a patient production budget (backed-off
    /// windows to 200 ms × 12 attempts ≈ 1.9 s per probe) would stretch
    /// the chain-break scenario to minutes of wall clock. 20 + 40 + 50×6
    /// ≈ 0.4 s per dead probe keeps the suite fast while still exercising
    /// the backoff path.
    fn ccudp_spec() -> TransportSpec {
        TransportSpec::CcUdp {
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
        }
    }

    /// Run each scenario under all three transports: `<name>::tcp`,
    /// `<name>::udp` and `<name>::ccudp` — parametrized, not duplicated.
    macro_rules! per_transport {
        ($(async fn $name:ident($spec:ident: TransportSpec) $body:block)*) => {$(
            mod $name {
                use super::*;

                async fn run($spec: TransportSpec) $body

                #[tokio::test]
                async fn tcp() {
                    run(TransportSpec::Tcp).await
                }

                #[tokio::test]
                async fn udp() {
                    run(udp_spec()).await
                }

                #[tokio::test]
                async fn ccudp() {
                    run(ccudp_spec()).await
                }
            }
        )*};
    }

    /// Shared body of the scale scenarios: spawn an `n`-node cluster,
    /// store a corpus, and verify exactly-once full-harvest queries. Only
    /// viable on the reactor runtime — the seed's thread-per-task executor
    /// drowned past ~16 nodes (each node held accept + per-link threads).
    async fn scale_scenario(n: usize, p: usize, spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(n, 1e6, p).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(977);
        let ids: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        for _ in 0..3 {
            let out = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
            assert_eq!(out.harvest, 1.0);
            assert_eq!(out.scanned, 2000, "exactly-once at {n} nodes");
            assert_eq!(out.subqueries, p);
            assert_eq!((out.refused, out.lost), (0, 0));
        }
    }

    per_transport! {

    async fn scale_128_nodes(spec: TransportSpec) {
        scale_scenario(128, 8, spec).await
    }

    async fn scale_512_nodes(spec: TransportSpec) {
        scale_scenario(512, 16, spec).await
    }

    async fn flash_crowd_admission_holds_slo(spec: TransportSpec) {
        // Definition 8 serial scanners: 4 nodes × 10k rec/s over a
        // 200-object corpus at p = 2 → 100 records (10 ms) per sub-query,
        // ~200 q/s capacity. A flash crowd at 3× capacity must be
        // absorbed at the admission door (§2.1): every admitted query
        // keeps full harvest and a bounded tail, the excess is shed as
        // yield — never queued into a latency collapse.
        let h = spawn_cluster(ClusterConfig::uniform(4, 10e3, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(5115);
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_serial_service(true).await.unwrap();
        // converge the front-end's speed EWMAs before opening the flood
        for _ in 0..15 {
            let out = h.client.query(QueryBody::Synthetic).run().await;
            assert_eq!(out.harvest, 1.0, "warmup must be full-harvest");
        }
        let slo = Duration::from_millis(250);
        let ctrl = std::sync::Arc::new(crate::admission::AdmissionController::new(
            crate::admission::SloConfig::new(slo).yield_floor(0.05),
        ));
        let arrivals = roar_workload::OpenLoopGen::constant(600.0, 31).schedule(0.8);
        let t0 = std::time::Instant::now();
        let mut tasks = Vec::new();
        for a in &arrivals {
            let client = h.client.clone();
            let door = std::sync::Arc::clone(&ctrl);
            let at = Duration::from_secs_f64(a.at_s);
            tasks.push(tokio::spawn(async move {
                tokio::time::sleep(at.saturating_sub(t0.elapsed())).await;
                let q0 = std::time::Instant::now();
                let out = client.query(QueryBody::Synthetic).admission(door).run().await;
                (q0.elapsed().as_secs_f64(), out)
            }));
        }
        let mut admitted_walls_ms = Vec::new();
        let mut shed = 0usize;
        for t in tasks {
            let (wall_s, out) = t.await.unwrap();
            if out.admitted {
                assert_eq!(
                    out.harvest, 1.0,
                    "admission trades yield, never harvest (§2.1)"
                );
                assert_eq!((out.refused, out.lost), (0, 0));
                admitted_walls_ms.push(wall_s * 1e3);
            } else {
                shed += 1;
            }
        }
        assert!(shed > 0, "3x capacity must shed at the door");
        assert!(
            admitted_walls_ms.len() > 50,
            "but the door must not collapse: {} admitted",
            admitted_walls_ms.len()
        );
        admitted_walls_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99_ms = roar_util::percentile(&admitted_walls_ms, 99.0);
        assert!(
            p99_ms <= slo.as_secs_f64() * 1e3,
            "admitted p99 {p99_ms:.1} ms must hold the {slo:?} SLO \
             (shed {shed}, admitted {})",
            admitted_walls_ms.len()
        );
    }

    async fn end_to_end_synthetic_query(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(211);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        // every object scanned exactly once across the sub-queries
        assert_eq!(out.scanned, 600, "exactly-once rendezvous over the wire");
        assert_eq!(out.subqueries, 3);
        assert_eq!((out.refused, out.lost, out.hedges), (0, 0, 0));
    }

    async fn paper_sched_defaults_stay_exact(spec: TransportSpec) {
        // the builder's SchedOpts::paper() defaults (§4.8.2 adjust + split
        // on) must preserve exactly-once matching even after the EWMA has
        // learned heterogeneous speeds and splitting kicks in
        let cfg = ClusterConfig {
            speeds: vec![8e5, 2e5, 8e5, 2e5, 8e5, 2e5],
            p: 2,
            overhead_s: 0.0,
            transport: spec,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.unwrap();
        let mut rng = det_rng(230);
        let ids: Vec<u64> = (0..900).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        for _ in 0..6 {
            let out = h.client.query(QueryBody::Synthetic).run().await;
            assert_eq!(out.scanned, 900, "exactly-once under paper sched opts");
            assert_eq!(out.harvest, 1.0);
            assert!(out.subqueries >= 2, "splits may only add sub-queries");
        }
    }

    async fn pps_query_end_to_end(spec: TransportSpec) {
        use crate::proto::WireTrapdoor;
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let enc = MetaEncryptor::new(b"alice");
        let mut rng = det_rng(212);
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(enc.encrypt(
                &mut rng,
                &FileMeta {
                    path: format!("/docs/f{i}.txt"),
                    keywords: if i == 13 {
                        vec!["sigcomm".into()]
                    } else {
                        vec![format!("w{i}")]
                    },
                    size: 1000 + i,
                    mtime: 1_500_000_000,
                },
            ));
        }
        let target = records[13].id;
        h.admin.store_records(&records).await.unwrap();
        let q = QueryCompiler::new(&enc)
            .compile(&[Predicate::Keyword("sigcomm".into())], Combiner::And);
        let body = QueryBody::Pps {
            trapdoors: q
                .trapdoors
                .iter()
                .map(WireTrapdoor::from_trapdoor)
                .collect(),
            conjunctive: true,
        };
        let out = h.client.query(body).run().await;
        assert_eq!(out.matches, vec![target]);
        assert_eq!(out.scanned, 40);
    }

    async fn invalid_request_leaves_no_outstanding_work(spec: TransportSpec) {
        // every node refuses a 65-predicate PPS query with `Msg::Error`:
        // each window is lost, and the dispatch charged for it must come
        // off the node's books — a node that validates requests is not a
        // busy node, and Algorithm 1 must not steer away from it
        use crate::proto::WireTrapdoor;
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(216);
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let body = QueryBody::Pps {
            trapdoors: vec![
                WireTrapdoor {
                    parts: vec![vec![0u8; 20]],
                };
                65
            ],
            conjunctive: true,
        };
        let out = h.client.query(body).run().await;
        assert!(out.subqueries >= 2);
        assert_eq!(out.lost, out.subqueries, "every window is refused as invalid");
        assert_eq!(out.harvest, 0.0);
        let st = h.client.core.stats.read();
        for n in 0..4 {
            assert_eq!(st.outstanding(n), 0.0, "node {n} still charged");
        }
    }

    async fn pq_above_p_still_exact(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(213);
        let ids: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(5)
            .run()
            .await;
        assert_eq!(out.scanned, 500, "pq>p must not duplicate or miss");
        assert_eq!(out.subqueries, 5);
    }

    async fn node_failure_preserves_exactness(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(214);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        // kill one node; r = 4 so data survives
        h.admin.kill_node(3).await;
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0, "fall-back must restore full harvest");
        assert_eq!(out.scanned, 400, "exactly-once under failure");
    }

    async fn increase_p_transition_safe(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(215);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(3).await.unwrap();
        assert_eq!(h.admin.p(), 3);
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 300, "after increasing p");
    }

    async fn decrease_p_transition_safe(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(216);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(2).await.unwrap();
        assert_eq!(h.admin.p(), 2);
        assert!(!h.admin.reconfig_in_flight());
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 300, "after decreasing p");
        assert_eq!(out.subqueries, 2);
    }

    async fn abort_then_repartition_stays_exact(spec: TransportSpec) {
        // admin-level abort coverage: aborting (even when nothing is in
        // flight — set_p here is synchronous) must leave the state machine
        // ready for a fresh decrease, and queries exact throughout
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(231);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.abort_repartition();
        assert!(!h.admin.reconfig_in_flight());
        assert_eq!(h.admin.p(), 3, "abort never moves the committed level");
        h.admin.set_p(2).await.unwrap();
        assert_eq!(h.admin.p(), 2);
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 300, "exact after abort + fresh decrease");
    }

    async fn answers_stay_exact_while_p_moves(spec: TransportSpec) {
        // §4.5 under load: a closed query loop runs beside ten set_p
        // toggles (2 → 3 → 2 …), and at least one query completes between
        // two toggles. A query whose window a coverage push refused
        // re-plans on the fresh ring; every answer is whole and
        // exactly-once.
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(244);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let (answered, mut answered_rx) = tokio::sync::watch::channel(());
        let looper = {
            let (client, stop) = (h.client.clone(), Arc::clone(&stop));
            tokio::spawn(async move {
                let mut outs = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let q = client.query(QueryBody::Synthetic);
                    outs.push(q.retry_on_partial(4, Duration::from_millis(5)).run().await);
                    let _ = answered.send(());
                }
                outs
            })
        };
        for _ in 0..5 {
            for p in [3, 2] {
                h.admin.set_p(p).await.unwrap();
                answered_rx.changed().await.unwrap();
            }
        }
        stop.store(true, Ordering::Release);
        let outs = looper.await.unwrap();
        assert!(outs.len() >= 10, "the loop ran beside the toggles");
        for out in &outs {
            assert_eq!(out.harvest, 1.0, "whole answer while p moves");
            assert_eq!(out.scanned, 300, "exactly-once while p moves");
        }
        assert_eq!((h.admin.p(), h.admin.reconfig_in_flight()), (2, false));
    }

    async fn backup_frontend_discovers_p_from_coverage(spec: TransportSpec) {
        // §4.8.3 option 1: a backup that starts at p = n learns the real p
        // from one CoverageRequest round
        let h = spawn_cluster(ClusterConfig::uniform(12, 1e6, 3).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(218);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(4).await.unwrap(); // pushes coverages
        let (bclient, badmin) = connect_backup_with(&h.addrs, 1.0, spec.build())
            .await
            .unwrap();
        assert_eq!(badmin.p(), 12, "backup starts at the always-safe p = n");
        // p = n queries work before discovery
        let out = bclient
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 600, "p = n is correct, just inefficient");
        let p = badmin.discover_p().await.unwrap();
        assert_eq!(p, 4, "discovered the committed p");
        let out = bclient
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!((out.scanned, out.subqueries), (600, 4));
    }

    async fn backup_frontend_discovers_p_by_probing(spec: TransportSpec) {
        // §4.8.3 option 2: guess-and-retry — refused probes bound p from
        // below, successful ones from above
        let h = spawn_cluster(ClusterConfig::uniform(12, 1e6, 3).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(219);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(6).await.unwrap();
        let (bclient, badmin) = connect_backup_with(&h.addrs, 1.0, spec.build())
            .await
            .unwrap();
        let p = badmin
            .discover_p_by_probing()
            .await
            .expect("live cluster: refusals only, no RPC errors");
        assert_eq!(p, 6, "probing converges on the committed p");
        let out = bclient
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 400);
    }

    async fn under_covered_query_is_refused_not_wrong(spec: TransportSpec) {
        // a front-end using too small a p gets refusals (harvest < 1), never
        // silently partial results counted as complete
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(220);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(4).await.unwrap(); // coverage now 1/4-arcs
                                         // a stale front-end still believing p = 2
        let (sclient, _sadmin) = connect_with(&h.addrs, 2, 1.0, spec.build())
            .await
            .unwrap();
        let out = sclient
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert!(out.harvest < 1.0, "nodes must refuse the too-wide windows");
        assert!(out.refused > 0, "refusals must be reported as refusals");
        assert_eq!(out.lost, 0, "refusal is not transport loss");
    }

    async fn failover_windows_respect_coverage(spec: TransportSpec) {
        // §4.4 fall-back pieces must land inside the neighbours' coverage
        // even with node-side enforcement on
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(221);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.set_p(4).await.unwrap(); // coverage set on every node
        h.admin.kill_node(5).await;
        for _ in 0..4 {
            let out = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
            assert_eq!(out.harvest, 1.0, "fall-back must not be refused");
            assert_eq!(out.scanned, 400, "exactly-once under failure + enforcement");
        }
    }

    async fn live_join_keeps_queries_exact(spec: TransportSpec) {
        // §4.3: a node joins a serving ring; data downloads before takeover
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(225);
        let ids: Vec<u64> = (0..900).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let (addr, new_node) = spawn_extra_node_with(6, 1e6, 0.0, &spec).await.unwrap();
        let new_id = h.admin.add_node(addr).await.unwrap();
        assert_eq!(new_id, 6);
        assert_eq!(h.admin.n(), 7);
        assert!(new_node.record_count() > 0, "join must download its arc");
        // queries remain exactly-once over the reshaped ring
        for _ in 0..3 {
            let out = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
            assert_eq!(out.scanned, 900, "exactly-once after join");
            assert_eq!(out.harvest, 1.0);
        }
        // the new node actually serves: its range is half the hot node's
        let frac = h
            .admin
            .range_fractions()
            .into_iter()
            .find(|(n, _)| *n == new_id)
            .map(|(_, f)| f)
            .unwrap();
        assert!(frac > 0.0, "new node owns ring range");
    }

    async fn join_beside_a_decrease_stays_exact(spec: TransportSpec) {
        // a §4.3 join and a §4.5 decrease started together: whichever runs
        // second downloads against the ring the first one left, so the
        // decrease is not lost and the joiner holds its p = 2 arc
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(245);
        let ids: Vec<u64> = (0..900).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let (addr, _new_node) = spawn_extra_node_with(6, 1e6, 0.0, &spec).await.unwrap();
        let decrease = {
            let admin = h.admin.clone();
            tokio::spawn(async move { admin.set_p(2).await })
        };
        h.admin.add_node(addr).await.unwrap();
        decrease.await.unwrap().unwrap();
        assert_eq!((h.admin.n(), h.admin.p()), (7, 2));
        let out = h.client.query(QueryBody::Synthetic).run().await;
        assert_eq!((out.refused, out.lost), (0, 0));
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 900, "exactly-once after join beside decrease");
    }

    async fn controlled_removal_keeps_queries_exact(spec: TransportSpec) {
        // §4.4: neighbours absorb the leaver's range before it shuts down
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(226);
        let ids: Vec<u64> = (0..700).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        h.admin.remove_node(2).await.unwrap();
        assert!(h.admin.range_fractions().iter().all(|(n, _)| *n != 2));
        for _ in 0..3 {
            let out = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
            assert_eq!(out.scanned, 700, "exactly-once after removal");
            assert_eq!(out.harvest, 1.0);
        }
    }

    async fn join_then_leave_roundtrip(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(5, 1e6, 2).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(227);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let (addr, _node) = spawn_extra_node_with(5, 1e6, 0.0, &spec).await.unwrap();
        let id = h.admin.add_node(addr).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 400);
        h.admin.remove_node(id).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 400, "back to the original membership");
    }

    async fn p2p_store_places_same_replicas_as_direct_push(spec: TransportSpec) {
        // §4.1 option 1: frontend touches only the first replica; the ring
        // chain must reproduce exactly the direct-push placement
        let h = spawn_cluster(ClusterConfig::uniform(9, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        h.admin.push_successors().await.unwrap();
        let mut rng = det_rng(222);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic_p2p(&ids).await.unwrap();
        let ring = h.admin.ring();
        for (node, dn) in h.nodes.iter().enumerate() {
            let expected = ids.iter().filter(|&&id| ring.stores(node, id)).count() as u64;
            assert_eq!(dn.record_count(), expected, "node {node} replica count");
        }
        // and queries see every object exactly once
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 300);
    }

    async fn p2p_store_falls_back_when_chain_breaks(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        h.admin.push_successors().await.unwrap();
        // kill a node: every chain through it breaks, the frontend must
        // fall back to direct pushes and the data must stay queryable
        h.admin.kill_node(3).await;
        let mut rng = det_rng(223);
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic_p2p(&ids).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 200, "fall-back must not lose objects");
    }

    async fn forwarding_without_successor_reports_error(spec: TransportSpec) {
        // nodes refuse to silently drop a chain
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        // no push_successors: chains cannot run, fallback engages
        let mut rng = det_rng(224);
        let ids: Vec<u64> = (0..100).map(|_| rng.gen()).collect();
        h.admin.store_synthetic_p2p(&ids).await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.scanned, 100, "fallback path stores everything");
    }

    async fn speed_estimates_converge_to_heterogeneity(spec: TransportSpec) {
        // two fast, two slow nodes; after some queries the EWMA should rank
        // them correctly (Fig 7.13's observed speeds)
        let cfg = ClusterConfig {
            speeds: vec![2e5, 2e5, 4e4, 4e4],
            p: 2,
            overhead_s: 0.0,
            transport: spec,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.unwrap();
        let mut rng = det_rng(217);
        let ids: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        for _ in 0..12 {
            let _ = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .pq(4)
                .run()
                .await;
        }
        let est = h.admin.speed_estimates();
        assert!(
            est[0] > est[2] && est[1] > est[3],
            "estimates should rank fast over slow: {est:?}"
        );
    }

    // ---- streaming / deadline / harvest / hedging scenarios ----------

    async fn stream_yields_one_partial_per_window(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(233);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let mut stream = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .stream();
        assert_eq!(stream.planned(), 3);
        let mut seen = Vec::new();
        let mut harvest_was_monotone = true;
        let mut last_harvest = 0.0;
        while let Some(partial) = stream.next().await {
            assert_eq!(partial.status, SubStatus::Done);
            assert!(!partial.hedged);
            seen.push(partial.index);
            harvest_was_monotone &= stream.harvest() >= last_harvest;
            last_harvest = stream.harvest();
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "one partial per planned window");
        assert!(harvest_was_monotone);
        let out = stream.finish();
        assert_eq!(out.scanned, 600);
        assert_eq!(out.harvest, 1.0);
    }

    async fn deadline_expiry_returns_partial_harvest(spec: TransportSpec) {
        // slow fleet: every window takes ~300 ms, deadline is 40 ms — the
        // stream must resolve at the deadline with harvest < 1 and the
        // plan's sub-query accounting intact
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e3, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(234);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let t0 = std::time::Instant::now();
        let mut stream = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .deadline(Duration::from_millis(40))
            .stream();
        while stream.next().await.is_some() {}
        assert!(stream.deadline_expired(), "the deadline must be the resolver");
        let out = stream.finish();
        assert!(
            t0.elapsed() < Duration::from_millis(280),
            "resolved long before the ~300 ms stragglers: {:?}",
            t0.elapsed()
        );
        assert!(out.harvest < 1.0, "full harvest cannot arrive in 40 ms");
        assert_eq!(
            out.subqueries, 2,
            "accounting covers the planned fan-out even for unanswered windows"
        );
        assert_eq!(out.lost, 0, "a deadline is not a transport loss");
        assert!(out.scanned < 600);
    }

    async fn harvest_target_resolves_early(spec: TransportSpec) {
        // 5 fast nodes + 1 straggler, full fan-out: a client asking for 80%
        // harvest must get its answer without waiting for the straggler
        let cfg = ClusterConfig {
            speeds: vec![1e6, 1e6, 1e6, 1e6, 1e6, 500.0],
            p: 2,
            overhead_s: 0.0,
            transport: spec,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.unwrap();
        let mut rng = det_rng(235);
        let ids: Vec<u64> = (0..1200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        // straggler window ≈ 200 ids / 500 per s = 0.4 s
        let t0 = std::time::Instant::now();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(6)
            .harvest_target(0.8)
            .run()
            .await;
        assert!(out.harvest >= 0.8, "target met: {}", out.harvest);
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "must not wait for the 0.4 s straggler: {:?}",
            t0.elapsed()
        );
    }

    async fn hedged_query_beats_straggler(spec: TransportSpec) {
        // one node 2000x slower; hedging re-dispatches its window to a
        // spare replica and the query stays exactly-once
        let cfg = ClusterConfig {
            speeds: vec![500.0, 1e6, 1e6, 1e6, 1e6, 1e6],
            p: 2,
            overhead_s: 0.0,
            transport: spec,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.unwrap();
        let mut rng = det_rng(236);
        let ids: Vec<u64> = (0..1200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        // straggler window ≈ 200 ids / 500 per s = 0.4 s unhedged
        let t0 = std::time::Instant::now();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(6)
            .hedge(HedgePolicy::after(Duration::from_millis(25)))
            .run()
            .await;
        let took = t0.elapsed();
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 1200, "exactly-once with hedging");
        assert!(out.hedges >= 1, "the straggler's window must be hedged");
        assert!(
            took < Duration::from_millis(330),
            "hedge must beat the 0.4 s straggler: {took:?}"
        );
    }

    // ---- reconciler / fault-injection scenarios ----------------------

    async fn reconciler_is_idempotent_on_converged_cluster(spec: TransportSpec) {
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(240);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let mut rec = Reconciler::new(h.admin.clone(), DesiredTopology::new(4, 2));
        let observed = rec.observe().await;
        assert!(
            crate::reconcile::plan(&observed, rec.desired()).is_empty(),
            "a converged cluster must plan the empty sequence"
        );
        let tick = rec.tick().await;
        assert_eq!((tick.applied, tick.plan.len()), (0, 0));
        assert_eq!(
            rec.run_to_convergence(4).await.unwrap(),
            0,
            "already converged: zero ticks of work"
        );
    }

    async fn reconciler_replaces_crashed_nodes_under_rolling_restart(spec: TransportSpec) {
        // a 2-node slice of the fleet cycles crash→replace while the
        // reconciler converges after each event; queries stay exact
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(241);
        let ids: Vec<u64> = (0..400).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let schedule = FaultSchedule::rolling_restart(2, Duration::from_millis(5), 42);
        let mut inj = FaultInjector::for_cluster(&h);
        let mut rec = Reconciler::new(h.admin.clone(), DesiredTopology::new(4, 2));
        for event in &schedule.events {
            tokio::time::sleep(event.after).await;
            // converge once the replacement exists; after a bare crash the
            // desired n is unreachable (no spare yet) by design
            if let Some(spare) = inj.apply(&event.kind).await {
                rec.add_spare(spare);
                rec.run_to_convergence(16).await.expect("converges");
            }
        }
        assert_eq!(h.admin.ring().n(), 4, "fleet size restored");
        for victim in 0..2 {
            assert!(
                h.admin.ring().map().range_of(victim).is_none(),
                "crashed node {victim} must be off the ring"
            );
        }
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 400, "exactly-once after the fleet cycled");
    }

    async fn reconciler_aborts_stalled_repartition_and_heals(spec: TransportSpec) {
        // satellite scenario: a node crashes mid-repartition. The decrease
        // stalls (typed RetriesExhausted, transition left in flight);
        // the reconciler aborts it, removes the corpse and re-plans to
        // convergence on the surviving membership.
        let h = spawn_cluster(ClusterConfig::uniform(5, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        let mut rng = det_rng(242);
        let ids: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let mut inj = FaultInjector::for_cluster(&h);
        inj.apply(&FaultKind::Crash { node: 4 }).await;
        let err = h.admin.set_p(2).await;
        assert!(
            matches!(
                err,
                Err(AdminError::RetriesExhausted {
                    op: "store",
                    node: 4,
                    ..
                })
            ),
            "decrease through a corpse must exhaust retries, got {err:?}"
        );
        assert!(
            h.admin.reconfig_in_flight(),
            "stalled decrease stays in flight (queries keep the old pq)"
        );
        assert_eq!(
            h.admin.set_p(2).await,
            Err(AdminError::RepartitionInFlight),
            "a second set_p waits for the abort instead of panicking"
        );
        let mut rec = Reconciler::new(h.admin.clone(), DesiredTopology::new(4, 2));
        rec.run_to_convergence(16).await.expect("heals");
        assert!(!h.admin.reconfig_in_flight());
        assert_eq!(h.admin.p(), 2);
        assert_eq!(h.admin.ring().n(), 4);
        assert!(h.admin.ring().map().range_of(4).is_none());
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 500, "exactly-once on the healed membership");
    }

    async fn reconciler_scales_out_on_flash_crowd(spec: TransportSpec) {
        // n doubles mid-life: spares join one at a time, each downloading
        // its data before taking over its range, so queries never see an
        // uncovered window
        let h = spawn_cluster(ClusterConfig::uniform(3, 1e6, 3).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(243);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let mut rec = Reconciler::new(h.admin.clone(), DesiredTopology::new(3, 3));
        for id in 3..6 {
            let (addr, _node) = spawn_extra_node_with(id, 1e6, 0.0, &spec).await.unwrap();
            rec.add_spare(addr);
        }
        rec.set_desired(DesiredTopology::new(6, 3));
        rec.run_to_convergence(16).await.expect("scale-out converges");
        assert_eq!(h.admin.ring().n(), 6);
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 300, "exactly-once on the doubled fleet");
    }

    }

    /// The probing discovery must NOT mistake transport loss for a coverage
    /// refusal: with a dead run longer than the replication arc some
    /// windows are unrecoverable, and the bisection aborts with `Err`
    /// instead of silently folding the loss into its guess of p.
    ///
    /// UDP-only by construction: over TCP a dead node is either visible at
    /// connect time (refused connection) or — if the backup connected
    /// before the kill — its already-open connection keeps being served
    /// until it drops, so the datagram path is where a silent black hole
    /// actually happens.
    #[tokio::test]
    async fn probing_surfaces_rpc_errors_over_udp() {
        let spec = udp_spec();
        let h = spawn_cluster(ClusterConfig::uniform(8, 1e6, 2).with_transport(spec.clone()))
            .await
            .unwrap();
        let mut rng = det_rng(232);
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        // kill 5 contiguous nodes: any replication arc through them is gone
        for node in 0..5 {
            h.admin.kill_node(node).await;
        }
        let (_bclient, badmin) = connect_backup_with(&h.addrs, 1.0, spec.build())
            .await
            .unwrap();
        let err = badmin.discover_p_by_probing().await;
        assert!(
            matches!(err, Err(RpcError::Timeout) | Err(RpcError::Disconnected)),
            "dead majority must surface as an RPC error, got {err:?}"
        );
    }

    // Partitions need a loss-injection hook, so this leg is datagram-only:
    // closing a node's [`NetGate`] makes its replies vanish (the front-end
    // sees a corpse), re-opening heals it in place with its data intact.
    #[tokio::test]
    async fn partition_gate_cuts_and_heals_in_place_over_udp() {
        let h = spawn_cluster(
            ClusterConfig::uniform(4, 1e6, 2)
                .with_transport(udp_spec())
                .with_fault_gates(),
        )
        .await
        .unwrap();
        let mut rng = det_rng(233);
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let mut inj = FaultInjector::for_cluster(&h);
        assert!(inj.can_partition(0), "fault gates were requested");
        inj.apply(&FaultKind::Partition { node: 0 }).await;
        assert!(
            !h.admin.probe_alive(0).await,
            "a partitioned node is indistinguishable from a crashed one"
        );
        // replicas still cover node 0's windows: harvest stays exact
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.scanned, 200, "failover re-covers the cut windows");
        inj.apply(&FaultKind::Heal { node: 0 }).await;
        assert!(
            h.admin.probe_alive(0).await,
            "healed partition: same process, data intact"
        );
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!((out.harvest, out.scanned), (1.0, 200));
    }

    /// Run each gate-timed scenario under the two datagram transports,
    /// `<name>::udp` and `<name>::ccudp`: a [`NetGate`] is a
    /// loss-injection hook, which TCP lacks.
    macro_rules! per_datagram {
        ($(#[$doc:meta])* async fn $name:ident($spec:ident: TransportSpec) $body:block) => {
            $(#[$doc])*
            mod $name {
                use super::*;

                async fn run($spec: TransportSpec) $body

                #[tokio::test]
                async fn udp() {
                    run(udp_spec()).await
                }

                #[tokio::test]
                async fn ccudp() {
                    run(ccudp_spec()).await
                }
            }
        };
    }

    /// Poll until `node` holds `count` records.
    async fn wait_for_count(node: &DataNode, count: u64) {
        while node.record_count() != count {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    /// Store `ids` (through the p2p chain when `p2p` is set) while the
    /// node behind `gate` holds a placement change open, then let the
    /// change finish. Where the write reaches the gated node, its `Store`
    /// lands but the reply is held, so the store runs as a task: the gate
    /// opens once the store has finished or the gated node's count has
    /// risen.
    async fn store_beside(
        h: &ClusterHandle,
        gated: &DataNode,
        gate: &NetGate,
        ids: Vec<u64>,
        p2p: bool,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let before = gated.record_count();
        let done = Arc::new(AtomicBool::new(false));
        let store = {
            let (admin, done) = (h.admin.clone(), Arc::clone(&done));
            tokio::spawn(async move {
                let stored = match p2p {
                    true => admin.store_synthetic_p2p(&ids).await,
                    false => admin.store_synthetic(&ids).await,
                };
                done.store(true, Ordering::Release);
                stored
            })
        };
        while !done.load(Ordering::Acquire) && gated.record_count() == before {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        gate.open();
        store.await.unwrap().unwrap();
    }

    /// After a placement change: `gainer` holds exactly what its coverage
    /// requires; every other node at least that (a `Store` landing after
    /// the commit's trim leaves a node extra records, which its window
    /// never scans); and a full query scans each of the `stored` ids once.
    async fn assert_exact_after(
        h: &ClusterHandle,
        nodes: &[&DataNode],
        gainer: usize,
        stored: u64,
    ) {
        let ring = h.admin.ring();
        for (node, dn) in nodes.iter().enumerate() {
            let (held, expected) = (dn.record_count(), h.admin.expected_records(&ring, node));
            match node == gainer {
                true => assert_eq!(held, expected, "node {node} gained"),
                false => assert!(held >= expected, "node {node}: {held} < {expected}"),
            }
        }
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!((out.harvest, out.refused, out.lost), (1.0, 0, 0));
        assert_eq!(out.scanned, stored, "every stored id, once");
    }

    /// Writes made while a joiner downloads (§4.3) reach it. A six-node
    /// cluster at `p = 3` holds 300 ids; the joiner's own gate holds the
    /// join open once it holds its download, and 300 more ids are stored
    /// then. Placed on the serving ring alone, the joiner's share of them
    /// would sit on the node whose range it splits, which trims them, and
    /// the joiner would answer its windows short at harvest 1.0.
    async fn join_scenario(spec: TransportSpec, p2p: bool) {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3).with_transport(spec))
            .await
            .unwrap();
        if p2p {
            h.admin.push_successors().await.unwrap();
        }
        let mut rng = det_rng(247);
        let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.unwrap();
        let gate = NetGate::open_gate();
        let joiner_spec = gate_transport(&h.transport, &gate).expect("datagram");
        let (addr, joiner) = spawn_extra_node_with(6, 1e6, 0.0, &joiner_spec)
            .await
            .unwrap();
        gate.close();
        let join = {
            let admin = h.admin.clone();
            tokio::spawn(async move { admin.add_node(addr).await })
        };
        while joiner.record_count() == 0 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        let more: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        store_beside(&h, &joiner, &gate, more, p2p).await;
        assert_eq!(join.await.unwrap(), Ok(6));
        let mut nodes: Vec<&DataNode> = h.nodes.iter().map(|n| &**n).collect();
        nodes.push(&joiner);
        assert_exact_after(&h, &nodes, 6, 600).await;
    }

    per_datagram! {
        async fn writes_beside_a_join_reach_the_joiner(spec: TransportSpec) {
            join_scenario(spec, false).await
        }
    }

    per_datagram! {
        /// The p2p store beside a join: the chain runs along the serving
        /// ring, and the joiner, which the pending ring adds, gets its ids
        /// by a direct `Store`.
        async fn p2p_writes_beside_a_join_reach_the_joiner(spec: TransportSpec) {
            join_scenario(spec, true).await
        }
    }

    per_datagram! {
        /// A write made while a §4.5 decrease is in flight reaches the nodes
        /// whose extension was already pushed: stores place it on the
        /// pending ring too. Node 5's gate holds the decrease open after
        /// nodes 0–4 hold their extensions; 100 ids node 5 will not cover
        /// are stored then. Placed at the old level, they would miss the
        /// extensions, and after the commit those nodes would answer their
        /// wider windows short at harvest 1.0.
        async fn writes_beside_a_decrease_reach_the_extension(spec: TransportSpec) {
            let cfg = ClusterConfig::uniform(6, 1e6, 3).with_transport(spec);
            let h = spawn_cluster(cfg.with_fault_gates()).await.unwrap();
            let mut rng = det_rng(246);
            let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
            h.admin.store_synthetic(&ids).await.unwrap();
            let mut target = h.admin.ring();
            target.set_p(2);
            let gate = h.gates[5].clone().expect("fault gates");
            gate.close();
            let decrease = {
                let admin = h.admin.clone();
                tokio::spawn(async move { admin.set_p(2).await })
            };
            for node in 0..5 {
                let expected = h.admin.expected_records(&target, node);
                wait_for_count(&h.nodes[node], expected).await;
            }
            assert!(h.admin.reconfig_in_flight(), "node 5 holds it open");
            let more: Vec<u64> = std::iter::repeat_with(|| rng.gen())
                .filter(|&id| !target.stores(5, id))
                .take(100)
                .collect();
            h.admin.store_synthetic(&more).await.unwrap();
            gate.open();
            decrease.await.unwrap().unwrap();
            let ring = h.admin.ring();
            assert_eq!(ring.p(), 2);
            for (node, held) in h.nodes.iter().map(|n| n.record_count()).enumerate() {
                assert_eq!(held, h.admin.expected_records(&ring, node), "node {node}");
            }
        }
    }

    /// Run `change`, which moves the serving ring to `next`, hold it open
    /// at `gainer`'s gate once `gainer` holds its download of the `stored`
    /// ids, store 100 fresh ids inside `gainer`'s gain beside it, and check
    /// the cluster after the change lands.
    async fn gain_scenario<F>(
        h: ClusterHandle,
        next: RoarRing,
        gainer: usize,
        stored: &[u64],
        change: F,
    ) where
        F: std::future::Future<Output = Result<(), AdminError>> + Send + 'static,
    {
        let old = h.admin.ring();
        let gains = |id: u64| next.stores(gainer, id) && !old.stores(gainer, id);
        let download = stored.iter().filter(|&&id| gains(id)).count() as u64;
        let gate = h.gates[gainer].clone().expect("fault gates");
        let before = h.nodes[gainer].record_count();
        gate.close();
        let change = tokio::spawn(change);
        wait_for_count(&h.nodes[gainer], before + download).await;
        let mut rng = det_rng(249);
        let more: Vec<u64> = std::iter::repeat_with(|| rng.gen())
            .filter(|&id| gains(id))
            .take(100)
            .collect();
        store_beside(&h, &h.nodes[gainer], &gate, more, false).await;
        change.await.unwrap().unwrap();
        assert_eq!(h.admin.ring().map().entries(), next.map().entries());
        let nodes: Vec<&DataNode> = h.nodes.iter().map(|n| &**n).collect();
        assert_exact_after(&h, &nodes, gainer, stored.len() as u64 + 100).await;
    }

    per_datagram! {
        /// Writes made while a removal's heir downloads (§4.4) reach the
        /// heir: node 3 leaves, its predecessor 2 inherits its range, and
        /// 100 ids inside that inheritance are stored while heir 2's gate
        /// holds the removal open. Placed on the serving ring alone they
        /// would sit on node 3, which leaves, and the heir would answer
        /// short at harvest 1.0.
        async fn writes_beside_a_removal_reach_the_heir(spec: TransportSpec) {
            let cfg = ClusterConfig::uniform(6, 1e6, 3).with_transport(spec);
            let h = spawn_cluster(cfg.with_fault_gates()).await.unwrap();
            let mut rng = det_rng(250);
            let ids: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
            h.admin.store_synthetic(&ids).await.unwrap();
            let mut next = h.admin.ring();
            next.map_mut().remove(3);
            let admin = h.admin.clone();
            gain_scenario(h, next, 2, &ids, async move { admin.remove_node(3).await }).await
        }
    }

    per_datagram! {
        /// Writes made while a §4.6 balancing step downloads reach the node
        /// whose range grows. Heterogeneous speeds make the step move
        /// boundaries; the moved ring is predicted with
        /// `roar_core::balance::balance_step` on the front end's estimates,
        /// and the node that gains most holds the step open at its gate.
        async fn writes_beside_a_balance_step_reach_the_gainer(spec: TransportSpec) {
            let mut cfg = ClusterConfig::uniform(6, 1e6, 3).with_transport(spec);
            cfg.speeds = vec![800_000.0, 100_000.0, 800_000.0, 100_000.0, 800_000.0, 100_000.0];
            let h = spawn_cluster(cfg.with_fault_gates()).await.unwrap();
            let mut rng = det_rng(251);
            let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
            h.admin.store_synthetic(&ids).await.unwrap();
            for _ in 0..6 {
                let q = h.client.query(QueryBody::Synthetic);
                q.sched(SchedOpts::default()).pq(6).run().await;
            }
            let old = h.admin.ring();
            let speeds = h.admin.speed_estimates();
            let mut next = old.clone();
            let load = |n: usize| {
                let i = old.map().entries().iter().position(|e| e.node == n).unwrap();
                old.map().fraction_at(i) / speeds[n]
            };
            let cfg = roar_core::balance::BalanceConfig::default();
            let moved = roar_core::balance::balance_step(next.map_mut(), &cfg, &load, &|_| false);
            assert!(moved > 0, "the speeds differ enough to move boundaries");
            let gained = |n: usize| ids.iter().filter(|&&id| next.stores(n, id) && !old.stores(n, id)).count();
            let gainer = (0..6).max_by_key(|&n| gained(n)).unwrap();
            assert!(gained(gainer) > 0);
            let admin = h.admin.clone();
            let step = async move { admin.balance_step().await.map(|_| ()) };
            gain_scenario(h, next, gainer, &ids, step).await
        }
    }

    /// An id stored again is held once by the backend as by the nodes: a
    /// batch stored twice (a caller retrying after `RetriesExhausted`) and
    /// one record stored again under a new nonce leave what the backend
    /// expects of each node equal to what the node holds, so the reconciler
    /// finds the cluster converged instead of planning `Backfill` until it
    /// stalls. The counts do not depend on the transport: TCP only.
    #[tokio::test]
    async fn restored_ids_leave_the_reconciler_converged_over_tcp() {
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 2))
            .await
            .unwrap();
        let enc = MetaEncryptor::with_points(b"again", vec![1], vec![1]);
        let mut rng = det_rng(244);
        let meta = |i: u64| FileMeta {
            path: format!("/again/f{i}"),
            keywords: vec![format!("w{i}")],
            size: i,
            mtime: 1,
        };
        let records: Vec<_> = (0..60).map(|i| enc.encrypt(&mut rng, &meta(i))).collect();
        let ids: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        for _ in 0..2 {
            h.admin.store_records(&records).await.unwrap();
            h.admin.store_synthetic(&ids).await.unwrap();
        }
        let mut newer = records[7].clone();
        newer.body.nonce ^= 1;
        h.admin.store_records(&[newer]).await.unwrap();

        let mut rec = Reconciler::new(h.admin.clone(), DesiredTopology::new(4, 2));
        let ticks = rec.run_to_convergence(8).await.expect("converges");
        assert_eq!(ticks, 0, "converged as stored: nothing planned");
        let ring = h.admin.ring();
        for node in 0..4 {
            let held = h.admin.node_record_count(node).await.unwrap();
            assert_eq!(held, h.admin.expected_records(&ring, node), "node {node}");
        }
    }
}
