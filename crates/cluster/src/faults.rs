//! Deterministic fault injection: seeded schedules of node crash/restart,
//! network partition, and slow-node degradation, driven against a live
//! cluster.
//!
//! Robustness claims are only as good as their failure model, and a
//! failure model is only as good as its reproducibility. Every fault here
//! is **deterministic**: schedules are plain data built from a seed
//! ([`FaultSchedule`]), partitions flip a shared
//! [`NetGate`] rather than racing real
//! sockets, and slow nodes scale a synthetic processing factor
//! (`Msg::SetSpeedFactor`) instead of fighting the OS scheduler. A churn
//! scenario that converges with harvest ≥ 0.9 does so on every run of the
//! same seed — the property `repro bench_churn` commits to.
//!
//! Fault kinds, and what each models:
//!
//! * [`FaultKind::Crash`] — fail-stop: the node is told to shut down and
//!   is marked dead (same path as [`Admin::kill_node`]), then probed until
//!   confirmed silent, so the fault has fully taken effect when `apply`
//!   returns.
//! * [`FaultKind::Restart`] — a replacement process: a **fresh** node
//!   (new port, empty store, no coverage: it refuses every window until
//!   its join assigns one) is spawned with the crashed node's execution
//!   profile and handed to the caller as a spare for the
//!   [`Reconciler`](crate::reconcile::Reconciler) to join; data
//!   rehydrates from the backend during the join download, the §4.3 path.
//! * [`FaultKind::Partition`] / [`FaultKind::Heal`] — close/open the
//!   node's [`NetGate`]: its replies vanish in
//!   flight, indistinguishable from a crash to the front-end, but the
//!   process keeps running and heals in place. Requires
//!   [`ClusterConfig::with_fault_gates`](crate::harness::ClusterConfig::with_fault_gates)
//!   and a datagram transport (TCP has no loss-injection hook; `apply`
//!   reports the fault as skipped).
//! * [`FaultKind::Slow`] — the §4.8.2 straggler: alive and correct, just
//!   `factor`× slower.
//!
//! ```no_run
//! # async fn demo(h: &roar_cluster::harness::ClusterHandle,
//! #               rec: &mut roar_cluster::reconcile::Reconciler) {
//! use roar_cluster::faults::{FaultInjector, FaultSchedule};
//! use std::time::Duration;
//!
//! // crash→replace each of nodes 0..4 in turn, 50 ms apart, with
//! // deterministic per-event jitter from seed 7
//! let schedule = FaultSchedule::rolling_restart(4, Duration::from_millis(50), 7);
//! let mut injector = FaultInjector::for_cluster(h);
//! for event in &schedule.events {
//!     tokio::time::sleep(event.after).await;
//!     if let Some(spare) = injector.apply(&event.kind).await {
//!         rec.add_spare(spare);
//!     }
//!     rec.run_to_convergence(16).await.expect("converges");
//! }
//! # }
//! ```

use crate::admin::Admin;
use crate::harness::ClusterHandle;
use crate::node::DataNode;
use crate::transport::{NetGate, TransportSpec};
use rand::Rng;
use roar_dr::rack::RackLayout;
use roar_util::det_rng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop crash of a ring member.
    Crash { node: usize },
    /// Spawn a fresh replacement for a crashed node (same speed/overhead
    /// profile, new port, empty store). [`FaultInjector::apply`] returns
    /// the spare's address — register it with the reconciler.
    Restart { node: usize },
    /// Cut the node's network gate: replies vanish until [`FaultKind::Heal`].
    Partition { node: usize },
    /// Re-open the node's network gate.
    Heal { node: usize },
    /// Degrade the node's synthetic processing by `factor` (1.0 restores).
    Slow { node: usize, factor: f64 },
}

/// A fault at an offset: `after` is the delay since the *previous* event
/// (so schedules compose by concatenation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub after: Duration,
    pub kind: FaultKind,
}

/// A seeded, deterministic fault schedule: plain data, built once,
/// replayable forever.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule to build on with [`Self::then_after`].
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// Append one event `after` the previous one (builder style).
    pub fn then_after(mut self, after: Duration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { after, kind });
        self
    }

    /// Rolling restart of nodes `0..n`: crash node *i*, immediately spawn
    /// its replacement, wait `gap` (plus deterministic jitter of up to
    /// `gap/2`, drawn from `seed`) before the next victim. The whole fleet
    /// cycles; with a reconciler converging between events, harvest never
    /// drops below target — the headline churn scenario.
    pub fn rolling_restart(n: usize, gap: Duration, seed: u64) -> Self {
        let mut rng = det_rng(seed ^ 0x5254_5254); // "RTRT"
        let mut s = FaultSchedule::new(seed);
        for node in 0..n {
            let jitter = gap.mul_f64(0.5 * rng.gen::<f64>());
            s = s
                .then_after(gap + jitter, FaultKind::Crash { node })
                .then_after(Duration::ZERO, FaultKind::Restart { node });
        }
        s
    }

    /// Correlated rack failure: every node of `rack` under `layout`
    /// crashes at once (the `crates/dr` §4.9 failure model, driven live).
    /// No replacements — the survivors must re-cover the ring.
    pub fn rack_failure(layout: &RackLayout, rack: usize, seed: u64) -> Self {
        let mut s = FaultSchedule::new(seed);
        let mut first = true;
        for node in layout.servers_in_rack(rack) {
            let after = if first {
                Duration::from_millis(10)
            } else {
                Duration::ZERO
            };
            first = false;
            s = s.then_after(after, FaultKind::Crash { node });
        }
        s
    }
}

/// Applies [`FaultKind`]s to one live cluster. Holds clones of the
/// cluster's control handle, transport spec, per-node execution profiles
/// and partition gates — everything needed to crash, replace, cut and
/// degrade nodes deterministically.
pub struct FaultInjector {
    admin: Admin,
    transport: TransportSpec,
    /// (speed, overhead_s) per original node id — replacement nodes
    /// inherit their victim's profile.
    profiles: Vec<(f64, f64)>,
    gates: Vec<Option<NetGate>>,
    /// Replacement nodes spawned so far (kept alive for inspection).
    pub spawned: Vec<(SocketAddr, Arc<DataNode>)>,
    next_id: usize,
}

impl FaultInjector {
    /// Build an injector for a harness-spawned cluster.
    pub fn for_cluster(h: &ClusterHandle) -> Self {
        FaultInjector {
            admin: h.admin.clone(),
            transport: h.transport.clone(),
            profiles: h
                .nodes
                .iter()
                .map(|n| (n.cfg.speed, n.cfg.overhead_s))
                .collect(),
            gates: h.gates.clone(),
            spawned: Vec::new(),
            next_id: h.nodes.len(),
        }
    }

    /// Execution profile for a node id (replacements reuse their victim's;
    /// ids beyond the original fleet fall back to node 0's profile).
    fn profile(&self, node: usize) -> (f64, f64) {
        self.profiles
            .get(node)
            .copied()
            .unwrap_or_else(|| self.profiles[0])
    }

    /// Apply one fault. Returns the address of a freshly spawned
    /// replacement for [`FaultKind::Restart`] (register it as a reconciler
    /// spare), `None` otherwise. Partition/Heal on a cluster without fault
    /// gates (TCP, or gates not enabled) is a no-op.
    pub async fn apply(&mut self, kind: &FaultKind) -> Option<SocketAddr> {
        match *kind {
            FaultKind::Crash { node } => {
                self.admin.kill_node(node).await;
                // fail-stop means *stopped*: shutdown propagates to the
                // serve loop asynchronously, so confirm the corpse is
                // silent before returning — otherwise a racing control
                // push can slip into the window and observe it alive,
                // making the fault's effect nondeterministic.
                for _ in 0..50 {
                    if !self.admin.probe_alive(node).await {
                        break;
                    }
                    tokio::time::sleep(Duration::from_millis(5)).await;
                }
                None
            }
            FaultKind::Restart { node } => {
                let (speed, overhead_s) = self.profile(node);
                let id = self.next_id;
                self.next_id += 1;
                let (addr, handle) =
                    crate::harness::spawn_extra_node_with(id, speed, overhead_s, &self.transport)
                        .await
                        .expect("replacement node binds on loopback");
                self.spawned.push((addr, Arc::clone(&handle)));
                Some(addr)
            }
            FaultKind::Partition { node } => {
                if let Some(Some(gate)) = self.gates.get(node) {
                    gate.close();
                }
                None
            }
            FaultKind::Heal { node } => {
                if let Some(Some(gate)) = self.gates.get(node) {
                    gate.open();
                }
                None
            }
            FaultKind::Slow { node, factor } => {
                let _ = self.admin.set_speed_factor(node, factor).await;
                None
            }
        }
    }

    /// Can this cluster's transport actually partition (fault gates
    /// present)?
    pub fn can_partition(&self, node: usize) -> bool {
        matches!(self.gates.get(node), Some(Some(_)))
    }
}
