//! Declarative control plane: a reconciler over the [`Admin`] primitives.
//!
//! The thesis drives topology changes imperatively — an operator calls
//! `set_p`, `add_node`, `remove_node` one at a time. Production clusters
//! converge instead: an operator states the **desired** topology
//! ([`DesiredTopology`]), an observer snapshots the **observed** state
//! ([`ObservedTopology`]) from the same primitives every §4 experiment
//! uses (liveness probes, ring fractions, record counts, the in-flight
//! reconfiguration flag), and a **planner** ([`plan`]) emits the minimal
//! sequence of existing control ops that closes the gap. The
//! [`Reconciler`] loops observe → plan → apply until the plan is empty.
//!
//! Three properties make the loop safe under churn, each load-bearing:
//!
//! * **Deterministic** — [`plan`] is a pure function of the two
//!   topologies; identical snapshots yield identical plans (property-
//!   tested), so convergence behaviour reproduces from a fault-schedule
//!   seed.
//! * **Idempotent** — a converged cluster plans the empty sequence, so
//!   re-running the reconciler is a no-op.
//! * **Interruptible** — every emitted [`Step`] is an operation that is
//!   itself safe to abandon midway (§4.5's delayed repartitioning is the
//!   archetype: a crashed decrease leaves queries on the old, larger
//!   `pq`). A reconciler killed between any two steps re-observes and
//!   re-plans; the property tests resume plans at every index and reach
//!   the same final topology.
//!
//! The one stateful hazard — a repartition stalled by a node crash — is
//! handled by planning [`Step::AbortRepartition`] *alone* whenever a
//! transition is in flight: abort first (always safe), then re-observe
//! and fix membership with full information.
//!
//! ```no_run
//! # async fn demo(addrs: &[std::net::SocketAddr],
//! #               spare: std::net::SocketAddr) -> std::io::Result<()> {
//! use roar_cluster::reconcile::{DesiredTopology, Reconciler};
//!
//! let (_client, admin) = roar_cluster::connect(addrs, 4, 1.0).await?;
//! let mut rec = Reconciler::new(admin, DesiredTopology::new(5, 2));
//! rec.add_spare(spare); // a bound-but-unringed data node
//! let ticks = rec.run_to_convergence(16).await.expect("converges");
//! println!("converged in {ticks} ticks");
//! # Ok(()) }
//! ```

use crate::admin::{Admin, AdminError};
use std::collections::BTreeSet;
use std::net::SocketAddr;

/// The topology an operator wants: plain data, no handles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesiredTopology {
    /// Ring size (serving nodes).
    pub n: usize,
    /// Partitioning level.
    pub p: usize,
    /// Desired replication factor `r = n/p`. When set it overrides `p`:
    /// the planner targets `p ≈ n / replication` (clamped to `[1, n]`),
    /// so "keep three replicas" survives `n` changing.
    pub replication: Option<f64>,
}

impl DesiredTopology {
    pub fn new(n: usize, p: usize) -> Self {
        assert!(n >= 1 && p >= 1 && p <= n, "need 1 ≤ p ≤ n");
        DesiredTopology {
            n,
            p,
            replication: None,
        }
    }

    /// Target a replication factor instead of a fixed `p` (builder style).
    pub fn with_replication(mut self, r: f64) -> Self {
        assert!(r >= 1.0 && r.is_finite());
        self.replication = Some(r);
        self
    }

    /// The partitioning level the planner drives toward: `p`, unless a
    /// replication factor is set, in which case `round(n / r)`.
    pub fn target_p(&self) -> usize {
        match self.replication {
            Some(r) => ((self.n as f64 / r).round() as usize).clamp(1, self.n),
            None => self.p.min(self.n),
        }
    }
}

/// One ring member as the observer saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberState {
    /// Node id (stable across the cluster's lifetime).
    pub node: usize,
    /// Did the member answer a liveness probe?
    pub alive: bool,
    /// Fraction of the ring the member's range covers.
    pub fraction: f64,
    /// Records the member reported holding (`None` if unreachable).
    pub stored: Option<u64>,
    /// Records the backend says its coverage requires.
    pub expected: u64,
}

/// A snapshot of the cluster as observed through [`Admin`]. Members are
/// sorted by node id so identical cluster states serialize to identical
/// snapshots — the determinism property leans on this.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedTopology {
    /// Committed partitioning level.
    pub p: usize,
    /// Is a §4.5 repartition transition in flight?
    pub reconfig_in_flight: bool,
    /// Ring members, sorted by node id.
    pub members: Vec<MemberState>,
    /// Spare (bound but unringed) nodes available to join.
    pub spare_count: usize,
}

impl ObservedTopology {
    pub fn alive_count(&self) -> usize {
        self.members.iter().filter(|m| m.alive).count()
    }

    fn dead_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().filter(|m| !m.alive).map(|m| m.node)
    }
}

/// One step of a convergence plan — each maps onto exactly one existing
/// [`Admin`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Abort an in-flight repartition (always safe; queries were still on
    /// the old, larger `pq`).
    AbortRepartition,
    /// Remove a ring member (dead-member heal or scale-in).
    RemoveNode { node: usize },
    /// Join one spare onto the ring. `spare` is the index into the spare
    /// list *at planning time*; the executor consumes spares in FIFO
    /// order.
    AddNode { spare: usize },
    /// Repartition to `p` (§4.5 delayed repartitioning).
    SetP { p: usize },
    /// Re-push whatever each member's coverage requires from the backend.
    Backfill,
}

/// An ordered convergence plan. Empty ⇔ the observer's snapshot already
/// matches the desired topology.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Plan {
    pub steps: Vec<Step>,
}

impl Plan {
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }
}

/// The planner: a pure, deterministic function from (observed, desired)
/// to the minimal step sequence that converges. Step order is chosen so
/// every prefix leaves the cluster queryable:
///
/// 1. an in-flight repartition is aborted **alone** — membership changes
///    are planned only against a settled partitioning state;
/// 2. spares join while the ring is short (fresh capacity first, so later
///    removals never drop below `p` members);
/// 3. dead members are removed (ascending id), then excess alive members
///    (descending id — newest joiners leave first), each guarded by the
///    `ring size > p` removal invariant;
/// 4. `p` moves to its target once membership is settled;
/// 5. a final `Backfill` is planned only when nothing structural remains
///    but a member is missing records its coverage requires.
pub fn plan(observed: &ObservedTopology, desired: &DesiredTopology) -> Plan {
    let mut steps = Vec::new();
    if observed.reconfig_in_flight {
        return Plan {
            steps: vec![Step::AbortRepartition],
        };
    }
    let target_p = desired.target_p();
    // (2) join spares while the ring has fewer alive members than desired
    let mut alive = observed.alive_count();
    let mut ring_size = observed.members.len();
    let joins = desired.n.saturating_sub(alive).min(observed.spare_count);
    for spare in 0..joins {
        steps.push(Step::AddNode { spare });
        alive += 1;
        ring_size += 1;
    }
    // (3) dead members out first (ascending id), then scale-in of alive
    // members (descending id); the `ring size > p` invariant is checked
    // against the level the ring is committed to *now* — `set_p` has not
    // run yet, so a deep scale-in may take several ticks (remove down to
    // the old p, lower p, remove again)
    let guard_p = observed.p;
    for node in observed.dead_nodes().collect::<BTreeSet<_>>() {
        if ring_size <= guard_p {
            break;
        }
        steps.push(Step::RemoveNode { node });
        ring_size -= 1;
    }
    let mut excess: Vec<usize> = observed
        .members
        .iter()
        .filter(|m| m.alive)
        .map(|m| m.node)
        .collect();
    excess.sort_unstable();
    while alive > desired.n && ring_size > guard_p {
        let node = excess.pop().expect("alive > 0");
        steps.push(Step::RemoveNode { node });
        alive -= 1;
        ring_size -= 1;
    }
    // (4) repartition once membership is settled
    let target_p = target_p.min(ring_size.max(1));
    if target_p != observed.p {
        steps.push(Step::SetP { p: target_p });
    }
    // (5) data completeness: only when the structure is already right
    if steps.is_empty()
        && observed
            .members
            .iter()
            .any(|m| m.alive && m.stored.unwrap_or(0) < m.expected)
    {
        steps.push(Step::Backfill);
    }
    Plan { steps }
}

/// Pure model of one step's effect on a snapshot — what the property
/// tests iterate instead of a live cluster. Mirrors the executor's
/// semantics: joins create fresh ids above every existing one, removals
/// drop the member, `SetP` commits immediately (the model does not stall),
/// `Backfill` completes every alive member's data.
pub fn apply_step(observed: &ObservedTopology, step: &Step) -> ObservedTopology {
    let mut next = observed.clone();
    match step {
        Step::AbortRepartition => next.reconfig_in_flight = false,
        Step::RemoveNode { node } => next.members.retain(|m| m.node != *node),
        Step::AddNode { .. } => {
            let id = next.members.iter().map(|m| m.node + 1).max().unwrap_or(0);
            next.spare_count -= 1;
            next.members.push(MemberState {
                node: id,
                alive: true,
                fraction: 0.0,
                stored: Some(0),
                expected: 0,
            });
        }
        Step::SetP { p } => next.p = *p,
        Step::Backfill => {
            for m in &mut next.members {
                if m.alive {
                    m.stored = Some(m.expected);
                }
            }
        }
    }
    let n = next.members.len().max(1);
    for m in &mut next.members {
        m.fraction = 1.0 / n as f64;
    }
    next.members.sort_by_key(|m| m.node);
    next
}

/// Does the snapshot satisfy the desired topology? (What
/// [`Reconciler::run_to_convergence`] checks — equivalent to
/// `plan(observed, desired).is_empty()` plus the liveness requirement.)
pub fn converged(observed: &ObservedTopology, desired: &DesiredTopology) -> bool {
    !observed.reconfig_in_flight
        && observed.members.len() == desired.n
        && observed.alive_count() == desired.n
        && observed.p == desired.target_p()
        && observed
            .members
            .iter()
            .all(|m| m.stored.unwrap_or(0) >= m.expected)
}

/// What one [`Reconciler::tick`] did.
#[derive(Debug, Clone)]
pub struct Tick {
    /// The plan the tick computed.
    pub plan: Plan,
    /// How many of its steps were applied before an error (all of them on
    /// success).
    pub applied: usize,
    /// The error that interrupted the plan, if any. Not fatal: the next
    /// tick re-observes and re-plans.
    pub error: Option<AdminError>,
}

/// The reconciler did not reach the desired topology.
#[derive(Debug, Clone)]
pub enum ReconcileError {
    /// The tick budget ran out before convergence.
    Stalled {
        ticks: usize,
        last_error: Option<AdminError>,
    },
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconcileError::Stalled { ticks, last_error } => {
                write!(f, "no convergence after {ticks} ticks")?;
                if let Some(e) = last_error {
                    write!(f, " (last error: {e})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReconcileError {}

/// The convergence loop: observe through [`Admin`], [`plan`], apply.
///
/// Owns the desired topology and the spare pool (addresses of bound but
/// unringed data nodes — the fault injector registers every restarted
/// node here). Errors during a plan are absorbed, not fatal: the failed
/// step marked its target dead, so the next observation plans around it.
pub struct Reconciler {
    admin: Admin,
    desired: DesiredTopology,
    spares: Vec<SocketAddr>,
}

impl Reconciler {
    pub fn new(admin: Admin, desired: DesiredTopology) -> Self {
        Reconciler {
            admin,
            desired,
            spares: Vec::new(),
        }
    }

    /// Change the goal (flash-crowd scale-out: `desired.n *= 2`).
    pub fn set_desired(&mut self, desired: DesiredTopology) {
        self.desired = desired;
    }

    pub fn desired(&self) -> &DesiredTopology {
        &self.desired
    }

    /// Register a bound, serving, unringed node the planner may join.
    pub fn add_spare(&mut self, addr: SocketAddr) {
        self.spares.push(addr);
    }

    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Snapshot observed state: probe every ring member's liveness, ask
    /// survivors for their record counts, read the ring/reconfiguration
    /// state the front-end already tracks.
    pub async fn observe(&self) -> ObservedTopology {
        let ring = self.admin.ring();
        let fractions = self.admin.range_fractions();
        let mut members = Vec::with_capacity(ring.n());
        for i in 0..ring.n() {
            let node = ring.map().entries()[i].node;
            let alive = self.admin.probe_alive(node).await;
            let stored = if alive {
                self.admin.node_record_count(node).await.ok()
            } else {
                None
            };
            let expected = self.admin.expected_records(&ring, node);
            let fraction = fractions
                .iter()
                .find(|(n, _)| *n == node)
                .map_or(0.0, |(_, f)| *f);
            members.push(MemberState {
                node,
                alive,
                fraction,
                stored,
                expected,
            });
        }
        members.sort_by_key(|m| m.node);
        ObservedTopology {
            p: self.admin.p(),
            reconfig_in_flight: self.admin.reconfig_in_flight(),
            members,
            spare_count: self.spares.len(),
        }
    }

    /// Apply a plan's steps in order, stopping at the first error. Spares
    /// are consumed FIFO, one per [`Step::AddNode`].
    pub async fn apply(&mut self, plan: &Plan) -> Tick {
        let mut applied = 0;
        for step in &plan.steps {
            let r: Result<(), AdminError> = match step {
                Step::AbortRepartition => {
                    self.admin.abort_repartition();
                    Ok(())
                }
                Step::RemoveNode { node } => self.admin.remove_node(*node).await,
                Step::AddNode { .. } => {
                    if self.spares.is_empty() {
                        // stale plan (spares changed since planning): stop
                        // here; the next tick re-plans against reality
                        break;
                    }
                    let addr = self.spares.remove(0);
                    // on error the spare is still gone: a join that died
                    // mid-download is not retried blindly
                    self.admin.add_node(addr).await.map(|_| ())
                }
                Step::SetP { p } => self.admin.set_p(*p).await,
                Step::Backfill => self.admin.backfill().await,
            };
            match r {
                Ok(()) => applied += 1,
                Err(e) => {
                    return Tick {
                        plan: plan.clone(),
                        applied,
                        error: Some(e),
                    }
                }
            }
        }
        Tick {
            plan: plan.clone(),
            applied,
            error: None,
        }
    }

    /// One convergence iteration: observe → plan → apply.
    pub async fn tick(&mut self) -> Tick {
        let observed = self.observe().await;
        let p = plan(&observed, &self.desired);
        self.apply(&p).await
    }

    /// Is the live cluster at the desired topology right now?
    pub async fn converged(&self) -> bool {
        let observed = self.observe().await;
        converged(&observed, &self.desired)
    }

    /// Tick until the cluster converges (empty plan *and* every member
    /// alive and complete), up to `max_ticks`. Step errors are absorbed —
    /// the failed RPC marked its target dead, and the next observation
    /// plans around the corpse. Returns the tick count on success.
    pub async fn run_to_convergence(&mut self, max_ticks: usize) -> Result<usize, ReconcileError> {
        let mut last_error = None;
        for t in 0..max_ticks {
            let observed = self.observe().await;
            if converged(&observed, &self.desired) {
                return Ok(t);
            }
            let p = plan(&observed, &self.desired);
            if p.is_empty() {
                // not converged, yet nothing plannable: blocked on resources
                // the planner cannot conjure (e.g. no spares to reach n, or a
                // dead member pinned by the ring-size ≥ p invariant). More
                // ticks cannot help; fail fast instead of burning the budget.
                return Err(ReconcileError::Stalled {
                    ticks: t,
                    last_error,
                });
            }
            let tick = self.apply(&p).await;
            if let Some(e) = tick.error {
                last_error = Some(e);
            }
        }
        Err(ReconcileError::Stalled {
            ticks: max_ticks,
            last_error,
        })
    }
}
