//! Front-end internals shared by the typed API handles (§4.8): the
//! scheduling/dispatch machinery, live server statistics, the ring (which
//! alone holds the partitioning level), and the backend-store handle.
//!
//! This module is the engine room; the public surface is split by plane:
//!
//! * [`crate::client::QueryClient`] — the data plane: build a query
//!   ([`crate::client::QueryBuilder`]), stream its per-sub-query partial
//!   results ([`crate::client::QueryStream`]), optionally hedge stragglers.
//! * [`crate::admin::Admin`] — the control plane: membership,
//!   repartitioning, balancing, backfill, discovery.
//!
//! Both handles share one [`ClusterCore`], so the control plane's ring and
//! statistics updates are immediately visible to in-flight queries — the
//! paper's single front-end process, with the roles separated at the type
//! level instead of one `pub async fn` pile.

use crate::admin::AdminError;
use crate::backend::MemoryBackend;
use crate::proto::{Msg, QueryBody, WireRecord};
use crate::transport::{NodeLink, Transport};
use parking_lot::RwLock;
use roar_core::failover;
use roar_core::placement::{QueryPlan, RoarRing, SubQuery};
use roar_core::ring::Window;
use roar_core::ringmap::RingMap;
use roar_core::sched::schedule_sweep;
use roar_core::stats::ServerStats;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::transport::RpcError;

/// Scheduling options — the §4.8.2 optimisations.
///
/// [`SchedOpts::paper`] is what a production front-end runs (and what
/// [`crate::client::QueryBuilder`] defaults to). The zeroed
/// [`SchedOpts::default`] disables every optimisation and exists **for
/// ablations only** (fig6_7's "plain rendezvous" baseline): queries stay
/// exactly-once but the scheduler neither re-balances window boundaries nor
/// splits stragglers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedOpts {
    /// Range-adjustment passes (0 disables).
    pub adjust_sweeps: usize,
    /// Max sub-query splits (0 disables).
    pub max_splits: usize,
    /// Query partitioning level override (`pq ≥ p`); `None` uses the
    /// ring's `p`.
    pub pq: Option<usize>,
}

impl SchedOpts {
    /// The paper defaults: both §4.8.2 optimisations on, with the bounded
    /// budgets the thesis evaluates (a couple of adjustment sweeps, at most
    /// two straggler splits per query — more buys little and costs fixed
    /// per-sub-query overhead).
    pub fn paper() -> Self {
        SchedOpts {
            adjust_sweeps: 2,
            max_splits: 2,
            pq: None,
        }
    }
}

/// Aggregated result of one client query (what
/// [`crate::client::QueryStream::finish`] folds the partial results into).
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub matches: Vec<u64>,
    pub scanned: u64,
    /// End-to-end delay, seconds.
    pub wall_s: f64,
    /// Scheduling time (Fig 7.11's breakdown).
    pub sched_s: f64,
    /// Dispatch-to-resolution time.
    pub exec_s: f64,
    /// Max node-reported processing time.
    pub proc_max_s: f64,
    /// Number of sub-queries dispatched along the primary path (grows under
    /// failures/splits; hedge re-dispatches are counted in [`Self::hedges`]).
    pub subqueries: usize,
    /// Fraction of windows answered (1.0 = full harvest).
    pub harvest: f64,
    /// Windows refused by their node (insufficient coverage, §4.8.3).
    pub refused: usize,
    /// Windows lost to transport failures after the §4.4 fall-back.
    pub lost: usize,
    /// The first transport error observed, when `lost > 0`.
    pub rpc_error: Option<RpcError>,
    /// Hedge sub-queries dispatched (the tail-tolerance fan-out overhead).
    pub hedges: usize,
    /// `false` when an [`crate::admission::AdmissionController`] shed this
    /// query at the door: nothing was dispatched, `harvest` is 0 and no
    /// node did any work for it (§2.1 — yield traded, never harvest).
    pub admitted: bool,
}

/// Outcome of one planned sub-query after retries, fall-back and hedging.
#[derive(Debug, Clone)]
pub(crate) enum SubOutcome {
    Done {
        matches: Vec<u64>,
        scanned: u64,
        proc_s: f64,
        /// Extra sub-queries dispatched by the §4.4 fall-back.
        extra_subs: usize,
        /// The node whose reply resolved this window (`None` when the
        /// fall-back assembled it from several nodes).
        responder: Option<usize>,
        /// Resolved by a hedge re-dispatch rather than the primary.
        hedged: bool,
    },
    /// The node answered but refused the window (insufficient coverage).
    Refused,
    /// Transport-level loss the fall-back could not repair.
    Lost(RpcError),
}

/// Shared front-end state: one per connected cluster, handed out behind an
/// `Arc` to the [`crate::client::QueryClient`]/[`crate::admin::Admin`]
/// pair.
pub struct ClusterCore {
    /// The transport every link was (and future links will be) built from.
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) conns: RwLock<Vec<Arc<dyn NodeLink>>>,
    /// Membership and the partitioning level `p`: the one copy of `p`.
    pub(crate) ring: RwLock<RoarRing>,
    pub(crate) stats: RwLock<ServerStats>,
    /// The level a §4.5 decrease in flight moves to, 0 when none is: set
    /// under the ring's write lock before the decrease reads the backend,
    /// cleared when it lowers the ring's `p` or is aborted. Queries never
    /// read it; they plan against the ring's `p`, which stays at the old,
    /// larger level until the downloads are done. Writes read it with the
    /// ring ([`Self::store_ring`]).
    pub(crate) target_p: AtomicUsize,
    /// Serializes the ring edits that download before they land —
    /// `set_p`, `add_node`, `remove_node`, `balance_step` — so none
    /// installs a ring whose data was pushed against a ring another edit
    /// has since changed. Queries never take it.
    pub(crate) control: tokio::sync::Mutex<()>,
    /// Backend copy of everything stored, for join/repartition downloads
    /// (the paper's NFS store, §4.1), read by coverage window.
    pub(crate) backend: MemoryBackend,
    pub(crate) timeout: Duration,
    epoch: Instant,
    query_seq: AtomicU64,
}

impl ClusterCore {
    pub(crate) async fn connect_with(
        addrs: &[SocketAddr],
        p: usize,
        default_speed: f64,
        transport: Arc<dyn Transport>,
    ) -> std::io::Result<Arc<Self>> {
        let mut conns = Vec::with_capacity(addrs.len());
        for &a in addrs {
            conns.push(transport.connect(a).await?);
        }
        let nodes: Vec<usize> = (0..addrs.len()).collect();
        Ok(Arc::new(ClusterCore {
            transport,
            conns: RwLock::new(conns),
            ring: RwLock::new(RoarRing::new(RingMap::uniform(&nodes), p)),
            stats: RwLock::new(ServerStats::new(addrs.len(), default_speed, 0.2)),
            target_p: AtomicUsize::new(0),
            control: tokio::sync::Mutex::new(()),
            backend: MemoryBackend::new(),
            timeout: Duration::from_secs(5),
            epoch: Instant::now(),
            query_seq: AtomicU64::new(1),
        }))
    }

    pub(crate) fn n(&self) -> usize {
        self.conns.read().len()
    }

    /// Link handle for node `i` (clones the Arc out of the lock so no
    /// guard is held across awaits).
    pub(crate) fn conn(&self, i: usize) -> Arc<dyn NodeLink> {
        Arc::clone(&self.conns.read()[i])
    }

    pub(crate) fn ring_snapshot(&self) -> RoarRing {
        self.ring.read().clone()
    }

    pub(crate) fn p(&self) -> usize {
        self.ring.read().p()
    }

    /// The ring writes place their replicas by: the serving ring, at the
    /// target level while a decrease is in flight — whose arcs contain the
    /// old ones, so a write lands on every node that will serve it.
    ///
    /// Read under the ring's read lock, after the caller appended to the
    /// backend. The decrease marks itself under the write lock before it
    /// reads the backend, so a write either sees the mark or is in the
    /// backend when the decrease reads each node's extension.
    pub(crate) fn store_ring(&self) -> RoarRing {
        let ring = self.ring.read();
        let mut placed = ring.clone();
        // ORDERING: Relaxed — under the ring's read lock; `set_p` writes
        // it under the write lock
        match self.target_p.load(Ordering::Relaxed) {
            0 => {}
            target => placed.set_p(target),
        }
        placed
    }

    /// Install a membership edit made against an earlier ring snapshot,
    /// whose `p` is the level the edit's downloads were made for. The ring
    /// keeps the larger of that and its current `p`: a later increase
    /// stays (longer arcs serve its shorter windows), a later decrease is
    /// dropped (the downloads never held its longer arcs). `control`
    /// keeps `set_p` out of that window; `discover_p*` does not take it.
    pub(crate) fn swap_membership(&self, edited: RoarRing) {
        let mut ring = self.ring.write();
        let p = ring.p().max(edited.p());
        *ring = edited;
        ring.set_p(p);
    }

    /// Discovery's write: adopt `p` outright and drop any in-flight
    /// decrease mark — the level now comes from what the nodes hold.
    pub(crate) fn reset_p(&self, p: usize) {
        let mut ring = self.ring.write();
        ring.set_p(p);
        // ORDERING: Relaxed — under the ring's write lock
        self.target_p.store(0, Ordering::Relaxed);
    }

    pub(crate) fn speed_estimates(&self) -> Vec<f64> {
        let st = self.stats.read();
        (0..self.n()).map(|i| st.speed_estimate(i)).collect()
    }

    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub(crate) fn alive_snapshot(&self) -> Vec<bool> {
        let st = self.stats.read();
        (0..self.n()).map(|i| st.is_alive(i)).collect()
    }

    // ---- query planning and dispatch ----------------------------------

    /// Run Algorithm 1 plus the enabled §4.8.2 optimisations, then route
    /// around known-dead nodes. Returns the ring snapshot the plan was made
    /// against and the plan itself; bookkeeping for the dispatch
    /// (`on_dispatch`) is the caller's to trigger via
    /// [`Self::note_dispatch`] once it commits to running the plan.
    pub(crate) fn plan_query(&self, opts: &SchedOpts) -> (RoarRing, QueryPlan) {
        // ORDERING: Relaxed — only uniqueness of the sequence number
        // matters for the seed; nothing else is published through it
        let seed = self
            .query_seq
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E3779B97F4A7C15);
        let ring = self.ring_snapshot();
        // a smaller override is clamped up: a larger pq is always correct
        let pq = opts.pq.unwrap_or(ring.p()).max(ring.p());
        let mut plan = {
            let mut st = self.stats.write();
            st.set_now(self.now());
            let dec = schedule_sweep(&ring, pq, &*st, seed);
            let mut plan = ring.plan(dec.start_id, pq);
            if opts.adjust_sweeps > 0 {
                roar_core::adjust::adjust_plan(&ring, &mut plan, &*st, opts.adjust_sweeps);
            }
            if opts.max_splits > 0 {
                roar_core::split::split_slowest(&ring, &mut plan, &*st, opts.max_splits);
            }
            plan
        };
        // route around already-known-dead nodes before dispatch
        {
            let alive_vec = self.alive_snapshot();
            let alive = move |n: usize| alive_vec[n];
            if let Ok(subs) = failover::reroute_plan(&ring, &plan.subs, &alive) {
                plan.subs = subs;
            }
        }
        (ring, plan)
    }

    /// Predicted delay (seconds from now) until this plan's slowest
    /// sub-query finishes, per the scheduler's own live estimates — the
    /// input to the §2.1 admission rule. Runs the **same**
    /// [`roar_dr::sched::predicted_completion`] the simulator's yield loop
    /// uses, fed by the front-end's [`ServerStats`] estimator.
    pub(crate) fn predict_delay(&self, plan: &QueryPlan) -> f64 {
        let tasks: Vec<roar_dr::sched::Task> = plan
            .subs
            .iter()
            .map(|s| roar_dr::sched::Task {
                server: s.node,
                work: s.work(),
            })
            .collect();
        let mut st = self.stats.write();
        let now = self.now();
        st.set_now(now);
        roar_dr::sched::predicted_completion(&*st, &tasks, now) - now
    }

    /// Record the dispatch of sub-queries the front-end has committed to
    /// sending: a plan's, or the pieces a fall-back split a failed one
    /// into. Each is released exactly once, by [`Self::dispatch_once`] when
    /// its node replies or by the failure path when it does not.
    pub(crate) fn note_dispatch(&self, subs: &[SubQuery]) {
        let mut st = self.stats.write();
        st.set_now(self.now());
        for sub in subs {
            st.on_dispatch(sub.node, sub.work());
        }
    }

    /// Send `sub` to its node once and settle that node's books for it.
    /// The caller has charged the dispatch ([`Self::note_dispatch`]); every reply
    /// releases that charge: a result with the node's own processing time,
    /// anything else the node says — a §4.8.3 coverage refusal, a
    /// request-validation `Msg::Error`, a protocol violation — as work that
    /// was never done (`proc_time` 0 leaves the speed EWMA alone). `Err` is
    /// a transport failure: no reply came, the charge still stands, and
    /// what that means for the node is the caller's call.
    async fn dispatch_once(&self, sub: &SubQuery, body: QueryBody) -> Result<SubOutcome, RpcError> {
        let msg = Msg::SubQuery {
            query_id: sub.point,
            window_start: sub.window.start,
            window_end: sub.window.end,
            body,
            backend: None,
        };
        let reply = self.conn(sub.node).rpc(msg, self.timeout).await?;
        let (outcome, proc_s) = match reply {
            Msg::SubQueryResult {
                matches,
                scanned,
                proc_s,
                ..
            } => (
                SubOutcome::Done {
                    matches,
                    scanned,
                    proc_s,
                    extra_subs: 0,
                    responder: Some(sub.node),
                    hedged: false,
                },
                proc_s,
            ),
            // no fall-back for either: a refusal means the data is there
            // and the front-end's p is wrong; an invalid request can never
            // succeed, and failover would just replay it elsewhere
            Msg::Refused { .. } => (SubOutcome::Refused, 0.0),
            _ => (SubOutcome::Lost(RpcError::Disconnected), 0.0),
        };
        let mut st = self.stats.write();
        st.set_now(self.now());
        st.on_complete(sub.node, sub.work(), proc_s);
        Ok(outcome)
    }

    /// Execute one sub-query whose dispatch is already on its node's books
    /// ([`Self::note_dispatch`]), applying the §4.4 fall-back on timeout or
    /// disconnect: mark dead, split the window across the failed node's
    /// neighbours, recurse (bounded depth).
    pub(crate) fn run_subquery<'a>(
        &'a self,
        ring: &'a RoarRing,
        sub: SubQuery,
        body: QueryBody,
        depth: usize,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = SubOutcome> + Send + 'a>> {
        Box::pin(async move {
            let err = match self.dispatch_once(&sub, body.clone()).await {
                Ok(outcome) => return outcome,
                Err(err) => err,
            };
            // failure path: mark dead — which drops the node's whole queue
            // estimate, this sub-query's charge included — then split and
            // re-dispatch (§4.4) while depth allows
            self.stats.write().on_timeout(sub.node);
            if depth >= 4 {
                return SubOutcome::Lost(err);
            }
            // snapshot liveness so no lock guard crosses an await
            let alive_vec = self.alive_snapshot();
            let alive = move |n: usize| alive_vec[n];
            let Ok(subs) = failover::reroute(ring, &sub, &alive) else {
                return SubOutcome::Lost(err);
            };
            let mut matches = Vec::new();
            let mut scanned = 0;
            let mut proc = 0.0f64;
            let mut extra = subs.len().saturating_sub(1);
            for s in subs {
                // charged piece by piece, as each is sent: an early failure
                // leaves the unsent rest off the books
                self.note_dispatch(std::slice::from_ref(&s));
                match self.run_subquery(ring, s, body.clone(), depth + 1).await {
                    SubOutcome::Done {
                        matches: m,
                        scanned: sc,
                        proc_s,
                        extra_subs,
                        ..
                    } => {
                        matches.extend(m);
                        scanned += sc;
                        proc = proc.max(proc_s);
                        extra += extra_subs;
                    }
                    SubOutcome::Refused => return SubOutcome::Lost(err),
                    SubOutcome::Lost(e) => return SubOutcome::Lost(e),
                }
            }
            SubOutcome::Done {
                matches,
                scanned,
                proc_s: proc,
                extra_subs: extra,
                responder: None,
                hedged: false,
            }
        })
    }

    /// Dispatch one hedge for a straggling sub-query (Kraus et al.'s
    /// tail-tolerant re-dispatch). Prefers a single spare replica whose
    /// coverage holds the whole window ([`RoarRing::hedge_candidates`]);
    /// when over-partitioning left no slack, falls back to the §4.4 window
    /// split around the straggler. Returns `None` when no live spare can
    /// cover the window (the primary stays the only hope) or the hedge
    /// itself failed. `hedges_sent` reports fan-out overhead accounting.
    pub(crate) async fn hedge_subquery(
        self: &Arc<Self>,
        ring: &RoarRing,
        sub: SubQuery,
        body: QueryBody,
        hedges_sent: &Arc<std::sync::atomic::AtomicUsize>,
    ) -> Option<SubOutcome> {
        let alive_vec = self.alive_snapshot();
        // single capable spare: whole-window re-dispatch, first reply wins
        let best = {
            let st = self.stats.read();
            ring.hedge_candidates(&sub)
                .into_iter()
                .filter(|&c| alive_vec[c])
                .min_by(|&a, &b| {
                    use roar_dr::sched::FinishEstimator;
                    st.estimate(a, sub.work())
                        .partial_cmp(&st.estimate(b, sub.work()))
                        .expect("finite estimates")
                })
        };
        if let Some(spare) = best {
            // whole-window spare: first reply wins
            let aimed = SubQuery { node: spare, ..sub };
            let (matches, scanned, proc_s) =
                self.hedge_dispatch_once(&aimed, body, hedges_sent).await?;
            return Some(SubOutcome::Done {
                matches,
                scanned,
                proc_s,
                extra_subs: 0,
                responder: Some(spare),
                hedged: true,
            });
        }
        // no whole-window spare: hedge via the §4.4 split, pretending the
        // straggler is dead (without actually marking it — it may yet answer).
        // The pieces go out concurrently — a hedge that serialized k RTTs
        // could arrive after the straggler it is meant to beat.
        let alive = move |n: usize| alive_vec[n] && n != sub.node;
        let pieces = failover::reroute(ring, &sub, &alive).ok()?;
        let tasks: Vec<_> = pieces
            .into_iter()
            .map(|piece| {
                let this = Arc::clone(self);
                let body = body.clone();
                let hedges_sent = Arc::clone(hedges_sent);
                tokio::spawn(
                    async move { this.hedge_dispatch_once(&piece, body, &hedges_sent).await },
                )
            })
            .collect();
        let mut matches = Vec::new();
        let mut scanned = 0u64;
        let mut proc = 0.0f64;
        let mut all_ok = true;
        for task in tasks {
            // always drain every piece (no cancellation mid-RPC) before
            // reporting failure
            match task.await.ok().flatten() {
                Some((m, sc, proc_s)) => {
                    matches.extend(m);
                    scanned += sc;
                    proc = proc.max(proc_s);
                }
                None => all_ok = false,
            }
        }
        if !all_ok {
            return None;
        }
        Some(SubOutcome::Done {
            matches,
            scanned,
            proc_s: proc,
            extra_subs: 0,
            responder: None,
            hedged: true,
        })
    }

    /// One one-shot hedge dispatch of `sub` (already aimed at the hedge's
    /// node): counted as hedge fan-out at send time (never for pieces that
    /// were planned but not sent). `None` on failure or refusal — hedges
    /// never recurse into the fall-back.
    async fn hedge_dispatch_once(
        &self,
        sub: &SubQuery,
        body: QueryBody,
        hedges_sent: &std::sync::atomic::AtomicUsize,
    ) -> Option<(Vec<u64>, u64, f64)> {
        // ORDERING: Relaxed — stats counter; no other memory is
        // synchronised through it
        hedges_sent.fetch_add(1, Ordering::Relaxed);
        // a hedge is unplanned work: charge it, so the completion's
        // decrement cannot eat some other query's outstanding work
        self.note_dispatch(std::slice::from_ref(sub));
        match self.dispatch_once(sub, body).await {
            Ok(SubOutcome::Done {
                matches,
                scanned,
                proc_s,
                ..
            }) => Some((matches, scanned, proc_s)),
            Ok(_) => None,
            Err(_) => {
                // no completion will ever come: clear the charge ourselves
                // (a silent hedge target is not declared dead — the
                // primary's own timeout does that)
                let mut st = self.stats.write();
                st.set_now(self.now());
                st.on_complete(sub.node, sub.work(), 0.0);
                None
            }
        }
    }

    // ---- control-plane helpers (used by `Admin`) ----------------------

    /// One control-plane RPC under bounded retry with jittered exponential
    /// backoff: a single lost datagram on udp/ccudp must not fail a whole
    /// reconfiguration op. Success refreshes the node's liveness; exhausting
    /// the budget marks it dead and surfaces
    /// [`AdminError::RetriesExhausted`] instead of the first [`RpcError`].
    /// The jitter is a deterministic hash of `(op, node, attempt)`, so
    /// failure timings reproduce run to run.
    pub(crate) async fn control_rpc(
        &self,
        op: &'static str,
        node: usize,
        msg: Msg,
    ) -> Result<Msg, AdminError> {
        const ATTEMPTS: u32 = 4;
        let mut last = RpcError::Timeout;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                tokio::time::sleep(control_backoff(op, node, attempt)).await;
            }
            match self.conn(node).rpc(msg.clone(), self.timeout).await {
                Ok(reply) => {
                    let mut st = self.stats.write();
                    st.set_now(self.now());
                    st.on_alive(node);
                    return Ok(reply);
                }
                Err(e) => last = e,
            }
        }
        self.stats.write().on_timeout(node);
        Err(AdminError::RetriesExhausted {
            op,
            node,
            attempts: ATTEMPTS,
            last,
        })
    }

    /// Push each node its current coverage window (dropping anything
    /// outside). Nodes currently believed dead are skipped — their stale,
    /// wider coverage only retains extra data, never wrong answers — so a
    /// partially-failed cluster can still make control-plane progress; a
    /// later [`Self::backfill`] (or the reconciler) heals survivors.
    pub(crate) async fn push_coverages(&self) -> Result<(), AdminError> {
        let ring = self.ring_snapshot();
        for entry in ring.map().entries() {
            if !self.stats.read().is_alive(entry.node) {
                continue;
            }
            // clamped: a range spanning ≥ 1 − 1/p of the ring covers it all,
            // sent as the start == end full window
            let Some(cov) = ring.coverage(entry.node) else {
                continue;
            };
            self.control_rpc(
                "set_coverage",
                entry.node,
                Msg::SetCoverage {
                    start: cov.start,
                    end: cov.end,
                },
            )
            .await?;
        }
        Ok(())
    }

    /// Re-push from the backend whatever each node's coverage now requires
    /// (nodes dedupe by id on insert — see MetadataStore semantics). Dead
    /// ring members are skipped, same contract as
    /// [`Self::push_coverages`].
    pub(crate) async fn backfill(&self) -> Result<(), AdminError> {
        let ring = self.ring_snapshot();
        self.push_gains(None, &ring, true).await?;
        Ok(())
    }

    /// Push every node on `to` what its coverage there gains over `from`:
    /// the set difference of the two coverage windows, read from the
    /// backend, in one `Store` — the whole coverage when `from` is `None`
    /// or does not hold the node. A node that gains nothing gets no RPC.
    /// With `skip_dead`, nodes believed dead are skipped; without it, a
    /// push that must land (a decrease, a join download) fails on them.
    /// Returns `(node, objects shipped)` per `Store` sent, in ring order.
    pub(crate) async fn push_gains(
        &self,
        from: Option<&RoarRing>,
        to: &RoarRing,
        skip_dead: bool,
    ) -> Result<Vec<(usize, usize)>, AdminError> {
        let mut shipped = Vec::new();
        for entry in to.map().entries() {
            let node = entry.node;
            if skip_dead && !self.stats.read().is_alive(node) {
                continue;
            }
            let Some(cov) = to.coverage(node) else {
                continue;
            };
            let gain: Vec<Window> = match from.and_then(|r| r.coverage(node)) {
                Some(old) => cov.minus(&old).collect(),
                None => vec![cov],
            };
            let ids: Vec<u64> = (gain.iter())
                .flat_map(|w| self.backend.window_synthetic(w))
                .collect();
            // the rows are a temporary: gone before the push goes out
            let recs: Vec<WireRecord> = (gain.iter())
                .flat_map(|w| self.backend.window_records(w))
                .map(|r| WireRecord::from_record(&r))
                .collect();
            if ids.is_empty() && recs.is_empty() {
                continue;
            }
            shipped.push((node, ids.len() + recs.len()));
            let store = Msg::Store {
                records: recs,
                synthetic_ids: ids,
            };
            self.control_rpc("store", node, store).await?;
        }
        Ok(shipped)
    }

    /// Per-node replica push used by the store operations. Replicas
    /// currently believed dead are skipped (the backend keeps the
    /// authoritative copy; a later backfill re-pushes), so ingest survives
    /// churn.
    pub(crate) async fn push_store_batches(
        &self,
        per_node: HashMap<usize, (Vec<WireRecord>, Vec<u64>)>,
    ) -> Result<(), AdminError> {
        for (node, (records, synthetic_ids)) in per_node {
            if !self.stats.read().is_alive(node) {
                continue;
            }
            self.control_rpc(
                "store",
                node,
                Msg::Store {
                    records,
                    synthetic_ids,
                },
            )
            .await?;
        }
        Ok(())
    }
}

/// Deterministic jittered exponential backoff for control-plane retries:
/// base 5 ms doubling per attempt, plus up to +100% jitter derived from a
/// splitmix-style hash of `(op, node, attempt)` — spreads simultaneous
/// retries without any shared RNG state.
fn control_backoff(op: &'static str, node: usize, attempt: u32) -> Duration {
    let mut x = 0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(u64::from(attempt))
        .wrapping_add(node as u64);
    for &b in op.as_bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    let base_ms = 5u64 << (attempt.saturating_sub(1)).min(4);
    Duration::from_millis(base_ms + x % (base_ms + 1))
}

impl Drop for ClusterCore {
    fn drop(&mut self) {
        // stop any shared client receive loop (UDP) the transport runs
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{spawn_cluster, spawn_extra_node, ClusterConfig, ClusterHandle};
    use crate::transport::TransportSpec;
    use rand::Rng;
    use roar_util::det_rng;

    /// A front end over four unreachable datagram addresses at `p = 3`:
    /// datagram links need no live peer to connect, no node is spawned and
    /// nothing is sent — planning and ring edits are pure front-end state.
    async fn offline_core() -> Arc<ClusterCore> {
        let addrs: Vec<SocketAddr> = (0..4)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], 40_000 + i)))
            .collect();
        ClusterCore::connect_with(&addrs, 3, 1e6, TransportSpec::udp().build())
            .await
            .expect("connect")
    }

    /// A live six-node TCP cluster at `p = 3` holding 600 synthetic ids,
    /// plus 300 more that only the backend holds: writes every node missed,
    /// which a push of whole coverages would deliver and a push of gains
    /// delivers only inside the gains.
    async fn cluster_with_missed_writes() -> ClusterHandle {
        let h = spawn_cluster(ClusterConfig::uniform(6, 1e6, 3))
            .await
            .expect("spawn");
        let mut rng = det_rng(41);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        let missed: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        h.admin.core.backend.append_synthetic(&missed);
        h
    }

    /// What `node`'s coverage gains from `from` to `to`, counted in the
    /// backend.
    fn gain_len(core: &ClusterCore, from: &RoarRing, to: &RoarRing, node: usize) -> u64 {
        let cov = |r: &RoarRing| r.coverage(node).expect("on the ring");
        let gain = cov(to).minus(&cov(from));
        gain.map(|w| core.backend.window_len(&w) as u64).sum()
    }

    fn counts(h: &ClusterHandle) -> Vec<u64> {
        h.nodes.iter().map(|n| n.record_count()).collect()
    }

    /// A 3 → 2 decrease on six nodes ships each node its arc extension,
    /// 1/2 − 1/3 = 1/6 of the ring, instead of its whole 2/3-ring arc: the
    /// six extensions tile the ring, so the push ships the corpus once
    /// instead of four times over.
    #[tokio::test]
    async fn a_decrease_ships_the_arc_extension_alone() {
        let h = cluster_with_missed_writes().await;
        let core = &h.admin.core;
        let old = core.ring_snapshot();
        let mut target = old.clone();
        target.set_p(2);
        let shipped = core.push_gains(Some(&old), &target, false).await.unwrap();
        assert_eq!(shipped.len(), 6, "every node gains an extension");
        for &(node, n) in &shipped {
            assert_eq!(n as u64, gain_len(core, &old, &target, node), "node {node}");
            let whole = h.admin.expected_records(&target, node);
            assert!(3 * n < whole as usize, "node {node}: {n} of its {whole}");
        }
        let total: usize = shipped.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 900, "the extensions tile the ring");
    }

    /// `set_p` itself ships only the gain: a write a node missed inside
    /// its old arc stays missing — `backfill`, the explicit heal, delivers
    /// it.
    #[tokio::test]
    async fn set_p_leaves_missed_writes_to_backfill() {
        let h = cluster_with_missed_writes().await;
        let (old, before) = (h.admin.ring(), counts(&h));
        h.admin.set_p(2).await.unwrap();
        let ring = h.admin.ring();
        for (node, &held) in counts(&h).iter().enumerate() {
            let gained = gain_len(&h.admin.core, &old, &ring, node);
            assert_eq!(held, before[node] + gained, "node {node}");
            assert!(held < h.admin.expected_records(&ring, node), "node {node}");
        }
        h.admin.backfill().await.unwrap();
        for (node, &held) in counts(&h).iter().enumerate() {
            assert_eq!(held, h.admin.expected_records(&ring, node), "node {node}");
        }
    }

    /// A removal grows one range, the departing node's predecessor's: only
    /// that heir is sent a `Store`, and only its gain. Every other count
    /// stays as it was, and the push over the removal's two rings sends
    /// one RPC, to the heir.
    #[tokio::test]
    async fn remove_node_ships_only_to_the_heir() {
        let h = cluster_with_missed_writes().await;
        let core = &h.admin.core;
        let (old, before) = (h.admin.ring(), counts(&h));
        h.admin.remove_node(2).await.unwrap();
        let ring = h.admin.ring();
        let after = counts(&h);
        let heir = 1;
        let gained = |node| gain_len(core, &old, &ring, node);
        assert!(gained(heir) > 0);
        for node in [0, 1, 3, 4, 5] {
            let gained = if node == heir { gained(node) } else { 0 };
            assert_eq!(after[node], before[node] + gained, "node {node}");
        }
        let shipped = core.push_gains(Some(&old), &ring, true).await.unwrap();
        assert_eq!(shipped, vec![(heir, gained(heir) as usize)]);
    }

    /// A joiner is on no earlier ring: it downloads its whole coverage,
    /// missed writes included, and no other node is sent anything.
    #[tokio::test]
    async fn add_node_ships_the_joiners_whole_coverage() {
        let h = cluster_with_missed_writes().await;
        let before = counts(&h);
        let (addr, joiner) = spawn_extra_node(6, 1e6, 0.0).await.unwrap();
        let id = h.admin.add_node(addr).await.unwrap();
        let ring = h.admin.ring();
        assert_eq!(joiner.record_count(), h.admin.expected_records(&ring, id));
        assert!(joiner.record_count() > 0);
        // the split node trims to its shorter arc; nobody gains a record
        for (node, &held) in counts(&h).iter().enumerate() {
            assert!(held <= before[node], "node {node} downloaded");
        }
    }

    /// A plan never uses a `pq` below the `p` of the snapshot it plans
    /// against: a smaller override is clamped up. With `p` in the ring
    /// alone, a §4.5 decrease has no confirmed-but-uncommitted state a plan
    /// could read.
    #[tokio::test]
    async fn plan_query_survives_the_confirmed_but_uncommitted_gap() {
        let core = offline_core().await;
        let opts = SchedOpts {
            pq: Some(1),
            ..SchedOpts::default()
        };
        let (ring, plan) = core.plan_query(&opts);
        assert_eq!(ring.p(), 3, "the plan's own snapshot");
        assert_eq!(plan.subs.len(), 3, "pq clamped up to the snapshot's p");
        core.ring.write().set_p(2);
        assert_eq!(core.plan_query(&opts).1.subs.len(), 2);
    }

    /// `add_node` and `remove_node` edit a snapshot while they download,
    /// then swap it in. An increase committed after the snapshot survives
    /// the swap: the downloads' longer arcs serve its shorter windows.
    #[tokio::test]
    async fn membership_swap_keeps_a_p_committed_after_its_snapshot() {
        let core = offline_core().await;
        let mut edited = core.ring_snapshot();
        core.ring.write().set_p(4);
        edited.map_mut().remove(3);
        core.swap_membership(edited);
        let ring = core.ring_snapshot();
        assert_eq!(ring.n(), 3, "the membership edit landed");
        assert_eq!(ring.p(), 4, "the later increase survived the swap");
    }

    /// A decrease committed after the snapshot would need longer arcs than
    /// the swap's downloads hold: the ring never drops below the
    /// snapshot's `p`.
    #[tokio::test]
    async fn membership_swap_never_drops_below_its_snapshots_p() {
        let core = offline_core().await;
        let mut edited = core.ring_snapshot();
        core.ring.write().set_p(2);
        edited.map_mut().remove(3);
        core.swap_membership(edited);
        let ring = core.ring_snapshot();
        assert_eq!(ring.n(), 3, "the membership edit landed");
        assert_eq!(ring.p(), 3, "the snapshot's p, not the later decrease");
    }
}
