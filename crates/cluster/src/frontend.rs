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
use parking_lot::{Mutex, RwLock};
use roar_core::failover;
use roar_core::placement::{QueryPlan, RoarRing, SubQuery};
use roar_core::ring::Window;
use roar_core::ringmap::{RingEntry, RingMap};
use roar_core::sched::schedule_sweep;
use roar_core::stats::ServerStats;
use roar_pps::EncryptedMetadata;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The serving ring and the pending one, as a write reads them
/// ([`ClusterCore::write_rings`]).
pub(crate) type WriteRings = (Arc<RoarRing>, Option<Arc<RoarRing>>);

/// Where a write of `id` goes: its replicas on the serving ring, in chain
/// order, then those only the pending ring adds.
pub(crate) fn write_set((serving, pending): &WriteRings, id: u64) -> Vec<usize> {
    let mut nodes = serving.replicas(id);
    for node in pending.iter().flat_map(|r| r.replicas(id)) {
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    nodes
}

/// What `node`'s coverage on `to` adds to its coverage on `from`: the
/// whole coverage when `from` is `None` or does not hold the node, nothing
/// when `to` does not.
fn coverage_gain(from: Option<&RoarRing>, to: &RoarRing, node: usize) -> Vec<Window> {
    let Some(cov) = to.coverage(node) else {
        return Vec::new();
    };
    match from.and_then(|r| r.coverage(node)) {
        Some(old) => cov.minus(&old).collect(),
        None => vec![cov],
    }
}

/// `SetCoverage`s to send: `(node, window)` pairs.
type Coverages = Vec<(usize, Window)>;

/// The coverages a move from `old` to `next` sets, as `(widen, narrow)`.
/// Each node on `next` whose coverage gains is widened, before the commit,
/// to `old ∪ new`: `new` for a pure gainer, the one arc of both for a node
/// whose coverage also loses. Each node whose coverage loses is narrowed to
/// `new` once `old` has drained; one whose two windows make no one arc is
/// only narrowed. A node whose coverage stays is in neither list.
fn coverage_steps(old: &RoarRing, next: &RoarRing) -> (Coverages, Coverages) {
    let (mut widen, mut narrow) = (Vec::new(), Vec::new());
    for entry in next.map().entries() {
        let Some(new) = next.coverage(entry.node) else {
            continue;
        };
        let was = old.coverage(entry.node);
        if was.is_none_or(|w| !new.subset_of(&w)) {
            let wide = was.map_or(Some(new), |w| w.union(&new));
            widen.extend(wide.map(|w| (entry.node, w)));
        }
        if was.is_some_and(|w| !w.subset_of(&new)) {
            narrow.push((entry.node, new));
        }
    }
    (widen, narrow)
}

/// Shared front-end state: one per connected cluster, handed out behind an
/// `Arc` to the [`crate::client::QueryClient`]/[`crate::admin::Admin`]
/// pair.
pub struct ClusterCore {
    /// The transport every link was (and future links will be) built from.
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) conns: RwLock<Vec<Arc<dyn NodeLink>>>,
    /// Membership and the partitioning level `p`: the one copy of `p`.
    /// Every query plan and every write holds the `Arc` it was placed by
    /// until it finishes, so a move can tell when the ring it replaced has
    /// drained ([`Self::move_to`]).
    pub(crate) ring: RwLock<Arc<RoarRing>>,
    pub(crate) stats: RwLock<ServerStats>,
    /// The ring a placement change is downloading for, `None` when none
    /// is: installed before the download reads the backend, cleared when
    /// it becomes the serving ring or is aborted. Queries never read it;
    /// writes read it with the ring ([`Self::write_rings`]). Lock order:
    /// `ring`, then `pending`.
    pub(crate) pending: Mutex<Option<Arc<RoarRing>>>,
    /// Serializes every edit of the serving ring — `set_p`, `add_node`,
    /// `remove_node`, `balance_step` and discovery — so each move starts
    /// from the ring it replaces. Queries never take it.
    pub(crate) control: tokio::sync::Mutex<()>,
    /// Backend copy of everything stored, for join/repartition downloads
    /// (the paper's NFS store, §4.1), read by coverage window.
    pub(crate) backend: MemoryBackend,
    /// Does `backend` hold the whole corpus? A primary front end's does
    /// (every write went through it); a backup's starts empty, so it may
    /// make no move that ships data ([`Self::move_to`]). Fixed at
    /// construction.
    pub(crate) holds_corpus: bool,
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
        holds_corpus: bool,
    ) -> std::io::Result<Arc<Self>> {
        let mut conns = Vec::with_capacity(addrs.len());
        for &a in addrs {
            conns.push(transport.connect(a).await?);
        }
        let nodes: Vec<usize> = (0..addrs.len()).collect();
        Ok(Arc::new(ClusterCore {
            transport,
            conns: RwLock::new(conns),
            ring: RwLock::new(Arc::new(RoarRing::new(RingMap::uniform(&nodes), p))),
            stats: RwLock::new(ServerStats::new(addrs.len(), default_speed, 0.2)),
            pending: Mutex::new(None),
            control: tokio::sync::Mutex::new(()),
            backend: MemoryBackend::new(),
            holds_corpus,
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

    pub(crate) fn ring_snapshot(&self) -> Arc<RoarRing> {
        Arc::clone(&self.ring.read())
    }

    pub(crate) fn p(&self) -> usize {
        self.ring.read().p()
    }

    /// The rings writes are placed by: the serving ring and the pending
    /// one, read together under the ring's read lock. Call after appending
    /// the write to the backend: a move installs its pending ring before
    /// its download reads the backend, so a write either reaches the
    /// pending ring's nodes or is in the backend when the download reads.
    pub(crate) fn write_rings(&self) -> WriteRings {
        let ring = self.ring.read();
        (Arc::clone(&ring), self.pending.lock().clone())
    }

    /// Discovery's write: adopt `p` outright and drop any pending ring —
    /// the level now comes from what the nodes hold. Under `control`.
    pub(crate) fn reset_p(&self, p: usize) {
        let mut ring = self.ring.write();
        Arc::make_mut(&mut ring).set_p(p);
        *self.pending.lock() = None;
    }

    /// Move the cluster from `old`, the serving ring, to `next` — every
    /// placement change (§4.3–§4.6), under `control` — so that no node
    /// refuses a window this front end planned (§4.5: the front end
    /// switches only once the nodes hold the data):
    ///
    /// 1. refuse with [`AdminError::BackendIncomplete`] a move that widens
    ///    any coverage when the backend does not hold the corpus; install
    ///    `next` as pending, or refuse with
    ///    [`AdminError::RepartitionInFlight`] while another ring is; push
    ///    each node what its coverage gains ([`Self::push_gains`]);
    /// 2. *widen*: each live node whose coverage gains is set to `old ∪
    ///    new`, all of which it now holds — `new` for a pure gainer, the
    ///    one arc of both for a node whose coverage also loses;
    /// 3. commit: serve `next` and clear pending;
    /// 4. *narrow*: if a live node loses coverage or leaves the ring, wait
    ///    until `old` is unshared — every query and write placed on it has
    ///    finished — for at most the front end's timeout, then set each
    ///    live loser to its new coverage.
    ///
    /// A node whose coverage does not change is sent nothing. If a push
    /// before the commit fails, `next` stays pending and `old` serving.
    pub(crate) async fn move_to(
        &self,
        old: Arc<RoarRing>,
        next: RoarRing,
        skip_dead: bool,
    ) -> Result<(), AdminError> {
        let gains = |e: &RingEntry| !coverage_gain(Some(&*old), &next, e.node).is_empty();
        if !self.holds_corpus && next.map().entries().iter().any(gains) {
            return Err(AdminError::BackendIncomplete);
        }
        let next = Arc::new(next);
        {
            let mut pending = self.pending.lock();
            if pending.is_some() {
                return Err(AdminError::RepartitionInFlight);
            }
            *pending = Some(Arc::clone(&next));
        }
        self.push_gains(Some(&*old), &next, skip_dead).await?;
        let (widen, narrow) = coverage_steps(&old, &next);
        let leaves = (old.map().entries().iter())
            .any(|e| next.coverage(e.node).is_none() && self.is_alive(e.node));
        let drain = leaves || narrow.iter().any(|&(node, _)| self.is_alive(node));
        self.set_coverages(&widen).await?;
        {
            let mut ring = self.ring.write();
            *ring = next;
            *self.pending.lock() = None;
        }
        if drain {
            // past the timeout a plan on `old` is stale: its node refuses
            // what it no longer covers, as §4.8.3 allows
            let drained = async {
                while Arc::strong_count(&old) > 1 {
                    tokio::time::sleep(Duration::from_millis(1)).await;
                }
            };
            let _ = tokio::time::timeout(self.timeout, drained).await;
            self.set_coverages(&narrow).await?;
        }
        Ok(())
    }

    pub(crate) fn speed_estimates(&self) -> Vec<f64> {
        let st = self.stats.read();
        (0..self.n()).map(|i| st.speed_estimate(i)).collect()
    }

    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn is_alive(&self, node: usize) -> bool {
        self.stats.read().is_alive(node)
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
    pub(crate) fn plan_query(&self, opts: &SchedOpts) -> (Arc<RoarRing>, QueryPlan) {
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
    /// The request is encoded once, from the borrowed body, into the link's
    /// send buffer.
    async fn dispatch_once(
        &self,
        sub: &SubQuery,
        body: &QueryBody,
    ) -> Result<SubOutcome, RpcError> {
        let window = (sub.window.start, sub.window.end);
        let encode = |out: &mut Vec<u8>| Msg::put_subquery(out, sub.point, window, body, &None);
        let reply = self.conn(sub.node).rpc_with(&encode, self.timeout).await?;
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
        body: &'a QueryBody,
        depth: usize,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = SubOutcome> + Send + 'a>> {
        Box::pin(async move {
            let err = match self.dispatch_once(&sub, body).await {
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
                match self.run_subquery(ring, s, body, depth + 1).await {
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
                self.hedge_dispatch_once(&aimed, &body, hedges_sent).await?;
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
                    async move { this.hedge_dispatch_once(&piece, &body, &hedges_sent).await },
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
        body: &QueryBody,
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

    /// One `CoverageRequest` per member of `ring`, in ring order: the
    /// window each node covers, `None` for a node that covers nothing.
    pub(crate) async fn held_coverages(
        &self,
        ring: &RoarRing,
    ) -> Result<Vec<Option<Window>>, RpcError> {
        let mut held = Vec::with_capacity(ring.n());
        for entry in ring.map().entries() {
            let link = self.conn(entry.node);
            match link.rpc(Msg::CoverageRequest, self.timeout).await? {
                Msg::Coverage { start, end, has } => {
                    held.push(has.then(|| Window::new(start, end)))
                }
                _ => return Err(RpcError::Disconnected),
            }
        }
        Ok(held)
    }

    /// Push each node its coverage on the serving ring — how `connect`
    /// covers a fresh cluster.
    pub(crate) async fn push_coverages(&self) -> Result<(), AdminError> {
        let ring = self.ring_snapshot();
        let covs: Coverages = (ring.map().entries().iter())
            .filter_map(|e| Some((e.node, ring.coverage(e.node)?)))
            .collect();
        self.set_coverages(&covs).await
    }

    /// Send each `(node, window)` one `SetCoverage` (the node drops
    /// anything outside). Nodes currently believed dead are skipped — their
    /// stale, wider coverage only retains extra data, never wrong answers
    /// — so a partially-failed cluster can still make control-plane
    /// progress; a later [`Self::backfill`] (or the reconciler) heals
    /// survivors.
    async fn set_coverages(&self, covs: &[(usize, Window)]) -> Result<(), AdminError> {
        for &(node, cov) in covs {
            if !self.is_alive(node) {
                continue;
            }
            // a range spanning ≥ 1 − 1/p of the ring covers it all, sent
            // as the start == end full window
            let msg = Msg::SetCoverage {
                start: cov.start,
                end: cov.end,
            };
            self.control_rpc("set_coverage", node, msg).await?;
        }
        Ok(())
    }

    /// Re-push from the backend whatever each node's coverage now requires
    /// (nodes dedupe by id on insert — see MetadataStore semantics). Dead
    /// ring members are skipped, same contract as
    /// [`Self::set_coverages`].
    pub(crate) async fn backfill(&self) -> Result<(), AdminError> {
        if !self.holds_corpus {
            return Err(AdminError::BackendIncomplete);
        }
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
            if skip_dead && !self.is_alive(node) {
                continue;
            }
            let gain = coverage_gain(from, to, node);
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

    /// Push writes the caller has appended to the backend to their write
    /// sets ([`write_set`]), one `Store` per node. Replicas currently
    /// believed dead are skipped (the backend keeps the authoritative copy;
    /// a later backfill re-pushes), so ingest survives churn.
    pub(crate) async fn store(
        &self,
        records: &[EncryptedMetadata],
        ids: &[u64],
    ) -> Result<(), AdminError> {
        let rings = self.write_rings();
        let mut per_node: HashMap<usize, (Vec<WireRecord>, Vec<u64>)> = HashMap::new();
        for r in records {
            let wire = WireRecord::from_record(r);
            for node in write_set(&rings, r.id) {
                per_node.entry(node).or_default().0.push(wire.clone());
            }
        }
        for &id in ids {
            for node in write_set(&rings, id) {
                per_node.entry(node).or_default().1.push(id);
            }
        }
        for (node, (records, synthetic_ids)) in per_node {
            if !self.is_alive(node) {
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
        ClusterCore::connect_with(&addrs, 3, 1e6, TransportSpec::udp().build(), true)
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
        let mut target = RoarRing::clone(&old);
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

    /// A TCP transport whose links count the `SetCoverage` requests they
    /// send.
    struct CountingTcp(Arc<dyn Transport>, Arc<std::sync::atomic::AtomicUsize>);

    struct CountingLink(Arc<dyn NodeLink>, Arc<std::sync::atomic::AtomicUsize>);

    impl NodeLink for CountingLink {
        fn addr(&self) -> SocketAddr {
            self.0.addr()
        }
        fn is_connected(&self) -> bool {
            self.0.is_connected()
        }
        fn rpc_with<'a>(
            &'a self,
            encode: &'a crate::transport::Encoder<'a>,
            timeout: Duration,
        ) -> crate::transport::BoxFuture<'a, Result<Msg, RpcError>> {
            self.0.rpc_with(encode, timeout)
        }
        fn rpc<'a>(
            &'a self,
            msg: Msg,
            timeout: Duration,
        ) -> crate::transport::BoxFuture<'a, Result<Msg, RpcError>> {
            if matches!(msg, Msg::SetCoverage { .. }) {
                // ORDERING: Relaxed — a test counter read after the awaits
                // that sent it
                self.1.fetch_add(1, Ordering::Relaxed);
            }
            self.0.rpc(msg, timeout)
        }
    }

    impl Transport for CountingTcp {
        fn name(&self) -> &'static str {
            "tcp"
        }
        fn bind<'a>(
            &'a self,
            addr: &'a str,
        ) -> crate::transport::BoxFuture<'a, std::io::Result<Box<dyn crate::transport::BoundServer>>>
        {
            self.0.bind(addr)
        }
        fn connect<'a>(
            &'a self,
            addr: SocketAddr,
        ) -> crate::transport::BoxFuture<'a, std::io::Result<Arc<dyn NodeLink>>> {
            Box::pin(async move {
                let link = self.0.connect(addr).await?;
                Ok(Arc::new(CountingLink(link, Arc::clone(&self.1))) as Arc<dyn NodeLink>)
            })
        }
    }

    /// A move sends one `SetCoverage` to each live node whose coverage
    /// gains and one to each whose coverage loses, and none to a node whose
    /// coverage stays: over an increase, a decrease, a join, a removal and
    /// a balancing step that is no more than the one per node on the new
    /// ring that pushing every coverage after each commit sends.
    #[tokio::test]
    async fn a_move_sets_only_the_coverages_that_change() {
        let speeds = [
            800_000.0, 100_000.0, 800_000.0, 100_000.0, 800_000.0, 100_000.0,
        ];
        let mut addrs = Vec::new();
        for (id, &speed) in speeds.iter().enumerate() {
            addrs.push(spawn_extra_node(id, speed, 0.0).await.unwrap().0);
        }
        let sent = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let transport = Arc::new(CountingTcp(TransportSpec::Tcp.build(), Arc::clone(&sent)));
        let core = ClusterCore::connect_with(&addrs, 2, 1.0, transport, true)
            .await
            .unwrap();
        core.push_coverages().await.unwrap();
        let admin = crate::admin::Admin {
            core: Arc::clone(&core),
        };
        let client = crate::client::QueryClient {
            core: Arc::clone(&core),
        };
        let mut rng = det_rng(51);
        let ids: Vec<u64> = (0..600).map(|_| rng.gen()).collect();
        admin.store_synthetic(&ids).await.unwrap();
        // ORDERING: Relaxed — read after the awaits that counted
        let take = || sent.swap(0, Ordering::Relaxed);
        take();
        let mut counts = Vec::new();
        admin.set_p(3).await.unwrap();
        counts.push(take());
        admin.set_p(2).await.unwrap();
        counts.push(take());
        let (spare, _joiner) = spawn_extra_node(6, 800_000.0, 0.0).await.unwrap();
        assert_eq!(admin.add_node(spare).await, Ok(6));
        counts.push(take());
        admin.remove_node(6).await.unwrap();
        counts.push(take());
        // every node loses (an increase) or gains (a decrease); the joiner
        // and the node it splits change; the heir alone changes
        assert_eq!(counts, [6, 6, 2, 1]);
        for _ in 0..6 {
            let q = client.query(QueryBody::Synthetic);
            q.sched(SchedOpts::default()).pq(6).run().await;
        }
        let old = admin.ring();
        assert!(admin.balance_step().await.unwrap() > 0, "boundaries moved");
        let ring = admin.ring();
        let changed = |node: usize| {
            let (was, now) = (old.coverage(node).unwrap(), ring.coverage(node).unwrap());
            usize::from(!now.subset_of(&was)) + usize::from(!was.subset_of(&now))
        };
        counts.push(take());
        assert_eq!(counts[4], (0..6).map(changed).sum::<usize>());
        assert!(
            counts.iter().sum::<usize>() <= 6 + 6 + 7 + 6 + 6,
            "{counts:?}"
        );
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
        Arc::make_mut(&mut core.ring.write()).set_p(2);
        assert_eq!(core.plan_query(&opts).1.subs.len(), 2);
    }

    /// A move while another ring is pending is refused before it pushes
    /// anything: no RPC goes out (the offline nodes would time out into
    /// `RetriesExhausted`), and the serving and pending rings are as they
    /// were.
    #[tokio::test]
    async fn a_move_beside_a_pending_ring_is_refused_and_sends_nothing() {
        let core = offline_core().await;
        let old = core.ring_snapshot();
        let mut pending = RoarRing::clone(&old);
        pending.set_p(2);
        *core.pending.lock() = Some(Arc::new(pending));
        let mut next = RoarRing::clone(&old);
        next.map_mut().remove(3);
        let refused = core.move_to(old, next, false).await;
        assert_eq!(refused, Err(AdminError::RepartitionInFlight));
        assert_eq!(core.alive_snapshot(), vec![true; 4], "no RPC was tried");
        assert_eq!(core.ring_snapshot().n(), 4, "the serving ring stands");
        assert_eq!(core.pending.lock().as_ref().map(|r| r.p()), Some(2));
    }

    /// `abort_repartition` drops the pending ring, and the next move is
    /// accepted and committed.
    #[tokio::test]
    async fn after_an_abort_the_next_move_is_accepted() {
        let core = offline_core().await;
        let admin = crate::admin::Admin {
            core: Arc::clone(&core),
        };
        let old = core.ring_snapshot();
        *core.pending.lock() = Some(Arc::clone(&old));
        assert!(admin.reconfig_in_flight());
        admin.abort_repartition();
        assert!(!admin.reconfig_in_flight());
        // every node believed dead: pushes that skip the dead send
        // nothing, so the move runs to its commit offline
        (0..4).for_each(|i| core.stats.write().on_timeout(i));
        let mut next = RoarRing::clone(&old);
        next.set_p(2);
        core.move_to(old, next, true).await.expect("accepted");
        assert_eq!(core.p(), 2, "the move committed");
        assert!(!admin.reconfig_in_flight());
    }

    /// A join refused beside a pending ring adds no link: the node count
    /// stays the ring's.
    #[tokio::test]
    async fn a_refused_join_adds_no_link() {
        let core = offline_core().await;
        let admin = crate::admin::Admin {
            core: Arc::clone(&core),
        };
        *core.pending.lock() = Some(core.ring_snapshot());
        let spare = SocketAddr::from(([127, 0, 0, 1], 40_100));
        let refused = admin.add_node(spare).await;
        assert_eq!(refused, Err(AdminError::RepartitionInFlight));
        assert_eq!(admin.n(), 4);
    }

    /// A join whose download fails leaves no phantom once aborted: the
    /// joiner's link and stats slot go with the pending ring that named
    /// it, `n()` is the serving ring's count again, and the next join gets
    /// the same id.
    #[tokio::test]
    async fn an_aborted_failed_join_leaves_no_phantom_link() {
        let core = offline_core().await;
        let admin = crate::admin::Admin {
            core: Arc::clone(&core),
        };
        let mut rng = det_rng(49);
        let ids: Vec<u64> = (0..64).map(|_| rng.gen()).collect();
        core.backend.append_synthetic(&ids);
        let spare = SocketAddr::from(([127, 0, 0, 1], 40_100));
        for _ in 0..2 {
            // only the joiner gains a range, and nothing listens there
            match admin.add_node(spare).await {
                Err(AdminError::RetriesExhausted { node, .. }) => assert_eq!(node, 4),
                other => panic!("the join's download should fail: {other:?}"),
            }
            assert!(admin.reconfig_in_flight());
            admin.abort_repartition();
            assert!(!admin.reconfig_in_flight());
            assert_eq!(admin.n(), core.ring_snapshot().n());
            assert_eq!(admin.n(), 4);
            // (the second join's id is checked against its stats slot's)
        }
    }

    /// While a join downloads, a write goes to its replicas on the serving
    /// ring and to at most one more node, the joiner — which it reaches
    /// exactly when the joiner will store the id.
    #[tokio::test]
    async fn a_write_beside_a_join_goes_to_at_most_one_more_replica() {
        let core = offline_core().await;
        let serving = core.ring_snapshot();
        let mut joined = RoarRing::clone(&serving);
        joined.map_mut().insert_half(4, 1);
        *core.pending.lock() = Some(Arc::new(joined.clone()));
        let rings = core.write_rings();
        let mut rng = det_rng(47);
        for id in (0..2000).map(|_| rng.gen::<u64>()) {
            let nodes = write_set(&rings, id);
            let chain = serving.replicas(id);
            assert_eq!(nodes[..chain.len()], chain[..], "serving chain first");
            assert!(nodes.len() <= chain.len() + 1, "id {id}: {nodes:?}");
            assert_eq!(nodes.contains(&4), joined.stores(4, id), "id {id}");
        }
    }
}
