//! The typed client data plane: build a query, stream its partial results,
//! hedge stragglers.
//!
//! ROAR's headline claim is flexibility *per query*, not just per cluster:
//! §4.8.2 lets a client over-partition (`pq > p`) for speed, and Fig 7.11's
//! breakdown shows the straggler — not scheduling — dominating tail delay.
//! [`QueryBuilder`] exposes those knobs (deadline, harvest target, `pq`,
//! scheduler options, hedging), and [`QueryStream`] yields
//! each sub-query's result **as it lands**, resolving early once the
//! harvest target or deadline is hit, so a latency-sensitive caller trades
//! harvest for delay instead of waiting on the last straggler.
//!
//! The optional [`HedgePolicy`] re-dispatches a straggling sub-query to a
//! spare replica (from [`RoarRing::hedge_candidates`], falling back to the
//! §4.4 window split) after a configurable delay — the classic
//! tail-tolerant scatter-gather move; `repro bench_tail` measures the
//! p50/p99 effect under a deterministic straggler.

use crate::admin::Admin;
use crate::admission::AdmissionController;
use crate::frontend::{ClusterCore, QueryOutput, SchedOpts, SubOutcome};
use crate::proto::QueryBody;
use crate::transport::{RpcError, Transport, TransportSpec};
use roar_core::placement::RoarRing;
use std::collections::VecDeque;
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Connect to `addrs` (node i ↔ `addrs[i]`) with partitioning level `p`
/// over TCP (the default transport), returning the data-plane and
/// control-plane handles to the same cluster.
pub async fn connect(
    addrs: &[SocketAddr],
    p: usize,
    default_speed: f64,
) -> std::io::Result<(QueryClient, Admin)> {
    connect_with(addrs, p, default_speed, TransportSpec::Tcp.build()).await
}

/// [`connect`] over an explicit [`Transport`] — the nodes must be serving
/// the same transport.
pub async fn connect_with(
    addrs: &[SocketAddr],
    p: usize,
    default_speed: f64,
    transport: Arc<dyn Transport>,
) -> std::io::Result<(QueryClient, Admin)> {
    let core = ClusterCore::connect_with(addrs, p, default_speed, transport).await?;
    Ok((
        QueryClient {
            core: Arc::clone(&core),
        },
        Admin { core },
    ))
}

/// Connect a backup front-end that knows the ring topology but **not** the
/// current p (§4.8.3). It starts at `p = n`, "which will always work", and
/// can then learn the real value via [`Admin::discover_p`] (coverage
/// probes) or [`Admin::discover_p_by_probing`] (guess-and-retry).
pub async fn connect_backup(
    addrs: &[SocketAddr],
    default_speed: f64,
) -> std::io::Result<(QueryClient, Admin)> {
    connect(addrs, addrs.len(), default_speed).await
}

/// [`connect_backup`] over an explicit transport.
pub async fn connect_backup_with(
    addrs: &[SocketAddr],
    default_speed: f64,
    transport: Arc<dyn Transport>,
) -> std::io::Result<(QueryClient, Admin)> {
    connect_with(addrs, addrs.len(), default_speed, transport).await
}

/// When and how to hedge a straggling sub-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// How long a sub-query may run before a hedge is dispatched. Pick this
    /// around the expected p90 sub-query latency: shorter hedges cut the
    /// tail harder but cost fan-out.
    pub delay: Duration,
}

impl HedgePolicy {
    /// Hedge any sub-query still unanswered after `delay`.
    pub fn after(delay: Duration) -> Self {
        HedgePolicy { delay }
    }
}

/// How one planned sub-query resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubStatus {
    /// Full results for the window arrived.
    Done,
    /// The node refused the window (insufficient coverage, §4.8.3).
    Refused,
    /// Transport-level loss the §4.4 fall-back could not repair.
    Lost,
}

/// One per-sub-query partial result, yielded by [`QueryStream::next`] the
/// moment the window resolves.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// Index of the sub-query in the plan (`0..planned`).
    pub index: usize,
    /// The planned executor.
    pub node: usize,
    /// The node whose reply resolved the window: the planned executor, a
    /// hedge spare, or `None` when the §4.4 fall-back assembled it from
    /// several nodes.
    pub responder: Option<usize>,
    pub status: SubStatus,
    pub matches: Vec<u64>,
    pub scanned: u64,
    /// Node-reported processing time, seconds.
    pub proc_s: f64,
    /// Extra sub-queries the §4.4 fall-back dispatched for this window.
    pub extra_subs: usize,
    /// Resolved by a hedge rather than the primary dispatch.
    pub hedged: bool,
}

/// The data-plane handle: builds queries against a connected cluster.
///
/// Cheap to clone; all clones (and the [`Admin`] twin) share the same
/// front-end state, so control-plane changes are visible to the next query.
///
/// ```no_run
/// # async fn demo(addrs: &[std::net::SocketAddr]) -> std::io::Result<()> {
/// use roar_cluster::{connect, HedgePolicy, QueryBody};
/// use std::time::Duration;
///
/// let (client, admin) = connect(addrs, 4, 1.0).await?;
/// admin.store_synthetic(&[1, 2, 3]).await.expect("store");
///
/// // collect everything (the §4.8.2 paper scheduler defaults):
/// let out = client.query(QueryBody::Synthetic).run().await;
/// assert_eq!(out.harvest, 1.0);
///
/// // or trade harvest for latency and hedge the stragglers:
/// let mut stream = client
///     .query(QueryBody::Synthetic)
///     .deadline(Duration::from_millis(50))
///     .harvest_target(0.9)
///     .hedge(HedgePolicy::after(Duration::from_millis(10)))
///     .stream();
/// while let Some(partial) = stream.next().await {
///     println!("window {} from node {:?}", partial.index, partial.responder);
/// }
/// let out = stream.finish();
/// println!("harvest {:.2} in {:.1} ms", out.harvest, out.wall_s * 1e3);
/// # Ok(()) }
/// ```
#[derive(Clone)]
pub struct QueryClient {
    pub(crate) core: Arc<ClusterCore>,
}

impl QueryClient {
    /// Start building a query.
    pub fn query(&self, body: QueryBody) -> QueryBuilder {
        QueryBuilder {
            core: Arc::clone(&self.core),
            body,
            deadline: None,
            harvest_target: 1.0,
            sched: SchedOpts::paper(),
            hedge: None,
            retries: 0,
            retry_backoff: Duration::from_millis(3),
            admission: None,
        }
    }

    /// Number of connected nodes.
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The partitioning level queries are planned with: the ring's `p`
    /// (§4.5 keeps it at the old, larger level while a decrease is in
    /// flight).
    pub fn p(&self) -> usize {
        self.core.p()
    }
}

/// One query under construction: deadline, harvest target, partitioning
/// override, scheduler options, hedging, retries and admission, then
/// [`run`](QueryBuilder::run) or [`stream`](QueryBuilder::stream). The
/// SHA-1 lane engine is not a query setting: every node sweeps with the
/// process's own (`ROAR_SHA1_BACKEND` pins it).
///
/// Defaults: no deadline, harvest target 1.0 (wait for every window),
/// [`SchedOpts::paper`], no hedging.
#[derive(Clone)]
pub struct QueryBuilder {
    core: Arc<ClusterCore>,
    body: QueryBody,
    deadline: Option<Duration>,
    harvest_target: f64,
    sched: SchedOpts,
    hedge: Option<HedgePolicy>,
    retries: usize,
    retry_backoff: Duration,
    admission: Option<Arc<AdmissionController>>,
}

impl QueryBuilder {
    /// Resolve the stream once this much wall time has passed, returning
    /// whatever harvest arrived (Fig 7.11's latency knob).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Resolve early once this fraction of windows has answered (clamped to
    /// `(0, 1]`). 1.0 — the default — waits for every window.
    pub fn harvest_target(mut self, t: f64) -> Self {
        self.harvest_target = t.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Over-partition this query (`pq ≥ p`, §4.8.2): sets `sched.pq`, so
    /// call it after [`Self::sched`].
    pub fn pq(mut self, pq: usize) -> Self {
        self.sched.pq = Some(pq);
        self
    }

    /// Replace the scheduler options (ablations; see [`SchedOpts`]),
    /// including any [`Self::pq`] set before.
    pub fn sched(mut self, sched: SchedOpts) -> Self {
        self.sched = sched;
        self
    }

    /// Hedge straggling sub-queries to spare replicas.
    pub fn hedge(mut self, policy: HedgePolicy) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// Re-plan and re-run the whole query up to `attempts` more times when
    /// windows were refused or lost — §4.8.3's front-end retry. Each
    /// attempt plans against a **fresh** ring snapshot, so a query that
    /// straddled a control-plane transition (reconciler churn, `set_p`)
    /// retries on consistent topology. Attempt `i` backs off
    /// `backoff · (1 + i/2)` first. The reported output is the
    /// best-harvest attempt; its `wall_s` spans all attempts, so retry
    /// cost shows up in latency, never in silently lowered harvest.
    ///
    /// Off by default: probing flows ([`Admin::discover_p_by_probing`])
    /// read refusals as signal and must not have them masked.
    pub fn retry_on_partial(mut self, attempts: usize, backoff: Duration) -> Self {
        self.retries = attempts;
        self.retry_backoff = backoff;
        self
    }

    /// Gate this query behind an SLO admission door (§2.1). The query is
    /// planned as usual, then the controller compares its predicted
    /// completion (the scheduler's own finish estimates, via
    /// [`roar_dr::sched::predicted_completion`]) against the current delay
    /// bound: a shed query returns an already-resolved stream whose
    /// [`QueryOutput::admitted`] is `false` — **no node does any work for
    /// it**, so admitted queries keep full harvest while yield absorbs the
    /// overload. Admitted queries feed their measured latency back into
    /// the controller, and knobs the caller left unset (`pq`, hedge delay)
    /// are auto-tuned from its observed quantiles.
    pub fn admission(mut self, ctrl: Arc<AdmissionController>) -> Self {
        self.admission = Some(ctrl);
        self
    }

    /// Schedule and dispatch, returning the stream of partial results.
    pub fn stream(self) -> QueryStream {
        let t0 = Instant::now();
        let mut sched = self.sched;
        let mut hedge = self.hedge;
        if let Some(ctrl) = &self.admission {
            // §4.8.2 auto-tuning: only knobs the caller left unset
            if sched.pq.is_none() {
                sched.pq = ctrl.recommended_pq(self.core.p(), self.core.n());
            }
            if hedge.is_none() {
                hedge = ctrl.recommended_hedge_delay().map(HedgePolicy::after);
            }
        }
        let (ring, plan) = self.core.plan_query(&sched);
        if let Some(ctrl) = &self.admission {
            let predicted = self.core.predict_delay(&plan);
            if !ctrl.decide(predicted) {
                // shed at the door: the plan is discarded before
                // note_dispatch, so nothing lands on any node's books
                return QueryStream::shed(t0);
            }
        }
        let sched_s = t0.elapsed().as_secs_f64();
        self.core.note_dispatch(&plan.subs);
        let hedges = Arc::new(AtomicUsize::new(0));
        let planned: Vec<(usize, f64)> = plan.subs.iter().map(|s| (s.node, s.work())).collect();
        let ctx = Arc::new(SubRunCtx {
            core: Arc::clone(&self.core),
            ring,
            body: self.body,
            hedge,
            hedges: Arc::clone(&hedges),
        });
        // one task per sub-query: hedge timers and stragglers tick
        // independently instead of sharing one poll loop's granularity
        let pending: Vec<Option<SubTask>> = plan
            .subs
            .iter()
            .enumerate()
            .map(|(index, &sub)| Some(tokio::spawn(run_one(Arc::clone(&ctx), sub, index))))
            .collect();
        QueryStream {
            planned,
            pending,
            ready: VecDeque::new(),
            deadline: self.deadline.map(|d| t0 + d),
            target: self.harvest_target,
            answered: 0,
            refused: 0,
            lost: 0,
            first_err: None,
            matches: Vec::new(),
            scanned: 0,
            proc_max: 0.0,
            extra_subs: 0,
            hedged_windows: 0,
            hedges,
            t0,
            sched_s,
            exec_start: Instant::now(),
            exec_s: 0.0,
            wall_s: 0.0,
            deadline_hit: false,
            done: false,
            admitted: true,
            admission: self.admission,
        }
    }

    /// Run to resolution and aggregate (the non-streaming entry point).
    /// Honours [`Self::retry_on_partial`]; streaming callers
    /// ([`Self::stream`]) see single attempts and manage retries
    /// themselves.
    pub async fn run(self) -> QueryOutput {
        let (retries, backoff) = (self.retries, self.retry_backoff);
        let attempt = QueryBuilder { retries: 0, ..self };
        let t0 = Instant::now();
        let mut out = attempt.clone().run_once().await;
        for i in 0..retries {
            // a shed query is a deliberate drop, not a partial failure —
            // re-offering it immediately would defeat the door
            if out.harvest >= 1.0 || !out.admitted {
                break;
            }
            tokio::time::sleep(backoff + backoff.mul_f64(i as f64 * 0.5)).await;
            let next = attempt.clone().run_once().await;
            if next.harvest > out.harvest {
                out = next;
            }
        }
        if retries > 0 {
            out.wall_s = t0.elapsed().as_secs_f64();
        }
        out
    }

    async fn run_once(self) -> QueryOutput {
        let mut stream = self.stream();
        while stream.next().await.is_some() {}
        stream.finish()
    }
}

type SubTask = tokio::task::JoinHandle<(usize, SubOutcome)>;

/// Per-query context shared by every sub-query task (the ring snapshot the
/// plan was made against rides along so failover and hedging see the same
/// topology the scheduler did).
struct SubRunCtx {
    core: Arc<ClusterCore>,
    ring: RoarRing,
    body: QueryBody,
    hedge: Option<HedgePolicy>,
    hedges: Arc<AtomicUsize>,
}

/// Drive one planned sub-query to its outcome, hedging if configured.
///
/// The primary and the hedge each run on their **own task**, so losing a
/// race detaches rather than cancels them: no RPC future is ever dropped
/// mid-exchange (a cancelled frame write could desync a shared TCP link),
/// and the loser's own completion/timeout handling still lands in the
/// stats — in particular a dead straggler's primary still times out and
/// marks the node dead even when a hedge resolved the window first.
async fn run_one(
    ctx: Arc<SubRunCtx>,
    sub: roar_core::placement::SubQuery,
    index: usize,
) -> (usize, SubOutcome) {
    let Some(policy) = ctx.hedge else {
        let out = ctx
            .core
            .run_subquery(&ctx.ring, sub, ctx.body.clone(), 0)
            .await;
        return (index, out);
    };
    let primary_ctx = Arc::clone(&ctx);
    let mut primary = tokio::spawn(async move {
        primary_ctx
            .core
            .run_subquery(&primary_ctx.ring, sub, primary_ctx.body.clone(), 0)
            .await
    });
    let settle_primary = |r: Result<SubOutcome, tokio::task::JoinError>| match r {
        Ok(out) => out,
        Err(_) => SubOutcome::Lost(RpcError::Disconnected),
    };
    match tokio::time::timeout(policy.delay, &mut primary).await {
        Ok(out) => (index, settle_primary(out)),
        Err(_) => {
            // the primary is straggling: race it against a hedge task
            let hedge_ctx = Arc::clone(&ctx);
            let mut hedge = tokio::spawn(async move {
                hedge_ctx
                    .core
                    .hedge_subquery(
                        &hedge_ctx.ring,
                        sub,
                        hedge_ctx.body.clone(),
                        &hedge_ctx.hedges,
                    )
                    .await
            });
            enum Winner {
                Primary(SubOutcome),
                Hedge(Option<SubOutcome>),
            }
            let winner = tokio::select! {
                out = &mut primary => Winner::Primary(settle_primary(out)),
                hedged = &mut hedge => Winner::Hedge(hedged.ok().flatten()),
            };
            match winner {
                Winner::Primary(out @ SubOutcome::Done { .. }) => (index, out),
                Winner::Primary(failed) => {
                    // the primary settled Lost/Refused first, but the hedge
                    // is still in flight and may yet deliver the window —
                    // discarding it here would be the harvest loss hedging
                    // exists to prevent
                    match hedge.await.ok().flatten() {
                        Some(out) => (index, out),
                        None => (index, failed),
                    }
                }
                Winner::Hedge(Some(out)) => (index, out),
                // the hedge could not help (no capable spare, hedge RPC
                // failed, or its task panicked); the primary is still the
                // only path to this window
                Winner::Hedge(None) => (index, settle_primary(primary.await)),
            }
        }
    }
}

/// A dispatched query: yields per-sub-query [`PartialResult`]s as they
/// land, and resolves (returns `None`) once every window is accounted for,
/// the harvest target is met, or the deadline expires — whichever comes
/// first. [`finish`](Self::finish) folds what arrived into a
/// [`QueryOutput`]; any still-running sub-queries are abandoned.
pub struct QueryStream {
    /// `(node, work)` per planned sub-query.
    planned: Vec<(usize, f64)>,
    pending: Vec<Option<SubTask>>,
    ready: VecDeque<(usize, SubOutcome)>,
    deadline: Option<Instant>,
    target: f64,
    answered: usize,
    refused: usize,
    lost: usize,
    first_err: Option<RpcError>,
    matches: Vec<u64>,
    scanned: u64,
    proc_max: f64,
    extra_subs: usize,
    hedged_windows: usize,
    hedges: Arc<AtomicUsize>,
    t0: Instant,
    sched_s: f64,
    exec_start: Instant,
    exec_s: f64,
    wall_s: f64,
    deadline_hit: bool,
    done: bool,
    admitted: bool,
    admission: Option<Arc<AdmissionController>>,
}

impl QueryStream {
    /// An already-resolved stream for a query the admission door shed:
    /// nothing planned, nothing dispatched, `admitted() == false`.
    fn shed(t0: Instant) -> QueryStream {
        QueryStream {
            planned: Vec::new(),
            pending: Vec::new(),
            ready: VecDeque::new(),
            deadline: None,
            target: 1.0,
            answered: 0,
            refused: 0,
            lost: 0,
            first_err: None,
            matches: Vec::new(),
            scanned: 0,
            proc_max: 0.0,
            extra_subs: 0,
            hedged_windows: 0,
            hedges: Arc::new(AtomicUsize::new(0)),
            t0,
            sched_s: t0.elapsed().as_secs_f64(),
            exec_start: Instant::now(),
            exec_s: 0.0,
            wall_s: t0.elapsed().as_secs_f64(),
            deadline_hit: false,
            done: true,
            admitted: false,
            // deliberately no controller: shed queries must not feed the
            // latency window the auto-tuner learns from
            admission: None,
        }
    }

    /// Number of sub-queries in the plan.
    pub fn planned(&self) -> usize {
        self.planned.len()
    }

    /// `false` when the admission door shed this query before dispatch.
    pub fn admitted(&self) -> bool {
        self.admitted
    }

    /// Fraction of windows answered so far.
    pub fn harvest(&self) -> f64 {
        self.answered as f64 / self.planned.len().max(1) as f64
    }

    /// Did the stream resolve by deadline expiry?
    pub fn deadline_expired(&self) -> bool {
        self.deadline_hit
    }

    /// The next partial result, or `None` once the stream has resolved.
    pub async fn next(&mut self) -> Option<PartialResult> {
        loop {
            if self.done {
                return None;
            }
            if let Some((index, out)) = self.ready.pop_front() {
                return Some(self.absorb(index, out));
            }
            let accounted = self.answered + self.refused + self.lost;
            if accounted >= self.planned.len() || self.harvest() >= self.target {
                self.resolve();
                return None;
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.deadline_hit = true;
                    self.resolve();
                    return None;
                }
            }
            match (WaitNext {
                pending: &mut self.pending,
                sleep: self
                    .deadline
                    .map(|d| tokio::time::sleep(d.saturating_duration_since(Instant::now()))),
            })
            .await
            {
                Some(item) => self.ready.push_back(item),
                None => {
                    // deadline fired (or nothing left to wait on); loop to
                    // the resolution checks above
                    if let Some(d) = self.deadline {
                        if Instant::now() >= d {
                            self.deadline_hit = true;
                        }
                    }
                    if self.ready.is_empty() {
                        self.resolve();
                        return None;
                    }
                }
            }
        }
    }

    fn absorb(&mut self, index: usize, out: SubOutcome) -> PartialResult {
        let (node, _) = self.planned[index];
        match out {
            SubOutcome::Done {
                matches,
                scanned,
                proc_s,
                extra_subs,
                responder,
                hedged,
            } => {
                self.answered += 1;
                self.scanned += scanned;
                self.proc_max = self.proc_max.max(proc_s);
                self.extra_subs += extra_subs;
                if hedged {
                    self.hedged_windows += 1;
                }
                self.matches.extend_from_slice(&matches);
                PartialResult {
                    index,
                    node,
                    responder,
                    status: SubStatus::Done,
                    matches,
                    scanned,
                    proc_s,
                    extra_subs,
                    hedged,
                }
            }
            SubOutcome::Refused => {
                self.refused += 1;
                PartialResult {
                    index,
                    node,
                    responder: Some(node),
                    status: SubStatus::Refused,
                    matches: Vec::new(),
                    scanned: 0,
                    proc_s: 0.0,
                    extra_subs: 0,
                    hedged: false,
                }
            }
            SubOutcome::Lost(err) => {
                self.lost += 1;
                self.first_err.get_or_insert(err);
                PartialResult {
                    index,
                    node,
                    responder: None,
                    status: SubStatus::Lost,
                    matches: Vec::new(),
                    scanned: 0,
                    proc_s: 0.0,
                    extra_subs: 0,
                    hedged: false,
                }
            }
        }
    }

    /// Seal the stream: abandon still-running sub-query tasks. They are
    /// detached, not cancelled — the nodes are genuinely still executing
    /// those windows, so their dispatched work stays on the books and each
    /// task's own completion/timeout/refusal handling clears it when the
    /// reply (whose result is discarded) eventually lands. Clearing it here
    /// as well would double-decrement and eat concurrent queries'
    /// outstanding-work estimates.
    fn resolve(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.exec_s = self.exec_start.elapsed().as_secs_f64();
        // freeze the end-to-end clock here, not at finish(): a streaming
        // caller's own work between draining and finish() is not query time
        self.wall_s = self.t0.elapsed().as_secs_f64();
        if let Some(ctrl) = &self.admission {
            // feed the door's quantile window with what this admitted
            // query's caller actually experienced
            ctrl.observe(self.wall_s);
        }
        for slot in self.pending.iter_mut() {
            slot.take();
        }
    }

    /// Aggregate everything absorbed so far into a [`QueryOutput`]. Resolves
    /// the stream first if the caller stopped consuming early.
    pub fn finish(mut self) -> QueryOutput {
        self.resolve();
        let mut matches = std::mem::take(&mut self.matches);
        matches.sort_unstable();
        matches.dedup();
        QueryOutput {
            matches,
            scanned: self.scanned,
            wall_s: self.wall_s,
            sched_s: self.sched_s,
            exec_s: self.exec_s,
            proc_max_s: self.proc_max,
            subqueries: self.planned.len() + self.extra_subs,
            harvest: self.harvest(),
            refused: self.refused,
            lost: self.lost,
            rpc_error: self.first_err,
            // ORDERING: Relaxed — stats counter snapshot; no other memory
            // is synchronised through it
            hedges: self.hedges.load(Ordering::Relaxed),
            admitted: self.admitted,
        }
    }
}

/// Wait for any pending sub-query task to complete, or the deadline sleep
/// to fire (`None`). Polling a `JoinHandle` is a cheap state check — the
/// per-sub-query timers tick on their own tasks, so the stream's reaction
/// latency does not grow with fan-out.
struct WaitNext<'a> {
    pending: &'a mut Vec<Option<SubTask>>,
    sleep: Option<tokio::time::Sleep>,
}

impl Unpin for WaitNext<'_> {}

impl Future for WaitNext<'_> {
    type Output = Option<(usize, SubOutcome)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut any_pending = false;
        for (index, slot) in this.pending.iter_mut().enumerate() {
            if let Some(task) = slot.as_mut() {
                match Pin::new(task).poll(cx) {
                    Poll::Ready(Ok(item)) => {
                        *slot = None;
                        return Poll::Ready(Some(item));
                    }
                    Poll::Ready(Err(_)) => {
                        // the task panicked: surface as a lost window rather
                        // than poisoning the whole stream (slot order equals
                        // plan order, so the slot index is the sub index)
                        *slot = None;
                        return Poll::Ready(Some((
                            index,
                            SubOutcome::Lost(RpcError::Disconnected),
                        )));
                    }
                    Poll::Pending => any_pending = true,
                }
            }
        }
        if let Some(sleep) = this.sleep.as_mut() {
            if Pin::new(sleep).poll(cx).is_ready() {
                return Poll::Ready(None);
            }
        }
        if !any_pending {
            // nothing left that could ever complete
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}
