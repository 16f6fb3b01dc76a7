//! One benchmark run: set up a cluster, drive the workload's load shape
//! for six rounds, check every answer against the oracle, and reduce the
//! samples to the registry's metrics.
//!
//! Layers are measured from outside only: public fields of `QueryOutput`
//! and `PartialResult`, timestamps taken around `QueryStream::next()`, and
//! (in [`crate::probes`]) direct calls of each layer's public functions.

use crate::probes;
use crate::report::{self, Metrics};
use crate::stats::{median, median_of_rounds, percentile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    self, body_of, Inputs, Load, Oracle, Spec, OPEN_LIMIT_MS, QUERIES, ROUNDS, SET_P_DOWN_AT,
    SET_P_UP_AT, WARMUP_S, WRITE_PERIOD_MS,
};
use roar_cluster::{
    connect_with, spawn_cluster, Admin, ClusterConfig, ClusterHandle, QueryBody, QueryBuilder,
    QueryClient, QueryOutput, SchedOpts, SubStatus,
};
use roar_workload::Arrival;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries each set-up runs through the fresh cluster before it counts as
/// ready (connections open, matcher pools started, speed estimates seeded).
const SETUP_QUERIES: usize = 16;
/// `ingest_reconfig` queries re-plan when a window was refused mid-`set_p`.
const INGEST_RETRY: (usize, Duration) = (2, Duration::from_millis(5));

pub struct RunOpts {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

// ---- set-up -----------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    generate_s: f64,
    spawn_s: f64,
    store_s: f64,
    first_queries_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.spawn_s + self.store_s + self.first_queries_s
    }
}

fn fail(what: impl std::fmt::Display) -> ! {
    eprintln!("roar-benchmark: {what}");
    std::process::exit(1)
}

/// Workload start → cluster ready for the first timed query: generate and
/// encrypt the corpus, spawn the nodes and connect the front-ends, store
/// the records, run the first queries.
///
/// Returns one front-end per client task. Over TCP each closed-loop
/// client gets a front-end of its own (`connect_with` to the same nodes),
/// as a deployment with several front-ends has: two clients sharing one
/// front-end share its one connection per node, a node's reply to the
/// second waits behind Nagle for the ACK of its reply to the first (the
/// node side never sets `TCP_NODELAY`), and every query then times the
/// kernel's 40 ms delayed-ACK timer instead of the program.
async fn set_up(opts: &RunOpts) -> (ClusterHandle, Vec<QueryClient>, Inputs, SetupTimes) {
    let spec = opts.spec;
    let t = Instant::now();
    let inputs = workloads::generate(spec, opts.seed, opts.seconds);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    // overhead_s = 0 and QueryBody::Pps: no synthetic sleep anywhere
    let cfg = ClusterConfig::uniform(spec.n, 1e6, spec.p).with_transport(spec.transport_spec());
    let h = spawn_cluster(cfg)
        .await
        .unwrap_or_else(|e| fail(format_args!("spawn_cluster: {e}")));
    let mut clients = vec![h.client.clone()];
    if let Load::Closed { clients: tasks } = spec.load {
        for _ in 1..tasks {
            let (client, _admin) = connect_with(&h.addrs, spec.p, 1.0, h.transport.build())
                .await
                .unwrap_or_else(|e| fail(format_args!("connect a front-end: {e}")));
            clients.push(client);
        }
    }
    let spawn_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for chunk in inputs.corpus.chunks(spec.store_batch()) {
        if let Err(e) = h.admin.store_records(chunk).await {
            fail(format_args!("store_records at set-up: {e}"));
        }
    }
    let store_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (i, q) in inputs.queries.iter().take(SETUP_QUERIES).enumerate() {
        let client = &clients[i % clients.len()];
        let out = client.query(body_of(q)).sched(spec.sched()).run().await;
        if out.harvest < 1.0 {
            fail(format_args!(
                "set-up query came back with harvest {}",
                out.harvest
            ));
        }
    }
    let first_queries_s = t.elapsed().as_secs_f64();
    (
        h,
        clients,
        inputs,
        SetupTimes {
            generate_s,
            spawn_s,
            store_s,
            first_queries_s,
        },
    )
}

async fn tear_down(h: ClusterHandle) {
    for node in 0..h.nodes.len() {
        h.admin.kill_node(node).await;
    }
}

// ---- clocks and samples -----------------------------------------------------

/// The measured window: `ROUNDS` rounds starting at `t0`.
#[derive(Debug, Clone, Copy)]
struct Clock {
    t0: Instant,
    round: Duration,
}

impl Clock {
    fn end(&self) -> Instant {
        self.t0 + self.round * ROUNDS as u32
    }

    /// The round `t` falls in; `None` during warm-up or after the window.
    fn round_of(&self, t: Instant) -> Option<usize> {
        if t < self.t0 || t >= self.end() {
            return None;
        }
        let r = ((t - self.t0).as_secs_f64() / self.round.as_secs_f64()) as usize;
        Some(r.min(ROUNDS - 1))
    }

    /// Microseconds since `t0` (negative during warm-up).
    fn us(&self, t: Instant) -> f64 {
        if t >= self.t0 {
            (t - self.t0).as_secs_f64() * 1e6
        } else {
            -((self.t0 - t).as_secs_f64() * 1e6)
        }
    }

    fn at(&self, rounds: f64) -> Instant {
        self.t0 + self.round.mul_f64(rounds)
    }

    /// Write batches due at or before `t` (batch 0 is due at `t0`).
    fn batches_due(&self, t: Instant) -> usize {
        if t < self.t0 {
            0
        } else {
            ((t - self.t0).as_millis() as u64 / WRITE_PERIOD_MS) as usize + 1
        }
    }
}

async fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        tokio::time::sleep(t - now).await;
    }
}

/// What the benchmark saw of one traced query (times in microseconds).
#[derive(Debug)]
struct Detail {
    wall_us: f64,
    plan_us: f64,
    /// `stream()` returned → last partial result: how long the caller
    /// waited for the slowest sub-query.
    slowest_us: f64,
    /// Last partial result → `finish()` returned.
    merge_us: f64,
    /// `(flight, proc)` per answered sub-query.
    subs: Vec<(f64, f64)>,
    proc_max_us: f64,
    subqueries: usize,
    extra_attempts: usize,
    hedges: usize,
    refused: usize,
    lost: usize,
    rpc_error: bool,
    scanned: u64,
}

/// One resolved query.
#[derive(Debug)]
struct Done {
    /// Round its latency counts in: the round it resolved in (closed
    /// loop) or was due in (open loop).
    round: Option<usize>,
    /// When it resolved; it counts as a completion of the round whose
    /// two boundary samples enclose this instant.
    resolved_at: Instant,
    /// Closed loop: call → resolved. Open loop: due time → resolved.
    latency_ms: f64,
    /// Full harvest, no `rpc_error`, matches equal to the oracle's.
    right: bool,
    /// Open loop: resolved after the latency limit.
    late: bool,
    detail: Option<Detail>,
}

impl Done {
    /// A query failed if its answer was wrong or incomplete or (open
    /// loop) it resolved after the latency limit.
    fn ok(&self) -> bool {
        self.right && !self.late
    }
}

struct Shared {
    /// One front-end per client task (see [`set_up`]).
    clients: Vec<QueryClient>,
    sched: SchedOpts,
    bodies: Vec<QueryBody>,
    oracle: Oracle,
    retry: Option<(usize, Duration)>,
    clock: Clock,
    /// Trace mode: odd rounds go through `stream()` and record spans.
    trace: bool,
    open_loop: bool,
    tracer: Tracer,
    seq: AtomicU64,
}

type Ctx = Arc<Shared>;

impl Shared {
    /// Query `q` as client `c` issues it.
    fn query(&self, c: usize, q: usize) -> QueryBuilder {
        self.clients[c]
            .query(self.bodies[q].clone())
            .sched(self.sched)
    }
}

struct Attempt {
    out: QueryOutput,
    t_call: Instant,
    t_stream: Instant,
    /// `(arrival, proc_s, answered)` per partial result.
    parts: Vec<(Instant, f64, bool)>,
    t_fin: Instant,
}

async fn traced_attempt(ctx: &Shared, c: usize, q: usize) -> Attempt {
    let t_call = Instant::now();
    let mut stream = ctx.query(c, q).stream();
    let t_stream = Instant::now();
    let mut parts = Vec::with_capacity(stream.planned());
    while let Some(part) = stream.next().await {
        parts.push((Instant::now(), part.proc_s, part.status == SubStatus::Done));
    }
    let out = stream.finish();
    Attempt {
        out,
        t_call,
        t_stream,
        parts,
        t_fin: Instant::now(),
    }
}

/// The traced twin of `QueryBuilder::run`: same retry rule, but each
/// attempt goes through `stream()` so every partial result gets a
/// timestamp.
async fn run_traced(ctx: &Shared, c: usize, q: usize, seq: u64) -> (QueryOutput, Detail) {
    let t_first = Instant::now();
    let (retries, backoff) = ctx.retry.unwrap_or((0, Duration::ZERO));
    let mut best = traced_attempt(ctx, c, q).await;
    let mut extra_attempts = 0;
    while best.out.harvest < 1.0 && extra_attempts < retries {
        tokio::time::sleep(backoff + backoff.mul_f64(extra_attempts as f64 * 0.5)).await;
        extra_attempts += 1;
        let next = traced_attempt(ctx, c, q).await;
        if next.out.harvest > best.out.harvest {
            best = next;
        }
    }
    let t_done = Instant::now();
    let a = &best;
    let secs = |d: Duration| d.as_secs_f64() * 1e6;
    let dispatch = a.t_call + Duration::from_secs_f64(a.out.sched_s);
    let last = a.parts.iter().map(|p| p.0).max().unwrap_or(a.t_stream);
    let detail = Detail {
        wall_us: secs(a.t_fin - a.t_call),
        plan_us: a.out.sched_s * 1e6,
        slowest_us: secs(last - a.t_stream),
        merge_us: secs(a.t_fin - last),
        subs: a
            .parts
            .iter()
            .filter(|p| p.2)
            .map(|&(arrival, proc_s, _)| {
                let in_flight = secs(arrival.saturating_duration_since(dispatch));
                ((in_flight - proc_s * 1e6).max(0.0), proc_s * 1e6)
            })
            .collect(),
        proc_max_us: a.out.proc_max_s * 1e6,
        subqueries: a.out.subqueries,
        extra_attempts,
        hedges: a.out.hedges,
        refused: a.out.refused,
        lost: a.out.lost,
        rpc_error: a.out.rpc_error.is_some(),
        scanned: a.out.scanned,
    };

    let clock = &ctx.clock;
    let mut spans = vec![
        Span {
            name: "query",
            start_us: clock.us(t_first),
            end_us: clock.us(t_done),
            parent: None,
            query: seq,
        },
        Span {
            name: "plan",
            start_us: clock.us(a.t_call),
            end_us: clock.us(dispatch),
            parent: Some(0),
            query: seq,
        },
    ];
    for &(arrival, proc_s, _) in &a.parts {
        let sub = spans.len();
        spans.push(Span {
            name: "subquery",
            start_us: clock.us(dispatch),
            end_us: clock.us(arrival),
            parent: Some(0),
            query: seq,
        });
        spans.push(Span {
            name: "node.proc",
            start_us: clock.us(arrival) - proc_s * 1e6,
            end_us: clock.us(arrival),
            parent: Some(sub),
            query: seq,
        });
    }
    spans.push(Span {
        name: "merge",
        start_us: clock.us(last),
        end_us: clock.us(a.t_fin),
        parent: Some(0),
        query: seq,
    });
    ctx.tracer.record(spans);
    (best.out, detail)
}

/// Run query `q` as client `c`, timed from `clock_start`, and judge the
/// answer.
async fn run_query(ctx: Ctx, c: usize, q: usize, clock_start: Instant) -> Done {
    // ORDERING: Relaxed — only uniqueness of the sequence number matters
    let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
    let traced = ctx.trace
        && ctx
            .clock
            .round_of(Instant::now())
            .is_some_and(|r| r % 2 == 1);
    let (out, detail) = if traced {
        let (out, detail) = run_traced(&ctx, c, q, seq).await;
        (out, Some(detail))
    } else {
        let mut builder = ctx.query(c, q);
        if let Some((attempts, backoff)) = ctx.retry {
            builder = builder.retry_on_partial(attempts, backoff);
        }
        (builder.run().await, None)
    };
    let t_done = Instant::now();
    let latency_ms = (t_done - clock_start).as_secs_f64() * 1e3;
    let right = out.harvest >= 1.0
        && out.rpc_error.is_none()
        && ctx
            .oracle
            .accepts(q, &out.matches, ctx.clock.batches_due(t_done));
    Done {
        round: ctx
            .clock
            .round_of(if ctx.open_loop { clock_start } else { t_done }),
        resolved_at: t_done,
        latency_ms,
        right,
        late: ctx.open_loop && latency_ms > OPEN_LIMIT_MS,
        detail,
    }
}

// ---- load shapes ------------------------------------------------------------

/// One closed-loop client: next query when the previous one resolved,
/// from `WARMUP_S` before the window until its end.
async fn closed_client(ctx: Ctx, c: usize, first_query: usize) -> Vec<Done> {
    let mut done = Vec::new();
    let mut q = first_query;
    loop {
        let now = Instant::now();
        if now >= ctx.clock.end() {
            return done;
        }
        done.push(run_query(Arc::clone(&ctx), c, q % QUERIES, now).await);
        q += 1;
    }
}

/// What the open-loop generator did in the measured window.
#[derive(Debug, Default)]
struct Offered {
    lateness_ms: Vec<f64>,
    in_window: usize,
}

/// The open loop: one generator launches every arrival at its due time
/// whether or not earlier queries have come back. A query's clock starts
/// at its *due* time, so a generator or server stall is charged to every
/// arrival it delayed.
///
/// Blocks the calling thread: the generator paces itself with
/// `std::thread::sleep`, one kernel timer away from its due time, instead
/// of queueing behind the program's own tasks on the runtime it is loading.
fn open_loop<F, Fut>(
    clock: Clock,
    arrivals: &[Arrival],
    mut launch: F,
) -> (Vec<tokio::task::JoinHandle<Fut::Output>>, Offered)
where
    F: FnMut(usize, Instant) -> Fut,
    Fut: std::future::Future + Send + 'static,
    Fut::Output: Send + 'static,
{
    let begin = clock.t0 - Duration::from_secs_f64(WARMUP_S);
    let mut offered = Offered::default();
    let mut inflight = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let due = begin + Duration::from_secs_f64(a.at_s);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if clock.round_of(due).is_some() {
            offered.in_window += 1;
            offered
                .lateness_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        inflight.push(tokio::spawn(launch(a.rank - 1, due)));
    }
    (inflight, offered)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Control {
    StoreBatch,
    SetPUp,
    SetPDown,
}

/// One control operation, as timed by the task that issued it.
#[derive(Debug)]
struct ControlOp {
    kind: Control,
    ms: f64,
    ok: bool,
    /// A write batch still running when the next one was due.
    late: bool,
}

impl ControlOp {
    fn failed(&self) -> bool {
        !self.ok || self.late
    }
}

fn batch_is_late(due: Instant, finished: Instant, period: Duration) -> bool {
    finished > due + period
}

/// Book one finished control operation: its span and its sample.
fn control_op(
    ctx: &Shared,
    kind: Control,
    k: usize,
    t: Instant,
    ok: bool,
    late: bool,
) -> ControlOp {
    let fin = Instant::now();
    ctx.tracer.record(vec![Span {
        name: if kind == Control::StoreBatch {
            "store_batch"
        } else {
            "set_p"
        },
        start_us: ctx.clock.us(t),
        end_us: ctx.clock.us(fin),
        parent: None,
        query: k as u64,
    }]);
    ControlOp {
        kind,
        ms: (fin - t).as_secs_f64() * 1e3,
        ok,
        late,
    }
}

/// The paced writer: batch `k` is due `k` periods into the window.
async fn writer(ctx: Ctx, admin: Admin, inputs: Arc<Inputs>) -> Vec<ControlOp> {
    let period = Duration::from_millis(WRITE_PERIOD_MS);
    let mut ops = Vec::new();
    for (k, batch) in inputs.batches.iter().enumerate() {
        let due = ctx.clock.t0 + period * k as u32;
        if due >= ctx.clock.end() {
            break;
        }
        sleep_until(due).await;
        let t = Instant::now();
        let ok = admin.store_records(batch).await.is_ok();
        let late = batch_is_late(due, Instant::now(), period);
        ops.push(control_op(&ctx, Control::StoreBatch, k, t, ok, late));
    }
    ops
}

/// The repartitioner: in every round `set_p(p + 1)` then back to `p`.
async fn repartitioner(ctx: Ctx, admin: Admin, p: usize) -> Vec<ControlOp> {
    let mut ops = Vec::new();
    for r in 0..ROUNDS {
        for (at, target, kind) in [
            (SET_P_UP_AT, p + 1, Control::SetPUp),
            (SET_P_DOWN_AT, p, Control::SetPDown),
        ] {
            sleep_until(ctx.clock.at(r as f64 + at)).await;
            let t = Instant::now();
            let ok = admin.set_p(target).await.is_ok();
            if !ok {
                admin.abort_repartition();
            }
            ops.push(control_op(&ctx, kind, ops.len(), t, ok, false));
        }
    }
    ops
}

/// What the sampler read at one round boundary.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    /// When it read — a little after the nominal boundary; rates and CPU
    /// per query are taken between two reads, not between two nominal
    /// times.
    at: Instant,
    cpu_ms: f64,
    wakeups: u64,
}

/// The clock, CPU time and reactor wake-ups at every round boundary.
async fn sample_rounds(clock: Clock) -> Vec<Boundary> {
    let mut samples = Vec::with_capacity(ROUNDS + 1);
    for r in 0..=ROUNDS {
        sleep_until(clock.at(r as f64)).await;
        samples.push(Boundary {
            at: Instant::now(),
            cpu_ms: report::cpu_ms(),
            wakeups: tokio::runtime::reactor_wakeups(),
        });
    }
    samples
}

// ---- reduction --------------------------------------------------------------

struct RoundStats {
    /// Latencies of rightly answered queries, per round.
    lat: Vec<Vec<f64>>,
    /// Queries that resolved between the round's two boundary samples
    /// and did not fail.
    good: Vec<usize>,
    /// All queries that resolved between them.
    done: Vec<usize>,
}

fn per_round(done: &[Done], bounds: &[Boundary]) -> RoundStats {
    let mut s = RoundStats {
        lat: vec![Vec::new(); ROUNDS],
        good: vec![0; ROUNDS],
        done: vec![0; ROUNDS],
    };
    for d in done {
        if let (Some(r), true) = (d.round, d.right) {
            s.lat[r].push(d.latency_ms);
        }
        // boundaries passed by the time it resolved: 0 is warm-up,
        // 1..=ROUNDS the round, ROUNDS + 1 after the window
        let passed = bounds.partition_point(|b| b.at <= d.resolved_at);
        if (1..=ROUNDS).contains(&passed) {
            s.done[passed - 1] += 1;
            s.good[passed - 1] += usize::from(d.ok());
        }
    }
    s
}

/// Queries per second of round `r`: those that resolved between its two
/// boundary samples and did not fail, over the time between the samples.
fn round_rate(s: &RoundStats, bounds: &[Boundary], r: usize) -> f64 {
    s.good[r] as f64 / (bounds[r + 1].at - bounds[r].at).as_secs_f64()
}

/// The timed end-to-end metrics over `rounds`: each is the median of the
/// per-round statistic.
fn end_to_end(m: &mut Metrics, s: &RoundStats, bounds: &[Boundary], rounds: &[usize]) -> f64 {
    let pick = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { rounds.iter().map(|&r| f(r)).collect() };
    let qps = median(&pick(&|r| round_rate(s, bounds, r)));
    let lat: Vec<&[f64]> = rounds.iter().map(|&r| s.lat[r].as_slice()).collect();
    m.set("queries_per_s", qps);
    m.set(
        "query_p50_ms",
        median_of_rounds(&lat, |l| percentile(l, 50.0)),
    );
    m.set(
        "query_p90_ms",
        median_of_rounds(&lat, |l| percentile(l, 90.0)),
    );
    m.set(
        "cpu_ms_per_query",
        median(&pick(&|r| {
            (bounds[r + 1].cpu_ms - bounds[r].cpu_ms) / s.done[r].max(1) as f64
        })),
    );
    qps
}

fn layer_metrics(m: &mut Metrics, done: &[Done]) {
    let details: Vec<&Detail> = done
        .iter()
        .filter(|d| d.round.is_some())
        .filter_map(|d| d.detail.as_ref())
        .collect();
    if details.is_empty() {
        return;
    }
    let n = details.len() as f64;
    let sum = |f: &dyn Fn(&Detail) -> f64| details.iter().map(|d| f(d)).sum::<f64>();
    let col = |f: &dyn Fn(&Detail) -> f64| details.iter().map(|d| f(d)).collect::<Vec<f64>>();
    let wall = sum(&|d| d.wall_us);
    let traced_lat: Vec<f64> = done
        .iter()
        .filter(|d| d.round.is_some() && d.detail.is_some() && d.right)
        .map(|d| d.latency_ms)
        .collect();
    let flights: Vec<f64> = details
        .iter()
        .flat_map(|d| d.subs.iter().map(|s| s.0))
        .collect();
    let procs: Vec<f64> = details
        .iter()
        .flat_map(|d| d.subs.iter().map(|s| s.1))
        .collect();

    m.set(
        "client.subqueries_per_query",
        sum(&|d| d.subqueries as f64) / n,
    );
    m.set("client.retries", sum(&|d| d.extra_attempts as f64));
    m.set("client.hedges", sum(&|d| d.hedges as f64));
    m.set("client.refused", sum(&|d| d.refused as f64));
    m.set("client.lost", sum(&|d| d.lost as f64));
    m.set("client.query_p99_ms", percentile(&traced_lat, 99.0));
    m.set(
        "client.merge_tail_us_p50",
        percentile(&col(&|d| d.merge_us), 50.0),
    );
    m.set(
        "client.unaccounted_share",
        sum(&|d| (d.wall_us - d.plan_us - d.slowest_us - d.merge_us).max(0.0)) / wall,
    );
    m.set("core.plan_us_p50", percentile(&col(&|d| d.plan_us), 50.0));
    m.set("transport.flight_us_p50", percentile(&flights, 50.0));
    m.set("transport.flight_us_p99", percentile(&flights, 99.0));
    m.set(
        "transport.rpc_errors",
        sum(&|d| f64::from(u8::from(d.rpc_error))),
    );
    m.set("node.proc_ms_p50", percentile(&procs, 50.0) / 1e3);
    m.set("node.proc_ms_p99", percentile(&procs, 99.0) / 1e3);
    m.set("node.proc_share", sum(&|d| d.proc_max_us) / wall);
    m.set("node.scanned_per_query", sum(&|d| d.scanned as f64) / n);
    m.set(
        "node.records_per_s",
        sum(&|d| d.scanned as f64) / (procs.iter().sum::<f64>() / 1e6).max(1e-9),
    );
}

fn control_metrics(m: &mut Metrics, ops: &[ControlOp]) {
    let ms = |kind: Control| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.kind == kind && o.ok)
            .map(|o| o.ms)
            .collect()
    };
    let batches = ms(Control::StoreBatch);
    m.set("admin.store_batch_p50_ms", percentile(&batches, 50.0));
    m.set(
        "admin.store_batch_late",
        ops.iter().filter(|o| o.late).count() as f64,
    );
    m.set(
        "admin.set_p_up_ms_p50",
        percentile(&ms(Control::SetPUp), 50.0),
    );
    m.set(
        "admin.set_p_down_ms_p50",
        percentile(&ms(Control::SetPDown), 50.0),
    );
    m.set(
        "admin.records_stored",
        (batches.len() * workloads::WRITE_BATCH) as f64,
    );
}

// ---- the run ----------------------------------------------------------------

/// Everything the measured window produced.
struct Samples {
    done: Vec<Done>,
    control: Vec<ControlOp>,
    offered: Offered,
    bounds: Vec<Boundary>,
}

/// Warm-up plus the measured window under the workload's load shape.
async fn drive(spec: &Spec, ctx: &Ctx, h: &ClusterHandle, inputs: &Arc<Inputs>) -> Samples {
    let sampler = tokio::spawn(sample_rounds(ctx.clock));
    let mut done: Vec<Done> = Vec::new();
    let mut control: Vec<ControlOp> = Vec::new();
    let mut offered = Offered::default();
    match spec.load {
        Load::Closed { clients } => {
            let tasks: Vec<_> = (0..clients)
                .map(|c| tokio::spawn(closed_client(Arc::clone(ctx), c, c * QUERIES / clients)))
                .collect();
            for t in tasks {
                done.extend(t.await.expect("client task panicked"));
            }
        }
        Load::Open { .. } => {
            // blocks this (the `block_on`) thread; every task it launches
            // runs on the runtime's workers
            let (inflight, o) = open_loop(ctx.clock, &inputs.arrivals, |q, due| {
                run_query(Arc::clone(ctx), 0, q, due)
            });
            offered = o;
            for t in inflight {
                done.push(t.await.expect("query task panicked"));
            }
        }
        Load::Ingest => {
            let w = tokio::spawn(writer(Arc::clone(ctx), h.admin.clone(), Arc::clone(inputs)));
            let r = tokio::spawn(repartitioner(Arc::clone(ctx), h.admin.clone(), spec.p));
            done = closed_client(Arc::clone(ctx), 0, 0).await;
            control.extend(w.await.expect("writer panicked"));
            control.extend(r.await.expect("repartitioner panicked"));
        }
    }
    Samples {
        done,
        control,
        offered,
        bounds: sampler.await.expect("sampler panicked"),
    }
}

pub fn run(opts: &RunOpts) -> i32 {
    tokio::runtime::block_on(run_async(opts))
}

async fn run_async(opts: &RunOpts) -> i32 {
    let spec = opts.spec;
    println!(
        "roar-benchmark workload={} seed={} seconds={} trace={} transport={} n={} p={} records={} (in-process cluster, loopback only)",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        spec.transport,
        spec.n,
        spec.p,
        spec.records
    );
    println!("why: {}", spec.why);

    let (h, clients, inputs, first_setup) = set_up(opts).await;

    let t = Instant::now();
    let oracle = workloads::oracle(&inputs);
    let prf_calls_per_record = oracle.prf_calls_per_record;
    println!(
        "oracle: {} queries x {} records in {:.3} s, {} base matches",
        inputs.queries.len(),
        inputs.corpus.len(),
        t.elapsed().as_secs_f64(),
        oracle.base.iter().map(Vec::len).sum::<usize>()
    );
    println!(
        "fingerprint {}",
        report::fingerprint_json(opts.seed, inputs.fnv64)
    );
    // counts that must repeat exactly for one seed, on any commit
    println!(
        "inputs inputs_fnv64 {:016x} prf_calls_per_record {prf_calls_per_record}",
        inputs.fnv64
    );

    let round = Duration::from_secs_f64(opts.seconds / ROUNDS as f64);
    let clock = Clock {
        t0: Instant::now() + Duration::from_secs_f64(WARMUP_S),
        round,
    };
    let inputs = Arc::new(inputs);
    let ctx: Ctx = Arc::new(Shared {
        clients,
        sched: spec.sched(),
        bodies: inputs.queries.iter().map(body_of).collect(),
        oracle,
        retry: matches!(spec.load, Load::Ingest).then_some(INGEST_RETRY),
        clock,
        trace: opts.trace,
        open_loop: matches!(spec.load, Load::Open { .. }),
        tracer: Tracer::default(),
        seq: AtomicU64::new(0),
    });

    let Samples {
        done,
        control,
        offered,
        bounds,
    } = drive(spec, &ctx, &h, &inputs).await;

    // ---- reduce ----
    let stats = per_round(&done, &bounds);
    let all: Vec<usize> = (0..ROUNDS).collect();
    let (untraced, traced): (Vec<usize>, Vec<usize>) = if opts.trace {
        all.iter().partition(|&&r| r % 2 == 0)
    } else {
        (all, Vec::new())
    };
    let mut m = Metrics::default();
    let qps = end_to_end(&mut m, &stats, &bounds, &untraced);

    let attempted = (done.len() + control.len()) as u64;
    let failed = (done.iter().filter(|d| !d.ok()).count()
        + control.iter().filter(|o| o.failed()).count()) as u64;
    println!(
        "ops_attempted {attempted} ops_failed {failed} (queries {}: {} wrong or incomplete, {} late, slowest {:.1} ms; write batches {}: {} late, slowest {:.1} ms; set_p {}); resolved per round {:?}, latency samples per round {:?}",
        done.len(),
        done.iter().filter(|d| !d.right).count(),
        done.iter().filter(|d| d.late).count(),
        done.iter().map(|d| d.latency_ms).fold(0.0, f64::max),
        control.iter().filter(|o| o.kind == Control::StoreBatch).count(),
        control.iter().filter(|o| o.late).count(),
        control
            .iter()
            .filter(|o| o.kind == Control::StoreBatch)
            .map(|o| o.ms)
            .fold(0.0, f64::max),
        control.iter().filter(|o| o.kind != Control::StoreBatch).count(),
        stats.done,
        stats.lat.iter().map(Vec::len).collect::<Vec<_>>()
    );

    if opts.trace {
        layer_metrics(&mut m, &done);
        control_metrics(&mut m, &control);
        m.set(
            "workload.gen_lateness_p99_ms",
            percentile(&offered.lateness_ms, 99.0),
        );
        m.set(
            "workload.offered_per_s",
            offered.in_window as f64 / opts.seconds,
        );
        m.set(
            "workload.late_queries",
            done.iter().filter(|d| d.late).count() as f64,
        );
        m.set("pps.prf_calls_per_record", prf_calls_per_record);
        let traced_qps = median(
            &traced
                .iter()
                .map(|&r| round_rate(&stats, &bounds, r))
                .collect::<Vec<_>>(),
        );
        m.set("trace.overhead_frac", 1.0 - traced_qps / qps.max(1e-9));
        let traced_done: usize = traced.iter().map(|&r| stats.done[r]).sum();
        let wakeups: u64 = traced
            .iter()
            .map(|&r| bounds[r + 1].wakeups - bounds[r].wakeups)
            .sum();
        m.set(
            "runtime.reactor_wakeups_per_query",
            wakeups as f64 / traced_done.max(1) as f64,
        );
        m.set("runtime.threads", report::thread_count() as f64);
        probes::run(&mut m, spec, &h, &inputs).await;
    }
    // the high-water mark covers one set-up, the window and (traced) the
    // probes
    m.set("peak_rss_mb", report::peak_rss_mb());
    tear_down(h).await;

    // `setup_s` is the median of several set-ups; the ones after the first
    // run here, where they cannot disturb the window or the memory mark
    let mut setups = vec![first_setup];
    if !opts.trace {
        for _ in 1..SETUPS {
            let (h, _clients, _inputs, times) = set_up(opts).await;
            tear_down(h).await;
            setups.push(times);
        }
    }
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    m.set("setup_s", median(&totals));
    println!(
        "set-ups {totals:.3?} s (first: generate+encrypt {:.3}, spawn+connect {:.3}, store {:.3}, first {SETUP_QUERIES} queries {:.3})",
        first_setup.generate_s, first_setup.spawn_s, first_setup.store_s, first_setup.first_queries_s,
    );

    let ctx = Arc::try_unwrap(ctx).unwrap_or_else(|_| fail("a query task outlived the run"));
    if opts.trace {
        let spans = ctx.tracer.into_spans();
        let path = format!("benchmark/out/trace-{}.json", spec.name);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, trace::to_json(spec.name, opts.seed, &spans)));
        match written {
            Ok(()) => println!("trace: {} spans -> {path}", spans.len()),
            Err(e) => eprintln!("roar-benchmark: could not write {path}: {e}"),
        }
        for (name, (count, total_us, self_us)) in trace::totals_by_name(&spans) {
            println!(
                "span {name} count {count} total_ms {:.1} self_ms {:.1}",
                total_us / 1e3,
                self_us / 1e3
            );
        }
    }

    let e2e = report::END_TO_END.iter().map(|e| (e.0, e.1));
    for (name, unit) in e2e.clone() {
        println!("e2e {name} {} {unit}", m.get(name));
    }
    let correct = failed == 0;
    let line = if opts.trace {
        for (name, unit) in report::PER_LAYER {
            println!("layer {name} {} {unit}", m.get(name));
        }
        report::result_line(
            correct,
            attempted.max(1),
            failed,
            report::PER_LAYER.into_iter(),
            &m,
        )
    } else {
        report::result_line(correct, attempted.max(1), failed, e2e, &m)
    };
    println!("{line}");
    // a failed operation is never acceptable where nothing changes under
    // the queries; beside writes and repartitioning it is counted
    i32::from(!correct && !matches!(spec.load, Load::Ingest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn clock(round_ms: u64) -> Clock {
        Clock {
            t0: Instant::now() + Duration::from_millis(5),
            round: Duration::from_millis(round_ms),
        }
    }

    #[test]
    fn rounds_partition_the_window() {
        let c = clock(100);
        assert_eq!(c.round_of(c.t0 - Duration::from_millis(1)), None);
        assert_eq!(c.round_of(c.t0), Some(0));
        assert_eq!(c.round_of(c.t0 + Duration::from_millis(250)), Some(2));
        assert_eq!(
            c.round_of(c.end() - Duration::from_millis(1)),
            Some(ROUNDS - 1)
        );
        assert_eq!(c.round_of(c.end()), None);
        assert_eq!(c.batches_due(c.t0 - Duration::from_millis(1)), 0);
        assert_eq!(c.batches_due(c.t0), 1);
        assert_eq!(
            c.batches_due(c.t0 + Duration::from_millis(WRITE_PERIOD_MS)),
            2
        );
        assert!(c.us(c.t0 - Duration::from_millis(2)) < 0.0);
    }

    #[test]
    fn a_batch_is_late_once_the_next_is_due() {
        let due = Instant::now();
        let period = Duration::from_millis(250);
        assert!(!batch_is_late(
            due,
            due + Duration::from_millis(249),
            period
        ));
        assert!(!batch_is_late(due, due + period, period));
        assert!(batch_is_late(due, due + Duration::from_millis(251), period));
    }

    /// Due-time accounting: a fake server that stalls once, serving one
    /// request at a time, must inflate the latency of the arrivals queued
    /// behind the stall — which call-to-return timing would hide.
    #[test]
    fn open_loop_charges_a_stall_to_later_arrivals() {
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival {
                at_s: WARMUP_S + 0.01 * f64::from(i),
                rank: 1,
            })
            .collect();
        let server = Arc::new(tokio::sync::Mutex::new(()));
        let served = Arc::new(AtomicUsize::new(0));
        let c = Clock {
            t0: Instant::now() + Duration::from_millis(20),
            round: Duration::from_millis(100),
        };
        let (from_due, from_call) = tokio::runtime::block_on(async {
            let (inflight, offered) = open_loop(c, &arrivals, |_, due| {
                let (server, served) = (Arc::clone(&server), Arc::clone(&served));
                async move {
                    let _one_at_a_time = server.lock().await;
                    let service_start = Instant::now();
                    // the third request stalls the server for 60 ms
                    let stall = if served.fetch_add(1, Ordering::SeqCst) == 2 {
                        60
                    } else {
                        1
                    };
                    tokio::time::sleep(Duration::from_millis(stall)).await;
                    let fin = Instant::now();
                    (
                        (fin - due).as_secs_f64() * 1e3,
                        (fin - service_start).as_secs_f64() * 1e3,
                    )
                }
            });
            assert_eq!(offered.in_window, 10);
            let mut from_due = Vec::new();
            let mut from_call = Vec::new();
            for t in inflight {
                let (due_ms, service_ms) = t.await.expect("task");
                from_due.push(due_ms);
                from_call.push(service_ms);
            }
            (from_due, from_call)
        });
        // service time alone shows one slow request …
        assert_eq!(from_call.iter().filter(|&&ms| ms > 30.0).count(), 1);
        // … due-time latency shows everyone who queued behind it
        assert!(
            from_due.iter().filter(|&&ms| ms > 30.0).count() >= 4,
            "latencies from due time: {from_due:?}"
        );
        // and the arrivals before the stall are untouched
        assert!(from_due[0] < 30.0 && from_due[1] < 30.0, "{from_due:?}");
    }

    #[test]
    fn per_round_counts_late_and_wrong_answers_out_of_goodput() {
        let c = clock(100);
        // boundary samples read 1 ms after each nominal boundary
        let bounds: Vec<Boundary> = (0..=ROUNDS)
            .map(|r| Boundary {
                at: c.at(r as f64) + Duration::from_millis(1),
                cpu_ms: 0.0,
                wakeups: 0,
            })
            .collect();
        let d = |at_ms: u64, right, late| {
            let resolved_at = c.t0 + Duration::from_millis(at_ms);
            Done {
                round: c.round_of(resolved_at),
                resolved_at,
                latency_ms: 1.0,
                right,
                late,
                detail: None,
            }
        };
        let warm_up = Done {
            resolved_at: c.t0 - Duration::from_millis(5),
            ..d(0, true, false)
        };
        let s = per_round(
            &[
                d(10, true, false),
                d(20, true, true),
                d(30, false, false),
                warm_up,
                d(550, true, false),
                // resolved before round 1's boundary was read: still round 0
                d(100, true, false),
            ],
            &bounds,
        );
        assert_eq!(s.done, [4, 0, 0, 0, 0, 1]);
        assert_eq!(s.good, [2, 0, 0, 0, 0, 1]);
        // latencies follow the nominal rounds and include late answers
        assert_eq!(s.lat[0].len(), 3);
        assert_eq!(s.lat[1].len(), 1);
        let rate = round_rate(&s, &bounds, 0);
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
    }
}
