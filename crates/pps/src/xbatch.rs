//! The matcher pool: a fixed set of worker threads, each running one
//! sub-query's scan of the survivor pipeline at a time. A process runs one
//! pool, sized to its CPUs, which all of its nodes share.
//!
//! A thread per request turns a flash crowd of Q sub-queries into Q threads
//! and Q corpus copies; this module bounds both:
//!
//! * A [`QueryTask`] is one sub-query's scan: its query, its [`Matcher`]
//!   and [`MatchScratch`], its corpus view and the segment of it under
//!   scan, its matches so far. [`QueryTask::run_inline`] runs it to
//!   completion on the calling thread — segment by segment, in chunks of
//!   4096 records, every staged MAC sweep through the single-key lane sweep.
//! * A [`BatchEngine`] owns a fixed pool of worker threads draining one
//!   FIFO queue: a worker pops a task, runs it inline, hands its result to
//!   the task's completion, and repeats. A node's process starts one
//!   engine of one worker per CPU, and every node in the process sends it
//!   its scans longer than one chunk ([`MATCH_CHUNK`]), so each scan runs
//!   to completion on a CPU instead of sharing it by time slices with
//!   another node's; a shorter one runs where the request is served,
//!   without the trip to a worker and back.
//! * A [`TaskCorpus`] is a zero-copy corpus view: an `Arc` epoch snapshot
//!   of a [`MetadataStore`] plus the window's index ranges into its runs
//!   ([`MetadataStore::window_ranges`]) — columns, one segment per range —
//!   or a shared `Arc` record vector — rows, one segment. The view owns
//!   the nonces (a run keeps them as the MAC kernel reads them); a task
//!   copies its survivors' into its staging buffer. No per-sub-query record
//!   clone, under any lock or otherwise.
//!
//! **No lane packing across sub-queries.** Packing the staged sweeps of
//! all resident tasks into one keyed lane sweep, one query's ragged tail
//! sharing a compression call with the next one's head, saves 0.3–1.8 % of
//! lane groups on the benchmark's four workloads (AVX-512, 16 lanes): a
//! node almost never holds four sub-queries at once, and a lone
//! sub-query's sweeps already fill 82–97 % of their lanes.
//!
//! **Parity.** Chunking, sampling, predicate/component order and reorder
//! timing all happen inside the pipeline, and a task's scan does not depend
//! on which worker runs it: `tests/xbatch_parity.rs` holds match sets and
//! PRF counts through the engine bit-identical to sequential
//! [`match_corpus_with`](crate::engine::match_corpus_with) per query, per
//! backend.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use roar_core::ring::Window;
use roar_crypto::sha1::Backend;

use crate::metadata::EncryptedMetadata;
use crate::query::{CompiledQuery, MatchScratch, Matcher, Step, MATCH_CHUNK};
use crate::store::{MetadataStore, RunRange};

/// A zero-copy corpus view for one task. Both forms share the underlying
/// records by `Arc`; cloning a `TaskCorpus` never clones a record.
#[derive(Clone)]
pub enum TaskCorpus {
    /// A shared record vector (already window-selected, or a whole corpus):
    /// rows, scanned as one segment.
    Records(Arc<Vec<EncryptedMetadata>>),
    /// An epoch snapshot of a store plus the window's index ranges into its
    /// runs ([`MetadataStore::window_ranges`]): columns, one segment per
    /// range, scanned in that order.
    Snapshot {
        store: Arc<MetadataStore>,
        ranges: Vec<RunRange>,
    },
}

impl TaskCorpus {
    /// Snapshot `store` restricted to the match window `w`.
    pub fn snapshot(store: Arc<MetadataStore>, w: &Window) -> Self {
        let ranges = store.window_ranges(w);
        TaskCorpus::Snapshot { store, ranges }
    }

    /// Records in the view — what a scan of it reports as `scanned`.
    pub fn len(&self) -> usize {
        (0..self.segments()).map(|k| self.segment_len(k)).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn segments(&self) -> usize {
        match self {
            TaskCorpus::Records(_) => 1,
            TaskCorpus::Snapshot { ranges, .. } => ranges.len(),
        }
    }

    fn segment_len(&self, k: usize) -> usize {
        match self {
            TaskCorpus::Records(rows) => rows.len(),
            TaskCorpus::Snapshot { ranges, .. } => ranges[k].end - ranges[k].start,
        }
    }
}

/// Evaluate `$body` with `$segment` bound to the open segment of `$task`'s
/// corpus — rows or columns, each its own monomorphic copy of the pipeline.
macro_rules! with_segment {
    ($task:ident, $segment:ident => $body:expr) => {
        match &$task.corpus {
            TaskCorpus::Records(rows) => {
                let $segment = &rows[..];
                $body
            }
            TaskCorpus::Snapshot { store, ranges } => {
                let range = ranges[$task.segment];
                let $segment = &store.runs()[range.run].columns(range.start, range.end);
                $body
            }
        }
    };
}

/// The longest scan whose buffers a thread keeps for its next task. A
/// short scan's start-up is where a fresh scratch's allocations show (a
/// 256-record window is a few sweeps); a long scan amortises them, and
/// keeping its chunk-sized buffers (≈ 130 KB at 4 096 records) would
/// leave that much idle on every thread that ever ran one.
const SPARE_MAX_RECORDS: usize = MATCH_CHUNK / 4;

thread_local! {
    /// The [`MatchScratch`] and [`Matcher`] of the last short task this
    /// thread ran ([`SPARE_MAX_RECORDS`]), handed to the next one
    /// ([`QueryTask::start`]).
    static SPARE: std::cell::Cell<Option<(MatchScratch, Matcher)>> =
        const { std::cell::Cell::new(None) };
}

/// What a finished [`QueryTask`] hands back.
#[derive(Debug)]
pub struct TaskResult {
    /// Matching record ids, in corpus scan order (unsorted).
    pub matches: Vec<u64>,
    /// PRF (codeword) evaluations the task charged.
    pub prf_calls: u64,
}

/// One sub-query: a scan of the survivor pipeline over its corpus view,
/// segment by segment. [`run_inline`](Self::run_inline) drives it, on the
/// calling thread or on a [`BatchEngine`] worker; either way the match set
/// and the PRF count are those of sequential
/// [`match_corpus_with`](crate::engine::match_corpus_with) on the same
/// records in the same order.
pub struct QueryTask {
    query: CompiledQuery,
    matcher: Matcher,
    corpus: TaskCorpus,
    /// The segment of `corpus` under scan.
    segment: usize,
    scratch: MatchScratch,
    matches: Vec<u64>,
}

impl QueryTask {
    pub fn new(query: CompiledQuery, corpus: TaskCorpus, backend: Backend) -> Self {
        assert!(
            !query.trapdoors.is_empty(),
            "a query needs at least one predicate"
        );
        QueryTask {
            query,
            // sized for the query when the task starts, in the buffers of
            // the thread that runs it (no predicates: no allocation)
            matcher: Matcher::new(0, true).with_backend(backend),
            corpus,
            segment: 0,
            scratch: MatchScratch::new(),
            matches: Vec::new(),
        }
    }

    /// Take the running thread's scratch and matcher, renew the matcher for
    /// this query and open the first segment. Their buffers are as the last
    /// task on this thread grew them, so a run of short scans allocates
    /// none.
    fn start(&mut self) {
        if let Some((scratch, matcher)) = SPARE.take() {
            let backend = self.matcher.backend();
            (self.scratch, self.matcher) = (scratch, matcher.with_backend(backend));
        }
        self.matcher.renew(self.query.trapdoors.len());
        self.open_segment();
    }

    /// Start the scan of segment `self.segment`, if there is one.
    fn open_segment(&mut self) {
        if self.segment < self.corpus.segments() {
            let len = self.corpus.segment_len(self.segment);
            self.scratch.begin(len, MATCH_CHUNK);
        }
    }

    /// Advance until the next MAC sweep is staged or the task finishes.
    fn step(&mut self) -> Step {
        while self.segment < self.corpus.segments() {
            let (matcher, scratch) = (&mut self.matcher, &mut self.scratch);
            let step = with_segment!(self, c => matcher.advance(&self.query, c, scratch, &mut self.matches));
            if let Step::NeedMacs = step {
                return step;
            }
            self.segment += 1;
            self.open_segment();
        }
        Step::Finished
    }

    fn complete_inline(&mut self) {
        let (matcher, scratch) = (&mut self.matcher, &mut self.scratch);
        with_segment!(self, c => matcher.complete_inline(c, scratch));
    }

    /// The result. After a short scan the scratch and the matcher go back
    /// to the running thread; a long scan's buffers are freed.
    fn into_result(mut self) -> TaskResult {
        let prf_calls = std::mem::take(&mut self.scratch.prf_calls);
        if self.corpus.len() <= SPARE_MAX_RECORDS {
            SPARE.set(Some((self.scratch, self.matcher)));
        }
        TaskResult {
            matches: self.matches,
            prf_calls,
        }
    }

    /// Run the task to completion on the calling thread.
    pub fn run_inline(mut self) -> TaskResult {
        self.start();
        while let Step::NeedMacs = self.step() {
            self.matcher.mac_inline(&mut self.scratch);
            self.complete_inline();
        }
        self.into_result()
    }

    /// [`run_inline`](Self::run_inline) under a stopwatch: the wall time
    /// of its three stages — staging (advance the pipeline, gather the
    /// survivors' nonces), MAC, filter. Bench apparatus (`repro
    /// bench_pps`' `stages` block); no node path reads a clock per sweep.
    pub fn run_inline_staged(mut self) -> (TaskResult, [Duration; 3]) {
        let mut stages = [Duration::ZERO; 3];
        self.start();
        let mut mark = Instant::now();
        let mut lap = |stage: usize| {
            let now = Instant::now();
            stages[stage] += now - mark;
            mark = now;
        };
        loop {
            let step = self.step();
            lap(0);
            let Step::NeedMacs = step else { break };
            self.matcher.mac_inline(&mut self.scratch);
            lap(1);
            self.complete_inline();
            lap(2);
        }
        (self.into_result(), stages)
    }
}

struct Pending {
    task: QueryTask,
    done: Box<dyn FnOnce(TaskResult) + Send>,
}

struct Admission {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Admission>,
    cv: Condvar,
}

/// Completion handle for [`BatchEngine::submit_handle`].
pub struct TaskHandle {
    rx: mpsc::Receiver<TaskResult>,
}

impl TaskHandle {
    /// Block until the task completes.
    pub fn wait(self) -> TaskResult {
        self.rx.recv().expect("batch engine dropped the task")
    }
}

/// A matcher pool: a fixed number of worker threads (the concurrency
/// bound — a flash crowd of sub-queries queues here instead of spawning a
/// thread per request) draining a shared FIFO queue, one task per worker at
/// a time, each run inline. Its workers are named `roarm-w<i>`. Dropping
/// the engine drains remaining work, then joins the workers.
pub struct BatchEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchEngine {
    pub fn new(n_workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Admission {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..n_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("roarm-w{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn matcher worker")
            })
            .collect();
        BatchEngine { shared, workers }
    }

    /// The fixed worker count — the matcher concurrency bound.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a task; `done` runs on a worker thread when it completes.
    pub fn submit(&self, task: QueryTask, done: impl FnOnce(TaskResult) + Send + 'static) {
        let mut q = self.shared.queue.lock().expect("engine queue poisoned");
        q.pending.push_back(Pending {
            task,
            done: Box::new(done),
        });
        drop(q);
        self.shared.cv.notify_one();
    }

    /// Enqueue a task and return a handle to wait on.
    pub fn submit_handle(&self, task: QueryTask) -> TaskHandle {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(task, move |res| {
            let _ = tx.send(res);
        });
        TaskHandle { rx }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shared
            .queue
            .lock()
            .expect("engine queue poisoned")
            .shutdown = true;
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run queued tasks, one at a time, until shutdown finds the queue empty.
fn worker_loop(shared: &Shared) {
    while let Some(p) = next_task(shared) {
        (p.done)(p.task.run_inline());
    }
}

/// The next queued task, blocking while the queue is empty; `None` once
/// shutdown is raised and nothing is left.
fn next_task(shared: &Shared) -> Option<Pending> {
    let mut q = shared.queue.lock().expect("engine queue poisoned");
    loop {
        if let Some(p) = q.pending.pop_front() {
            return Some(p);
        }
        if q.shutdown {
            return None;
        }
        q = shared.cv.wait(q).expect("engine queue poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::match_corpus_with;
    use crate::metadata::{FileMeta, MetaEncryptor};
    use crate::query::{Combiner, Predicate, QueryCompiler};
    use rand::Rng;
    use roar_util::det_rng;

    fn test_encryptor() -> MetaEncryptor {
        MetaEncryptor::with_points(b"user", vec![1_000_000], vec![1_300_000_000])
    }

    fn corpus(enc: &MetaEncryptor, n: usize, seed: u64) -> Vec<EncryptedMetadata> {
        let mut rng = det_rng(seed);
        (0..n)
            .map(|i| {
                let kws: Vec<String> = if i % 7 == 0 {
                    vec!["the".into(), format!("rare{i}")]
                } else {
                    vec!["the".into()]
                };
                let size = rng.gen_range(100..1_000_000);
                let mtime = rng.gen_range(1_000_000_000..1_700_000_000);
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/d/f{i}"),
                        keywords: kws,
                        size,
                        mtime,
                    },
                )
            })
            .collect()
    }

    /// The inline runner must be bit-identical to sequential
    /// match_corpus_with: same matches, same PRF count.
    #[test]
    fn inline_task_equals_sequential() {
        let enc = test_encryptor();
        let docs = Arc::new(corpus(&enc, 600, 321));
        let qc = QueryCompiler::new(&enc);
        for comb in [Combiner::And, Combiner::Or] {
            let q = qc.compile(
                &[
                    Predicate::Keyword("the".into()),
                    Predicate::Keyword("rare14".into()),
                ],
                comb,
            );
            let (mut want, want_prf) = match_corpus_with(&docs, &q, Backend::Scalar);
            let task = QueryTask::new(q, TaskCorpus::Records(Arc::clone(&docs)), Backend::Scalar);
            let mut got = task.run_inline();
            want.sort_unstable();
            got.matches.sort_unstable();
            assert_eq!(got.matches, want, "{comb:?} matches");
            assert_eq!(got.prf_calls, want_prf, "{comb:?} PRF count");
        }
    }

    /// Snapshot corpora must scan exactly the window's records, including
    /// the wrapped two-range case, over a store of several runs: an
    /// everything-matches query returns the window's ids in scan order.
    #[test]
    fn snapshot_corpus_scans_wrapped_windows_across_runs() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 200, 322);
        let mut store = MetadataStore::new();
        for batch in docs.chunks(70) {
            store.append(Arc::new(crate::store::Run::from_records(batch)));
        }
        assert_eq!(store.runs().len(), 3);
        let store = Arc::new(store);
        let w = Window::new(u64::MAX / 2, u64::MAX / 4); // wrapped
        let snap = TaskCorpus::snapshot(Arc::clone(&store), &w);
        let want: Vec<u64> = store.window_records(&w).iter().map(|r| r.id).collect();
        assert_eq!(snap.len(), want.len());
        assert!(!snap.is_empty());
        assert!(want.iter().all(|&id| w.contains(id)) && want.len() < 200);
        let q =
            QueryCompiler::new(&enc).compile(&[Predicate::Keyword("the".into())], Combiner::And);
        let got = QueryTask::new(q, snap, Backend::Scalar).run_inline();
        assert_eq!(got.matches, want);
        // a window no record falls in is a task that finishes at once
        let none = TaskCorpus::snapshot(store, &Window::new(7, 8));
        let q = QueryCompiler::new(&enc).compile(&[Predicate::Keyword("the".into())], Combiner::Or);
        let got = QueryTask::new(q, none, Backend::Scalar).run_inline();
        assert_eq!((got.matches.len(), got.prf_calls), (0, 0));
    }

    /// Many tasks through a small pool: all complete, results correct.
    #[test]
    fn engine_drains_flash_crowd_with_fixed_pool() {
        let enc = test_encryptor();
        let docs = Arc::new(corpus(&enc, 300, 323));
        let qc = QueryCompiler::new(&enc);
        let engine = BatchEngine::new(2);
        assert_eq!(engine.workers(), 2);
        let handles: Vec<(u64, TaskHandle)> = (0..24)
            .map(|i| {
                let rare = 7 * (i % 5);
                let q = qc.compile(&[Predicate::Keyword(format!("rare{rare}"))], Combiner::And);
                let (want, _) = match_corpus_with(&docs, &q, Backend::Scalar);
                assert_eq!(want.len(), 1);
                let task =
                    QueryTask::new(q, TaskCorpus::Records(Arc::clone(&docs)), Backend::Scalar);
                (want[0], engine.submit_handle(task))
            })
            .collect();
        for (want, h) in handles {
            let res = h.wait();
            assert_eq!(res.matches, vec![want]);
            assert!(res.prf_calls > 0);
        }
    }

    /// Dropping the engine with queued work still completes it (graceful
    /// drain), and an empty-corpus task completes immediately.
    #[test]
    fn drop_drains_and_empty_corpus_finishes() {
        let enc = test_encryptor();
        let docs = Arc::new(corpus(&enc, 120, 324));
        let qc = QueryCompiler::new(&enc);
        let q = qc.compile(&[Predicate::Keyword("rare7".into())], Combiner::Or);
        let engine = BatchEngine::new(1);
        let h1 = engine.submit_handle(QueryTask::new(
            q.clone(),
            TaskCorpus::Records(Arc::clone(&docs)),
            Backend::Scalar,
        ));
        let h2 = engine.submit_handle(QueryTask::new(
            q,
            TaskCorpus::Records(Arc::new(Vec::new())),
            Backend::Scalar,
        ));
        drop(engine);
        assert_eq!(h1.wait().matches, vec![docs[7].id]);
        let empty = h2.wait();
        assert!(empty.matches.is_empty());
        assert_eq!(empty.prf_calls, 0);
    }
}
