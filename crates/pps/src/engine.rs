//! The PPS matching engine (§5.6.3, Fig 5.3).
//!
//! "To decouple these two [loading and matching], we create two threads: one
//! that reads the data from disk or memory and feeds it to another thread
//! that matches the metadata against the query … the code simply creates one
//! matching thread per physical core, and the buffer now has a single
//! producer and multiple consumers."
//!
//! The engine reproduces the paper's measurement hooks: produced/consumed
//! progress traces (Fig 5.4), PRF call counts (the SHA-1 cost model of
//! §5.7), and the PPS_LM / PPS_LC fixed-cost profiles (forced-GC vs lazy
//! memory reclamation, §5.7).
//!
//! **Hot-path structure.** Each consumer thread owns its matcher (with the
//! query's midstate-cached trapdoors), a [`MatchScratch`] holding its PRF
//! count shard and pipeline state, and local match/trace vectors, and
//! drives the survivor pipeline ([`crate::query`]) inline over each
//! produced batch with [`Matcher::match_batch`]. The shared [`PrfCounter`]
//! is touched exactly once per thread (shard merge at join) and the trace
//! vectors are merged after the scope ends, so the per-record loop
//! contains no atomics, no locks and no allocation.
//!
//! [`match_corpus`] / [`match_corpus_with`] are the same inline driver
//! without the threads: one whole-corpus scan on the calling thread.

use crate::bloom_kw::PrfCounter;
use crate::metadata::EncryptedMetadata;
use crate::query::{CompiledQuery, MatchScratch, Matcher, MATCH_CHUNK};
use crate::simdisk::{DiskProfile, SimDisk};
use crossbeam::channel::bounded;
use roar_crypto::sha1::Backend;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed per-query costs — the difference between the two PPS builds
/// (§5.7): PPS_LM forces a garbage-collector run after every query (higher
/// fixed cost, flat memory); PPS_LC skips it (lower fixed cost, more
/// memory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineProfile {
    /// Setup cost before matching starts (connection, parse, thread start).
    pub pre_query_s: f64,
    /// Tear-down cost after results are ready (PPS_LM's forced GC).
    pub post_query_s: f64,
}

impl EngineProfile {
    /// PPS_LM — low memory: pay a GC pause per query.
    pub fn lm() -> Self {
        EngineProfile {
            pre_query_s: 0.005,
            post_query_s: 0.035,
        }
    }

    /// PPS_LC — low CPU: no forced GC.
    pub fn lc() -> Self {
        EngineProfile {
            pre_query_s: 0.005,
            post_query_s: 0.0,
        }
    }

    /// No fixed costs (for microbenchmarks).
    pub fn none() -> Self {
        EngineProfile {
            pre_query_s: 0.0,
            post_query_s: 0.0,
        }
    }
}

/// Everything measured about one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Ids of matching records.
    pub matches: Vec<u64>,
    /// End-to-end wall time including fixed costs, seconds.
    pub wall_s: f64,
    /// Records scanned.
    pub scanned: usize,
    /// PRF (HMAC-SHA1) evaluations performed by matching.
    pub prf_calls: u64,
    /// `(elapsed_s, cumulative_records)` at the producer (I/O thread).
    pub produce_trace: Vec<(f64, usize)>,
    /// `(elapsed_s, cumulative_records)` at the consumers.
    pub consume_trace: Vec<(f64, usize)>,
}

impl QueryOutcome {
    /// Records matched per second of wall time — the paper's "processing
    /// speed (metadata/s)" axis (Fig 5.6b).
    pub fn processing_speed(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.scanned as f64 / self.wall_s
    }
}

/// The matching engine; its matchers sweep with [`Backend::auto`].
pub struct Engine {
    /// Matching (consumer) threads; the paper uses one per core.
    pub threads: usize,
    pub profile: EngineProfile,
    /// Producer batch size ("the I/O thread produces batches of metadata at
    /// once" to limit synchronisation, §5.6.3).
    pub batch: usize,
    /// Trace sampling interval in records (paper instruments every 1000).
    pub trace_every: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            threads: 1,
            profile: EngineProfile::lm(),
            batch: 256,
            trace_every: 1000,
        }
    }
}

impl Engine {
    pub fn new(threads: usize, profile: EngineProfile) -> Self {
        assert!(threads >= 1);
        Engine {
            threads,
            profile,
            ..Default::default()
        }
    }

    /// Execute `query` against `records`, streaming them through the
    /// producer/consumer pipeline. `disk` paces the producer; `None` means
    /// in-memory data.
    pub fn run_query(
        &self,
        records: &[EncryptedMetadata],
        disk: Option<DiskProfile>,
        query: &CompiledQuery,
    ) -> QueryOutcome {
        if self.profile.pre_query_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(self.profile.pre_query_s));
        }
        let start = Instant::now();
        let counter = PrfCounter::new();
        let (tx, rx) = bounded::<&[EncryptedMetadata]>(16);
        // only the trace *marks* need a global record count; one relaxed
        // fetch_add per chunk, nothing per record
        let consumed_total = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut matches: Vec<u64> = Vec::new();
        let mut produce_trace: Vec<(f64, usize)> = Vec::new();
        let mut consume_trace: Vec<(f64, usize)> = Vec::new();

        std::thread::scope(|scope| {
            // producer: the I/O thread; trace kept thread-local and
            // returned at join
            let producer = scope.spawn(move || {
                let mut trace: Vec<(f64, usize)> = Vec::new();
                let mut simdisk = disk.map(SimDisk::begin);
                let mut produced = 0usize;
                let mut next_mark = self.trace_every;
                for chunk in records.chunks(self.batch) {
                    if let Some(d) = simdisk.as_mut() {
                        let bytes: u64 = chunk.iter().map(|r| r.size_bytes() as u64).sum();
                        d.read(bytes);
                    }
                    produced += chunk.len();
                    if produced >= next_mark {
                        trace.push((start.elapsed().as_secs_f64(), produced));
                        next_mark += self.trace_every;
                    }
                    if tx.send(chunk).is_err() {
                        break;
                    }
                }
                drop(tx);
                trace.push((start.elapsed().as_secs_f64(), produced));
                trace
            });

            // consumers: matching threads, one matcher + scratch each;
            // matches, traces and PRF counts all stay thread-local until
            // the thread finishes
            let mut handles = Vec::new();
            for _ in 0..self.threads {
                let rx = rx.clone();
                let consumed_total = Arc::clone(&consumed_total);
                let trace_every = self.trace_every;
                handles.push(scope.spawn(move || {
                    let mut local_matches = Vec::new();
                    let mut local_trace: Vec<(f64, usize)> = Vec::new();
                    let mut scratch = MatchScratch::new();
                    let mut matcher = Matcher::new(query.trapdoors.len(), true);
                    while let Ok(chunk) = rx.recv() {
                        matcher.match_batch(query, chunk, &mut scratch, &mut local_matches);
                        // ORDERING: Relaxed — shared progress counter for
                        // trace sampling; only the running total matters
                        let total = consumed_total
                            .fetch_add(chunk.len(), std::sync::atomic::Ordering::Relaxed)
                            + chunk.len();
                        if total % trace_every < chunk.len() {
                            local_trace.push((start.elapsed().as_secs_f64(), total));
                        }
                    }
                    (local_matches, local_trace, scratch.prf_calls)
                }));
            }
            drop(rx);
            for h in handles {
                let (m, t, prf_shard) = h.join().expect("matcher thread panicked");
                matches.extend(m);
                consume_trace.extend(t);
                counter.add(prf_shard); // shard merge: one atomic per thread
            }
            produce_trace = producer.join().expect("producer thread panicked");
        });

        let mut wall = start.elapsed().as_secs_f64() + self.profile.pre_query_s;
        if self.profile.post_query_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(self.profile.post_query_s));
            wall += self.profile.post_query_s;
        }
        matches.sort_unstable();
        consume_trace.sort_by(|a, b| a.partial_cmp(b).expect("finite trace times"));
        QueryOutcome {
            matches,
            wall_s: wall,
            scanned: records.len(),
            prf_calls: counter.get(),
            produce_trace,
            consume_trace,
        }
    }
}

/// Match an in-memory corpus on the calling thread: the inline driver of
/// the survivor pipeline ([`crate::query`]) over all of `records`, in the
/// same chunks a node's matcher workers use. This is the sequential form
/// every concurrent path is held bit-identical to, and the oracle the
/// end-to-end benchmark checks answers against. Sweeps with the
/// process-default ([`Backend::auto`]) lane engine. Returns the matching
/// ids (unsorted) and the PRF evaluation count.
pub fn match_corpus(records: &[EncryptedMetadata], query: &CompiledQuery) -> (Vec<u64>, u64) {
    match_corpus_with(records, query, Backend::auto())
}

/// [`match_corpus`] on an explicit SHA-1 lane backend.
pub fn match_corpus_with(
    records: &[EncryptedMetadata],
    query: &CompiledQuery,
    backend: Backend,
) -> (Vec<u64>, u64) {
    let mut matcher = Matcher::new(query.trapdoors.len(), true).with_backend(backend);
    let mut scratch = MatchScratch::new();
    let mut matches = Vec::new();
    matcher.scan(query, records, MATCH_CHUNK, &mut scratch, &mut matches);
    (matches, scratch.prf_calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{FileMeta, MetaEncryptor};
    use crate::query::{Combiner, Predicate, QueryCompiler};
    use roar_util::det_rng;

    /// Cheap encryptor for bulk test corpora (single-point numeric grids).
    fn test_encryptor() -> MetaEncryptor {
        MetaEncryptor::with_points(b"u", vec![1_000_000], vec![1_300_000_000])
    }

    fn corpus(enc: &MetaEncryptor, n: usize) -> Vec<EncryptedMetadata> {
        let mut rng = det_rng(171);
        (0..n)
            .map(|i| {
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/d/f{i}"),
                        keywords: if i == 7 {
                            vec!["needle".into()]
                        } else {
                            vec![format!("hay{i}")]
                        },
                        size: 1000,
                        mtime: 1_600_000_000,
                    },
                )
            })
            .collect()
    }

    fn needle_query(enc: &MetaEncryptor) -> CompiledQuery {
        QueryCompiler::new(enc).compile(&[Predicate::Keyword("needle".into())], Combiner::And)
    }

    #[test]
    fn finds_the_needle() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 300);
        let engine = Engine::new(2, EngineProfile::none());
        let out = engine.run_query(&recs, None, &needle_query(&enc));
        assert_eq!(out.matches, vec![recs[7].id]);
        assert_eq!(out.scanned, 300);
        assert!(out.prf_calls > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 500);
        let q = needle_query(&enc);
        let r1 = Engine::new(1, EngineProfile::none()).run_query(&recs, None, &q);
        let r4 = Engine::new(4, EngineProfile::none()).run_query(&recs, None, &q);
        assert_eq!(r1.matches, r4.matches);
        assert_eq!(r1.scanned, r4.scanned);
    }

    #[test]
    fn disk_pacing_slows_query() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 400);
        let q = needle_query(&enc);
        let engine = Engine::new(2, EngineProfile::none());
        let mem = engine.run_query(&recs, None, &q);
        // ~400 records × ~900 B ≈ 360 kB at 2 MB/s ≈ 0.18 s
        let disk = engine.run_query(&recs, Some(DiskProfile::with_rate(2.0, 0.0)), &q);
        assert!(
            disk.wall_s > mem.wall_s + 0.05,
            "disk {} vs mem {}",
            disk.wall_s,
            mem.wall_s
        );
    }

    #[test]
    fn traces_are_monotone() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 1500);
        let engine = Engine {
            threads: 2,
            profile: EngineProfile::none(),
            batch: 128,
            trace_every: 500,
        };
        let out = engine.run_query(&recs, None, &needle_query(&enc));
        assert!(!out.produce_trace.is_empty());
        for w in out.produce_trace.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
        assert_eq!(out.produce_trace.last().unwrap().1, 1500);
    }

    #[test]
    fn lm_profile_pays_fixed_cost() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 50);
        let q = needle_query(&enc);
        let lm = Engine::new(1, EngineProfile::lm()).run_query(&recs, None, &q);
        let lc = Engine::new(1, EngineProfile::lc()).run_query(&recs, None, &q);
        assert!(
            lm.wall_s > lc.wall_s + 0.02,
            "LM {} should exceed LC {} by the GC pause",
            lm.wall_s,
            lc.wall_s
        );
    }

    /// The optimized engine (prepared trapdoors, batch pipeline, sharded
    /// counters, any thread count) must return exactly the match set of a
    /// naive scalar scan through the no-midstate reference matcher, on
    /// random corpora with planted hits.
    #[test]
    fn engine_matches_equal_naive_reference_scan() {
        use crate::bloom_kw::BloomKeywordScheme;
        let enc = test_encryptor();
        let mut rng = det_rng(909);
        for trial in 0..3u64 {
            let n = 400 + 150 * trial as usize;
            let records: Vec<EncryptedMetadata> = (0..n)
                .map(|i| {
                    enc.encrypt(
                        &mut rng,
                        &FileMeta {
                            path: format!("/r/f{i}"),
                            keywords: if i % 37 == 0 {
                                vec!["target".into(), format!("w{i}")]
                            } else {
                                vec![format!("w{i}"), format!("v{i}")]
                            },
                            size: 1000,
                            mtime: 1_600_000_000,
                        },
                    )
                })
                .collect();
            let q = QueryCompiler::new(&enc)
                .compile(&[Predicate::Keyword("target".into())], Combiner::And);

            // naive oracle: reference HMAC per probe, no preparation at all
            let oracle = PrfCounter::new();
            let mut expected: Vec<u64> = records
                .iter()
                .filter(|r| {
                    q.trapdoors
                        .iter()
                        .all(|td| BloomKeywordScheme::matches_reference(&r.body, td, &oracle))
                })
                .map(|r| r.id)
                .collect();
            expected.sort_unstable();

            for threads in [1usize, 4] {
                let engine = Engine::new(threads, EngineProfile::none());
                let out = engine.run_query(&records, None, &q);
                assert_eq!(out.matches, expected, "trial {trial}, {threads} threads");
            }

            // and the single-threaded helper the cluster node uses
            let (mut got, prf) = match_corpus(&records, &q);
            got.sort_unstable();
            assert_eq!(got, expected, "match_corpus, trial {trial}");
            assert!(prf > 0);
        }
    }

    /// The whole-corpus inline drivers against the record-at-a-time
    /// reference, over a store of five uneven runs — one shorter than a
    /// lane group — which the pipeline has to cut into five chunks (a chunk
    /// never straddles a run): the 225-record sampling prefix ends inside
    /// the first, the rest are ragged. Rows (`match_corpus_with`, the same
    /// records in scan order as one chunk) and columns (a snapshot task)
    /// must give the reference's match set, and — every trapdoor stays
    /// under `REORDER_EVERY` probes, so probe orders are fixed — its PRF
    /// count, for AND and OR, on every backend, over the whole ring and
    /// over a wrapped window that cuts two runs. This is what anchors
    /// `match_corpus`, the end-to-end benchmark's oracle, and the node's
    /// snapshot scan to `Matcher::matches`.
    #[test]
    fn match_corpus_equals_scalar_scan_across_chunks() {
        use crate::store::{MetadataStore, Run};
        use crate::xbatch::{QueryTask, TaskCorpus};
        use roar_core::ring::Window;
        let enc = test_encryptor();
        let mut rng = det_rng(172);
        let records: Vec<EncryptedMetadata> = (0..1301)
            .map(|i| {
                let mut keywords = vec!["the".to_string()];
                if i % 3 == 0 {
                    keywords.push("third".into());
                }
                if i % 97 == 0 {
                    keywords.push(format!("rare{i}"));
                }
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/m/f{i}"),
                        keywords,
                        size: 1000,
                        mtime: 1_600_000_000,
                    },
                )
            })
            .collect();
        let mut store = MetadataStore::new();
        let mut rest = &records[..];
        for len in [520, 9, 310, 150, 312] {
            let (batch, tail) = rest.split_at(len);
            store.append(Arc::new(Run::from_records(batch)));
            rest = tail;
        }
        assert!(rest.is_empty());
        assert_eq!(store.runs().len(), 5, "no merge: five uneven runs");
        let store = Arc::new(store);
        let kw = |w: &str| Predicate::Keyword(w.into());
        // the wrapped window drops the middle of every run's id range
        let windows = [Window::full(0), Window::new(3 << 62, 1 << 62)];
        for (preds, comb) in [
            (vec![kw("the"), kw("third")], Combiner::And),
            (
                // hits in the sampling prefix and in later runs
                vec![kw("rare97"), kw("absent"), kw("rare776"), kw("rare1261")],
                Combiner::Or,
            ),
        ] {
            let q = QueryCompiler::new(&enc).compile(&preds, comb);
            for w in &windows {
                let rows = store.window_records(w);
                let counter = PrfCounter::new();
                let mut scalar = Matcher::new(preds.len(), true);
                let mut want: Vec<u64> = rows
                    .iter()
                    .filter(|r| scalar.matches(&q, r, &counter))
                    .map(|r| r.id)
                    .collect();
                want.sort_unstable();
                assert!(want.len() >= 2, "{comb:?}: the query must hit several runs");
                for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
                    let snapshot = TaskCorpus::snapshot(Arc::clone(&store), w);
                    assert_eq!(snapshot.len(), rows.len());
                    let columns = QueryTask::new(q.clone(), snapshot, backend).run_inline();
                    let flat = match_corpus_with(&rows, &q, backend);
                    for (path, (mut got, prf)) in [
                        ("rows", flat),
                        ("columns", (columns.matches, columns.prf_calls)),
                    ] {
                        got.sort_unstable();
                        assert_eq!(got, want, "{comb:?} {path} on {}", backend.name());
                        let name = backend.name();
                        assert_eq!(prf, counter.get(), "{comb:?} {path} PRF on {name}");
                    }
                }
            }
        }
    }

    /// §5.7 cost-model regression: a zero-match single-keyword query over
    /// padded (half-full) filters costs ~2.5 PRF applications per record —
    /// miss probes short-circuit geometrically — and thread-local counter
    /// sharding must not change the reported figure. Pins the number the
    /// paper calibrates every throughput projection against.
    #[test]
    fn prf_cost_per_record_near_paper_figure() {
        let enc = MetaEncryptor::with_points(b"acct", vec![1_000_000], vec![1_300_000_000]);
        let mut rng = det_rng(515);
        // realistic padded records: ~50 keywords each, filter ~half full
        let records: Vec<EncryptedMetadata> = (0..1200)
            .map(|i| {
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/c/f{i}"),
                        keywords: (0..50).map(|k| format!("kw{i}-{k}")).collect(),
                        size: 1000,
                        mtime: 1_600_000_000,
                    },
                )
            })
            .collect();
        let q = QueryCompiler::new(&enc).compile(
            &[Predicate::Keyword("matches-nothing".into())],
            Combiner::And,
        );
        for threads in [1usize, 4] {
            let out = Engine::new(threads, EngineProfile::none()).run_query(&records, None, &q);
            assert!(out.matches.is_empty(), "query must match nothing");
            let per_record = out.prf_calls as f64 / out.scanned as f64;
            assert!(
                (1.5..=3.5).contains(&per_record),
                "{threads} threads: {per_record:.2} PRF applications per non-matching \
                 record, expected ~2.5 (§5.7)"
            );
        }
    }

    /// Thread-local counter shards must add up to the same total a shared
    /// counter would have seen: single- and multi-thread runs of the same
    /// query report identical PRF counts (matching is deterministic and
    /// chunk partitioning does not change any record's probe set once
    /// ordering is decided; with one predicate, ordering is trivial).
    #[test]
    fn sharded_prf_counts_are_exact() {
        let enc = test_encryptor();
        let recs = corpus(&enc, 600);
        let q = needle_query(&enc);
        let r1 = Engine::new(1, EngineProfile::none()).run_query(&recs, None, &q);
        let r4 = Engine::new(4, EngineProfile::none()).run_query(&recs, None, &q);
        assert!(r1.prf_calls > 0);
        assert_eq!(
            r1.prf_calls, r4.prf_calls,
            "single-predicate PRF totals must not depend on thread count"
        );
    }
}
