//! Matcher-pool parity: running many sub-queries *concurrently* through the
//! [`BatchEngine`] must be bit-identical to running each query alone
//! through sequential
//! [`match_corpus_with`](roar_pps::engine::match_corpus_with):
//!
//! * identical match sets (sorted), per query;
//! * identical PRF-call counts, per query (the probe multiset is
//!   unchanged — batching may not add or skip a single codeword probe);
//! * on every available SHA-1 backend (scalar / sse2 / avx2 / avx512),
//!   including mixed-backend resident sets and ragged lane tails
//!   (survivor counts never a multiple of the lane width);
//! * over zero-copy snapshots of a multi-run store, including wrapped
//!   windows, and the same records as rows and as columns.

use rand::Rng;
use roar_core::ring::Window;
use roar_pps::engine::match_corpus_with;
use roar_pps::metadata::{FileMeta, MetaEncryptor};
use roar_pps::query::{Combiner, Predicate, QueryCompiler};
use roar_pps::store::Run;
use roar_pps::{
    Backend, BatchEngine, CompiledQuery, EncryptedMetadata, MetadataStore, QueryTask, TaskCorpus,
};
use roar_util::det_rng;
use std::sync::Arc;

fn available_backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

fn test_encryptor() -> MetaEncryptor {
    MetaEncryptor::with_points(b"parity", vec![1_000_000], vec![1_300_000_000])
}

/// A corpus with wildcard, mid-selectivity and rare keywords, sized so
/// survivor lists shrink raggedly through the pipeline (1021 is prime: no
/// chunk or survivor count aligns with any lane width).
fn corpus(enc: &MetaEncryptor, n: usize, seed: u64) -> Vec<EncryptedMetadata> {
    let mut rng = det_rng(seed);
    (0..n)
        .map(|i| {
            let mut kws = vec!["the".into()];
            if i % 3 == 0 {
                kws.push("third".into());
            }
            if i % 41 == 0 {
                kws.push(format!("rare{i}"));
            }
            let size = rng.gen_range(100..1_000_000);
            let mtime = rng.gen_range(1_000_000_000..1_700_000_000);
            enc.encrypt(
                &mut rng,
                &FileMeta {
                    path: format!("/p/f{i}"),
                    keywords: kws,
                    size,
                    mtime,
                },
            )
        })
        .collect()
}

/// A diverse query mix: AND/OR, wildcard-first, rare-only, absent terms.
fn query_mix(qc: &QueryCompiler, i: usize) -> CompiledQuery {
    match i % 5 {
        0 => qc.compile(
            &[
                Predicate::Keyword("the".into()),
                Predicate::Keyword("third".into()),
            ],
            Combiner::And,
        ),
        1 => qc.compile(
            &[
                Predicate::Keyword(format!("rare{}", 41 * (i % 7))),
                Predicate::Keyword("absent".into()),
            ],
            Combiner::Or,
        ),
        2 => qc.compile(&[Predicate::Keyword("third".into())], Combiner::And),
        3 => qc.compile(
            &[
                Predicate::Keyword("absent".into()),
                Predicate::Keyword("third".into()),
                Predicate::Keyword(format!("rare{}", 41 * (i % 11))),
            ],
            Combiner::Or,
        ),
        _ => qc.compile(
            &[
                Predicate::Keyword("the".into()),
                Predicate::Keyword(format!("rare{}", 41 * (i % 13))),
            ],
            Combiner::And,
        ),
    }
}

fn sequential_baseline(
    records: &[EncryptedMetadata],
    query: &CompiledQuery,
    backend: Backend,
) -> (Vec<u64>, u64) {
    let (mut matches, prf) = match_corpus_with(records, query, backend);
    matches.sort_unstable();
    (matches, prf)
}

/// The heart of the tentpole guarantee: 17 queries resident at once on a
/// 3-worker engine, per backend — every query's matches and PRF count
/// equal its solo sequential run.
#[test]
fn concurrent_batched_equals_sequential_per_backend() {
    let enc = test_encryptor();
    let docs = Arc::new(corpus(&enc, 1021, 77));
    let qc = QueryCompiler::new(&enc);
    for backend in available_backends() {
        let engine = BatchEngine::new(3);
        let queries: Vec<CompiledQuery> = (0..17).map(|i| query_mix(&qc, i)).collect();
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                engine.submit_handle(QueryTask::new(
                    q.clone(),
                    TaskCorpus::Records(Arc::clone(&docs)),
                    backend,
                ))
            })
            .collect();
        for (i, (q, h)) in queries.iter().zip(handles).enumerate() {
            let res = h.wait();
            let (want, want_prf) = sequential_baseline(&docs, q, backend);
            let mut got = res.matches;
            got.sort_unstable();
            assert_eq!(got, want, "query {i} matches on {}", backend.name());
            assert_eq!(
                res.prf_calls,
                want_prf,
                "query {i} PRF count on {}",
                backend.name()
            );
        }
    }
}

/// Mixed-backend resident set: queries pinned to different lane engines
/// share the same engine rounds and still match their own backend's
/// sequential baseline.
#[test]
fn mixed_backend_resident_set_keeps_parity() {
    let enc = test_encryptor();
    let docs = Arc::new(corpus(&enc, 700, 78));
    let qc = QueryCompiler::new(&enc);
    let backends = available_backends();
    let engine = BatchEngine::new(2);
    let submissions: Vec<(CompiledQuery, Backend)> = (0..12)
        .map(|i| (query_mix(&qc, i), backends[i % backends.len()]))
        .collect();
    let handles: Vec<_> = submissions
        .iter()
        .map(|(q, b)| {
            engine.submit_handle(QueryTask::new(
                q.clone(),
                TaskCorpus::Records(Arc::clone(&docs)),
                *b,
            ))
        })
        .collect();
    for (i, ((q, b), h)) in submissions.iter().zip(handles).enumerate() {
        let res = h.wait();
        let (want, want_prf) = sequential_baseline(&docs, q, *b);
        let mut got = res.matches;
        got.sort_unstable();
        assert_eq!(got, want, "query {i} on {}", b.name());
        assert_eq!(res.prf_calls, want_prf, "query {i} PRF on {}", b.name());
    }
}

/// Ragged tails: tiny corpora of every size near the lane widths (1..35
/// records) so survivor sweeps constantly end mid-lane-group.
#[test]
fn ragged_corpus_sizes_keep_parity() {
    let enc = test_encryptor();
    let qc = QueryCompiler::new(&enc);
    let q_and = qc.compile(
        &[
            Predicate::Keyword("the".into()),
            Predicate::Keyword("third".into()),
        ],
        Combiner::And,
    );
    let q_or = qc.compile(
        &[
            Predicate::Keyword("third".into()),
            Predicate::Keyword("absent".into()),
        ],
        Combiner::Or,
    );
    for backend in available_backends() {
        let engine = BatchEngine::new(2);
        for n in 1..=35usize {
            let docs = Arc::new(corpus(&enc, n, 1000 + n as u64));
            for q in [&q_and, &q_or] {
                let h = engine.submit_handle(QueryTask::new(
                    q.clone(),
                    TaskCorpus::Records(Arc::clone(&docs)),
                    backend,
                ));
                let res = h.wait();
                let (want, want_prf) = sequential_baseline(&docs, q, backend);
                let mut got = res.matches;
                got.sort_unstable();
                assert_eq!(got, want, "n={n} on {}", backend.name());
                assert_eq!(res.prf_calls, want_prf, "n={n} PRF on {}", backend.name());
            }
        }
    }
}

/// A store of six uneven runs (one shorter than any lane group), as a node
/// that took six `Store` batches holds it.
fn multi_run_store(docs: &[EncryptedMetadata]) -> Arc<MetadataStore> {
    let mut store = MetadataStore::new();
    let mut rest = docs;
    for len in [230, 3, 170, 97, 190] {
        let (batch, tail) = rest.split_at(len);
        store.append(Arc::new(Run::from_records(batch)));
        rest = tail;
    }
    store.append(Arc::new(Run::from_records(rest)));
    assert_eq!(store.runs().len(), 6, "uneven batches: no merge");
    Arc::new(store)
}

fn snapshot_windows() -> [Window; 4] {
    [
        Window::full(1),
        Window::new(0, u64::MAX / 3),
        Window::new(u64::MAX / 2, u64::MAX / 8), // wrapped
        // wrapped, and narrow enough to miss the three-record run
        Window::new(u64::MAX - (1 << 58), 1 << 58),
    ]
}

/// Store snapshots: tasks over wrapped and partial windows of a shared
/// multi-run `Arc<MetadataStore>`, resident together on the engine, equal
/// sequential runs over the materialised window records.
#[test]
fn snapshot_windows_keep_parity() {
    let enc = test_encryptor();
    let store = multi_run_store(&corpus(&enc, 800, 79));
    let qc = QueryCompiler::new(&enc);
    let backend = *available_backends().last().expect("scalar always exists");
    let engine = BatchEngine::new(2);
    let windows = snapshot_windows();
    let tasks: Vec<_> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let q = query_mix(&qc, i);
            let snapshot = TaskCorpus::snapshot(Arc::clone(&store), w);
            let task = QueryTask::new(q.clone(), snapshot, backend);
            (q, w, engine.submit_handle(task))
        })
        .collect();
    for (i, (q, w, h)) in tasks.into_iter().enumerate() {
        let res = h.wait();
        let (want, want_prf) = sequential_baseline(&store.window_records(w), &q, backend);
        let mut got = res.matches;
        got.sort_unstable();
        assert_eq!(got, want, "window {i}");
        assert_eq!(res.prf_calls, want_prf, "window {i} PRF");
    }
}

/// Rows against columns: the same records as `TaskCorpus::Records` and as
/// a snapshot of a multi-run store give the same match *set* and the same
/// PRF count, inline and on the engine, on every available backend.
#[test]
fn rows_and_columns_agree_on_every_backend() {
    let enc = test_encryptor();
    let store = multi_run_store(&corpus(&enc, 800, 80));
    let qc = QueryCompiler::new(&enc);
    for backend in available_backends() {
        let engine = BatchEngine::new(2);
        for (i, w) in snapshot_windows().iter().enumerate() {
            let q = query_mix(&qc, i + 1);
            let rows = TaskCorpus::Records(Arc::new(store.window_records(w)));
            let columns = TaskCorpus::snapshot(Arc::clone(&store), w);
            assert_eq!(rows.len(), columns.len());
            let task = |corpus: &TaskCorpus| QueryTask::new(q.clone(), corpus.clone(), backend);
            let sorted = |mut res: roar_pps::TaskResult| {
                res.matches.sort_unstable();
                (res.matches, res.prf_calls)
            };
            let want = sorted(task(&rows).run_inline());
            let name = backend.name();
            assert_eq!(sorted(task(&columns).run_inline()), want, "{i} on {name}");
            let resident = [&rows, &columns].map(|c| engine.submit_handle(task(c)));
            for h in resident {
                assert_eq!(sorted(h.wait()), want, "{i} on {name}, engine");
            }
        }
    }
}
