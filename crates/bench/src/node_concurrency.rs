//! Cross-query batched node execution benchmark
//! (`BENCH_node_concurrency.json`).
//!
//! Measures aggregate matching throughput (records/s across all resident
//! sub-queries) at 1 / 8 / 64 concurrently resident sub-queries, per
//! SHA-1 backend, through two node execution paths:
//!
//! * `baseline` — the pre-batching node path, reproduced literally: one
//!   OS thread per sub-query, each materialising the serving window as
//!   rows out of the shared store *under the state lock*
//!   ([`MetadataStore::window_records`] — figure apparatus, like this
//!   path) and then running sequential [`match_corpus_with`];
//! * `batched` — the [`BatchEngine`] path the node now runs: every
//!   sub-query becomes a resumable [`QueryTask`] over one shared zero-copy
//!   `Arc` snapshot, a fixed worker pool drains the probe queue, and MAC
//!   sweeps pack lanes *across* queries (ragged survivor tails from
//!   different sub-queries fill the same SIMD lane group).
//!
//! Invoked as `repro bench_node_concurrency [--quick]`. The full run
//! writes `BENCH_node_concurrency.json`; both scales enforce the smoke
//! gate (aggregate 64-query throughput must beat 1-query throughput —
//! residency may never cost throughput) and the full run additionally
//! enforces the ≥ 1.5× batched-vs-baseline floor at 64 resident queries
//! on the best available backend.

use crate::{number, Filters, Scale};
use roar_core::ring::Window;
use roar_crypto::bloom::BloomParams;
use roar_crypto::sha1::Backend;
use roar_pps::engine::match_corpus_with;
use roar_pps::metadata::MetaEncryptor;
use roar_pps::query::CompiledQuery;
use roar_pps::{BatchEngine, EncryptedMetadata, MetadataStore, QueryTask, TaskCorpus};
use roar_util::{det_rng, Json};
use roar_workload::{fast_random_metadata_with, QueryGenerator};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Resident sub-query counts measured (the ISSUE's 1 / 8 / 64 ladder).
pub const RESIDENT: [usize; 3] = [1, 8, 64];

/// The full-scale acceptance floor: batched over baseline at 64 resident.
pub const SPEEDUP_FLOOR: f64 = 1.5;

/// The shared fixture: the paper's measurement corpus (50-keyword docs at
/// fp = 1e-5, r = 17) and 64 distinct zero-match queries so every resident
/// sub-query sweeps the full miss path with its own trapdoor keys.
struct Fixture {
    n: usize,
    repeats: usize,
    workers: usize,
    records: Vec<EncryptedMetadata>,
    queries: Vec<CompiledQuery>,
}

impl Fixture {
    fn new(scale: Scale) -> Self {
        let n = scale.pick(20_000, 3_000);
        let repeats = scale.pick(4, 3);
        let mut rng = det_rng(91);
        let params = BloomParams::for_fp_rate(50, 1e-5);
        let records = fast_random_metadata_with(&mut rng, n, params);
        let enc = MetaEncryptor::with_points(b"bench-node", vec![1_000_000], vec![1_300_000_000]);
        let queries =
            QueryGenerator::new().compile_zero_match(&mut rng, &enc, *RESIDENT.last().unwrap());
        Fixture {
            n,
            repeats,
            // the node's own pool sizing: one worker per core, capped at 4
            workers: std::thread::available_parallelism().map_or(1, |c| c.get().min(4)),
            records,
            queries,
        }
    }

    /// The pre-batching node path: a thread per resident sub-query, each
    /// copying the window out of the shared store under the state lock,
    /// then matching its private copy sequentially.
    fn measure_baseline(&self, backend: Backend, resident: usize) -> f64 {
        let store = Mutex::new(MetadataStore::from_records(&self.records));
        let full = Window::full(0);
        let queries = &self.queries[..resident];
        let mut best = f64::INFINITY;
        for _ in 0..self.repeats {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for q in queries {
                    s.spawn(|| {
                        let copy: Vec<EncryptedMetadata> = {
                            let st = store.lock().unwrap();
                            st.window_records(&full)
                        };
                        std::hint::black_box(match_corpus_with(&copy, q, backend));
                    });
                }
            });
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (resident * self.n) as f64 / best
    }

    /// The batched path: every resident sub-query is a [`QueryTask`] over
    /// one shared zero-copy snapshot, drained by a fixed worker pool with
    /// MAC sweeps lane-packed across queries.
    fn measure_batched(&self, backend: Backend, resident: usize) -> f64 {
        let store = Arc::new(MetadataStore::from_records(&self.records));
        let engine = BatchEngine::new(self.workers);
        let full = Window::full(0);
        let queries = &self.queries[..resident];
        let mut best = f64::INFINITY;
        for _ in 0..self.repeats {
            let t0 = Instant::now();
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    engine.submit_handle(QueryTask::new(
                        q.clone(),
                        TaskCorpus::snapshot(Arc::clone(&store), &full),
                        backend,
                    ))
                })
                .collect();
            for h in handles {
                std::hint::black_box(h.wait());
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (resident * self.n) as f64 / best
    }

    /// The resident ladder under one SHA-1 backend: aggregate rec/s
    /// through both paths and their ratio, per resident count.
    fn run_backend(&self, backend: Backend) -> Json {
        let points = RESIDENT.iter().map(|&resident| {
            let baseline_rps = self.measure_baseline(backend, resident);
            let batched_rps = self.measure_batched(backend, resident);
            Json::obj([
                ("resident", resident.into()),
                ("baseline_rps", Json::rounded(baseline_rps, 0)),
                ("batched_rps", Json::rounded(batched_rps, 0)),
                ("speedup", Json::rounded(batched_rps / baseline_rps, 3)),
            ])
        });
        Json::obj([
            ("backend", backend.name().into()),
            ("lanes", backend.engine().lanes().into()),
            ("points", points.collect()),
        ])
    }
}

/// Run the comparison. `Full` sweeps every available backend; `Quick`
/// (CI's smoke invocation) measures only the auto-detected backend.
///
/// Headline members, both on the auto-detected (widest available) backend
/// `best_backend`: `speedup_64` — batched vs baseline aggregate rec/s at 64
/// resident sub-queries — and `batched_scaling_64_vs_1` — batched rec/s at
/// 64 resident vs 1 resident; > 1 means residency adds throughput (lane
/// packing, worker-pool parallelism) instead of costing it.
pub fn run(scale: Scale, _: &Filters) -> Result<Json, String> {
    let fx = Fixture::new(scale);
    let backends: Vec<Backend> = match scale {
        Scale::Full => Backend::ALL.into_iter().filter(|b| b.available()).collect(),
        Scale::Quick => vec![Backend::auto()],
    };
    let runs: Json = backends.into_iter().map(|b| fx.run_backend(b)).collect();
    let best_name = Backend::auto().name();
    let best = runs
        .find("backend", best_name)
        .and_then(|r| r.get("points"));
    let points = best
        .and_then(Json::as_array)
        .ok_or("auto backend not measured")?;
    let (first, top) = (&points[0], &points[points.len() - 1]);
    let scaling = number(top, &["batched_rps"])? / number(first, &["batched_rps"])?;
    let speedup_64 = top.get("speedup").cloned().ok_or("no speedup")?;
    Ok(Json::obj([
        ("benchmark", "node_concurrency".into()),
        (
            "config",
            Json::obj([
                ("records", fx.n.into()),
                ("keywords_per_doc", 50usize.into()),
                ("fp_rate", Json::Num(1e-5)),
                ("repeats", fx.repeats.into()),
                // matcher pool width (mirrors the node's pool sizing)
                ("workers", fx.workers.into()),
                ("resident", RESIDENT.into_iter().collect()),
            ]),
        ),
        ("backends", runs),
        ("best_backend", best_name.into()),
        ("speedup_64", speedup_64),
        ("batched_scaling_64_vs_1", Json::rounded(scaling, 3)),
    ]))
}

/// The smoke gate (every scale): piling 64 resident sub-queries onto the
/// engine must not reduce aggregate throughput below the single-query
/// rate. The full-scale acceptance floor adds: at 64 resident on the best
/// backend, batching must beat the old thread-per-query clone-under-lock
/// path by [`SPEEDUP_FLOOR`].
pub fn gate(doc: &Json, scale: Scale) -> Result<(), String> {
    let scaling = number(doc, &["batched_scaling_64_vs_1"])?;
    if scaling < 1.0 {
        return Err(format!(
            "64-query batched throughput fell below the 1-query rate ({scaling:.2}x)"
        ));
    }
    let speedup = number(doc, &["speedup_64"])?;
    if scale == Scale::Full && speedup < SPEEDUP_FLOOR {
        return Err(format!(
            "batched/baseline speedup {speedup:.2}x at 64 resident is below the \
             {SPEEDUP_FLOOR}x floor"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_scales() {
        let b = run(Scale::Quick, &Filters::default()).unwrap();
        let backends = b.get("backends").unwrap().as_array().unwrap();
        assert_eq!(backends.len(), 1, "quick measures the auto backend only");
        let points = backends[0].get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), RESIDENT.len());
        for p in points {
            assert!(number(p, &["baseline_rps"]).unwrap() > 0.0);
            assert!(number(p, &["batched_rps"]).unwrap() > 0.0);
        }
        assert!(number(&b, &["speedup_64"]).unwrap() > 0.0);
    }

    #[test]
    fn gate_applies_the_speedup_floor_at_full_scale_only() {
        let doc = |scaling: f64, speedup: f64| {
            Json::obj([
                ("batched_scaling_64_vs_1", scaling.into()),
                ("speedup_64", speedup.into()),
            ])
        };
        assert!(gate(&doc(1.3, 2.0), Scale::Full).is_ok());
        assert!(gate(&doc(0.9, 2.0), Scale::Quick)
            .unwrap_err()
            .contains("1-query"));
        assert!(gate(&doc(1.3, 1.2), Scale::Quick).is_ok());
        assert!(gate(&doc(1.3, 1.2), Scale::Full)
            .unwrap_err()
            .contains("floor"));
    }
}
