//! Scalar-vs-batched PPS matching comparison with a machine-readable
//! baseline (`BENCH_pps.json`).
//!
//! Measures matching throughput (records/s) on the paper configuration —
//! 50-keyword documents, fp = 1e-5, r = 17 hash functions, zero-match
//! queries (§5.7's setup) — through:
//!
//! * `scalar` — the seed path: one-shot HMAC-SHA1 per codeword probe, key
//!   block rebuilt every time;
//! * `batched` — the midstate-cached, allocation-free survivor-list
//!   pipeline the engine and cluster node now run, swept lane-width through
//!   a SHA-1 [`Backend`] (scalar x1 / SSE2 x4 / AVX2 x8 / AVX-512 x16).
//!
//! Beside that large-corpus rate it reports the **small-window** regime —
//! the paper's per-sub-query start-up cost, which a high `p` lives in: the
//! same corpus cut into [`SMALL_WINDOW`]-record windows, each a fresh
//! [`QueryTask`] run inline as a node runs one sub-query (trapdoors
//! prepared, order sampled, survivors swept — all within the window). The
//! gate holds a window to [`SMALL_WINDOW_FLOOR`] of the large-corpus rate:
//! with the §5.6.5 sample run record-at-a-time in front of the lane sweeps
//! it reached 0.06–0.11 (two predicates) and 0.11–0.17 (one), against 0.37
//! and 0.72 swept — two predicates cost a window twice the probes of one
//! for as long as it is mostly sample, so 0.5 is that ratio's ceiling.
//!
//! The **stages** blocks split the inline driver's time per record into
//! staging (advance the pipeline, gather nonces), MAC and filter — over
//! rows (`TaskCorpus::Records`) and over columns (a store snapshot), at
//! [`STAGES_L2_RECORDS`] records (`stages_l2`: the corpus sits in L2, so
//! what is left of the filter stage is instructions and mispredicts, not
//! misses) and at full scale (`stages_full`). The gate holds the
//! L2-resident filter stage over columns to [`FILTER_VS_MAC_CEILING`] of
//! the MAC stage: 0.67 with the compaction branching on the filter bit (a
//! coin toss), 0.2 branch-free, 0.28 with the prefetch pass in front —
//! which is what pins it branch-free against a compiler that decides
//! otherwise.
//!
//! Under both sits the **nonce sweep** itself (`mac` block): MAC prefixes
//! per second through the backend's fused kernel, against the same engine
//! held to the `compress`-staged default ([`Staged`]) — the 64-byte block
//! staging the kernels replaced. On the 16-lane engine the gate holds the
//! kernel to [`MAC_FUSED_FLOOR`] of the staged rate (parent, by
//! construction: 1.0); narrower engines report the ratio ungated — staging
//! is a per-lane cost against a per-group compression, so the ratio falls
//! with the width (SSE2 1.4, AVX2 1.6, AVX-512 2.7 on the reference box).
//!
//! Invoked as `repro bench_pps [--quick] [--backend scalar|sse2|avx2|avx512|auto]`;
//! writes `BENCH_pps.json` into the working directory. The committed copy at
//! the repository root is the point-zero baseline of the bench trajectory.
//! `repro bench_pps_backends` runs the batched path, the nonce sweep and
//! one trapdoor preparation once per available backend
//! and renders the comparison table committed under `results/`.

use crate::{Filters, Scale};
use roar_core::ring::Window;
use roar_crypto::bloom::BloomParams;
use roar_crypto::hmac::HmacKey;
use roar_crypto::sha1::{Backend, Sha1Lanes, Staged, MAX_LANES};
use roar_pps::bloom_kw::{BloomKeywordScheme, PrfCounter, MAX_R};
use roar_pps::metadata::MetaEncryptor;
use roar_pps::query::{CompiledQuery, MatchScratch, Matcher};
use roar_pps::store::{MetadataStore, RUN_CAP};
use roar_pps::xbatch::{QueryTask, TaskCorpus};
use roar_util::{det_rng, Json};
use roar_workload::{fast_random_metadata_with, QueryGenerator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Records per window of the small-window regime (`fanout_tcp`'s
/// sub-query size in `BENCHMARK.json`).
pub const SMALL_WINDOW: usize = 256;

/// The gate: the slower small-window query must reach this share of the
/// large-corpus batched rate.
pub const SMALL_WINDOW_FLOOR: f64 = 0.25;

/// The gate: on the 16-lane engine the fused nonce kernel must reach this
/// multiple of the `compress`-staged sweep on the same engine.
pub const MAC_FUSED_FLOOR: f64 = 1.5;

/// Records of the L2-resident `stages` measurement (≈ 0.2 MB at the paper
/// geometry's 176-byte filters, 0.9 MB at the benchmark's).
pub const STAGES_L2_RECORDS: usize = 1_000;

/// The gate: L2-resident, over columns, the filter stage may cost at most
/// this share of the MAC stage.
pub const FILTER_VS_MAC_CEILING: f64 = 0.4;

/// Nonces per pass of the nonce-sweep measurement (the frozen benchmark's
/// `crypto.mac_per_s` probe size).
const MAC_NONCES: usize = 65_536;

/// One measured path.
struct PathResult {
    name: String,
    records_per_s: f64,
    prf_calls_per_record: f64,
    hits: usize,
}

impl PathResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.as_str().into()),
            ("records_per_s", Json::rounded(self.records_per_s, 0)),
            (
                "prf_calls_per_record",
                Json::rounded(self.prf_calls_per_record, 3),
            ),
            ("hits", self.hits.into()),
        ])
    }
}

fn best_of<F: FnMut() -> (usize, u64)>(
    repeats: usize,
    n_records: usize,
    mut f: F,
) -> (f64, f64, usize) {
    let mut best = f64::INFINITY;
    let mut prf_per_record = 0.0;
    let mut hits = 0;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let (h, prf) = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
            prf_per_record = prf as f64 / n_records as f64;
            hits = h;
        }
    }
    (n_records as f64 / best, prf_per_record, hits)
}

/// The shared measurement fixture: the paper's corpus and one zero-match
/// query, built once and reused across path measurements.
struct Fixture {
    n: usize,
    repeats: usize,
    records: Vec<roar_pps::EncryptedMetadata>,
    query: CompiledQuery,
    /// The `stages` measurement's queries, one per pass: under one query
    /// repeated, the branch predictor learns a small corpus's whole bit
    /// sequence and a branch on the filter bit costs nothing.
    stage_queries: Vec<CompiledQuery>,
}

impl Fixture {
    fn new(scale: Scale) -> Self {
        let n = scale.pick(200_000, 25_000);
        let repeats = scale.pick(5, 3);
        let mut rng = det_rng(57);
        // the paper's measurement corpus: padded half-full filters at the
        // 50-keyword / fp 1e-5 geometry (r = 17); a zero-match probe cannot
        // distinguish them from real documents (§5.7 measures this miss
        // path)
        let params = BloomParams::for_fp_rate(50, 1e-5);
        assert_eq!(params.hashes, 17, "paper parameterisation");
        let records = fast_random_metadata_with(&mut rng, n, params);
        let enc = MetaEncryptor::with_points(b"bench-pps", vec![1_000_000], vec![1_300_000_000]);
        let mut queries = QueryGenerator::new().compile_zero_match(&mut rng, &enc, 65);
        Fixture {
            n,
            repeats,
            records,
            query: queries.remove(0),
            stage_queries: queries,
        }
    }

    /// The scalar seed path: per-probe one-shot HMAC, no preparation.
    fn measure_reference(&self) -> PathResult {
        let (rps, prf, hits) = best_of(self.repeats, self.n, || {
            let counter = PrfCounter::new();
            let mut hits = 0usize;
            for r in &self.records {
                let all = self
                    .query
                    .trapdoors
                    .iter()
                    .all(|td| BloomKeywordScheme::matches_reference(&r.body, td, &counter));
                if all {
                    hits += 1;
                }
            }
            (hits, counter.get())
        });
        PathResult {
            name: "scalar_reference".into(),
            records_per_s: rps,
            prf_calls_per_record: prf,
            hits,
        }
    }

    /// The batched midstate path — what Engine/match_corpus run — on the
    /// given lane backend. Static predicate order so reference and batched
    /// perform the *identical* probe set — dynamic ordering (§5.6.5) helps
    /// both paths equally and would blur the midstate-caching comparison.
    fn measure_batched(&self, backend: Backend) -> PathResult {
        let (rps, prf, hits) = best_of(self.repeats, self.n, || {
            let mut m = Matcher::new(self.query.trapdoors.len(), false).with_backend(backend);
            let mut scratch = MatchScratch::new();
            let mut matches = Vec::new();
            // the whole-corpus drivers' chunk: a sealed run
            for chunk in self.records.chunks(RUN_CAP) {
                m.match_batch(&self.query, chunk, &mut scratch, &mut matches);
            }
            (matches.len(), scratch.prf_calls)
        });
        PathResult {
            name: format!("batched_midstate_{}", backend.name()),
            records_per_s: rps,
            prf_calls_per_record: prf,
            hits,
        }
    }

    /// The small-window regime on the given lane backend: records/s of
    /// `query` run as one fresh inline [`QueryTask`] per window.
    fn measure_small_window(
        &self,
        store: &Arc<MetadataStore>,
        windows: &[Window],
        query: &CompiledQuery,
        backend: Backend,
    ) -> f64 {
        let (rps, _, _) = best_of(self.repeats, self.n, || {
            let (mut hits, mut prf) = (0, 0);
            for w in windows {
                let corpus = TaskCorpus::snapshot(Arc::clone(store), w);
                let res = QueryTask::new(query.clone(), corpus, backend).run_inline();
                hits += res.matches.len();
                prf += res.prf_calls;
            }
            (hits, prf)
        });
        rps
    }

    /// The `small_window` block: the fixture's two-predicate AND and its
    /// second keyword alone, against the large-corpus rate `large_rps`.
    fn small_window(&self, backend: Backend, large_rps: f64) -> Json {
        let store = Arc::new(MetadataStore::from_records(&self.records));
        // match windows of SMALL_WINDOW records each: (last id of the
        // previous window, last id of this one]
        let mut ids: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let ends = ids.chunks(SMALL_WINDOW).map(|w| w[w.len() - 1]);
        let starts = std::iter::once(ids[0].wrapping_sub(1)).chain(ends.clone());
        let windows: Vec<Window> = starts.zip(ends).map(|(a, b)| Window::new(a, b)).collect();
        let one_keyword = CompiledQuery {
            trapdoors: self.query.trapdoors[1..].to_vec(),
            combiner: self.query.combiner,
        };
        let one = self.measure_small_window(&store, &windows, &one_keyword, backend);
        let two = self.measure_small_window(&store, &windows, &self.query, backend);
        Json::obj([
            ("records", SMALL_WINDOW.into()),
            ("one_keyword_records_per_s", Json::rounded(one, 0)),
            ("two_predicate_and_records_per_s", Json::rounded(two, 0)),
            ("vs_large", Json::rounded(one.min(two) / large_rps, 3)),
            ("floor", Json::Num(SMALL_WINDOW_FLOOR)),
        ])
    }

    /// Nanoseconds per record in each stage of the inline driver over
    /// `corpus` — staging, MAC, filter: per stage, the best of the
    /// fixture's repeats, each a few passes so a small corpus outlasts the
    /// clock's grain.
    fn measure_stages(&self, corpus: &TaskCorpus, backend: Backend) -> [f64; 3] {
        let passes = (4 * RUN_CAP).div_ceil(corpus.len());
        let mut best = [f64::INFINITY; 3];
        let mut queries = self.stage_queries.iter().cycle();
        for _ in 0..self.repeats {
            let mut stages = [0.0; 3];
            for query in queries.by_ref().take(passes) {
                let task = QueryTask::new(query.clone(), corpus.clone(), backend);
                let (res, lap) = task.run_inline_staged();
                black_box(res);
                (0..3).for_each(|k| stages[k] += lap[k].as_secs_f64());
            }
            (0..3).for_each(|k| best[k] = best[k].min(stages[k]));
        }
        best.map(|s| s * 1e9 / (passes * corpus.len()) as f64)
    }

    /// One `stages_*` block: the first `n` records as rows and as columns
    /// (flat, so a trajectory entry stays one line), with the columns'
    /// filter-to-MAC ratio — which the gate reads off the L2-resident
    /// block, where `ceiling` says so.
    fn stages(&self, n: usize, backend: Backend) -> Json {
        let records = &self.records[..n];
        let rows = TaskCorpus::Records(Arc::new(records.to_vec()));
        let store = Arc::new(MetadataStore::from_records(records));
        let columns = TaskCorpus::snapshot(store, &Window::full(0));
        let [rows, columns] = [rows, columns].map(|c| self.measure_stages(&c, backend));
        let ns = |v: f64| Json::rounded(v, 1);
        let gated = (n == STAGES_L2_RECORDS).then_some(("ceiling", FILTER_VS_MAC_CEILING.into()));
        let members = [
            ("records", n.into()),
            ("rows_staging_ns", ns(rows[0])),
            ("rows_mac_ns", ns(rows[1])),
            ("rows_filter_ns", ns(rows[2])),
            ("columns_staging_ns", ns(columns[0])),
            ("columns_mac_ns", ns(columns[1])),
            ("columns_filter_ns", ns(columns[2])),
            ("filter_vs_mac", Json::rounded(columns[2] / columns[1], 3)),
        ];
        Json::obj(members.into_iter().chain(gated))
    }

    /// The fixture's geometry, as every artifact's `config` member.
    fn config(&self) -> Json {
        Json::obj([
            ("records", self.n.into()),
            ("keywords_per_doc", 50usize.into()),
            ("fp_rate", Json::Num(1e-5)),
            ("r_hashes", self.query.trapdoors[0].parts.len().into()),
            ("repeats", self.repeats.into()),
        ])
    }
}

/// The nonce-sweep measurement's inputs: one key, [`MAC_NONCES`] nonces.
struct MacFixture {
    key: HmacKey,
    nonces: Vec<[u8; 8]>,
}

impl MacFixture {
    fn new() -> Self {
        MacFixture {
            key: HmacKey::new(&[0; 20]),
            nonces: (0..MAC_NONCES as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes())
                .collect(),
        }
    }

    /// MAC prefixes per second of the sweep on `engine`.
    fn mac_per_s(&self, engine: &dyn Sha1Lanes, repeats: usize) -> f64 {
        let mut out = vec![0u64; MAC_NONCES];
        let (per_s, _, _) = best_of(repeats, MAC_NONCES, || {
            let key = black_box(self.key);
            key.mac_u64_nonces_on(engine, black_box(&self.nonces), &mut out);
            (0, black_box(&out)[0])
        });
        per_s
    }
}

/// Microseconds to prepare one trapdoor's component keys on `backend`.
fn measure_prepare_us(backend: Backend, query: &CompiledQuery, repeats: usize) -> f64 {
    const ROUNDS: usize = 2_000;
    let parts = &query.trapdoors[0].parts;
    let (per_s, _, _) = best_of(repeats, ROUNDS, || {
        for _ in 0..ROUNDS {
            black_box(HmacKey::prepare::<MAX_R>(backend, black_box(parts)));
        }
        (0, 0)
    });
    1e6 / per_s
}

/// The `mac` block: the fused kernel against the staged default on
/// `backend`'s engine.
fn mac_block(backend: Backend, repeats: usize) -> Json {
    let engine = backend.engine();
    let fx = MacFixture::new();
    let fused = fx.mac_per_s(engine, repeats);
    let staged = fx.mac_per_s(&Staged(engine), repeats);
    Json::obj([
        ("lanes", engine.lanes().into()),
        ("mac_per_s", Json::rounded(fused, 0)),
        ("staged_mac_per_s", Json::rounded(staged, 0)),
        ("vs_staged", Json::rounded(fused / staged, 3)),
        ("floor", Json::Num(MAC_FUSED_FLOOR)),
    ])
}

/// Run the comparison with the batched path on `filters.backend` (default:
/// the auto-detected one; the scalar reference path is backend-independent
/// by construction). `Quick` shrinks the corpus ~8× for CI smoke runs.
/// The document minus `benchmark` is one `BENCH_pps.json` trajectory entry
/// (see [`crate::trajectory`]).
pub fn run(scale: Scale, filters: &Filters) -> Result<Json, String> {
    let fx = Fixture::new(scale);
    let backend = filters.backend.unwrap_or_else(Backend::auto);
    let scalar = fx.measure_reference();
    let batched = fx.measure_batched(backend);
    if scalar.hits != batched.hits {
        return Err("scalar and batched paths disagree on the match set".into());
    }
    Ok(Json::obj([
        ("benchmark", "pps_match_throughput".into()),
        ("config", fx.config()),
        ("scalar", scalar.to_json()),
        ("batched", batched.to_json()),
        (
            "speedup",
            Json::rounded(batched.records_per_s / scalar.records_per_s, 3),
        ),
        (
            "small_window",
            fx.small_window(backend, batched.records_per_s),
        ),
        ("stages_l2", fx.stages(STAGES_L2_RECORDS, backend)),
        ("stages_full", fx.stages(fx.n, backend)),
        ("mac", mac_block(backend, fx.repeats)),
    ]))
}

/// `bench_pps`' gate: a [`SMALL_WINDOW`]-record window must not fall under
/// [`SMALL_WINDOW_FLOOR`] of the large-corpus rate, the L2-resident filter
/// stage must not exceed [`FILTER_VS_MAC_CEILING`] of the MAC stage, and on
/// the 16-lane engine the fused nonce kernel must not fall under
/// [`MAC_FUSED_FLOOR`] of the staged sweep.
pub fn gate(doc: &Json, _: Scale) -> Result<(), String> {
    let share = crate::number(doc, &["small_window", "vs_large"])?;
    if share < SMALL_WINDOW_FLOOR {
        return Err(format!(
            "a {SMALL_WINDOW}-record window runs at {share:.3} of the large-corpus rate \
             (floor {SMALL_WINDOW_FLOOR})"
        ));
    }
    let filter_vs_mac = crate::number(doc, &["stages_l2", "filter_vs_mac"])?;
    if filter_vs_mac > FILTER_VS_MAC_CEILING {
        return Err(format!(
            "L2-resident, the filter stage costs {filter_vs_mac:.3} of the MAC stage \
             (ceiling {FILTER_VS_MAC_CEILING}): is the compaction branching on the filter bit?"
        ));
    }
    let lanes = crate::number(doc, &["mac", "lanes"])?;
    let vs_staged = crate::number(doc, &["mac", "vs_staged"])?;
    if lanes as usize == MAX_LANES && vs_staged < MAC_FUSED_FLOOR {
        return Err(format!(
            "the {MAX_LANES}-lane nonce kernel runs at {vs_staged:.3} of its \
             compress-staged default (floor {MAC_FUSED_FLOOR})"
        ));
    }
    Ok(())
}

/// The per-backend comparison (`repro bench_pps_backends`): the batched
/// survivor sweep once per SHA-1 lane engine this CPU supports, narrowest
/// first, against one shared corpus and one scalar-reference measurement
/// (the one-shot path is backend-independent, and it is the slowest leg of
/// the sweep). A full-scale run also saves the comparison as the text
/// table `results/bench_pps_backends.txt`; a quick smoke must not
/// overwrite it.
pub fn run_backends(scale: Scale, _: &Filters) -> Result<Json, String> {
    let fx = Fixture::new(scale);
    let reference_rps = fx.measure_reference().records_per_s;
    let macs = MacFixture::new();
    let rows: Vec<BackendRow> = Backend::ALL
        .into_iter()
        .filter(|b| b.available())
        .map(|backend| {
            let engine = backend.engine();
            BackendRow {
                backend,
                batched_rps: fx.measure_batched(backend).records_per_s,
                mac_per_s: macs.mac_per_s(engine, fx.repeats),
                staged_mac_per_s: macs.mac_per_s(&Staged(engine), fx.repeats),
                prepare_us: measure_prepare_us(backend, &fx.query, fx.repeats),
            }
        })
        .collect();
    if scale == Scale::Full {
        let table = render_backends(&fx, reference_rps, &rows);
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/bench_pps_backends.txt", table))
            .map_err(|e| format!("write results/bench_pps_backends.txt: {e}"))?;
    }
    let backends = rows.iter().map(|row| {
        Json::obj([
            ("backend", row.backend.name().into()),
            ("lanes", row.backend.engine().lanes().into()),
            ("batched_rps", Json::rounded(row.batched_rps, 0)),
            (
                "vs_reference",
                Json::rounded(row.batched_rps / reference_rps, 2),
            ),
            ("mac_per_s", Json::rounded(row.mac_per_s, 0)),
            (
                "vs_staged",
                Json::rounded(row.mac_per_s / row.staged_mac_per_s, 2),
            ),
            ("prepare_us", Json::rounded(row.prepare_us, 2)),
        ])
    });
    Ok(Json::obj([
        ("benchmark", "pps_match_throughput_by_backend".into()),
        ("config", fx.config()),
        ("reference_rps", Json::rounded(reference_rps, 0)),
        ("backends", backends.collect()),
    ]))
}

/// One engine's row of the per-backend comparison.
struct BackendRow {
    backend: Backend,
    batched_rps: f64,
    mac_per_s: f64,
    staged_mac_per_s: f64,
    prepare_us: f64,
}

/// The comparison as the text table kept under `results/`.
fn render_backends(fx: &Fixture, reference_rps: f64, rows: &[BackendRow]) -> String {
    let mut t = roar_util::Table::new([
        "backend",
        "lanes",
        "batched rec/s",
        "vs scalar backend",
        "vs one-shot reference",
        "MAC/s",
        "vs staged",
        "prepare r=17 (us)",
    ]);
    let base = rows.first().map_or(f64::NAN, |row| row.batched_rps);
    for row in rows {
        t.row([
            row.backend.name().to_string(),
            row.backend.engine().lanes().to_string(),
            format!("{:.0}", row.batched_rps),
            format!("{:.2}x", row.batched_rps / base),
            format!("{:.2}x", row.batched_rps / reference_rps),
            format!("{:.0}", row.mac_per_s),
            format!("{:.2}x", row.mac_per_s / row.staged_mac_per_s),
            format!("{:.2}", row.prepare_us),
        ]);
    }
    format!(
        "PPS batched matching throughput by SHA-1 backend\n\
         ({} records, 50 keywords/doc, fp 1e-5, r = 17, best of {}; \
         one-shot reference {:.0} rec/s;\n\
         MAC/s: the nonce sweep over {MAC_NONCES} nonces under one key, \
         'vs staged' against the same engine's compress-staged default)\n\n{}",
        fx.n,
        fx.repeats,
        reference_rps,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::number;

    #[test]
    fn quick_bench_runs_and_reports_speedup() {
        let b = run(Scale::Quick, &Filters::default()).unwrap();
        assert_eq!(
            number(&b, &["scalar", "hits"]),
            number(&b, &["batched", "hits"])
        );
        assert!(number(&b, &["scalar", "records_per_s"]).unwrap() > 0.0);
        assert!(number(&b, &["batched", "records_per_s"]).unwrap() > 0.0);
        // PRF accounting agrees across paths (the prepared path's
        // cheapest-miss-first reordering may shift individual probe counts
        // by a fraction of a percent; the expectation is unchanged)
        let scalar_prf = number(&b, &["scalar", "prf_calls_per_record"]).unwrap();
        let batched_prf = number(&b, &["batched", "prf_calls_per_record"]).unwrap();
        let rel = (scalar_prf - batched_prf).abs() / scalar_prf;
        assert!(rel < 0.02, "PRF accounting diverged: {rel:.4}");
        assert!(number(&b, &["speedup"]).unwrap() > 0.0);
        let name = b.path(&["batched", "name"]).and_then(Json::as_str).unwrap();
        assert!(name.starts_with("batched_midstate"), "{name}");
        for key in [
            "one_keyword_records_per_s",
            "two_predicate_and_records_per_s",
            "vs_large",
        ] {
            assert!(number(&b, &["small_window", key]).unwrap() > 0.0, "{key}");
        }
        for key in ["mac_per_s", "staged_mac_per_s", "vs_staged"] {
            assert!(number(&b, &["mac", key]).unwrap() > 0.0, "{key}");
        }
        for block in ["stages_l2", "stages_full"] {
            for layout in ["rows", "columns"] {
                for stage in ["staging", "mac", "filter"] {
                    let key = format!("{layout}_{stage}_ns");
                    assert!(number(&b, &[block, &key]).unwrap() > 0.0, "{block} {key}");
                }
            }
            assert!(number(&b, &[block, "filter_vs_mac"]).unwrap() > 0.0);
        }
    }

    fn doc(share: f64, lanes: usize, vs_staged: f64) -> Json {
        staged_doc(share, 0.25, lanes, vs_staged)
    }

    fn staged_doc(share: f64, filter_vs_mac: f64, lanes: usize, vs_staged: f64) -> Json {
        Json::obj([
            ("small_window", Json::obj([("vs_large", share.into())])),
            (
                "stages_l2",
                Json::obj([("filter_vs_mac", filter_vs_mac.into())]),
            ),
            (
                "mac",
                Json::obj([("lanes", lanes.into()), ("vs_staged", vs_staged.into())]),
            ),
        ])
    }

    #[test]
    fn gate_holds_small_windows_to_the_floor() {
        assert!(gate(&doc(SMALL_WINDOW_FLOOR, 16, 2.0), Scale::Quick).is_ok());
        let err = gate(&doc(0.18, 16, 2.0), Scale::Full).expect_err("the parent's share must fail");
        assert!(err.contains("0.180"), "{err}");
        assert!(gate(&Json::Null, Scale::Full).is_err(), "block missing");
    }

    #[test]
    fn gate_holds_the_filter_stage_to_a_share_of_the_mac_stage() {
        let at = |ratio| gate(&staged_doc(0.4, ratio, 16, 2.0), Scale::Full);
        assert!(at(FILTER_VS_MAC_CEILING).is_ok());
        // a compaction that branches on the filter bit: 35 ns under 52
        let err = at(0.67).expect_err("the parent's ratio must fail");
        assert!(err.contains("0.670") && err.contains("branching"), "{err}");
    }

    #[test]
    fn gate_holds_the_widest_kernel_to_its_staged_default() {
        assert!(gate(&doc(0.4, 16, MAC_FUSED_FLOOR), Scale::Quick).is_ok());
        // block staging through `compress` is 1.0 by construction
        let err = gate(&doc(0.4, 16, 1.0), Scale::Full).expect_err("the parent's ratio must fail");
        assert!(err.contains("1.000"), "{err}");
        // narrower engines report, ungated
        assert!(gate(&doc(0.4, 8, 1.2), Scale::Full).is_ok());
        assert!(gate(&doc(0.4, 1, 1.0), Scale::Full).is_ok());
        let Json::Obj(mut members) = doc(0.4, 16, 2.0) else {
            unreachable!()
        };
        members.pop();
        assert!(
            gate(&Json::Obj(members), Scale::Full).is_err(),
            "block missing"
        );
    }
}
