//! The four workloads and the inputs each one is a pure function of.
//!
//! `--seed` is the only source of randomness: corpus, query list, arrival
//! schedule and write schedule all derive from it, and the program under
//! test receives nothing else.

use crate::stats::Fnv64;
use roar_cluster::{QueryBody, SchedOpts, TransportSpec, WireTrapdoor};
use roar_pps::metadata::{EncryptedMetadata, MetaEncryptor};
use roar_pps::query::{Combiner, CompiledQuery, Predicate, QueryCompiler};
use roar_util::{det_rng, Zipf};
use roar_workload::corpus::VOCABULARY;
use roar_workload::{fast_random_metadata, Arrival, CorpusGenerator, OpenLoopGen, QueryGenerator};

/// Rounds per measured window; every timed metric is the median over them.
pub const ROUNDS: usize = 6;
/// Warm-up under the workload's own load shape before the first round.
pub const WARMUP_S: f64 = 2.0;
/// Distinct queries per workload (cycled by closed loops, ranked by
/// popularity in the open loop).
pub const QUERIES: usize = 64;
/// Latency limit of the open loop, from due time; a query that resolves
/// later failed. One second, not the 50 ms first planned: the reference
/// box itself stops for 50–170 ms about once every 40 s (a bare spin loop
/// shows it), the fixed-RTO endpoint's 40 ms retry budget turns such a
/// stop into 100–400 ms for the queries caught in it, and at 50 ms half of
/// all runs failed for a reason outside the program. One second is beyond
/// what the box does and still short of the front-end's 5 s sub-query
/// timeout; the tail below it is what `query_p90_ms` and
/// `client.query_p99_ms` are for.
pub const OPEN_LIMIT_MS: f64 = 1000.0;
/// Offered rate of `open_udp`, fixed so that every commit is offered the
/// same load: 20 % of what two closed-loop clients completed on the
/// reference box (296–310 queries/s over seeds 13–15, both cores busy).
/// Calibrated once. Low on purpose: one query keeps both cores matching
/// for ≈ 4 ms, and Poisson arrivals at 60/s bring ten of them inside 40 ms
/// about once per run.
pub const OPEN_RATE_PER_S: f64 = 60.0;
/// `ingest_reconfig`: one batch of `WRITE_BATCH` records every period —
/// 64 records/s, so the store grows by 6 % over the window and the six
/// rounds stay comparable; a batch is late (failed) if it is still running
/// when the next is due. Beside a `set_p` decrease a batch takes up to
/// 250 ms, which is why the period is not shorter.
pub const WRITE_PERIOD_MS: u64 = 500;
pub const WRITE_BATCH: usize = 32;
/// Real (fully encrypted) records per write batch; the rest is filler.
const WRITE_BATCH_REAL: usize = 4;
/// `ingest_reconfig`: `set_p(p + 1)` and `set_p(p)` at these fractions of
/// every round. The decrease takes 1.5–2 s of a 4 s round; starting it at
/// 0.3 lets it end inside the round it began in, so every round holds one
/// whole cycle.
pub const SET_P_UP_AT: f64 = 0.1;
pub const SET_P_DOWN_AT: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// `QueryGenerator::realistic`: 1–2 keywords, sometimes a size or date
    /// constraint, AND or OR.
    Realistic,
    /// One Zipf-ranked corpus keyword.
    SingleKeyword,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each client sends its next query when the previous one resolved.
    Closed { clients: usize },
    /// Poisson arrivals at a fixed rate, timed from their due time.
    Open { rate_per_s: f64 },
    /// One closed query client beside a paced writer and a repartitioner.
    Ingest,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `tcp`, `udp` or `ccudp`: a name `TransportSpec::from_name` knows.
    pub transport: &'static str,
    pub n: usize,
    pub p: usize,
    /// Corpus size, of which `real_records` go through `MetaEncryptor`.
    pub records: usize,
    pub real_records: usize,
    pub queries: QueryKind,
    pub load: Load,
    /// `SchedOpts::max_splits` of every query: the paper's 2, or 0 over
    /// TCP, where a split sends a node a second sub-query of the same
    /// query and its second reply waits out the 40 ms Nagle / delayed-ACK
    /// stall described at `run::set_up`.
    pub max_splits: usize,
    /// Pinned query partitioning level, or `None` for the front-end's own
    /// `safe_pq()`.
    pub pq: Option<usize>,
}

/// Full encryption costs ~1.9 ms per record (300 padded words × 17 PRF
/// images), so a corpus is a fully encrypted core that the queries can
/// match plus `fast_random_metadata` filler: random half-set filters that a
/// trapdoor probes — and misses — at exactly the cost of a real padded
/// record. Matching is real on every record; only set-up is shortened.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "scan_heavy",
        why: "30 k records per sub-query: over 80 % of wall time is node proc_s, so crypto, pps and xbatch gains show here; transport, codec and planner changes must not move it",
        transport: "tcp",
        n: 4,
        p: 2,
        records: 60_000,
        real_records: 512,
        queries: QueryKind::Realistic,
        load: Load::Closed { clients: 2 },
        max_splits: 0,
        pq: None,
    },
    Spec {
        name: "fanout_tcp",
        why: "16 sub-queries of 256 records, the paper's per-sub-query start-up cost: matching is 10 % of node time, so plan, proto, transport, wake-ups, dispatch, admission and merge show here; SIMD gains do not",
        transport: "tcp",
        n: 16,
        p: 16,
        records: 4_096,
        real_records: 1_024,
        queries: QueryKind::SingleKeyword,
        load: Load::Closed { clients: 2 },
        max_splits: 0,
        pq: None,
    },
    Spec {
        name: "open_udp",
        why: "open-loop Poisson arrivals at 20 % of capacity over the fixed-RTO datagram endpoint, r = 2 so Algorithm 1 has a replica choice: idle gaps, timers, acks, chunking; latency counted from due time",
        transport: "udp",
        n: 8,
        p: 4,
        records: 16_384,
        real_records: 1_024,
        queries: QueryKind::Realistic,
        load: Load::Open {
            rate_per_s: OPEN_RATE_PER_S,
        },
        max_splits: 2,
        pq: None,
    },
    Spec {
        name: "ingest_reconfig",
        why: "queries beside paced writes and p toggling 2<->3 over ccudp: live repartitioning, the copy-on-write store's worst case, chunked sends through the AIMD window; starved writes show as late batches",
        transport: "ccudp",
        n: 6,
        p: 2,
        records: 24_000,
        real_records: 512,
        queries: QueryKind::Realistic,
        load: Load::Ingest,
        max_splits: 2,
        // p + 1, the larger of the two levels p toggles between: the
        // front-end reads the ring and `safe_pq()` one after the other, and
        // a query planned while a decrease commits between the two reads
        // dies on `pq must be ≥ p` (seen once in ≈ 400 decreases); at the
        // larger level every plan is valid against either ring
        pq: Some(3),
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The paper's scheduler options with this workload's two overrides.
    pub fn sched(&self) -> SchedOpts {
        SchedOpts {
            max_splits: self.max_splits,
            pq: self.pq,
            ..SchedOpts::paper()
        }
    }

    pub fn transport_spec(&self) -> TransportSpec {
        TransportSpec::from_name(self.transport).expect("workload names a known transport")
    }

    /// Records per `Admin::store_records` call at set-up. The datagram
    /// endpoints move one request as a burst of ~1 kB chunks; past a few
    /// dozen records per node that burst overruns the loopback socket
    /// buffer and every store waits out retransmission timers.
    pub fn store_batch(&self) -> usize {
        if self.transport == "tcp" {
            8192
        } else {
            128
        }
    }

    /// Write batches a measured window of `seconds` consumes.
    pub fn write_batches(&self, seconds: f64) -> usize {
        match self.load {
            Load::Ingest => (seconds * 1e3 / WRITE_PERIOD_MS as f64).ceil() as usize,
            _ => 0,
        }
    }
}

/// Everything the program under test is handed.
pub struct Inputs {
    /// Base corpus, sorted by id (stored at set-up).
    pub corpus: Vec<EncryptedMetadata>,
    pub queries: Vec<CompiledQuery>,
    /// Open loop: arrivals over warm-up + measured window, `at_s` from the
    /// start of the warm-up.
    pub arrivals: Vec<Arrival>,
    /// `ingest_reconfig`: batch `k` is due `k × WRITE_PERIOD_MS` into the
    /// measured window.
    pub batches: Vec<Vec<EncryptedMetadata>>,
    /// FNV-1a over corpus ids and nonces, query trapdoors, the arrival
    /// schedule and the write batches.
    pub fnv64: u64,
}

const KEY: &[u8] = b"roar-benchmark";
/// Real records are encrypted in chunks with one RNG stream each, so the
/// output does not depend on how many threads share the work.
const ENCRYPT_CHUNK: usize = 32;

/// `f(0) .. f(items − 1)` in order, computed on every core: item `i` goes
/// to thread `i mod threads`, so each result depends on `i` alone.
fn par_map<T: Send>(items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..items)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// `count` fully encrypted records, deterministic in `seed`.
fn encrypt_real(enc: &MetaEncryptor, seed: u64, count: usize) -> Vec<EncryptedMetadata> {
    let gen = CorpusGenerator::new();
    par_map(count.div_ceil(ENCRYPT_CHUNK), |chunk| {
        let mut rng = det_rng(seed ^ ((chunk as u64 + 1) << 32));
        let (lo, hi) = (
            chunk * ENCRYPT_CHUNK,
            ((chunk + 1) * ENCRYPT_CHUNK).min(count),
        );
        (lo..hi)
            .map(|idx| {
                let file = gen.file(&mut rng, idx);
                enc.encrypt(&mut rng, &file)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The shape of the realistic query at each list position: `(predicates,
/// is OR)`. `QueryGenerator::realistic` draws 1–3 predicates and AND/OR at
/// random; a 64-query list drawn freely has a different mix — and so a
/// different matching cost — for every seed. The list therefore fixes the
/// mix at the generator's own expectation (28 % one predicate, 54 % two,
/// 18 % three; 15 % of the multi-predicate ones OR) and the position of
/// each shape, and lets the seed choose only keywords, attributes and
/// values: every seed costs the same, and rank *k* of the open loop's
/// popularity law always has the same shape.
fn realistic_shapes() -> [(usize, bool); QUERIES] {
    let quota = [
        ((1, false), 18),
        ((2, false), 29),
        ((2, true), 5),
        ((3, false), 10),
        ((3, true), 2),
    ];
    let by_shape: Vec<(usize, bool)> = quota
        .iter()
        .flat_map(|&(shape, n)| std::iter::repeat_n(shape, n))
        .collect();
    // a stride coprime with 64 spreads every shape over the whole list
    std::array::from_fn(|i| by_shape[i * 37 % QUERIES])
}

fn compile_queries(enc: &MetaEncryptor, kind: QueryKind, seed: u64) -> Vec<CompiledQuery> {
    let mut rng = det_rng(seed ^ 0x51);
    let qc = QueryCompiler::new(enc);
    let gen = QueryGenerator::new();
    // queries skew more popular than documents, as QueryGenerator does
    let zipf = Zipf::new(VOCABULARY, 1.2);
    let shapes = realistic_shapes();
    (0..QUERIES)
        .map(|i| match kind {
            QueryKind::Realistic => loop {
                let (preds, combiner) = gen.realistic(&mut rng);
                let (n, or) = shapes[i];
                if preds.len() == n && (n == 1 || (combiner == Combiner::Or) == or) {
                    break qc.compile(&preds, combiner);
                }
            },
            QueryKind::SingleKeyword => qc.compile(
                &[Predicate::Keyword(CorpusGenerator::keyword(
                    zipf.sample(&mut rng),
                ))],
                Combiner::And,
            ),
        })
        .collect()
}

/// The open loop's arrival schedule: the seeded Poisson process of
/// `OpenLoopGen`, conditioned on its count. Left free, the number of
/// arrivals in a 4 s round varies by ±6 % from seed to seed, and with it
/// every queue (`query_p90_ms` over a few seeds in one quiet spell:
/// 10.4–13.1 ms free, 10.5–10.7 ms conditioned); here the warm-up and
/// each round receive exactly `rate × length` arrivals, every seed offers
/// the same load, and within a segment the spacing is still Poisson —
/// `count + 1` consecutive exponential gaps of the generator, scaled to
/// fill the segment, which is the process given that `count` arrivals fell
/// in it.
fn conditioned_arrivals(rate_per_s: f64, seed: u64, seconds: f64) -> Vec<Arrival> {
    let round_s = seconds / ROUNDS as f64;
    let segments = std::iter::once((0.0, WARMUP_S))
        .chain((0..ROUNDS).map(|r| (WARMUP_S + r as f64 * round_s, round_s)));
    // twice the horizon: the generator running short is then a ≫ 10 σ event
    let raw = OpenLoopGen::constant(rate_per_s, seed)
        .popularity(QUERIES, 1.0)
        .schedule(2.0 * (WARMUP_S + seconds) + 10.0);
    let mut raw = raw.iter();
    let mut last_s = 0.0;
    let mut gap_and_rank = || {
        let a = raw.next().expect("generator horizon covers the schedule");
        let gap = a.at_s - last_s;
        last_s = a.at_s;
        (gap, a.rank)
    };
    let mut arrivals = Vec::new();
    for (start_s, len_s) in segments {
        let count = (rate_per_s * len_s).round() as usize;
        let gaps: Vec<(f64, usize)> = (0..=count).map(|_| gap_and_rank()).collect();
        let scale = len_s / gaps.iter().map(|g| g.0).sum::<f64>();
        let mut at_s = start_s;
        for &(gap, rank) in &gaps[..count] {
            at_s += gap * scale;
            arrivals.push(Arrival { at_s, rank });
        }
    }
    arrivals
}

pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let enc = MetaEncryptor::new(KEY);
    let n_batches = spec.write_batches(seconds);
    let mut real = encrypt_real(&enc, seed, spec.real_records + n_batches * WRITE_BATCH_REAL);
    let mut filler_rng = det_rng(seed ^ 0xF1);
    let batches: Vec<Vec<EncryptedMetadata>> = (0..n_batches)
        .map(|_| {
            let mut batch = real.split_off(real.len() - WRITE_BATCH_REAL);
            batch.extend(fast_random_metadata(
                &mut filler_rng,
                WRITE_BATCH - WRITE_BATCH_REAL,
            ));
            batch
        })
        .collect();
    let mut corpus = real;
    corpus.extend(fast_random_metadata(
        &mut filler_rng,
        spec.records - spec.real_records,
    ));
    // id order makes every node's set-up inserts appends; arrival order is
    // what the write batches exercise
    corpus.sort_by_key(|r| r.id);
    let queries = compile_queries(&enc, spec.queries, seed);
    let arrivals = match spec.load {
        Load::Open { rate_per_s } => conditioned_arrivals(rate_per_s, seed, seconds),
        _ => Vec::new(),
    };

    let mut h = Fnv64::default();
    for r in corpus.iter().chain(batches.iter().flatten()) {
        h.word(r.id);
        h.word(r.body.nonce);
    }
    for q in &queries {
        h.word(q.trapdoors.len() as u64);
        h.word(u64::from(q.combiner == Combiner::And));
        for part in q.trapdoors.iter().flat_map(|td| td.parts.iter()) {
            h.bytes(part);
        }
    }
    for a in &arrivals {
        h.word(a.at_s.to_bits());
        h.word(a.rank as u64);
    }
    h.word(batches.len() as u64);
    Inputs {
        corpus,
        queries,
        arrivals,
        batches,
        fnv64: h.finish(),
    }
}

pub fn body_of(q: &CompiledQuery) -> QueryBody {
    QueryBody::Pps {
        trapdoors: q
            .trapdoors
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect(),
        conjunctive: q.combiner == Combiner::And,
    }
}

/// Expected answers, computed with `roar_pps::engine::match_corpus` over
/// the whole corpus — the sequential reference the cluster must agree with.
pub struct Oracle {
    /// Sorted matching ids of the base corpus, per query.
    pub base: Vec<Vec<u64>>,
    /// Per query, sorted `(id, batch)` for every write-batch record that
    /// matches it.
    pub written: Vec<Vec<(u64, usize)>>,
    /// PRF evaluations the reference spent per record scanned — a count
    /// that must repeat exactly for one seed.
    pub prf_calls_per_record: f64,
}

pub fn oracle(inputs: &Inputs) -> Oracle {
    let mut prf = 0;
    let (mut base, mut written) = (Vec::new(), Vec::new());
    let per_query = par_map(inputs.queries.len(), |i| {
        let q = &inputs.queries[i];
        let (mut base, prf) = roar_pps::engine::match_corpus(&inputs.corpus, q);
        base.sort_unstable();
        let mut written: Vec<(u64, usize)> = inputs
            .batches
            .iter()
            .enumerate()
            .flat_map(|(b, recs)| {
                let (ids, _) = roar_pps::engine::match_corpus(recs, q);
                ids.into_iter().map(move |id| (id, b))
            })
            .collect();
        written.sort_unstable();
        (base, written, prf)
    });
    for (b, w, calls) in per_query {
        base.push(b);
        written.push(w);
        prf += calls;
    }
    let scanned = (inputs.corpus.len() * inputs.queries.len()).max(1);
    Oracle {
        base,
        written,
        prf_calls_per_record: prf as f64 / scanned as f64,
    }
}

impl Oracle {
    /// Is `answer` (sorted, deduplicated) right for query `q`, given that
    /// write batches `0..batches_due` may have landed? Every base match
    /// must be there; anything else must come from a batch already due.
    pub fn accepts(&self, q: usize, answer: &[u64], batches_due: usize) -> bool {
        let (base, written) = (&self.base[q], &self.written[q]);
        let mut base_seen = 0;
        for id in answer {
            if base.binary_search(id).is_ok() {
                base_seen += 1;
            } else {
                match written.binary_search_by_key(id, |&(wid, _)| wid) {
                    Ok(i) if written[i].1 < batches_due => {}
                    _ => return false,
                }
            }
        }
        base_seen == base.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            records: 200,
            real_records: 40,
            ..WORKLOADS[3]
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = generate(&tiny(), 7, 1.0);
        let b = generate(&tiny(), 7, 1.0);
        let c = generate(&tiny(), 8, 1.0);
        assert_eq!(a.fnv64, b.fnv64);
        assert_ne!(a.fnv64, c.fnv64);
        assert_eq!(a.corpus.len(), 200);
        assert_eq!(a.batches.len(), 2);
        assert!(a.batches.iter().all(|b| b.len() == WRITE_BATCH));
        assert!(a.corpus.windows(2).all(|w| w[0].id <= w[1].id));
    }

    #[test]
    fn open_loop_schedule_covers_warmup_and_window() {
        let spec = Spec {
            records: 64,
            real_records: 32,
            ..WORKLOADS[2]
        };
        let inputs = generate(&spec, 3, 6.0);
        let last = inputs.arrivals.last().expect("arrivals").at_s;
        assert!(last < WARMUP_S + 6.0 && last > WARMUP_S + 5.0);
        assert!(inputs.arrivals.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        // every 1 s round is offered exactly the rate
        for r in 0..ROUNDS {
            let (lo, hi) = (WARMUP_S + r as f64, WARMUP_S + r as f64 + 1.0);
            let n = inputs
                .arrivals
                .iter()
                .filter(|a| a.at_s >= lo && a.at_s < hi)
                .count();
            assert_eq!(n, OPEN_RATE_PER_S as usize, "round {r}");
        }
        assert!(inputs
            .arrivals
            .iter()
            .all(|a| (1..=QUERIES).contains(&a.rank)));
    }

    #[test]
    fn realistic_queries_have_the_same_shapes_for_every_seed() {
        let shapes = realistic_shapes();
        assert_eq!(shapes.iter().filter(|s| s.0 == 1).count(), 18);
        assert_eq!(shapes.iter().filter(|s| s.1).count(), 7);
        let enc = MetaEncryptor::new(KEY);
        for seed in [1, 2] {
            let qs = compile_queries(&enc, QueryKind::Realistic, seed);
            for (q, (n, or)) in qs.iter().zip(shapes) {
                assert_eq!(q.trapdoors.len(), n);
                assert!(n == 1 || (q.combiner == Combiner::Or) == or);
            }
        }
    }

    #[test]
    fn oracle_accepts_base_and_only_due_writes() {
        let o = Oracle {
            base: vec![vec![10, 20, 30]],
            written: vec![vec![(15, 0), (25, 3)]],
            prf_calls_per_record: 0.0,
        };
        assert!(o.accepts(0, &[10, 20, 30], 0));
        assert!(!o.accepts(0, &[10, 30], 9), "a base match is missing");
        assert!(o.accepts(0, &[10, 15, 20, 30], 1));
        assert!(!o.accepts(0, &[10, 15, 20, 30], 0), "batch 0 not due yet");
        assert!(!o.accepts(0, &[10, 20, 25, 30], 3), "batch 3 not due yet");
        assert!(o.accepts(0, &[10, 20, 25, 30], 4));
        assert!(!o.accepts(0, &[10, 20, 30, 99], 9), "unknown id");
    }

    #[test]
    fn oracle_matches_real_records() {
        let inputs = generate(&tiny(), 11, 0.5);
        let o = oracle(&inputs);
        assert_eq!(o.base.len(), QUERIES);
        assert!(o.base.iter().any(|m| !m.is_empty()), "some query matches");
        assert!(o.prf_calls_per_record > 1.0);
    }
}
