//! Multi-predicate queries and dynamic predicate ordering (§5.6.5).
//!
//! A query is a list of predicates combined with AND or OR. The server
//! first matches every predicate against a sample of ~225 records to
//! estimate each predicate's *selectivity* (the bound `|s − s'| ≤ 3/(2√n)`
//! from Chebyshev's inequality gives 0.1 accuracy at n = 225), then orders
//! them: most selective first for AND (fail fast), least selective first
//! for OR (succeed fast). §5.7.1 shows this makes query delay independent
//! of wildcard terms like "the" — the effect `sec5_7_1` reproduces.
//!
//! **One survivor pipeline, two drivers.** [`Matcher`] compiles each
//! trapdoor into a [`PreparedTrapdoor`] (cached HMAC midstates) on first
//! use and matches in two ways:
//!
//! * [`Matcher::matches`] — record at a time, short-circuiting. The
//!   reference every batch path is tested against.
//! * the **survivor pipeline** — `Matcher::advance`, the one chunk state
//!   machine in this crate: *sample sweeps → decide → ordered sweeps*. A
//!   sweep is always the same thing — one predicate, component-major, over
//!   a survivor list (`sweep_begin`, then per trapdoor component *stage the
//!   survivors' nonces → MACs → `component_filter`*) — and the two stages
//!   differ only in what a sweep starts from and what its survivors mean:
//!   - **sample sweeps**, while the predicate order is undecided: the
//!     chunk's share of the first `SELECTIVITY_SAMPLES` records is swept by
//!     *every* predicate in index order, each over all of them (a fresh
//!     survivor list per predicate). A sweep's survivors are that
//!     predicate's sample hits; a sample record matches when all (AND) or
//!     any (OR) of the sweeps kept it. This is the record-at-a-time sample
//!     (`sample_one`, which only the reference path still runs) with its
//!     two loops exchanged: that one also probes every predicate on every
//!     sample record and short-circuits only within a predicate.
//!   - **ordered sweeps**, over the rest of the chunk: predicates run in
//!     the decided order over the records still undecided; an AND sweep's
//!     survivors carry on to the next predicate, an OR sweep's survivors
//!     are matches and the others carry on.
//!
//!   A chunk's matches are emitted in scan order when it closes. A record
//!   leaves a survivor list the moment a predicate settles its fate, so
//!   the pipeline performs *exactly* the probes the scalar short-circuit
//!   path would: results and PRF counts are identical; only the loop
//!   structure (key locality, allocation behaviour, instruction-level
//!   parallelism) changes. A query with one predicate has one possible
//!   order and never samples.
//!
//! **What it reads.** The pipeline scans one *segment* at a time through
//! the crate-private `Corpus` trait — `id(i)`, `nonce(i)`, and the filter
//! bit a codeword addresses (`locate` + `bit`) — and nothing else of a
//! record. A segment is a slice of a store run, read as columns (the
//! nonces lie big-endian in one array, as the MAC kernel takes them, and
//! every filter in one slab), or a `[EncryptedMetadata]`, read through a
//! thin row adapter; the corpus owns the nonces, the pipeline copies the
//! survivors' into its staging buffer. A whole-corpus driver cuts each
//! segment into chunks of [`MATCH_CHUNK`] (4096) records — a sealed run is
//! one chunk, and no chunk straddles two segments. The filter stage
//! (`PreparedTrapdoor::component_filter`) first turns every MAC of a sweep
//! into a bit position and prefetches its word, then compacts the survivor
//! list without branching on the bit.
//!
//! The machine *suspends* wherever it needs MACs — it stages (component
//! key, survivor nonces) and returns — and its drivers compute the staged
//! sweep on the spot, through the single-key lane sweep
//! ([`HmacKey::mac_u64_nonces_with`](roar_crypto::hmac::HmacKey::mac_u64_nonces_with))
//! on the matcher's [`Backend`], then filter by it:
//!
//! 1. [`Matcher::match_batch`] over one caller-supplied chunk;
//! 2. [`match_corpus_with`](crate::engine::match_corpus_with) and
//!    [`QueryTask::run_inline`](crate::xbatch::QueryTask::run_inline) over
//!    a whole corpus, segment by segment. A node runs the latter on the
//!    runtime worker serving a sub-query of at most one chunk, and on a
//!    [`BatchEngine`](crate::xbatch::BatchEngine) worker otherwise.
//!
//! A MAC depends only on its own (key, nonce), so every driver yields the
//! same match set and PRF count by construction.

use crate::bloom_kw::{PreparedTrapdoor, PrfCounter, Trapdoor};
use crate::metadata::{Attr, EncryptedMetadata, MetaEncryptor};
use crate::numeric::Cmp;
use crate::store::Columns;
use roar_crypto::sha1::Backend;

/// The §5.6.5 sample size for selectivity estimation.
pub const SELECTIVITY_SAMPLES: usize = 225;

/// Records per survivor-pipeline chunk on a whole-corpus scan: a sealed
/// run of the store ([`crate::store::RUN_CAP`]) is one chunk, the survivor
/// buffers (four bytes a record) stay in L1, and a predicate's ten-odd
/// ragged sweeps are paid once per 4096 records. Chunk boundaries are
/// observable through probe-order adaptation timing, so every whole-corpus
/// driver uses this one value.
pub const MATCH_CHUNK: usize = crate::store::RUN_CAP;

/// What the survivor pipeline scans: one *segment* — records addressable by
/// position, read a column at a time. A whole-corpus driver scans its
/// segments one after the other (chunks never straddle two); the pipeline
/// touches nothing of a record but these.
pub(crate) trait Corpus {
    fn len(&self) -> usize;
    fn id(&self, i: usize) -> u64;
    /// The record's nonce, big-endian: the MAC kernel's input.
    fn nonce(&self, i: usize) -> [u8; 8];
    /// The bit of record `i`'s filter that codeword `mac` addresses — and a
    /// hint to the cache that the word holding it is about to be read.
    fn locate(&self, i: usize, mac: u64) -> u32;
    /// Is bit `pos` (from [`locate`](Self::locate)) of record `i`'s filter
    /// set?
    fn bit(&self, i: usize, pos: u32) -> bool;
}

/// Hint that `word` is about to be read. A no-op where the target has no
/// such instruction, and under Miri, which does not model it.
#[inline(always)]
fn prefetch(word: &u64) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 is a hint with no architectural effect — it
    // faults on no address, and this one is a live reference; SSE is part
    // of the x86_64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(word).cast());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = word;
}

/// Is bit `pos` of the filter whose first word is `words[first]` set?
#[inline(always)]
fn test_bit(words: &[u64], first: usize, pos: u32) -> bool {
    words[first + (pos / 64) as usize] >> (pos % 64) & 1 != 0
}

/// Rows: a thin adapter, one boxed filter per record.
impl Corpus for [EncryptedMetadata] {
    fn len(&self) -> usize {
        <[EncryptedMetadata]>::len(self)
    }

    fn id(&self, i: usize) -> u64 {
        self[i].id
    }

    fn nonce(&self, i: usize) -> [u8; 8] {
        self[i].body.nonce.to_be_bytes()
    }

    #[inline]
    fn locate(&self, i: usize, mac: u64) -> u32 {
        let filter = &self[i].body.filter;
        let pos = (mac % filter.n_bits() as u64) as u32;
        prefetch(&filter.words()[(pos / 64) as usize]);
        pos
    }

    #[inline]
    fn bit(&self, i: usize, pos: u32) -> bool {
        test_bit(self[i].body.filter.words(), 0, pos)
    }
}

/// Columns: a slice of a store run. The nonces are stored as the kernel
/// reads them and every filter lies in one slab.
impl Corpus for Columns<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    fn nonce(&self, i: usize) -> [u8; 8] {
        self.nonces[i]
    }

    #[inline]
    fn locate(&self, i: usize, mac: u64) -> u32 {
        let (offset, n_bits) = self.spans[i];
        let pos = (mac % u64::from(n_bits)) as u32;
        prefetch(&self.slab[offset as usize + (pos / 64) as usize]);
        pos
    }

    #[inline]
    fn bit(&self, i: usize, pos: u32) -> bool {
        test_bit(self.slab, self.spans[i].0 as usize, pos)
    }
}

/// A plaintext predicate, user side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Content keyword match.
    Keyword(String),
    /// Path component match.
    Path(String),
    /// Numeric inequality on size or mtime.
    Numeric { attr: Attr, cmp: Cmp, value: u64 },
}

/// AND/OR combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    And,
    Or,
}

/// A compiled (encrypted) query: one trapdoor per predicate plus the
/// combiner. This is all the server ever sees.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub trapdoors: Vec<Trapdoor>,
    pub combiner: Combiner,
}

/// User-side query compiler.
pub struct QueryCompiler<'a> {
    enc: &'a MetaEncryptor,
}

impl<'a> QueryCompiler<'a> {
    pub fn new(enc: &'a MetaEncryptor) -> Self {
        QueryCompiler { enc }
    }

    pub fn compile(&self, predicates: &[Predicate], combiner: Combiner) -> CompiledQuery {
        assert!(
            !predicates.is_empty(),
            "a query needs at least one predicate"
        );
        let trapdoors = predicates
            .iter()
            .map(|p| match p {
                Predicate::Keyword(w) => self.enc.query_word(Attr::Keyword, w),
                Predicate::Path(c) => self.enc.query_word(Attr::Path, c),
                Predicate::Numeric { attr, cmp, value } => {
                    self.enc.query_numeric(*attr, *cmp, *value).0
                }
            })
            .collect();
        CompiledQuery {
            trapdoors,
            combiner,
        }
    }
}

/// Where the survivor pipeline stands within its scan.
#[derive(Debug, Default)]
enum Phase {
    /// Open the next chunk (or finish the scan).
    #[default]
    Chunk,
    /// Begin the sweep of predicate `pred_k` (or close the stage: the
    /// sample hands the rest of the chunk to the ordered sweeps, the
    /// ordered sweeps close the chunk).
    Predicate,
    /// Stage component `comp_k` of that sweep (or settle the predicate).
    Component,
}

/// Why [`Matcher::advance`] returned.
pub(crate) enum Step {
    /// A MAC sweep is staged; run [`Matcher::mac_inline`] and
    /// [`Matcher::complete_inline`] before advancing again.
    NeedMacs,
    /// The scan is over.
    Finished,
}

/// The working state of one matching thread (or one sub-query's task):
/// its PRF-count shard plus everything the survivor pipeline keeps between
/// steps — position in the scan, survivor buffers, the staged sweep.
/// Buffers are allocated once and reused across chunks and scans, so
/// steady-state matching allocates nothing.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// PRF (codeword) evaluations accumulated by this thread. Callers flush
    /// it into the shared [`PrfCounter`] when convenient — typically once
    /// per query, never per probe.
    pub prf_calls: u64,
    phase: Phase,
    /// The scan: corpus length, records per chunk, start of the next chunk.
    len: usize,
    chunk: usize,
    next_chunk: usize,
    /// First record of the open stage — the chunk's sample slice, then the
    /// rest of the chunk; survivor indices are relative to it.
    base: usize,
    /// Records of the open chunk under sample sweeps; 0 once the predicate
    /// order is decided.
    sample: usize,
    /// Per sample record, how many predicates' sweeps kept it.
    hits: Vec<u32>,
    /// Position in the predicate order (index order while sampling, the
    /// decided order after), and in that predicate's component probe order.
    pred_k: usize,
    comp_k: usize,
    /// Records of the open stage the sweep under way has not dropped.
    survivors: Vec<u32>,
    /// Double buffer for OR's split of `survivors`.
    spare: Vec<u32>,
    /// Pre-sweep snapshot, for OR's matched/undecided split.
    pre: Vec<u32>,
    /// The filter stage's bit positions, one per survivor.
    positions: Vec<u32>,
    /// The staged sweep: the survivors' nonces and their MAC prefixes.
    nonces: Vec<[u8; 8]>,
    macs: Vec<u64>,
}

impl MatchScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Flush the accumulated PRF count shard into `counter` and reset it.
    pub fn flush_into(&mut self, counter: &PrfCounter) {
        counter.add(self.prf_calls);
        self.prf_calls = 0;
    }

    /// Start a scan of `len` records in chunks of `chunk`.
    pub(crate) fn begin(&mut self, len: usize, chunk: usize) {
        (self.len, self.chunk, self.next_chunk) = (len, chunk, 0);
        self.phase = Phase::Chunk;
    }

    /// Open the ordered stage over the open chunk's records from `base` on.
    fn open_ordered(&mut self) {
        (self.sample, self.pred_k) = (0, 0);
        self.survivors.clear();
        self.survivors
            .extend(0..(self.next_chunk - self.base) as u32);
    }
}

/// Server-side matcher with dynamic predicate ordering. One matcher serves
/// one query (ordering state and prepared trapdoors are per-query and are
/// rebuilt automatically — with their sampling state — when a different
/// query is passed in), as the paper's server does.
pub struct Matcher {
    /// Predicate evaluation order (indices into `trapdoors`), decided after
    /// the sampling phase; `None` while still sampling.
    order: Option<Vec<usize>>,
    /// Match counts per predicate over the sample.
    sample_hits: Vec<usize>,
    sampled: usize,
    /// Enable dynamic ordering (§5.7.1 measures both ways).
    pub dynamic_ordering: bool,
    /// Midstate-cached trapdoors, built on first use from the query.
    prepared: Vec<PreparedTrapdoor>,
    /// Fingerprint of the query the cached state belongs to, so reusing a
    /// matcher with a *different* query rebuilds rather than silently
    /// matching against stale keys.
    prepared_for: Option<u64>,
    /// SHA-1 lane engine the staged sweeps run on.
    backend: Backend,
}

/// Cheap per-call fingerprint of a query: the trapdoor count and the
/// combiner (the predicate order depends on it) mixed with each trapdoor's
/// leading component bytes. Two distinct queries of one shape collide only
/// if every trapdoor's first 8 PRF-image bytes coincide — 2^-64 per
/// trapdoor under a PRF.
fn query_fingerprint(query: &CompiledQuery) -> u64 {
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(0x100000001b3);
    let mut h = mix(0xcbf29ce484222325, query.trapdoors.len() as u64);
    h = mix(h, u64::from(query.combiner == Combiner::Or));
    for td in &query.trapdoors {
        let head = td
            .parts
            .first()
            .map(|p| u64::from_be_bytes(p[..8].try_into().expect("20-byte part")))
            .unwrap_or(0);
        h = mix(h, head);
    }
    h
}

impl Matcher {
    pub fn new(n_predicates: usize, dynamic_ordering: bool) -> Self {
        Matcher {
            // one predicate has one order: nothing to sample for
            order: if dynamic_ordering && n_predicates > 1 {
                None
            } else {
                Some((0..n_predicates).collect())
            },
            sample_hits: vec![0; n_predicates],
            sampled: 0,
            dynamic_ordering,
            prepared: Vec::new(),
            prepared_for: None,
            backend: Backend::auto(),
        }
    }

    /// Pin the SHA-1 lane engine the staged sweeps run on (builder style).
    /// [`Matcher::new`] defaults to the process-wide [`Backend::auto`]
    /// choice; the cluster node and benchmarks use this to force a path.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The lane engine this matcher sweeps with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Compile the query's trapdoors into their midstate-cached form.
    /// Idempotent for the same query; a different query resets the matcher
    /// (prepared keys, ordering state, sample counts) and starts fresh.
    fn ensure_prepared(&mut self, query: &CompiledQuery) {
        let fp = query_fingerprint(query);
        if self.prepared_for == Some(fp) {
            return;
        }
        if self.prepared_for.is_some() {
            // a different query: restart ordering/sampling from scratch
            // (keeping the configured lane backend)
            *self = Matcher::new(query.trapdoors.len(), self.dynamic_ordering)
                .with_backend(self.backend);
        }
        self.prepared = query
            .trapdoors
            .iter()
            .map(|td| PreparedTrapdoor::new_on(td, self.backend))
            .collect();
        self.prepared_for = Some(fp);
    }

    /// Match one record, updating ordering state. Returns whether the
    /// record satisfies the combined query, counting PRF work into the
    /// shared `counter`. This record-at-a-time, short-circuiting path is the
    /// reference the survivor pipeline is tested against.
    pub fn matches(
        &mut self,
        query: &CompiledQuery,
        meta: &EncryptedMetadata,
        counter: &PrfCounter,
    ) -> bool {
        let mut calls = 0u64;
        let hit = self.matches_with(query, meta, &mut calls);
        counter.add(calls);
        hit
    }

    fn matches_with(
        &mut self,
        query: &CompiledQuery,
        meta: &EncryptedMetadata,
        prf_calls: &mut u64,
    ) -> bool {
        self.ensure_prepared(query);
        if self.order.is_none() {
            return self.sample_one(query, meta, prf_calls);
        }
        // AND is settled by its first miss, OR by its first hit
        let settling = query.combiner == Combiner::Or;
        for k in 0..query.trapdoors.len() {
            // index per step: `prepared` needs `&mut` for its probe
            // statistics, so the order vector cannot stay borrowed across
            // the probe
            let i = self.order.as_ref().expect("decided")[k];
            if self.prepared[i].probe(&meta.body, prf_calls) == settling {
                return settling;
            }
        }
        !settling
    }

    /// Sampling phase of the record-at-a-time reference: evaluate every
    /// predicate to learn selectivities ("the matching algorithm initially
    /// runs all the predicates in the query regardless of the binary
    /// function"). The survivor pipeline samples by sweeps instead.
    fn sample_one(
        &mut self,
        query: &CompiledQuery,
        meta: &EncryptedMetadata,
        prf_calls: &mut u64,
    ) -> bool {
        let n = query.trapdoors.len();
        assert!(n <= 64, "sampling phase supports ≤ 64 predicates");
        let mut hit_mask = 0u64;
        for i in 0..n {
            if self.prepared[i].probe(&meta.body, prf_calls) {
                hit_mask |= 1 << i;
                self.sample_hits[i] += 1;
            }
        }
        self.account_sample(1, query.combiner);
        match query.combiner {
            Combiner::And => hit_mask.count_ones() as usize == n,
            Combiner::Or => hit_mask != 0,
        }
    }

    /// Account `n` more sampled records; once the sample is complete,
    /// decide the predicate order from the hit counts.
    fn account_sample(&mut self, n: usize, combiner: Combiner) {
        self.sampled += n;
        if self.sampled >= SELECTIVITY_SAMPLES {
            let mut idx: Vec<usize> = (0..self.sample_hits.len()).collect();
            match combiner {
                // AND: most selective (fewest hits) first
                Combiner::And => idx.sort_by_key(|&i| self.sample_hits[i]),
                // OR: least selective (most hits) first
                Combiner::Or => idx.sort_by_key(|&i| usize::MAX - self.sample_hits[i]),
            }
            self.order = Some(idx);
        }
    }

    /// Match a whole chunk of records, appending the ids of matches to
    /// `out`. Equivalent to calling [`matches`](Self::matches) per record — same results, and same PRF counts while probe orders
    /// are fixed (past a `REORDER_EVERY` crossing, probe-order adaptation
    /// lands on sweep boundaries instead of record boundaries, which can
    /// shift individual short-circuit points by a fraction of a percent) —
    /// but run through the survivor pipeline with `records` as its one
    /// chunk: each predicate's [`PreparedTrapdoor`] sweeps the
    /// still-undecided records component-major, `lanes()` records'
    /// codewords per compression call on the configured SHA-1 [`Backend`],
    /// while a single midstate-cached key stays hot across the whole
    /// chunk. Steady-state, this path performs zero heap allocation beyond
    /// `out`.
    pub fn match_batch(
        &mut self,
        query: &CompiledQuery,
        records: &[EncryptedMetadata],
        scratch: &mut MatchScratch,
        out: &mut Vec<u64>,
    ) {
        self.scan(query, records, records.len(), scratch, out);
    }

    /// The inline driver: scan all of `corpus` in chunks of `chunk` records
    /// on the calling thread, computing every staged sweep on the spot
    /// through the single-key lane sweep.
    pub(crate) fn scan<C: Corpus + ?Sized>(
        &mut self,
        query: &CompiledQuery,
        corpus: &C,
        chunk: usize,
        s: &mut MatchScratch,
        out: &mut Vec<u64>,
    ) {
        s.begin(corpus.len(), chunk);
        while let Step::NeedMacs = self.advance(query, corpus, s, out) {
            self.mac_inline(s);
            self.complete_inline(corpus, s);
        }
    }

    /// The MAC stage: compute the staged sweep — one component key over
    /// the current survivors' nonces — through the single-key lane sweep,
    /// into the scratch's own buffer.
    pub(crate) fn mac_inline(&self, s: &mut MatchScratch) {
        let key = self.prepared[self.predicate(s)].component_key(s.comp_k);
        s.macs.clear();
        s.macs.resize(s.nonces.len(), 0);
        key.mac_u64_nonces_with(self.backend, &s.nonces, &mut s.macs);
    }

    /// The filter stage: filter the survivors by the component's codeword
    /// bits, read from the prefixes [`mac_inline`](Self::mac_inline) left
    /// in the scratch, and move on to the next component.
    pub(crate) fn complete_inline<C: Corpus + ?Sized>(&mut self, corpus: &C, s: &mut MatchScratch) {
        let p = self.predicate(s);
        self.prepared[p].component_filter(
            s.comp_k,
            (corpus, s.base),
            (&mut s.survivors, &s.macs),
            &mut s.positions,
            &mut s.prf_calls,
        );
        s.comp_k += 1;
    }

    /// The survivor pipeline: advance the scan begun with
    /// [`MatchScratch::begin`] until it needs MACs or ends, appending
    /// matches to `out`. The same `query` and `corpus` must be passed on
    /// every step of one scan. See the module docs for the pipeline; this
    /// function is its only implementation.
    pub(crate) fn advance<C: Corpus + ?Sized>(
        &mut self,
        query: &CompiledQuery,
        corpus: &C,
        s: &mut MatchScratch,
        out: &mut Vec<u64>,
    ) -> Step {
        loop {
            match s.phase {
                Phase::Chunk => {
                    if s.next_chunk >= s.len {
                        return Step::Finished;
                    }
                    s.base = s.next_chunk;
                    s.next_chunk = (s.base + s.chunk).min(s.len);
                    self.ensure_prepared(query);
                    s.open_ordered();
                    if self.order.is_none() {
                        // the head of the chunk is (the rest of) the
                        // sample; the ordered stage opens behind it
                        s.sample = (SELECTIVITY_SAMPLES - self.sampled).min(s.survivors.len());
                        s.hits.clear();
                        s.hits.resize(s.sample, 0);
                    }
                    s.phase = Phase::Predicate;
                }
                Phase::Predicate if s.sample > 0 => {
                    let n = query.trapdoors.len();
                    if s.pred_k == n {
                        // every predicate has swept the sample: its matches
                        // are the records all (AND) or any (OR) of them
                        // kept; the rest of the chunk goes through the
                        // ordered sweeps
                        let need = match query.combiner {
                            Combiner::And => n as u32,
                            Combiner::Or => 1,
                        };
                        let kept = s.hits.iter().enumerate().filter(|&(_, &h)| h >= need);
                        out.extend(kept.map(|(i, _)| corpus.id(s.base + i)));
                        self.account_sample(s.sample, query.combiner);
                        s.base += s.sample;
                        s.open_ordered();
                        continue;
                    }
                    // each predicate sees every sample record
                    s.survivors.clear();
                    s.survivors.extend(0..s.sample as u32);
                    self.prepared[s.pred_k].sweep_begin(s.sample);
                    s.comp_k = 0;
                    s.phase = Phase::Component;
                }
                Phase::Predicate => {
                    if s.pred_k == query.trapdoors.len() || s.survivors.is_empty() {
                        // chunk closed. AND: survivors passed every
                        // predicate. OR: survivors matched none, every
                        // other record matched.
                        let id = |i: u32| corpus.id(s.base + i as usize);
                        match query.combiner {
                            Combiner::And => out.extend(s.survivors.iter().map(|&i| id(i))),
                            Combiner::Or => {
                                let all = 0..(s.next_chunk - s.base) as u32;
                                difference(all, &s.survivors, |i| out.push(id(i)));
                            }
                        }
                        s.phase = Phase::Chunk;
                        continue;
                    }
                    if query.combiner == Combiner::Or {
                        s.pre.clear();
                        s.pre.extend_from_slice(&s.survivors);
                    }
                    let p = self.predicate(s);
                    self.prepared[p].sweep_begin(s.survivors.len());
                    s.comp_k = 0;
                    s.phase = Phase::Component;
                }
                Phase::Component => {
                    let p = self.predicate(s);
                    if s.comp_k < self.prepared[p].n_components() && !s.survivors.is_empty() {
                        let nonce = |&i: &u32| corpus.nonce(s.base + i as usize);
                        s.nonces.clear();
                        s.nonces.extend(s.survivors.iter().map(nonce));
                        return Step::NeedMacs;
                    }
                    // predicate settled: the sweep left the records it
                    // matched
                    if s.sample > 0 {
                        self.sample_hits[p] += s.survivors.len();
                        for &i in &s.survivors {
                            s.hits[i as usize] += 1;
                        }
                    } else if query.combiner == Combiner::Or {
                        // OR resolves a record at its first hit (the scalar
                        // short-circuit): only the pre-sweep records this
                        // predicate did not match go on to the next one
                        s.spare.clear();
                        difference(s.pre.iter().copied(), &s.survivors, |i| s.spare.push(i));
                        std::mem::swap(&mut s.survivors, &mut s.spare);
                    }
                    // AND keeps its passers as the survivors
                    s.pred_k += 1;
                    s.phase = Phase::Predicate;
                }
            }
        }
    }

    /// The predicate (index into the query's trapdoors) under sweep.
    fn predicate(&self, s: &MatchScratch) -> usize {
        if s.sample > 0 {
            return s.pred_k;
        }
        self.order.as_ref().expect("order decided")[s.pred_k]
    }

    /// The decided order, if sampling has completed.
    pub fn order(&self) -> Option<&[usize]> {
        self.order.as_deref()
    }
}

/// Feed `emit` the members of ascending `all` that ascending `without`
/// (a subset of it) lacks, in order.
fn difference(all: impl Iterator<Item = u32>, without: &[u32], mut emit: impl FnMut(u32)) {
    let mut without = without.iter().peekable();
    for i in all {
        if without.peek() == Some(&&i) {
            without.next();
        } else {
            emit(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom_kw::BloomKeywordScheme;
    use crate::metadata::FileMeta;
    use rand::Rng;
    use roar_util::det_rng;

    /// Cheap encryptor for bulk test corpora: single-point numeric grids
    /// keep debug-mode HMAC counts low without changing scheme behaviour.
    fn test_encryptor() -> MetaEncryptor {
        MetaEncryptor::with_points(b"user", vec![1_000_000], vec![1_300_000_000])
    }

    fn corpus(enc: &MetaEncryptor, n: usize, seed: u64) -> Vec<EncryptedMetadata> {
        let mut rng = det_rng(seed);
        (0..n)
            .map(|i| {
                let kws: Vec<String> = if i % 10 == 0 {
                    vec!["the".into(), "popular".into(), format!("rare{i}")]
                } else {
                    vec!["the".into(), "popular".into()]
                };
                let size = rng.gen_range(100..1_000_000);
                let mtime = rng.gen_range(1_000_000_000..1_700_000_000);
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/data/file{i}.txt"),
                        keywords: kws,
                        size,
                        mtime,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn and_query_exact() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 400, 161);
        let qc = QueryCompiler::new(&enc);
        let q = qc.compile(
            &[
                Predicate::Keyword("the".into()),
                Predicate::Keyword("rare10".into()),
            ],
            Combiner::And,
        );
        let mut m = Matcher::new(2, true);
        let c = PrfCounter::new();
        let hits: Vec<usize> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| m.matches(&q, d, &c))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![10]);
    }

    #[test]
    fn or_query_unions() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 300, 162);
        let qc = QueryCompiler::new(&enc);
        let q = qc.compile(
            &[
                Predicate::Keyword("rare20".into()),
                Predicate::Keyword("rare30".into()),
            ],
            Combiner::Or,
        );
        let mut m = Matcher::new(2, true);
        let c = PrfCounter::new();
        let hits: Vec<usize> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| m.matches(&q, d, &c))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![20, 30]);
    }

    #[test]
    fn ordering_puts_selective_predicate_first_for_and() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 400, 163);
        let qc = QueryCompiler::new(&enc);
        // predicate 0 = wildcard ("the" matches all), predicate 1 = selective
        let q = qc.compile(
            &[
                Predicate::Keyword("the".into()),
                Predicate::Keyword("nonexistent".into()),
            ],
            Combiner::And,
        );
        let mut m = Matcher::new(2, true);
        let c = PrfCounter::new();
        for d in &docs {
            let _ = m.matches(&q, d, &c);
        }
        assert_eq!(m.order().expect("sampling done"), &[1, 0]);
    }

    #[test]
    fn ordering_reduces_prf_cost_for_wildcards() {
        // §5.7.1: "the xyz" with ordering ≈ "xyz"-only cost; without
        // ordering the wildcard is matched first at full cost
        let enc = test_encryptor();
        let docs = corpus(&enc, 800, 164);
        let qc = QueryCompiler::new(&enc);
        let preds = [
            Predicate::Keyword("the".into()),
            Predicate::Keyword("xyz".into()),
        ];
        let q = qc.compile(&preds, Combiner::And);

        let run = |dynamic: bool| -> u64 {
            let c = PrfCounter::new();
            let mut m = Matcher::new(2, dynamic);
            for d in &docs {
                let _ = m.matches(&q, d, &c);
            }
            c.get()
        };
        let with = run(true);
        let without = run(false); // user order: wildcard first
        assert!(
            (without as f64) > 1.5 * with as f64,
            "ordering should cut PRF cost: {without} vs {with}"
        );
    }

    #[test]
    fn numeric_and_keyword_combined() {
        let enc = test_encryptor();
        let mut rng = det_rng(165);
        let small = enc.encrypt(
            &mut rng,
            &FileMeta {
                path: "/a/s.txt".into(),
                keywords: vec!["report".into()],
                size: 500,
                mtime: 1_500_000_000,
            },
        );
        let big = enc.encrypt(
            &mut rng,
            &FileMeta {
                path: "/a/b.txt".into(),
                keywords: vec!["report".into()],
                size: 50_000_000,
                mtime: 1_500_000_000,
            },
        );
        let qc = QueryCompiler::new(&enc);
        let q = qc.compile(
            &[
                Predicate::Keyword("report".into()),
                Predicate::Numeric {
                    attr: Attr::Size,
                    cmp: Cmp::Greater,
                    value: 1_000_000,
                },
            ],
            Combiner::And,
        );
        let c = PrfCounter::new();
        let mut m = Matcher::new(2, false);
        assert!(!m.matches(&q, &small, &c));
        assert!(m.matches(&q, &big, &c));
    }

    #[test]
    fn static_order_respected() {
        let m = Matcher::new(3, false);
        assert_eq!(m.order().unwrap(), &[0, 1, 2]);
    }

    // ---- batch path equivalence --------------------------------------------

    /// The batch pipeline must return exactly the scalar path's matches and
    /// charge exactly the scalar path's PRF count, for both combiners, with
    /// chunks that do and do not straddle the sampling boundary.
    #[test]
    fn batch_path_equals_scalar_path() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 700, 166);
        let qc = QueryCompiler::new(&enc);
        for (preds, comb) in [
            (
                vec![
                    Predicate::Keyword("the".into()),
                    Predicate::Keyword("rare20".into()),
                ],
                Combiner::And,
            ),
            (
                vec![
                    Predicate::Keyword("rare10".into()),
                    Predicate::Keyword("rare40".into()),
                    Predicate::Keyword("absent".into()),
                ],
                Combiner::Or,
            ),
        ] {
            let q = qc.compile(&preds, comb);

            let mut scalar_matches = Vec::new();
            let c = PrfCounter::new();
            let mut m_scalar = Matcher::new(preds.len(), true);
            for d in &docs {
                if m_scalar.matches(&q, d, &c) {
                    scalar_matches.push(d.id);
                }
            }

            let mut m_batch = Matcher::new(preds.len(), true);
            let mut scratch = MatchScratch::new();
            let mut batch_matches = Vec::new();
            for chunk in docs.chunks(100) {
                m_batch.match_batch(&q, chunk, &mut scratch, &mut batch_matches);
            }

            scalar_matches.sort_unstable();
            batch_matches.sort_unstable();
            assert_eq!(batch_matches, scalar_matches, "{comb:?} matches differ");
            assert_eq!(
                scratch.prf_calls,
                c.get(),
                "{comb:?} PRF accounting differs"
            );
        }
    }

    /// Every available lane backend must produce the scalar-backend match
    /// set and PRF count through the full batch pipeline, for both
    /// combiners — the end-to-end form of the per-component equivalence
    /// pinned in `bloom_kw`.
    #[test]
    fn batch_path_identical_across_backends() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 300, 169);
        let qc = QueryCompiler::new(&enc);
        for comb in [Combiner::And, Combiner::Or] {
            let preds = vec![
                Predicate::Keyword("rare10".into()),
                Predicate::Keyword("rare20".into()),
            ];
            let q = qc.compile(&preds, comb);
            let run = |backend: Backend| {
                let mut m = Matcher::new(preds.len(), true).with_backend(backend);
                assert_eq!(m.backend(), backend);
                let mut scratch = MatchScratch::new();
                let mut got = Vec::new();
                for chunk in docs.chunks(97) {
                    m.match_batch(&q, chunk, &mut scratch, &mut got);
                }
                got.sort_unstable();
                (got, scratch.prf_calls)
            };
            let want = run(Backend::Scalar);
            for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
                assert_eq!(run(backend), want, "{comb:?} on {}", backend.name());
            }
        }
    }

    // ---- sample sweeps vs the record-at-a-time sample ------------------------

    /// Everything the sample decides or leaves behind: the match sequence,
    /// the PRF count, the decided order, the sample's hit counts and every
    /// trapdoor's per-component miss counts.
    type ScanTrace = (Vec<u64>, u64, Option<Vec<usize>>, Vec<usize>, Vec<Vec<u32>>);

    fn trace(m: &Matcher, matches: Vec<u64>, prf_calls: u64) -> ScanTrace {
        let misses = m.prepared.iter().map(|p| p.miss_counts().to_vec());
        (
            matches,
            prf_calls,
            m.order().map(<[usize]>::to_vec),
            m.sample_hits.clone(),
            misses.collect(),
        )
    }

    /// The sample sweeps are the record-at-a-time sample with its loops
    /// exchanged, so nothing observable may differ from a `matches` scan:
    /// not the match *sequence*, not the PRF count, not the decided order or
    /// the statistics it was decided from — for 1–3 predicates, both
    /// combiners, corpora that end before, on and after the sample boundary,
    /// chunkings that split the sample across calls, a whole-corpus scan
    /// that crosses several chunk boundaries, on every backend.
    #[test]
    fn sample_sweeps_equal_record_at_a_time_sample() {
        // the whole-corpus case scans in chunks of this many records; the
        // property is about crossing chunk boundaries, not their size
        const CHUNK: usize = 256;
        let enc = test_encryptor();
        let mut rng = det_rng(170);
        let docs: Vec<EncryptedMetadata> = (0..3 * CHUNK + 133)
            .map(|i| {
                let mut keywords = vec!["the".to_string()];
                if i % 3 == 0 {
                    keywords.push("third".into());
                }
                if i % 10 == 0 {
                    keywords.push(format!("rare{i}"));
                }
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/s/f{i}"),
                        keywords,
                        size: 1000 + i as u64,
                        mtime: 1_500_000_000,
                    },
                )
            })
            .collect();
        let qc = QueryCompiler::new(&enc);
        let words = ["the", "rare10", "third"];
        let backends: Vec<Backend> = Backend::ALL.into_iter().filter(|b| b.available()).collect();
        for n in 1..=3 {
            let preds: Vec<Predicate> =
                (words[..n].iter().map(|w| Predicate::Keyword(w.to_string()))).collect();
            for comb in [Combiner::And, Combiner::Or] {
                let q = qc.compile(&preds, comb);
                for len in [1, 224, 225, 226, 300, docs.len()] {
                    let docs = &docs[..len];
                    let want = {
                        let mut m = Matcher::new(n, true);
                        if n == 1 {
                            assert_eq!(m.order(), Some(&[0][..]), "one predicate, one order");
                        }
                        let c = PrfCounter::new();
                        let hits = docs.iter().filter(|d| m.matches(&q, d, &c));
                        let hits = hits.map(|d| d.id).collect();
                        trace(&m, hits, c.get())
                    };
                    if len >= SELECTIVITY_SAMPLES && n == 3 {
                        let decided = match comb {
                            Combiner::And => [1, 2, 0],
                            Combiner::Or => [0, 2, 1],
                        };
                        assert_eq!(want.2.as_deref(), Some(&decided[..]));
                    }
                    // 0 = the whole corpus in one scan of CHUNK-record chunks
                    for per_call in [0, 100, 97] {
                        for &backend in &backends {
                            let mut m = Matcher::new(n, true).with_backend(backend);
                            let mut s = MatchScratch::new();
                            let mut got = Vec::new();
                            if per_call == 0 {
                                m.scan(&q, docs, CHUNK, &mut s, &mut got);
                            } else {
                                for chunk in docs.chunks(per_call) {
                                    m.match_batch(&q, chunk, &mut s, &mut got);
                                }
                            }
                            assert_eq!(
                                trace(&m, got, s.prf_calls),
                                want,
                                "{n} predicates, {comb:?}, {len} records, {per_call} per call, {}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The decided order belongs to (trapdoors, combiner), not to the
    /// trapdoors alone: the same two under OR must be re-sampled and come
    /// out least-selective-first.
    #[test]
    fn combiner_change_redecides_the_order() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 300, 171);
        let qc = QueryCompiler::new(&enc);
        let preds = [
            Predicate::Keyword("the".into()),
            Predicate::Keyword("rare10".into()),
        ];
        let mut m = Matcher::new(2, true);
        let mut s = MatchScratch::new();
        let mut out = Vec::new();
        m.match_batch(&qc.compile(&preds, Combiner::And), &docs, &mut s, &mut out);
        assert_eq!(m.order(), Some(&[1, 0][..]));
        assert_eq!(out, vec![docs[10].id]);
        out.clear();
        m.match_batch(&qc.compile(&preds, Combiner::Or), &docs, &mut s, &mut out);
        assert_eq!(m.order(), Some(&[0, 1][..]));
        assert_eq!(out.len(), docs.len());
    }

    // ---- single-trapdoor sweep vs scalar probe ------------------------------

    fn scheme() -> BloomKeywordScheme {
        let mut s = BloomKeywordScheme::paper_config(b"user-key");
        s.set_padding(None); // determinism for exact-count tests
        s
    }

    /// `n` records of `words(i)` keywords each, ids = positions.
    fn bloom_corpus(
        s: &BloomKeywordScheme,
        n: usize,
        seed: u64,
        words: impl Fn(usize) -> Vec<String>,
    ) -> Vec<EncryptedMetadata> {
        let mut rng = det_rng(seed);
        (0..n)
            .map(|i| {
                let words = words(i);
                let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                EncryptedMetadata {
                    id: i as u64,
                    body: s.encrypt_metadata(&mut rng, &refs),
                }
            })
            .collect()
    }

    /// One trapdoor as a fixed-order query: `match_batch` then runs nothing
    /// but that trapdoor's sweep over each chunk.
    fn single(td: Trapdoor) -> CompiledQuery {
        CompiledQuery {
            trapdoors: vec![td],
            combiner: Combiner::And,
        }
    }

    /// The sanctioned divergence past the adaptation threshold: once a
    /// trapdoor crosses `REORDER_EVERY` probes, the sweep's
    /// sweep-boundary reordering may shift *which* probes short-circuit
    /// versus the scalar path's record-boundary reordering — but the match
    /// set must stay identical and the PRF counts within a sliver of each
    /// other (the expectation is unchanged; only probes between the two
    /// reorder points can differ).
    #[test]
    fn probe_filter_reorder_contract() {
        let s = scheme();
        let docs = bloom_corpus(&s, 6000, 122, |i| {
            let mut words: Vec<String> = (0..6).map(|k| format!("r{i}-{k}")).collect();
            if i % 101 == 0 {
                words.push("planted".into());
            }
            words
        });
        let td = s.trapdoor("planted");
        // scalar oracle: > REORDER_EVERY probes, reorders mid-stream
        let mut oracle = PreparedTrapdoor::new(&td);
        let mut want_calls = 0u64;
        let want: Vec<u64> = (0..docs.len())
            .filter(|&i| oracle.probe(&docs[i].body, &mut want_calls))
            .map(|i| i as u64)
            .collect();
        // lane sweep in chunks, reorders at sweep boundaries
        let q = single(td);
        let mut m = Matcher::new(1, false);
        let mut scratch = MatchScratch::new();
        let mut got: Vec<u64> = Vec::new();
        // misaligned with REORDER_EVERY on purpose
        for chunk in docs.chunks(999) {
            m.match_batch(&q, chunk, &mut scratch, &mut got);
        }
        let calls = scratch.prf_calls;
        assert_eq!(got, want, "match set must never depend on reorder timing");
        let drift = calls.abs_diff(want_calls) as f64 / want_calls as f64;
        assert!(
            drift < 1e-3,
            "PRF counts may shift only around reorder points: \
             sweep {calls} vs scalar {want_calls} ({drift:.5})"
        );
    }

    /// The lane-batched survivor sweep must keep exactly the records the
    /// scalar probe keeps and charge exactly the scalar PRF count, on every
    /// available backend and at survivor counts that leave ragged lane
    /// tails. (Exact parity holds below the `REORDER_EVERY` threshold —
    /// `probe_filter_reorder_contract` covers the crossing.)
    #[test]
    fn probe_filter_equals_scalar_probe_on_all_backends() {
        let s = scheme();
        let docs = bloom_corpus(&s, 37, 121, |i| {
            let mut words: Vec<String> = (0..8).map(|k| format!("d{i}-{k}")).collect();
            if i % 5 == 0 {
                words.push("shared".into());
            }
            words
        });
        for probe_word in ["shared", "d3-4", "absent"] {
            let td = s.trapdoor(probe_word);
            for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
                // scalar oracle
                let mut oracle = PreparedTrapdoor::new(&td);
                let mut want_calls = 0u64;
                let want: Vec<u64> = (0..docs.len())
                    .filter(|&i| oracle.probe(&docs[i].body, &mut want_calls))
                    .map(|i| i as u64)
                    .collect();
                // lane sweep
                let mut m = Matcher::new(1, false).with_backend(backend);
                let mut scratch = MatchScratch::new();
                let mut survivors: Vec<u64> = Vec::new();
                m.match_batch(&single(td.clone()), &docs, &mut scratch, &mut survivors);
                let calls = scratch.prf_calls;
                assert_eq!(survivors, want, "{probe_word} on {}", backend.name());
                assert_eq!(calls, want_calls, "{probe_word} on {}", backend.name());
                assert_eq!(
                    m.prepared[0].miss_counts(),
                    oracle.miss_counts(),
                    "{probe_word} on {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn reusing_matcher_with_new_query_rebuilds_prepared_keys() {
        // regression: the prepared-trapdoor cache must be keyed on the
        // query, not merely its arity — a second query of the same shape
        // must not be matched against the first query's keys
        let enc = test_encryptor();
        let docs = corpus(&enc, 30, 168);
        let qc = QueryCompiler::new(&enc);
        let q1 = qc.compile(&[Predicate::Keyword("rare10".into())], Combiner::And);
        let q2 = qc.compile(&[Predicate::Keyword("rare20".into())], Combiner::And);
        let c = PrfCounter::new();
        let mut m = Matcher::new(1, false);
        let hits1: Vec<usize> = (0..docs.len())
            .filter(|&i| m.matches(&q1, &docs[i], &c))
            .collect();
        let hits2: Vec<usize> = (0..docs.len())
            .filter(|&i| m.matches(&q2, &docs[i], &c))
            .collect();
        assert_eq!(hits1, vec![10]);
        assert_eq!(hits2, vec![20], "stale prepared keys leaked across queries");
    }

    #[test]
    fn batch_path_without_dynamic_ordering() {
        let enc = test_encryptor();
        let docs = corpus(&enc, 150, 167);
        let qc = QueryCompiler::new(&enc);
        let q = qc.compile(&[Predicate::Keyword("rare20".into())], Combiner::And);
        let mut m = Matcher::new(1, false); // order fixed up front: pure batch
        let mut scratch = MatchScratch::new();
        let mut got = Vec::new();
        m.match_batch(&q, &docs, &mut scratch, &mut got);
        assert_eq!(got, vec![docs[20].id]);
        assert!(scratch.prf_calls > 0);
        scratch.flush_into(&PrfCounter::new());
        assert_eq!(scratch.prf_calls, 0);
    }
}
