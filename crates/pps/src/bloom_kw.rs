//! Bloom-filter keyword matching (§5.5.2), after Goh \[Goh03a\].
//!
//! The user derives `r` independent PRFs `F_{k_1} … F_{k_r}` (the paper's
//! r = 17 for a 1-in-100,000 false-positive rate). A query (trapdoor) for
//! word `w` is `x = (F_{k_1}(w), …, F_{k_r}(w))`. A document's metadata is
//! a Bloom filter over *codewords*: following Goh, each codeword re-keys
//! the trapdoor component with the document's fresh nonce as
//! `y_j = F_{x_j}(nonce)`, so identical words yield different filter bits
//! in different documents — the server cannot correlate documents by their
//! bits.
//!
//! **Hot-path orientation.** Keying the codeword PRF by the trapdoor
//! component (not by the nonce) is what makes the midstate-cached fast path
//! possible: the `x_j` are per-query constants, so their HMAC inner/outer
//! midstates ([`HmacKey`]) are computed once per query and amortised over
//! every record scanned, leaving exactly 2 SHA-1 compressions per codeword
//! probe and zero allocation. [`PreparedTrapdoor`] is that cached form;
//! [`BloomKeywordScheme::matches`] is the compatible unprepared path and
//! [`BloomKeywordScheme::matches_reference`] the no-midstate scalar
//! baseline the benchmarks compare against. All three are bit-identical.
//!
//! The same key-per-component constancy is what the SIMD layer exploits.
//! A [`PreparedTrapdoor`] also exposes its probe as *sweep steps* —
//! `sweep_begin`, then per component `component_key` /
//! `component_filter` — so the survivor pipeline ([`crate::query`]) can
//! walk one component's key across a whole survivor list with a multi-lane
//! SHA-1 engine ([`roar_crypto::sha1::Sha1Lanes`]), evaluating `lanes()`
//! records' codewords per compression call: the 2-compressions-per-probe
//! cost divided by the lane width, still bit- and count-identical to the
//! scalar [`PreparedTrapdoor::probe`].
//!
//! CPU cost model (verified in tests): a non-matching probe computes ~2
//! codeword hashes on average before a miss bit is found; a matching probe
//! computes all `r`. This is the "2.5 SHA-1 applications per metadata"
//! arithmetic of §5.7.

use crate::query::Corpus;
use rand::Rng;
use roar_crypto::bloom::{BloomFilter, BloomParams};
use roar_crypto::hmac::{hmac_sha1, HmacKey};
use roar_crypto::prf::{HmacPrf, Prf};
use roar_crypto::sha1::Backend;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared PRF call counter for cost accounting.
///
/// **Counting point (§5.7):** exactly one count per *codeword evaluation*,
/// i.e. per Bloom-position PRF application during matching — charged before
/// the filter bit is tested, so a probe that short-circuits after its j-th
/// codeword adds j. Trapdoor creation, key derivation and
/// [`PreparedTrapdoor`] construction are *not* counted: the paper's
/// "2.5 SHA-1 applications per metadata" figure is per-record matching
/// work, and per-query setup amortises to zero. Every matching path
/// (reference scalar, unprepared, prepared/batched) charges identically,
/// which the `prf_accounting` tests pin down.
///
/// The engine's consumer threads do not touch this shared counter per
/// probe; they accumulate into a thread-local `u64` (see
/// [`crate::query::MatchScratch`]) and [`add`](Self::add) the shard total
/// once at the end, so the reported numbers are unchanged while the hot
/// loop stays free of atomic traffic.
#[derive(Debug, Default)]
pub struct PrfCounter(AtomicU64);

impl PrfCounter {
    pub fn new() -> Self {
        PrfCounter(AtomicU64::new(0))
    }

    pub fn add(&self, k: u64) {
        // ORDERING: Relaxed — instrumentation counter bump; count matters,
        // ordering does not
        self.0.fetch_add(k, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — instrumentation counter read; no other memory
        // is synchronised through it
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        // ORDERING: Relaxed — instrumentation counter reset; callers
        // serialise reset-vs-measure phases themselves
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A keyword trapdoor: the `r` PRF images of the word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trapdoor {
    pub parts: Vec<[u8; 20]>,
}

/// Upper bound on hash functions a [`PreparedTrapdoor`] supports. The
/// paper's parameterisations use r ≤ 17; 32 leaves slack for experiments
/// while keeping the prepared form a fixed-size stack value.
pub const MAX_R: usize = 32;

/// A trapdoor compiled for the matching hot path: one [`HmacKey`]
/// (cached HMAC midstates) per component, held in a fixed-size array, plus
/// a cheapest-miss-first probe order.
///
/// Probing is allocation-free and costs 2 SHA-1 compressions per codeword.
/// The probe order is adapted from observed per-component miss counts:
/// components that reject records most often are probed first, so
/// non-matching records (the overwhelming majority) short-circuit as early
/// as the corpus allows. Reordering never changes the match result — a
/// record matches iff *all* component bits are set — only the expected
/// probe count.
#[derive(Debug, Clone)]
pub struct PreparedTrapdoor {
    keys: [HmacKey; MAX_R],
    order: [u8; MAX_R],
    miss: [u32; MAX_R],
    len: u8,
    probes_since_reorder: u32,
}

/// How many probes between probe-order refreshes.
const REORDER_EVERY: u32 = 4096;

impl PreparedTrapdoor {
    /// Prepare `td` on the process-default ([`Backend::auto`]) lane engine.
    pub fn new(td: &Trapdoor) -> Self {
        Self::new_on(td, Backend::auto())
    }

    /// Prepare `td` on `backend`: the 2r pad blocks of its r component keys
    /// go through the lane engine together ([`HmacKey::prepare`]) — the
    /// per-sub-query start-up cost a small window cannot amortise.
    pub(crate) fn new_on(td: &Trapdoor, backend: Backend) -> Self {
        assert!(
            td.parts.len() <= MAX_R,
            "trapdoor has {} parts, PreparedTrapdoor supports ≤ {MAX_R}",
            td.parts.len()
        );
        PreparedTrapdoor {
            keys: HmacKey::prepare(backend, &td.parts),
            order: core::array::from_fn(|i| i as u8),
            miss: [0u32; MAX_R],
            len: td.parts.len() as u8,
            probes_since_reorder: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probe one record: all codeword bits set? Short-circuits on the first
    /// clear bit. Adds one to `prf_calls` per codeword evaluated (the §5.7
    /// counting point).
    #[inline]
    pub fn probe(&mut self, meta: &BloomMetadata, prf_calls: &mut u64) -> bool {
        let nonce = meta.nonce.to_be_bytes();
        self.probes_since_reorder += 1;
        if self.probes_since_reorder >= REORDER_EVERY {
            self.reorder();
        }
        for k in 0..self.len as usize {
            let j = self.order[k] as usize;
            *prf_calls += 1;
            if !meta.filter.get(self.keys[j].mac_u64(&nonce)) {
                self.miss[j] += 1;
                return false;
            }
        }
        true
    }

    /// Re-sort the probe order most-frequent-miss first (stable, so ties
    /// keep index order and behaviour stays deterministic).
    fn reorder(&mut self) {
        self.probes_since_reorder = 0;
        let len = self.len as usize;
        let miss = &self.miss;
        self.order[..len].sort_by_key(|&j| std::cmp::Reverse(miss[j as usize]));
    }

    /// Begin one component-major sweep of this trapdoor over `n_survivors`
    /// records — the lane-batched form of [`probe`](Self::probe). The
    /// caller (the survivor pipeline, [`crate::query::Matcher`]) then walks
    /// the components in probe order: MAC every remaining survivor's nonce
    /// under [`component_key`](Self::component_key), hand the prefixes to
    /// [`component_filter`](Self::component_filter), stop when the list is
    /// empty. A record leaves the list at its first clear bit, exactly
    /// where the scalar path would have short-circuited, so while the
    /// probe order is fixed the probe multiset (and therefore the §5.7 PRF
    /// count, charged one per codeword evaluated) is identical to calling
    /// `probe` per record; only the loop order and the instruction-level
    /// parallelism change.
    ///
    /// The one sanctioned divergence is reorder *timing*: the order has to
    /// stay fixed across a component-major pass, so due probe-order
    /// adaptation is applied here, between sweeps, instead of between
    /// records, and the whole sweep is charged against the reorder
    /// interval at once. Once a trapdoor crosses `REORDER_EVERY` probes the
    /// two paths may briefly try components in different orders. Match
    /// results are unaffected — reordering never changes what matches —
    /// and the *expected* probe count is unchanged; only which individual
    /// probes short-circuit can shift by a hair around each reorder point
    /// (`probe_filter_reorder_contract` in `query.rs` pins this).
    pub(crate) fn sweep_begin(&mut self, n_survivors: usize) {
        if self.probes_since_reorder >= REORDER_EVERY {
            self.reorder();
        }
        self.probes_since_reorder = self.probes_since_reorder.saturating_add(n_survivors as u32);
    }

    /// The [`HmacKey`] of the `k`-th component in the current probe order.
    pub(crate) fn component_key(&self, k: usize) -> HmacKey {
        self.keys[self.order[k] as usize]
    }

    /// Number of codeword components this trapdoor probes per record.
    pub(crate) fn n_components(&self) -> usize {
        self.len as usize
    }

    /// Filter `survivors` (positions in `corpus` from `base` on) by the
    /// `k`-th ordered component's MAC prefixes (`macs[i]` belongs to
    /// `survivors[i]`): keep, in place and in order, the records whose
    /// codeword bit is set, charge one PRF call per record tested and one
    /// miss against the component per record dropped. `positions` is the
    /// caller's scratch.
    ///
    /// Two passes, neither with a data-dependent branch. The first turns
    /// every MAC into its bit position and asks the cache for the word
    /// holding it, so the misses of a whole sweep overlap instead of
    /// queueing behind one another. The second tests the bits and compacts
    /// without branching on them: a padded filter is half full, so the bit
    /// is a coin toss and a branch on it is mispredicted every other record
    /// — at 15–20 cycles a flush, more than the MAC that produced it.
    /// Every survivor is stored at the write cursor and the cursor advances
    /// by the bit; the misses are what is left over.
    pub(crate) fn component_filter<C: Corpus + ?Sized>(
        &mut self,
        k: usize,
        (corpus, base): (&C, usize),
        (survivors, macs): (&mut Vec<u32>, &[u64]),
        positions: &mut Vec<u32>,
        prf_calls: &mut u64,
    ) {
        let tested = survivors.len();
        assert_eq!(macs.len(), tested, "one MAC per survivor");
        *prf_calls += tested as u64;
        let locate = |(&i, &mac)| corpus.locate(base + i as usize, mac);
        positions.clear();
        positions.extend(survivors.iter().zip(macs).map(locate));
        let mut kept = 0;
        for at in 0..tested {
            let i = survivors[at];
            survivors[kept] = i; // kept ≤ at: never ahead of the read cursor
            kept += usize::from(corpus.bit(base + i as usize, positions[at]));
        }
        survivors.truncate(kept);
        self.miss[self.order[k] as usize] += (tested - kept) as u32;
    }

    /// Observed miss counts per component, in component order (test hook).
    pub fn miss_counts(&self) -> &[u32] {
        &self.miss[..self.len as usize]
    }

    /// Current probe order (test hook).
    pub fn probe_order(&self) -> Vec<usize> {
        self.order[..self.len as usize]
            .iter()
            .map(|&j| j as usize)
            .collect()
    }
}

/// Encrypted document keywords: nonce + Bloom filter of codewords.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomMetadata {
    pub nonce: u64,
    pub filter: BloomFilter,
}

impl BloomMetadata {
    /// Serialised size in bytes (nonce + filter) — the paper's ~130 B for
    /// 50 keywords at fp 1e-5.
    pub fn size_bytes(&self) -> usize {
        8 + self.filter.to_bytes().len()
    }
}

/// The Bloom keyword scheme.
pub struct BloomKeywordScheme {
    keys: Vec<HmacPrf>,
    params: BloomParams,
    /// Pad every filter to this popcount so the server cannot count a
    /// document's keywords (§5.5.2). `None` disables padding.
    pad_to: Option<usize>,
}

impl BloomKeywordScheme {
    /// Standard parameterisation: `max_words` keywords per document at
    /// false-positive rate `fp`.
    pub fn new(key: &[u8], max_words: usize, fp: f64) -> Self {
        let params = BloomParams::for_fp_rate(max_words, fp);
        assert!(
            params.hashes <= MAX_R,
            "r = {} exceeds MAX_R = {MAX_R}",
            params.hashes
        );
        let root = HmacPrf::new(key);
        let keys = (0..params.hashes)
            .map(|i| root.derive(format!("goh:{i}").as_bytes()))
            .collect();
        // pad to the *expected* popcount of a full document: an optimally
        // sized filter is half full at design capacity (1 − e^{−nr/m} = 1/2),
        // so padding beyond bits/2 would inflate the false-positive rate
        BloomKeywordScheme {
            keys,
            params,
            pad_to: Some(params.bits / 2),
        }
    }

    /// The paper's configuration: 50 keywords, fp = 1e-5 (r = 17 hashes).
    pub fn paper_config(key: &[u8]) -> Self {
        Self::new(key, 50, 1e-5)
    }

    pub fn params(&self) -> BloomParams {
        self.params
    }

    pub fn set_padding(&mut self, pad_to: Option<usize>) {
        self.pad_to = pad_to;
    }

    /// `EncryptQuery`: the trapdoor for one keyword.
    pub fn trapdoor(&self, word: &str) -> Trapdoor {
        Trapdoor {
            parts: self.keys.iter().map(|k| k.eval(word.as_bytes())).collect(),
        }
    }

    /// `EncryptMetadata`: Bloom filter of the document's codewords
    /// `y_j = F_{x_j}(nonce)`.
    pub fn encrypt_metadata<R: Rng>(&self, rng: &mut R, words: &[&str]) -> BloomMetadata {
        let nonce: u64 = rng.gen();
        let nonce_bytes = nonce.to_be_bytes();
        let mut filter = BloomFilter::new(self.params.bits);
        for word in words {
            let td = self.trapdoor(word);
            for part in &td.parts {
                filter.set(HmacKey::new(part).mac_u64(&nonce_bytes));
            }
        }
        if let Some(target) = self.pad_to {
            // blind the population with random bits so all documents look
            // equally "full"
            while filter.popcount() < target.min(self.params.bits) {
                filter.set(rng.gen());
            }
        }
        BloomMetadata { nonce, filter }
    }

    /// `Match`: all codeword bits set? Counts PRF evaluations in `counter`
    /// (short-circuits on the first clear bit, like the paper's server).
    ///
    /// Unprepared path: keys each component on the fly (4 compressions per
    /// codeword). Prefer [`PreparedTrapdoor::probe`] when matching more
    /// than a handful of records per query.
    pub fn matches(meta: &BloomMetadata, td: &Trapdoor, counter: &PrfCounter) -> bool {
        let nonce = meta.nonce.to_be_bytes();
        for part in &td.parts {
            counter.add(1);
            if !meta.filter.get(HmacKey::new(part).mac_u64(&nonce)) {
                return false;
            }
        }
        true
    }

    /// Reference scalar `Match`: the same function computed through the
    /// one-shot [`hmac_sha1`] (no midstate caching, key block rebuilt per
    /// probe). Kept as the benchmark baseline and as the oracle the
    /// fast-path equivalence tests compare against.
    pub fn matches_reference(meta: &BloomMetadata, td: &Trapdoor, counter: &PrfCounter) -> bool {
        let nonce = meta.nonce.to_be_bytes();
        for part in &td.parts {
            counter.add(1);
            let digest = hmac_sha1(part, &nonce);
            let pos = u64::from_be_bytes(digest[..8].try_into().expect("digest ≥ 8 bytes"));
            if !meta.filter.get(pos) {
                return false;
            }
        }
        true
    }

    /// `Cover`: keyword queries cover only identical trapdoors.
    pub fn covers(a: &Trapdoor, b: &Trapdoor) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roar_util::det_rng;

    fn scheme() -> BloomKeywordScheme {
        let mut s = BloomKeywordScheme::paper_config(b"user-key");
        s.set_padding(None); // determinism for exact-count tests
        s
    }

    #[test]
    fn paper_parameters() {
        let s = scheme();
        assert_eq!(s.params().hashes, 17);
    }

    #[test]
    fn contained_keyword_matches() {
        let s = scheme();
        let mut rng = det_rng(111);
        let m = s.encrypt_metadata(&mut rng, &["alpha", "beta", "gamma"]);
        let c = PrfCounter::new();
        assert!(BloomKeywordScheme::matches(&m, &s.trapdoor("beta"), &c));
        assert_eq!(c.get(), 17, "matching probe computes all r hashes");
    }

    #[test]
    fn absent_keyword_rejected_cheaply() {
        let s = scheme();
        let mut rng = det_rng(112);
        let m = s.encrypt_metadata(&mut rng, &["alpha", "beta"]);
        let c = PrfCounter::new();
        assert!(!BloomKeywordScheme::matches(&m, &s.trapdoor("delta"), &c));
        // short-circuit: far fewer than r hashes on a miss
        assert!(c.get() < 17, "used {} hashes", c.get());
    }

    #[test]
    fn average_miss_cost_near_two() {
        // §5.7: ~2.5 SHA-1 applications per metadata on average for
        // non-matching probes (half-full filter → geometric with p≈1/2)
        let s = scheme();
        let mut rng = det_rng(113);
        let words: Vec<String> = (0..50).map(|i| format!("word{i}")).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let m = s.encrypt_metadata(&mut rng, &refs);
        let c = PrfCounter::new();
        let probes = 2000;
        for i in 0..probes {
            let td = s.trapdoor(&format!("absent{i}"));
            let _ = BloomKeywordScheme::matches(&m, &td, &c);
        }
        let avg = c.get() as f64 / probes as f64;
        assert!((1.2..3.5).contains(&avg), "avg miss cost {avg}");
    }

    #[test]
    fn no_false_negatives_ever() {
        let s = scheme();
        let mut rng = det_rng(114);
        for trial in 0..50 {
            let words: Vec<String> = (0..20).map(|i| format!("w{trial}-{i}")).collect();
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            let m = s.encrypt_metadata(&mut rng, &refs);
            let c = PrfCounter::new();
            for w in &refs {
                assert!(BloomKeywordScheme::matches(&m, &s.trapdoor(w), &c));
            }
        }
    }

    #[test]
    fn false_positive_rate_bounded() {
        let s = scheme();
        let mut rng = det_rng(115);
        let words: Vec<String> = (0..50).map(|i| format!("doc-word-{i}")).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let m = s.encrypt_metadata(&mut rng, &refs);
        let c = PrfCounter::new();
        let probes = 6_000;
        let fps = (0..probes)
            .filter(|i| BloomKeywordScheme::matches(&m, &s.trapdoor(&format!("zz{i}")), &c))
            .count();
        // configured 1e-5; allow an order of magnitude of slack at this
        // sample size
        assert!(fps <= 2, "false positives: {fps}/{probes}");
    }

    #[test]
    fn same_word_different_documents_different_bits() {
        // codewords are nonce-keyed: the same keyword must not produce the
        // same bit pattern across documents
        let s = scheme();
        let mut rng = det_rng(116);
        let m1 = s.encrypt_metadata(&mut rng, &["secret"]);
        let m2 = s.encrypt_metadata(&mut rng, &["secret"]);
        assert_ne!(m1.filter, m2.filter);
    }

    #[test]
    fn padding_hides_word_count() {
        let mut s = BloomKeywordScheme::new(b"k", 10, 1e-3);
        let pad = s.params().bits / 2;
        s.set_padding(Some(pad));
        let mut rng = det_rng(117);
        let sparse = s.encrypt_metadata(&mut rng, &["one"]);
        let dense = s.encrypt_metadata(
            &mut rng,
            &["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
        );
        let lo = sparse.filter.popcount() as f64;
        let hi = dense.filter.popcount() as f64;
        assert!((lo - hi).abs() / hi < 0.15, "popcounts leak: {lo} vs {hi}");
    }

    #[test]
    fn metadata_size_near_paper() {
        let s = scheme();
        let mut rng = det_rng(118);
        let words: Vec<String> = (0..50).map(|i| format!("w{i}")).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let m = s.encrypt_metadata(&mut rng, &refs);
        // paper: ~130 B of filter for 50 keywords (we round up to whole u64
        // words)
        assert!(
            m.size_bytes() >= 130 && m.size_bytes() <= 200,
            "{} bytes",
            m.size_bytes()
        );
    }

    // ---- fast-path equivalence & accounting --------------------------------

    /// The three matching paths must agree bit-for-bit and count-for-count
    /// on every record, matching or not.
    #[test]
    fn prepared_and_reference_paths_agree() {
        let s = scheme();
        let mut rng = det_rng(119);
        let docs: Vec<BloomMetadata> = (0..40)
            .map(|i| {
                let words: Vec<String> = (0..10).map(|k| format!("w{i}-{k}")).collect();
                let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                s.encrypt_metadata(&mut rng, &refs)
            })
            .collect();
        for (i, probe_word) in [
            ("w3-4", true),
            ("w9-0", true),
            ("absent", false),
            ("w3-999", false),
        ]
        .iter()
        .enumerate()
        {
            let td = s.trapdoor(probe_word.0);
            let mut prepared = PreparedTrapdoor::new(&td);
            for m in &docs {
                let c_ref = PrfCounter::new();
                let c_unp = PrfCounter::new();
                let reference = BloomKeywordScheme::matches_reference(m, &td, &c_ref);
                let unprepared = BloomKeywordScheme::matches(m, &td, &c_unp);
                let mut fast_calls = 0u64;
                let fast = prepared.probe(m, &mut fast_calls);
                assert_eq!(reference, unprepared, "case {i}");
                assert_eq!(reference, fast, "case {i}");
                assert_eq!(c_ref.get(), c_unp.get(), "case {i} counter parity");
                assert_eq!(c_ref.get(), fast_calls, "case {i} fast counter parity");
            }
        }
    }

    #[test]
    fn prepared_probe_order_stays_correct_after_reorder() {
        // drive well past REORDER_EVERY probes and verify results still
        // agree with the reference path
        let s = scheme();
        let mut rng = det_rng(120);
        let m = s.encrypt_metadata(&mut rng, &["needle"]);
        let td_hit = s.trapdoor("needle");
        let td_miss = s.trapdoor("haystack");
        let mut hit = PreparedTrapdoor::new(&td_hit);
        let mut miss = PreparedTrapdoor::new(&td_miss);
        let mut calls = 0u64;
        for _ in 0..(2 * super::REORDER_EVERY + 7) {
            assert!(hit.probe(&m, &mut calls));
            assert!(!miss.probe(&m, &mut calls));
        }
        assert!(miss.miss_counts().iter().sum::<u32>() > 0);
        // order remains a permutation of 0..r
        let mut order = miss.probe_order();
        order.sort_unstable();
        assert_eq!(order, (0..td_miss.parts.len()).collect::<Vec<_>>());
    }

    /// The lanes prepare the same keys `HmacKey::new` does, for every
    /// component count around the group sizes, on every backend.
    #[test]
    fn lane_prepared_trapdoor_equals_scalar_keys() {
        let s = scheme();
        let word = s.trapdoor("needle");
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            for r in [1usize, 7, 8, 9, 16, 17, 32] {
                let td = Trapdoor {
                    parts: (0..r)
                        .map(|i| word.parts[i % word.parts.len()].map(|b| b ^ i as u8))
                        .collect(),
                };
                let prepared = PreparedTrapdoor::new_on(&td, backend);
                assert_eq!(prepared.n_components(), r);
                for (k, part) in td.parts.iter().enumerate() {
                    assert_eq!(
                        prepared.component_key(k),
                        HmacKey::new(part),
                        "{} r = {r}, component {k}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// The branch-free compaction against the scalar probe: the same
    /// survivors in the same order and the same per-component miss counts,
    /// for survivor lists of length 0, 1, a lane group ± 1 and a whole
    /// chunk, over filters that hit on every bit, on none, and on every
    /// other record.
    #[test]
    fn component_filter_keeps_the_scalar_probes_survivors() {
        use roar_crypto::sha1::MAX_LANES;
        let td = Trapdoor {
            parts: vec![[3u8; 20], [5u8; 20]],
        };
        type Pattern = (&'static str, fn(usize) -> bool);
        let patterns: [Pattern; 3] = [
            ("all hit", |_| true),
            ("all miss", |_| false),
            ("alternating", |i| i % 2 == 0),
        ];
        use crate::metadata::EncryptedMetadata;
        for len in [0, 1, MAX_LANES - 1, MAX_LANES, MAX_LANES + 1, 4096] {
            for (name, hit) in patterns {
                // two records ahead of the survivors: `base` is honoured
                let docs: Vec<EncryptedMetadata> = (0..len + 2)
                    .map(|i| {
                        let mut filter = BloomFilter::new(70);
                        if hit(i) {
                            (0..70).for_each(|bit| filter.set(bit));
                        }
                        let nonce = i as u64 * 0x9E37;
                        let body = BloomMetadata { nonce, filter };
                        EncryptedMetadata { id: i as u64, body }
                    })
                    .collect();
                let mut oracle = PreparedTrapdoor::new(&td);
                let mut want_calls = 0;
                let want: Vec<u32> = (0..len as u32)
                    .filter(|&i| oracle.probe(&docs[2 + i as usize].body, &mut want_calls))
                    .collect();

                let mut sweep = PreparedTrapdoor::new(&td);
                let mut survivors: Vec<u32> = (0..len as u32).collect();
                let (mut calls, mut positions) = (0, Vec::new());
                sweep.sweep_begin(len);
                for k in 0..sweep.n_components() {
                    let key = sweep.component_key(k);
                    let nonce = |&i: &u32| docs[2 + i as usize].body.nonce.to_be_bytes();
                    let macs: Vec<u64> = survivors.iter().map(|i| key.mac_u64(&nonce(i))).collect();
                    sweep.component_filter(
                        k,
                        (&docs[..], 2),
                        (&mut survivors, &macs),
                        &mut positions,
                        &mut calls,
                    );
                }
                assert_eq!(survivors, want, "{name}, {len} survivors");
                assert_eq!(calls, want_calls, "{name}, {len} survivors: PRF calls");
                assert_eq!(sweep.miss_counts(), oracle.miss_counts(), "{name}, {len}");
            }
        }
    }

    #[test]
    fn prepared_rejects_oversized_trapdoor() {
        let td = Trapdoor {
            parts: vec![[0u8; 20]; MAX_R + 1],
        };
        let result = std::panic::catch_unwind(|| PreparedTrapdoor::new(&td));
        assert!(result.is_err());
    }
}
