//! The metadata store with partial loading (§5.6.2).
//!
//! "The data structure is based on an array of user metadata sorted by id …
//! we maintain an array of 'pointers' to these basic lists, to allow fast
//! and partial access. Partial loading is used when a single query is split
//! across many servers, and each server only matches a subset of their
//! local data (i.e. when increasing pQ with ROAR)."
//!
//! The paper's pointer file exists to seek into an on-disk array. This
//! store is a short list of immutable **runs** behind `Arc`s. A [`Run`] is
//! a batch of records held as columns — ids (sorted), nonces (big-endian,
//! as the MAC kernel reads them), one `(word offset, bits)` span per record
//! and one contiguous filter slab — so binary search over a run's id column
//! *is* the partial-load index, and a scan reads three dense arrays instead
//! of chasing one boxed filter per record. No row
//! ([`EncryptedMetadata`]) is retained.
//!
//! Runs are never edited. [`MetadataStore::append`] adds a batch as a new
//! run, [`MetadataStore::retain_window`] drops whole runs and rewrites the
//! ones a boundary cuts, and a fixed tiered rule merges runs of similar
//! size (at most [`MERGE_FAN_IN`] to a size class, none longer than
//! [`RUN_CAP`] records merged again). Cloning the store clones the `Arc`
//! list, so a writer working on a clone beside a live sub-query snapshot
//! copies no record byte and shares every run it does not replace.
//! Invariant: **an id lives in exactly one run** — an appended id already
//! present under the same nonce is an idempotent replica push and is
//! dropped; under a different nonce it is an update, and the run holding
//! the old version is rewritten without it.
//!
//! Ids are `u64` ring positions, so a ROAR sub-query's match window
//! `(start, end]` maps to at most two contiguous index ranges per run
//! (wrap-around), found by [`Window::index_ranges`].

use crate::bloom_kw::BloomMetadata;
use crate::metadata::EncryptedMetadata;
use roar_core::ring::Window;
use roar_crypto::bloom::BloomFilter;
use std::ops::Range;
use std::sync::Arc;

/// Runs of at least this many records are sealed: the tiered rule never
/// merges them again, so no merge reads or writes more than this many
/// records (≈ 3.7 MB at the benchmark's 900-byte filters) whatever the
/// store holds. One survivor-pipeline chunk.
pub const RUN_CAP: usize = 4096;

/// Runs of one size class (`len` within a factor [`MERGE_FAN_IN`]) that
/// trigger a merge. With 32- to 64-record batches a record is rewritten
/// twice on its way to a sealed run; 4096-record batches never are.
pub const MERGE_FAN_IN: usize = 8;

/// One immutable run: records as columns, sorted by id, ids unique.
#[derive(Debug, Default)]
pub struct Run {
    ids: Vec<u64>,
    /// Big-endian nonce bytes — the MAC kernel's input, staged by copy.
    nonces: Vec<[u8; 8]>,
    /// Per record: first word of its filter in `slab`, and its bit count
    /// (never zero). Filters lie in record order without gaps.
    spans: Vec<(u32, u32)>,
    slab: Vec<u64>,
}

/// Collects records in any order into a [`Run`].
#[derive(Debug, Default)]
pub struct RunBuilder {
    run: Run,
}

impl RunBuilder {
    /// A builder with room for `records` records of `filter_bytes` filter
    /// bytes in all, so that a batch is copied once and its pages touched
    /// once.
    pub fn with_capacity(records: usize, filter_bytes: usize) -> Self {
        RunBuilder {
            run: Run::with_capacity(records, filter_bytes / 8),
        }
    }

    /// Add a record whose filter arrives as wire bytes (little-endian
    /// words, [`BloomFilter::to_bytes`]). Returns `false`, adding nothing,
    /// when `n_bits` is zero or the byte length does not match it — the
    /// conditions [`BloomFilter::from_bytes`] refuses.
    #[must_use]
    pub fn push_bytes(&mut self, id: u64, nonce: u64, filter: &[u8], n_bits: u32) -> bool {
        if n_bits == 0 || filter.len() != (n_bits as usize).div_ceil(64) * 8 {
            return false;
        }
        let words = filter
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        self.run.push_row(id, nonce.to_be_bytes(), n_bits, words);
        true
    }

    /// Add a record held as a row.
    pub fn push(&mut self, rec: &EncryptedMetadata) {
        let filter = &rec.body.filter;
        let n_bits = u32::try_from(filter.n_bits()).expect("filter under 2^32 bits");
        let words = filter.words().iter().copied();
        self.run
            .push_row(rec.id, rec.body.nonce.to_be_bytes(), n_bits, words);
    }

    /// Sort by id and keep the last record pushed under each id. Records
    /// pushed in ascending id order are used as they lie.
    pub fn finish(self) -> Run {
        let run = self.run;
        if run.ids.windows(2).all(|w| w[0] < w[1]) {
            return run;
        }
        let mut order: Vec<usize> = (0..run.len()).collect();
        order.sort_by_key(|&i| run.ids[i]); // stable: pushes of one id stay in order
        let mut sorted = Run::with_capacity(run.len(), run.slab.len());
        for (k, &i) in order.iter().enumerate() {
            if order
                .get(k + 1)
                .is_none_or(|&next| run.ids[next] != run.ids[i])
            {
                sorted.push_range(&run, i, i + 1);
            }
        }
        sorted
    }
}

impl Run {
    /// A run of `records` (any order; the last of equal ids wins).
    pub fn from_records(records: &[EncryptedMetadata]) -> Run {
        let filter_bytes = records.iter().map(|r| r.body.filter.words().len() * 8);
        let mut b = RunBuilder::with_capacity(records.len(), filter_bytes.sum());
        records.iter().for_each(|r| b.push(r));
        b.finish()
    }

    fn with_capacity(records: usize, words: usize) -> Run {
        Run {
            ids: Vec::with_capacity(records),
            nonces: Vec::with_capacity(records),
            spans: Vec::with_capacity(records),
            slab: Vec::with_capacity(words),
        }
    }

    /// Slab words of records `a..b`.
    fn words(&self, a: usize, b: usize) -> usize {
        self.word_start(b) - self.word_start(a)
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id column, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    fn push_row(&mut self, id: u64, nonce: [u8; 8], n_bits: u32, words: impl Iterator<Item = u64>) {
        let offset = u32::try_from(self.slab.len()).expect("run slab under 2^32 words");
        self.ids.push(id);
        self.nonces.push(nonce);
        self.spans.push((offset, n_bits));
        self.slab.extend(words);
    }

    /// First slab word of record `i`; the slab's end for `i == len`.
    fn word_start(&self, i: usize) -> usize {
        self.spans.get(i).map_or(self.slab.len(), |s| s.0 as usize)
    }

    /// Append records `a..b` of `src`.
    fn push_range(&mut self, src: &Run, a: usize, b: usize) {
        let (from, to) = (src.word_start(a), src.word_start(b));
        let shift = |off: u32| {
            u32::try_from(off as usize - from + self.slab.len()).expect("run slab under 2^32 words")
        };
        let spans = src.spans[a..b].iter().map(|&(off, n)| (shift(off), n));
        self.spans.extend(spans);
        self.ids.extend_from_slice(&src.ids[a..b]);
        self.nonces.extend_from_slice(&src.nonces[a..b]);
        self.slab.extend_from_slice(&src.slab[from..to]);
    }

    /// This run without the records at the ascending positions `drop`.
    fn without(&self, drop: &[usize]) -> Run {
        let dropped: usize = drop.iter().map(|&i| self.words(i, i + 1)).sum();
        let mut out = Run::with_capacity(self.len() - drop.len(), self.slab.len() - dropped);
        let mut from = 0;
        for &i in drop {
            out.push_range(self, from, i);
            from = i + 1;
        }
        out.push_range(self, from, self.len());
        out
    }

    /// Record `i` materialised as a row.
    fn record(&self, i: usize) -> EncryptedMetadata {
        let (a, b) = (self.word_start(i), self.word_start(i + 1));
        let bytes: Vec<u8> = (self.slab[a..b].iter())
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let n_bits = self.spans[i].1 as usize;
        EncryptedMetadata {
            id: self.ids[i],
            body: BloomMetadata {
                nonce: u64::from_be_bytes(self.nonces[i]),
                filter: BloomFilter::from_bytes(&bytes, n_bits).expect("a run holds valid filters"),
            },
        }
    }

    /// Records `a..b` as the survivor pipeline reads them.
    pub(crate) fn columns(&self, a: usize, b: usize) -> Columns<'_> {
        Columns {
            ids: &self.ids[a..b],
            nonces: &self.nonces[a..b],
            spans: &self.spans[a..b],
            slab: &self.slab,
        }
    }

    /// The size class the tiered rule files this run under: classes are a
    /// factor [`MERGE_FAN_IN`] wide, sealed runs have none.
    fn class(&self) -> Option<u32> {
        (self.len() < RUN_CAP).then(|| self.len().max(1).ilog(MERGE_FAN_IN))
    }
}

/// A contiguous slice of a [`Run`]: one segment of a scan.
#[derive(Clone, Copy)]
pub(crate) struct Columns<'a> {
    pub(crate) ids: &'a [u64],
    pub(crate) nonces: &'a [[u8; 8]],
    pub(crate) spans: &'a [(u32, u32)],
    pub(crate) slab: &'a [u64],
}

/// Records `start..end` of run `run` of a store: one segment of a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRange {
    pub run: usize,
    pub start: usize,
    pub end: usize,
}

/// Feed `found` the positions `(i, j)` of every id that ascending `a` and
/// ascending `b` share, in order: binary search of the shorter list's ids
/// in what is left of the longer list's share of their common id range —
/// nothing, for batches that arrive in id order.
fn intersect(a: &[u64], b: &[u64], found: &mut dyn FnMut(usize, usize)) {
    if a.len() > b.len() {
        return intersect(b, a, &mut |j, i| found(i, j));
    }
    let (Some(&lo), Some(&hi)) = (a.first(), a.last()) else {
        return;
    };
    // the window (lo − 1, hi] is the id interval [lo, hi]: one range
    let span = Window::new(lo.wrapping_sub(1), hi).index_ranges(b).next();
    let Range {
        start: mut from,
        end: to,
    } = span.unwrap_or_default();
    for (i, id) in a.iter().enumerate() {
        if from == to {
            return;
        }
        match b[from..to].binary_search(id) {
            Ok(j) => {
                found(i, from + j);
                from += j + 1;
            }
            Err(j) => from += j,
        }
    }
}

/// A user's metadata collection: immutable columnar runs, ids unique
/// across them.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    runs: Vec<Arc<Run>>,
}

impl MetadataStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted records: one run.
    pub fn from_records(records: &[EncryptedMetadata]) -> Self {
        let mut store = Self::new();
        store.append(Arc::new(Run::from_records(records)));
        store
    }

    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs, in no particular order. Shared with every clone of the
    /// store taken before they were replaced.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// Add a batch (update stream, replica push). A batch id already stored
    /// under the same nonce is dropped from the batch; one stored under
    /// another nonce is replaced — the run holding it is rewritten without
    /// it. What is left of the batch becomes a new run (the batch itself,
    /// shared, when nothing was dropped), then runs of similar size merge.
    pub fn append(&mut self, batch: Arc<Run>) {
        let mut fresh = vec![true; batch.len()];
        for slot in &mut self.runs {
            let mut stale = Vec::new();
            intersect(&batch.ids, &slot.ids, &mut |i, j| {
                if batch.nonces[i] == slot.nonces[j] {
                    fresh[i] = false;
                } else {
                    stale.push(j);
                }
            });
            if !stale.is_empty() {
                *slot = Arc::new(slot.without(&stale));
            }
        }
        let stale: Vec<usize> = (0..batch.len()).filter(|&i| !fresh[i]).collect();
        self.runs.push(if stale.is_empty() {
            batch
        } else {
            Arc::new(batch.without(&stale))
        });
        self.compact();
    }

    /// The tiered rule, to a fixed point: while a size class holds
    /// [`MERGE_FAN_IN`] runs or [`RUN_CAP`] records, merge as many of its
    /// runs as fit under [`RUN_CAP`] into one. Empty runs go.
    fn compact(&mut self) {
        self.runs.retain(|r| !r.is_empty());
        while let Some(picked) = self.merge_candidates() {
            let mut rows: Vec<(u64, usize, usize)> = Vec::new();
            for &r in &picked {
                let ids = self.runs[r].ids.iter().enumerate();
                rows.extend(ids.map(|(i, &id)| (id, r, i)));
            }
            rows.sort_unstable(); // ids are unique across runs
            let words = picked.iter().map(|&r| self.runs[r].slab.len());
            let mut merged = Run::with_capacity(rows.len(), words.sum());
            // neighbours in one run stay neighbours: batches that arrived in
            // id order merge by block copy
            for block in rows.chunk_by(|a, b| a.1 == b.1 && a.2 + 1 == b.2) {
                let (_, r, i) = block[0];
                merged.push_range(&self.runs[r], i, i + block.len());
            }
            for &r in picked.iter().rev() {
                self.runs.remove(r);
            }
            self.runs.push(Arc::new(merged));
        }
    }

    /// The runs (positions, ≥ 2) the tiered rule merges next.
    fn merge_candidates(&self) -> Option<Vec<usize>> {
        let top = (RUN_CAP - 1).ilog(MERGE_FAN_IN);
        (0..=top).find_map(|class| {
            let of_class = |r: &Arc<Run>| r.class() == Some(class);
            let members = || self.runs.iter().enumerate().filter(|(_, r)| of_class(r));
            let records: usize = members().map(|(_, r)| r.len()).sum();
            if members().count() < MERGE_FAN_IN && records < RUN_CAP {
                return None;
            }
            let mut room = RUN_CAP;
            let fits = members().filter(|(_, r)| {
                let fit = r.len() <= room;
                room -= if fit { r.len() } else { 0 };
                fit
            });
            let picked: Vec<usize> = fits.map(|(at, _)| at).collect();
            (picked.len() >= 2).then_some(picked)
        })
    }

    /// The match window `(start, end]` as index ranges into
    /// [`runs`](Self::runs): per id interval (a wrapped window is the high
    /// slice, then the low wrap-around slice) one non-empty range per run
    /// that holds any of it. An `Arc` snapshot of the store plus these
    /// ranges is a complete corpus view, with no per-query record copy.
    pub fn window_ranges(&self, w: &Window) -> Vec<RunRange> {
        let mut cuts: Vec<_> = self.runs.iter().map(|r| w.index_ranges(&r.ids)).collect();
        let mut out = Vec::new();
        for _ in w.intervals() {
            for (run, cut) in cuts.iter_mut().enumerate() {
                let Range { start, end } = cut.next().unwrap_or_default();
                if start < end {
                    out.push(RunRange { run, start, end });
                }
            }
        }
        out
    }

    /// Partial load, materialised: a row per record whose id falls in the
    /// match window, in [`window_ranges`](Self::window_ranges) order. Builds
    /// every filter anew — for tests and figure apparatus; the scan path
    /// reads the columns in place.
    pub fn window_records(&self, w: &Window) -> Vec<EncryptedMetadata> {
        let ranges = self.window_ranges(w);
        let rows = ranges.iter().flat_map(|s| {
            let run = &self.runs[s.run];
            (s.start..s.end).map(move |i| run.record(i))
        });
        rows.collect()
    }

    /// Drop every record outside the coverage window — the "drop data items
    /// in the overlapping range" step when a ROAR node's range shrinks or r
    /// decreases (§4.3, §4.5). A run wholly inside stays as it is (shared
    /// with any clone), one wholly outside goes, one the boundary cuts is
    /// rewritten. Returns how many records were dropped.
    pub fn retain_window(&mut self, keep: &Window) -> usize {
        let before = self.len();
        for slot in &mut self.runs {
            // ascending id order: the low wrap-around slice comes first
            let mut kept: Vec<Range<usize>> = keep.index_ranges(&slot.ids).collect();
            kept.sort_unstable_by_key(|r| r.start);
            let records: usize = kept.iter().map(Range::len).sum();
            if records < slot.len() {
                let words = kept.iter().map(|r| slot.words(r.start, r.end));
                let mut cut = Run::with_capacity(records, words.sum());
                for r in kept {
                    cut.push_range(slot, r.start, r.end);
                }
                *slot = Arc::new(cut);
            }
        }
        self.compact();
        before - self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> EncryptedMetadata {
        let mut filter = BloomFilter::new(70);
        filter.set(id);
        EncryptedMetadata {
            id,
            body: BloomMetadata {
                nonce: id ^ 0xabcd,
                filter,
            },
        }
    }

    fn recs(ids: &[u64]) -> Vec<EncryptedMetadata> {
        ids.iter().map(|&i| rec(i)).collect()
    }

    fn store(ids: &[u64]) -> MetadataStore {
        MetadataStore::from_records(&recs(ids))
    }

    fn window_ids(s: &MetadataStore, w: &Window) -> Vec<u64> {
        s.window_records(w).iter().map(|r| r.id).collect()
    }

    #[test]
    fn runs_sorted_by_id_and_rows_round_trip() {
        let s = store(&[50, 10, 90, 30]);
        assert_eq!(s.runs()[0].ids(), &[10, 30, 50, 90]);
        assert_eq!(s.window_records(&Window::full(0)), recs(&[10, 30, 50, 90]));
    }

    #[test]
    fn builder_refuses_what_from_bytes_refuses() {
        let mut b = RunBuilder::default();
        assert!(!b.push_bytes(1, 1, &[], 0), "zero bits");
        assert!(!b.push_bytes(1, 1, &[0; 8], 65), "two words announced");
        assert!(!b.push_bytes(1, 1, &[0; 9], 64), "ragged bytes");
        assert!(b.push_bytes(1, 1, &[0; 16], 65));
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn window_selection_basic() {
        let s = store(&[10, 20, 30, 40, 50]);
        assert_eq!(window_ids(&s, &Window::new(15, 40)), vec![20, 30, 40]);
    }

    #[test]
    fn window_open_at_start_closed_at_end() {
        let s = store(&[10, 20]);
        let got = window_ids(&s, &Window::new(10, 20));
        assert_eq!(got, vec![20], "id 10 is excluded (open start), 20 included");
    }

    #[test]
    fn wrapping_window() {
        let s = store(&[5, 100, u64::MAX - 3]);
        let got = window_ids(&s, &Window::new(u64::MAX - 10, 50));
        assert_eq!(got, vec![u64::MAX - 3, 5]);
    }

    #[test]
    fn full_window_selects_everything() {
        let s = store(&[1, 2, 3]);
        assert_eq!(window_ids(&s, &Window::full(9)).len(), 3);
    }

    #[test]
    fn windows_partition_store() {
        // records split across a plan's windows land in exactly one window
        let ids: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let s = store(&ids);
        let pts = roar_core::ring::query_points(777, 7);
        let windows = roar_core::ring::windows_of_points(&pts);
        let total: usize = windows.iter().map(|w| window_ids(&s, w).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn replica_push_is_idempotent_and_shares_the_batch() {
        let mut s = store(&[10, 30]);
        let batch = Arc::new(Run::from_records(&recs(&[20, 40])));
        s.append(Arc::clone(&batch));
        assert!(s.runs().iter().any(|r| Arc::ptr_eq(r, &batch)));
        let runs = s.runs().to_vec();
        s.append(Arc::new(Run::from_records(&recs(&[10, 20, 30, 40]))));
        assert_eq!(s.len(), 4);
        assert_eq!(s.runs().len(), 2, "nothing new: no run added");
        assert!(s.runs().iter().zip(&runs).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn update_replaces_the_old_version() {
        let mut s = store(&[10, 20, 30]);
        let mut newer = rec(20);
        newer.body.nonce = 7;
        s.append(Arc::new(Run::from_records(&[newer.clone(), rec(40)])));
        assert_eq!(s.len(), 4);
        let got = s.window_records(&Window::new(19, 20));
        assert_eq!(got, vec![newer]);
    }

    #[test]
    fn retain_window_drops_outside_and_shares_inside() {
        let mut s = store(&[10, 20, 30, 40]);
        s.append(Arc::new(Run::from_records(&recs(&[22, 28]))));
        s.append(Arc::new(Run::from_records(&recs(&[1, 2]))));
        let inside = Arc::clone(&s.runs()[1]);
        assert_eq!(s.retain_window(&Window::new(15, 35)), 4);
        assert_eq!(s.runs().len(), 2, "the run wholly outside is gone");
        assert!(
            Arc::ptr_eq(&s.runs()[1], &inside),
            "untouched run is shared"
        );
        assert_eq!(s.runs()[0].ids(), &[20, 30]);
        // a wrapped coverage keeps the rewritten run sorted
        let mut s = store(&[5, 100, 200, u64::MAX - 3]);
        assert_eq!(s.retain_window(&Window::new(150, 50)), 1);
        assert_eq!(s.runs()[0].ids(), &[5, 200, u64::MAX - 3]);
        assert_eq!(s.window_records(&Window::full(0)).len(), 3);
    }

    #[test]
    fn tiered_rule_bounds_runs_and_seals_at_the_cap() {
        let mut s = MetadataStore::new();
        let mut next = 0u64;
        let mut batch = |n: u64| {
            let ids: Vec<u64> = (next..next + n).map(|i| i.wrapping_mul(0x9E37)).collect();
            next += n;
            Arc::new(Run::from_records(&recs(&ids)))
        };
        for k in 1..=2 * RUN_CAP / 32 {
            s.append(batch(32));
            assert_eq!(s.len(), 32 * k);
            assert!(s.runs().len() < 3 * MERGE_FAN_IN, "{} runs", s.runs().len());
        }
        let sealed = s.runs().iter().filter(|r| r.len() == RUN_CAP).count();
        assert_eq!((sealed, s.runs().len()), (2, 2), "two sealed runs, no rest");
        // a batch at the cap is never merged, nor are sealed runs
        s.append(batch(RUN_CAP as u64 + 5));
        assert_eq!(s.runs().len(), 3);
    }

    #[test]
    fn window_ranges_agree_with_a_scan_of_the_ids() {
        // the index-range view must list exactly the window's records, per
        // interval in id order, for contiguous, wrapped, full and empty
        // windows over a multi-run store
        let ids: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut s = MetadataStore::new();
        for batch in ids.chunks(77) {
            s.append(Arc::new(Run::from_records(&recs(batch))));
        }
        assert!(s.runs().len() > 1);
        let mut windows = vec![
            Window::full(3),
            Window::new(15, 40),
            Window::new(u64::MAX - 10, 50),
            Window::new(1 << 62, (1 << 62) + 1),
            Window::new(7, 7),
        ];
        windows.extend(roar_core::ring::windows_of_points(
            &roar_core::ring::query_points(42, 9),
        ));
        for w in &windows {
            let mut want: Vec<u64> = ids.iter().copied().filter(|&id| w.contains(id)).collect();
            let mut got: Vec<u64> = Vec::new();
            for range in s.window_ranges(w) {
                assert!(range.start < range.end, "empty ranges are not listed");
                got.extend(&s.runs()[range.run].ids()[range.start..range.end]);
            }
            assert_eq!(got, window_ids(&s, w), "window {w:?}");
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "window {w:?}");
        }
    }
}
