//! The metadata store with partial loading (§5.6.2).
//!
//! "The data structure is based on an array of user metadata sorted by id …
//! we maintain an array of 'pointers' to these basic lists, to allow fast
//! and partial access. Partial loading is used when a single query is split
//! across many servers, and each server only matches a subset of their
//! local data (i.e. when increasing pQ with ROAR)."
//!
//! The paper's pointer file exists to seek into an on-disk array; this
//! store is one sorted in-memory array, where binary search over the
//! records themselves *is* the partial-load index — O(log n) to either end
//! of a window, nothing to rebuild on insert.
//!
//! Ids are `u64` ring positions, so a ROAR sub-query's match window
//! `(start, end]` maps directly to a contiguous id range here (with at most
//! one wrap-around split).

use crate::metadata::EncryptedMetadata;
use roar_core::ring::Window;

/// A user's metadata collection, sorted by id.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    /// Records sorted by id (ties allowed but ids are 64-bit random —
    /// collisions are negligible).
    records: Vec<EncryptedMetadata>,
}

impl MetadataStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted records.
    pub fn from_records(mut records: Vec<EncryptedMetadata>) -> Self {
        records.sort_by_key(|r| r.id);
        MetadataStore { records }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total stored bytes (what a disk scan must read).
    pub fn total_bytes(&self) -> usize {
        self.records.iter().map(|r| r.size_bytes()).sum()
    }

    /// Insert one record (update stream). O(log n) locate + O(n) shift; the
    /// paper batches updates, and so do callers.
    pub fn insert(&mut self, rec: EncryptedMetadata) {
        let pos = self.records.partition_point(|r| r.id < rec.id);
        if self.records.get(pos).map(|r| r.id) == Some(rec.id) {
            // replica pushes are idempotent: replace in place (an update
            // stream overwrites the old version, §5.4's metadata updates)
            self.records[pos] = rec;
            return;
        }
        self.records.insert(pos, rec);
    }

    /// Remove a record by id; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.records.binary_search_by_key(&id, |r| r.id) {
            Ok(i) => {
                self.records.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &EncryptedMetadata> {
        self.records.iter()
    }

    /// Records with `id ∈ [lo, hi]` (contiguous, non-wrapping).
    fn slice_range(&self, lo: u64, hi: u64) -> &[EncryptedMetadata] {
        debug_assert!(lo <= hi);
        let a = self.records.partition_point(|r| r.id < lo);
        let b = self.records.partition_point(|r| r.id <= hi);
        &self.records[a..b]
    }

    /// Partial load: every record whose id falls in the ROAR match window
    /// `(start, end]`. At most two contiguous slices (wrap-around).
    pub fn select_window(&self, w: &Window) -> Vec<&EncryptedMetadata> {
        if w.is_full() {
            return self.records.iter().collect();
        }
        let lo = w.start.wrapping_add(1);
        let hi = w.end;
        if lo <= hi {
            self.slice_range(lo, hi).iter().collect()
        } else {
            // wrapped: (start, MAX] ∪ [0, end]
            let mut out: Vec<&EncryptedMetadata> = self.slice_range(lo, u64::MAX).iter().collect();
            out.extend(self.slice_range(0, hi).iter());
            out
        }
    }

    /// All records, sorted by id. Index with the ranges from
    /// [`window_ranges`](Self::window_ranges) for zero-copy window views.
    pub fn records(&self) -> &[EncryptedMetadata] {
        &self.records
    }

    /// The match window `(start, end]` as up to two index ranges into
    /// [`records`](Self::records), in the same record order
    /// [`select_window`](Self::select_window) yields (a wrapped window is
    /// high slice first, then the low wrap-around slice). Empty ranges are
    /// `(0, 0)`. This is the zero-copy form of window selection: an `Arc`
    /// snapshot of the store plus these ranges is a complete corpus view,
    /// with no per-query record clone.
    pub fn window_ranges(&self, w: &Window) -> [(usize, usize); 2] {
        if w.is_full() {
            return [(0, self.records.len()), (0, 0)];
        }
        let lo = w.start.wrapping_add(1);
        let hi = w.end;
        let index_range = |lo: u64, hi: u64| {
            let a = self.records.partition_point(|r| r.id < lo);
            let b = self.records.partition_point(|r| r.id <= hi);
            (a, b)
        };
        if lo <= hi {
            [index_range(lo, hi), (0, 0)]
        } else {
            [index_range(lo, u64::MAX), index_range(0, hi)]
        }
    }

    /// Drop every record outside the coverage window — the "drop data items
    /// in the overlapping range" step when a ROAR node's range shrinks or r
    /// decreases (§4.3, §4.5). Returns how many records were dropped.
    pub fn retain_window(&mut self, keep: &Window) -> usize {
        let before = self.records.len();
        self.records.retain(|r| keep.contains(r.id));
        before - self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom_kw::BloomMetadata;
    use roar_crypto::bloom::BloomFilter;

    fn rec(id: u64) -> EncryptedMetadata {
        EncryptedMetadata {
            id,
            body: BloomMetadata {
                nonce: id ^ 0xabcd,
                filter: BloomFilter::new(64),
            },
        }
    }

    fn store(ids: &[u64]) -> MetadataStore {
        MetadataStore::from_records(ids.iter().map(|&i| rec(i)).collect())
    }

    #[test]
    fn records_sorted_by_id() {
        let s = store(&[50, 10, 90, 30]);
        let ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![10, 30, 50, 90]);
    }

    #[test]
    fn window_selection_basic() {
        let s = store(&[10, 20, 30, 40, 50]);
        let w = Window::new(15, 40); // (15, 40]
        let got: Vec<u64> = s.select_window(&w).iter().map(|r| r.id).collect();
        assert_eq!(got, vec![20, 30, 40]);
    }

    #[test]
    fn window_open_at_start_closed_at_end() {
        let s = store(&[10, 20]);
        let w = Window::new(10, 20);
        let got: Vec<u64> = s.select_window(&w).iter().map(|r| r.id).collect();
        assert_eq!(got, vec![20], "id 10 is excluded (open start), 20 included");
    }

    #[test]
    fn wrapping_window() {
        let s = store(&[5, 100, u64::MAX - 3]);
        let w = Window::new(u64::MAX - 10, 50);
        let got: Vec<u64> = s.select_window(&w).iter().map(|r| r.id).collect();
        assert_eq!(got, vec![u64::MAX - 3, 5]);
    }

    #[test]
    fn full_window_selects_everything() {
        let s = store(&[1, 2, 3]);
        assert_eq!(s.select_window(&Window::full(9)).len(), 3);
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
        let total: usize = windows.iter().map(|w| s.select_window(w).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn insert_and_remove() {
        let mut s = store(&[10, 30]);
        s.insert(rec(20));
        let ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![10, 20, 30]);
        assert!(s.remove(20));
        assert!(!s.remove(20));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn retain_window_drops_outside() {
        let mut s = store(&[10, 20, 30, 40]);
        let dropped = s.retain_window(&Window::new(15, 35));
        assert_eq!(dropped, 2);
        let ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![20, 30]);
    }

    #[test]
    fn window_ranges_agree_with_select_window() {
        // the zero-copy index-range view must list exactly the records
        // select_window yields, in the same order, for contiguous, wrapped,
        // full and empty windows
        let ids: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let s = store(&ids);
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
            let want: Vec<u64> = s.select_window(w).iter().map(|r| r.id).collect();
            let got: Vec<u64> = s
                .window_ranges(w)
                .iter()
                .flat_map(|&(a, b)| s.records()[a..b].iter().map(|r| r.id))
                .collect();
            assert_eq!(got, want, "window {w:?}");
        }
    }
}
