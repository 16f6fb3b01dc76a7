//! The backend store behind the serving ring (§4.1's NFS filer).
//!
//! The paper keeps a full copy of the corpus on a backend filesystem; the
//! front-end reads from it whenever placement changes require data movement
//! — join downloads (§4.3), the heir's growth after a removal (§4.4), arc
//! extensions when `p` decreases (§4.5) and the ranges a balancing round
//! moves (§4.6). Each reads only what a node's coverage gains, the
//! [`Window::minus`] of its new and old coverage; backfill, the explicit
//! heal for writes a node missed, reads its whole coverage.
//!
//! [`MemoryBackend`] holds that copy in the format a data node holds its
//! own share in: a [`MetadataStore`] of immutable columnar runs for the
//! PPS records and an ascending, unique list of synthetic ids. An append
//! follows the node's rules — a replica re-push is dropped, a record
//! stored again under a new nonce replaces the old one — so the backend
//! counts an id once however often it was stored. It is read by window:
//! what node X must hold under ring R is `R.coverage(X)`, and the records,
//! ids and count inside it come from [`Window::index_ranges`] over each
//! run and over the id list.

use crate::node::merge_sorted;
use parking_lot::Mutex;
use roar_core::ring::Window;
use roar_pps::store::Run;
use roar_pps::{EncryptedMetadata, MetadataStore};
use std::sync::Arc;

/// The in-process corpus copy the control plane repartitions from.
#[derive(Default)]
pub struct MemoryBackend {
    /// Appended under the lock; readers clone the run list and let go.
    records: Mutex<MetadataStore>,
    /// Synthetic-mode records (Definition 8): bare ids, ascending, unique.
    synthetic: Mutex<Vec<u64>>,
}

impl MemoryBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record encrypted PPS metadata records: one run, built outside the
    /// lock, appended by the store's rules.
    pub fn append_records(&self, records: &[EncryptedMetadata]) {
        let batch = Arc::new(Run::from_records(records));
        self.records.lock().append(batch);
    }

    /// Record synthetic ids; an id already held is kept once.
    pub fn append_synthetic(&self, ids: &[u64]) {
        let mut add = ids.to_vec();
        add.sort_unstable();
        add.dedup();
        merge_sorted(&mut self.synthetic.lock(), &add);
    }

    /// The records inside `w`, materialised as rows for the wire.
    pub fn window_records(&self, w: &Window) -> Vec<EncryptedMetadata> {
        self.records().window_records(w)
    }

    /// The synthetic ids inside `w`.
    pub fn window_synthetic(&self, w: &Window) -> Vec<u64> {
        let ids = self.synthetic.lock();
        let ranges = w.index_ranges(&ids);
        ranges.flat_map(|r| ids[r].iter().copied()).collect()
    }

    /// How many objects (records and synthetic ids) lie inside `w`.
    pub fn window_len(&self, w: &Window) -> usize {
        let records = self.records();
        let runs = records.runs().iter().map(|run| run.ids());
        let synthetic = self.synthetic.lock();
        std::iter::once(synthetic.as_slice())
            .chain(runs)
            .flat_map(|ids| w.index_ranges(ids))
            .map(|r| r.len())
            .sum()
    }

    /// The record store as it stands: a clone of the run list.
    fn records(&self) -> MetadataStore {
        self.records.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roar_pps::metadata::{FileMeta, MetaEncryptor};

    /// Wrapped, full, plain and empty windows.
    fn windows() -> [Window; 5] {
        [
            Window::full(7),
            Window::new(u64::MAX / 2, u64::MAX / 4),
            Window::new(u64::MAX / 4, u64::MAX / 2),
            Window::new(15, 25),
            Window::new(11, 12),
        ]
    }

    fn records(n: u64) -> Vec<EncryptedMetadata> {
        let enc = MetaEncryptor::with_points(b"k", vec![1], vec![1]);
        let mut rng = roar_util::det_rng(9);
        let meta = |i| FileMeta {
            path: format!("/f{i}"),
            keywords: vec![format!("w{i}")],
            size: i,
            mtime: 1,
        };
        (0..n).map(|i| enc.encrypt(&mut rng, &meta(i))).collect()
    }

    #[test]
    fn append_and_filter_synthetic() {
        let b = MemoryBackend::new();
        b.append_synthetic(&[30, 1, 20]);
        b.append_synthetic(&[20, 10, 30, 10]); // a re-push and a new id
        let full = Window::full(0);
        assert_eq!(b.window_synthetic(&full), vec![1, 10, 20, 30]);
        assert_eq!(b.window_len(&full), 4, "a re-stored id counts once");
        assert_eq!(b.window_synthetic(&Window::new(5, 20)), vec![10, 20]);
        // a wrapped window lists its high slice first
        assert_eq!(b.window_synthetic(&Window::new(15, 5)), vec![20, 30, 1]);
    }

    #[test]
    fn records_filter_by_id() {
        let b = MemoryBackend::new();
        let recs = records(40);
        b.append_records(&recs);
        b.append_records(&recs[10..30]); // a retried batch
        let full = Window::full(0);
        assert_eq!(b.window_len(&full), 40, "a re-push is idempotent");
        // one record again under a new nonce: it replaces the old version
        let mut newer = recs[3].clone();
        newer.body.nonce ^= 1;
        b.append_records(std::slice::from_ref(&newer));
        assert_eq!(b.window_len(&full), 40);
        let one = Window::new(newer.id.wrapping_sub(1), newer.id);
        assert_eq!(b.window_records(&one), vec![newer]);
    }

    #[test]
    fn window_len_is_the_selection_length() {
        let b = MemoryBackend::new();
        let recs = records(60);
        for batch in recs.chunks(7) {
            b.append_records(batch);
        }
        let ids: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        b.append_synthetic(&ids);
        for w in windows() {
            let rows = b.window_records(&w);
            let synthetic = b.window_synthetic(&w);
            assert_eq!(b.window_len(&w), rows.len() + synthetic.len(), "{w:?}");
            let inside = |id: &u64| w.contains(*id);
            assert_eq!(rows.len(), recs.iter().map(|r| r.id).filter(inside).count());
            assert_eq!(synthetic.len(), ids.iter().filter(|id| inside(id)).count());
            assert!(rows
                .iter()
                .map(|r| r.id)
                .chain(synthetic)
                .all(|id| inside(&id)));
        }
    }

    #[test]
    fn empty_backend() {
        let b = MemoryBackend::new();
        for w in windows() {
            assert_eq!(b.window_len(&w), 0);
            assert!(b.window_records(&w).is_empty());
            assert!(b.window_synthetic(&w).is_empty());
        }
    }
}
