//! Node range assignment on the ring.
//!
//! "Each server is given a continuous range of this ID space that it is
//! responsible for, such that all points on the ring are owned by some
//! server" (§4). A [`RingMap`] is that assignment: a sorted list of range
//! start positions, each owned by one node; node `i`'s range runs from its
//! start to the next node's start. Ownership look-ups are the binary search
//! the paper's `node_in_charge` performs (§4.8.1).
//!
//! The map supports the membership operations of §4.3/§4.4/§4.9: inserting
//! a node inside an existing range (hot-spot splitting), removing a node
//! (its range merges into its predecessor), and moving a boundary (the local
//! load-balancing of §4.6).

use crate::ring::{dist_cw, RingPos, Window, FULL};
use roar_dr::ServerId;

/// A node identifier — shared with `roar_dr::ServerId` so schedulers and
/// estimators use one index space.
pub type NodeId = ServerId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEntry {
    pub start: RingPos,
    pub node: NodeId,
}

/// The ring's range assignment. Invariants (checked in debug builds):
/// entries sorted by `start`, starts strictly distinct, each node appears at
/// most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingMap {
    entries: Vec<RingEntry>,
}

impl RingMap {
    /// Build from explicit `(start, node)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate starts, duplicate nodes or empty input.
    pub fn new(mut pairs: Vec<(RingPos, NodeId)>) -> Self {
        assert!(!pairs.is_empty(), "a ring needs at least one node");
        pairs.sort_by_key(|&(s, _)| s);
        for w in pairs.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate range start {:#x}", w[0].0);
        }
        let mut nodes: Vec<NodeId> = pairs.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), pairs.len(), "a node may own only one range");
        RingMap {
            entries: pairs
                .into_iter()
                .map(|(start, node)| RingEntry { start, node })
                .collect(),
        }
    }

    /// `n` nodes with equal ranges; node `i` starts at `i·2^64/n`.
    pub fn uniform(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty());
        let n = nodes.len();
        RingMap::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &node)| (((i as u128 * FULL) / n as u128) as u64, node))
                .collect(),
        )
    }

    /// Ranges proportional to `weight[i]` (e.g. server speeds), preserving
    /// node order. This is the "proportional ranges" target of §4.6.
    pub fn proportional(nodes: &[NodeId], weights: &[f64]) -> Self {
        assert_eq!(nodes.len(), weights.len());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        let mut pairs = Vec::with_capacity(nodes.len());
        let mut acc = 0.0f64;
        for (i, &node) in nodes.iter().enumerate() {
            let start = ((acc / total) * FULL as f64) as u64;
            pairs.push((start, node));
            acc += weights[i];
        }
        // rounding collisions are possible for minuscule weights; nudge
        pairs.sort_by_key(|&(s, _)| s);
        for i in 1..pairs.len() {
            if pairs[i].0 <= pairs[i - 1].0 {
                pairs[i].0 = pairs[i - 1].0 + 1;
            }
        }
        RingMap::new(pairs)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[RingEntry] {
        &self.entries
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    /// Index (into `entries`) of the node in charge of position `x`: the
    /// entry with the greatest start ≤ x, wrapping to the last entry when
    /// `x` precedes every start. O(log n).
    pub fn idx_in_charge(&self, x: RingPos) -> usize {
        match self.entries.binary_search_by_key(&x, |e| e.start) {
            Ok(i) => i,
            Err(0) => self.entries.len() - 1, // wrap: owned by the last node
            Err(i) => i - 1,
        }
    }

    /// The node in charge of position `x`.
    pub fn in_charge(&self, x: RingPos) -> NodeId {
        self.entries[self.idx_in_charge(x)].node
    }

    /// The range `[start, end)` of the entry at index `i`, as a Window
    /// `(start−1, end−1]`… no — ranges are native `[start, next_start)`;
    /// returned as `(start, next_start)` pair.
    pub fn range_at(&self, i: usize) -> (RingPos, RingPos) {
        let start = self.entries[i].start;
        let end = self.entries[(i + 1) % self.entries.len()].start;
        (start, end)
    }

    /// Range of a node by id; O(n).
    pub fn range_of(&self, node: NodeId) -> Option<(RingPos, RingPos)> {
        let i = self.entries.iter().position(|e| e.node == node)?;
        Some(self.range_at(i))
    }

    /// Fraction of the ring owned by entry `i` (1.0 for a single node).
    pub fn fraction_at(&self, i: usize) -> f64 {
        if self.entries.len() == 1 {
            return 1.0;
        }
        let (s, e) = self.range_at(i);
        dist_cw(s, e) as f64 / FULL as f64
    }

    /// Per-node fraction map in entry order.
    pub fn fractions(&self) -> Vec<(NodeId, f64)> {
        (0..self.entries.len())
            .map(|i| (self.entries[i].node, self.fraction_at(i)))
            .collect()
    }

    /// Entry index cyclically after `i`.
    pub fn next_idx(&self, i: usize) -> usize {
        (i + 1) % self.entries.len()
    }

    /// Entry index cyclically before `i`.
    pub fn prev_idx(&self, i: usize) -> usize {
        (i + self.entries.len() - 1) % self.entries.len()
    }

    /// Insert `node` with range starting at `at`. The owner of `at`'s range
    /// is split: the new node takes `[at, old_next_start)`.
    ///
    /// # Panics
    /// Panics if `at` collides with an existing start or `node` is present.
    pub fn insert(&mut self, node: NodeId, at: RingPos) {
        assert!(
            self.entries.iter().all(|e| e.node != node),
            "node {node} already on the ring"
        );
        match self.entries.binary_search_by_key(&at, |e| e.start) {
            Ok(_) => panic!("start {at:#x} already taken"),
            Err(i) => self.entries.insert(i, RingEntry { start: at, node }),
        }
    }

    /// Insert `node` taking the second half of node-entry `i`'s range — the
    /// "insert at the hottest spot" operation of §4.9.
    pub fn insert_half(&mut self, node: NodeId, target_idx: usize) {
        let (s, e) = self.range_at(target_idx);
        let mid = s.wrapping_add(dist_cw(s, e) / 2);
        assert!(mid != s, "target range too small to split");
        self.insert(node, mid);
    }

    /// Remove a node; its range merges into its predecessor ("the two
    /// neighbours will grow their ranges into the range of the node", §4.4 —
    /// we model the common single-heir case; balancing re-splits later).
    ///
    /// # Panics
    /// Panics if the node is absent or it is the last node on the ring.
    pub fn remove(&mut self, node: NodeId) {
        assert!(self.entries.len() > 1, "cannot remove the last node");
        let i = self
            .entries
            .iter()
            .position(|e| e.node == node)
            .unwrap_or_else(|| panic!("node {node} not on the ring"));
        self.entries.remove(i);
    }

    /// Move the boundary between entry `i` and its predecessor to
    /// `new_start` — the primitive of §4.6 local load balancing. The new
    /// start must remain strictly between the predecessor's start and this
    /// entry's range end.
    pub fn set_start(&mut self, i: usize, new_start: RingPos) {
        assert!(
            self.entries.len() >= 2,
            "boundary moves need at least two nodes"
        );
        let prev = self.prev_idx(i);
        let (_, end) = self.range_at(i);
        let prev_start = self.entries[prev].start;
        // valid starts are strictly after the predecessor's start and
        // strictly before this entry's range end: (prev_start, end − 1]
        let valid = Window::new(prev_start, end.wrapping_sub(1));
        assert!(
            valid.contains(new_start),
            "new start must remain between the predecessor start and range end"
        );
        self.entries[i].start = new_start;
        // entries remain sorted except possibly at the vector wrap; re-sort
        // cheaply (the vector is nearly sorted).
        self.entries.sort_by_key(|e| e.start);
    }

    /// All nodes whose range intersects the replication arc `[obj, obj+len)`
    /// — the replica set of an object (§4.1).
    pub fn replicas(&self, obj: RingPos, len: u64) -> Vec<NodeId> {
        let n = self.entries.len();
        if n == 1 {
            return vec![self.entries[0].node];
        }
        let mut out = Vec::new();
        let mut i = self.idx_in_charge(obj);
        out.push(self.entries[i].node);
        loop {
            i = self.next_idx(i);
            let s = self.entries[i].start;
            // node's range starts inside (obj, obj+len)?
            let d = dist_cw(obj, s);
            if d != 0 && d < len && out.len() < n {
                out.push(self.entries[i].node);
            } else {
                break;
            }
        }
        out
    }

    /// Check structural invariants; used by property tests and after
    /// balancing steps.
    pub fn check_invariants(&self) {
        assert!(!self.entries.is_empty());
        for w in self.entries.windows(2) {
            assert!(w[0].start < w[1].start, "entries must be strictly sorted");
        }
        let mut nodes: Vec<NodeId> = self.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), self.entries.len(), "duplicate node");
        if self.entries.len() > 1 {
            let total: u128 = (0..self.entries.len())
                .map(|i| {
                    let (s, e) = self.range_at(i);
                    dist_cw(s, e) as u128
                })
                .sum();
            assert_eq!(total, FULL, "ranges must tile the ring exactly");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map4() -> RingMap {
        RingMap::new(vec![(0, 0), (100, 1), (200, 2), (300, 3)])
    }

    #[test]
    fn in_charge_basic() {
        let m = map4();
        assert_eq!(m.in_charge(0), 0);
        assert_eq!(m.in_charge(99), 0);
        assert_eq!(m.in_charge(100), 1);
        assert_eq!(m.in_charge(299), 2);
        assert_eq!(m.in_charge(300), 3);
        assert_eq!(m.in_charge(u64::MAX), 3); // wraps to last
    }

    #[test]
    fn uniform_ranges_equal() {
        let m = RingMap::uniform(&[0, 1, 2, 3]);
        for i in 0..4 {
            assert!((m.fraction_at(i) - 0.25).abs() < 1e-12);
        }
        m.check_invariants();
    }

    #[test]
    fn proportional_ranges_follow_weights() {
        let m = RingMap::proportional(&[0, 1, 2], &[1.0, 2.0, 1.0]);
        let fr: Vec<f64> = (0..3).map(|i| m.fraction_at(i)).collect();
        assert!((fr[0] - 0.25).abs() < 1e-9);
        assert!((fr[1] - 0.5).abs() < 1e-9);
        assert!((fr[2] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn insert_takes_tail_of_range() {
        let mut m = map4();
        m.insert(9, 150);
        assert_eq!(m.in_charge(149), 1);
        assert_eq!(m.in_charge(150), 9);
        assert_eq!(m.in_charge(199), 9);
        assert_eq!(m.in_charge(200), 2);
        m.check_invariants();
    }

    #[test]
    fn insert_half_splits_evenly() {
        let mut m = map4();
        m.insert_half(9, 0); // node 0 owns [0,100)
        assert_eq!(m.in_charge(49), 0);
        assert_eq!(m.in_charge(50), 9);
        m.check_invariants();
    }

    #[test]
    fn remove_merges_into_predecessor() {
        let mut m = map4();
        m.remove(2); // [200,300) joins node 1
        assert_eq!(m.in_charge(250), 1);
        assert_eq!(m.in_charge(300), 3);
        m.check_invariants();
    }

    #[test]
    #[should_panic]
    fn remove_last_node_rejected() {
        let mut m = RingMap::new(vec![(5, 0)]);
        m.remove(0);
    }

    #[test]
    fn set_start_moves_boundary() {
        let mut m = map4();
        // grow node 1 into node 0's range: boundary 100 -> 60
        let i = m.entries().iter().position(|e| e.node == 1).unwrap();
        m.set_start(i, 60);
        assert_eq!(m.in_charge(60), 1);
        assert_eq!(m.in_charge(59), 0);
        m.check_invariants();
    }

    #[test]
    #[should_panic]
    fn set_start_cannot_swallow_predecessor() {
        let mut m = map4();
        let i = m.entries().iter().position(|e| e.node == 1).unwrap();
        m.set_start(i, 0); // would erase node 0's range
    }

    #[test]
    fn replicas_intersecting_arc() {
        let m = map4();
        // arc [150, 350): intersects node 1 [100,200), node 2 [200,300), node 3 [300,400)
        assert_eq!(m.replicas(150, 200), vec![1, 2, 3]);
        // tiny arc inside node 0
        assert_eq!(m.replicas(10, 5), vec![0]);
        // arc crossing the wrap: [max-50, ...+100)
        let reps = m.replicas(u64::MAX - 50, 100);
        assert!(reps.contains(&3) && reps.contains(&0), "{reps:?}");
    }

    #[test]
    fn replicas_single_node() {
        let m = RingMap::new(vec![(123, 7)]);
        assert_eq!(m.replicas(42, 10), vec![7]);
    }

    #[test]
    fn replicas_cap_at_n() {
        let m = map4();
        let reps = m.replicas(50, u64::MAX); // arc ≈ whole ring
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn coverage_contains_own_range_objects() {
        let (s, e) = map4().range_at(1); // node 1: [100,200)
        let cov = crate::ring::coverage_window(s, e, 120); // (100-120, 199]
        assert!(cov.contains(150));
        assert!(cov.contains(50)); // object at 50 has arc [50,170) ∋ node range
        assert!(!cov.contains(200));
    }

    proptest! {
        #[test]
        fn prop_in_charge_matches_linear_scan(
            starts in proptest::collection::btree_set(any::<u64>(), 1..20),
            x: u64
        ) {
            let pairs: Vec<(RingPos, NodeId)> =
                starts.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let m = RingMap::new(pairs.clone());
            // linear scan reference: greatest start <= x, else max start
            let byscan = pairs
                .iter()
                .filter(|&&(s, _)| s <= x)
                .max_by_key(|&&(s, _)| s)
                .or_else(|| pairs.iter().max_by_key(|&&(s, _)| s))
                .unwrap()
                .1;
            prop_assert_eq!(m.in_charge(x), byscan);
        }

        #[test]
        fn prop_ranges_tile_ring(
            starts in proptest::collection::btree_set(any::<u64>(), 2..24)
        ) {
            let pairs: Vec<(RingPos, NodeId)> =
                starts.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let m = RingMap::new(pairs);
            m.check_invariants();
        }

        #[test]
        fn prop_replicas_agree_with_arc_intersection(
            starts in proptest::collection::btree_set(any::<u64>(), 2..16),
            obj: u64,
            len in 1u64..u64::MAX
        ) {
            let pairs: Vec<(RingPos, NodeId)> =
                starts.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let m = RingMap::new(pairs);
            let reps = m.replicas(obj, len);
            // reference: node's range [s,e) intersects [obj, obj+len) iff
            // in_charge(obj) == node or dist(obj, s) < len
            for i in 0..m.len() {
                let (s, _) = m.range_at(i);
                let node = m.entries()[i].node;
                let expect = m.in_charge(obj) == node || {
                    let d = dist_cw(obj, s);
                    d != 0 && d < len
                };
                prop_assert_eq!(reps.contains(&node), expect,
                    "node {} obj {:#x} len {:#x}", node, obj, len);
            }
        }
    }
}
