//! ROAR object placement and query planning (§4.1–§4.2).
//!
//! Storing: each object `o` is replicated on every node whose range
//! intersects the arc `[o, o + L(p))`. Querying: the front-end picks a start
//! id, derives `pq ≥ p` equidistant points, and sends one sub-query per
//! point to the node in charge of that point. Each sub-query carries its
//! match [`Window`] — the deduplication rule of Eq. 4.1/4.2 — so that no two
//! servers match the same object even when `pq > p` (Fig 4.2/4.3).

use crate::ring::{arc_len, coverage_window, query_points, windows_of_points, RingPos, Window};
use crate::ringmap::{NodeId, RingMap};

/// One planned sub-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubQuery {
    /// The query point this sub-query was aimed at (the node in charge of it
    /// executes the sub-query).
    pub point: RingPos,
    /// Objects this server must match: `(prev point, point]`.
    pub window: Window,
    /// The executing node.
    pub node: NodeId,
}

impl SubQuery {
    /// Fraction of the dataset this sub-query scans (uniform object ids).
    pub fn work(&self) -> f64 {
        self.window.fraction()
    }
}

/// A full query plan: `pq` sub-queries whose windows partition the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    pub subs: Vec<SubQuery>,
    pub pq: usize,
}

impl QueryPlan {
    /// Which sub-query matches this object? Exactly one, by construction.
    pub fn matcher_of(&self, obj: RingPos) -> Option<&SubQuery> {
        self.subs.iter().find(|s| s.window.contains(obj))
    }

    /// Total fraction of the dataset scanned (1.0 — exactness check).
    pub fn total_work(&self) -> f64 {
        self.subs.iter().map(|s| s.work()).sum()
    }

    /// The distinct nodes participating.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.subs.iter().map(|s| s.node).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Hedge candidates for sub-query `i` of this plan (see
    /// [`RoarRing::hedge_candidates`]).
    pub fn hedge_candidates(&self, ring: &RoarRing, i: usize) -> Vec<NodeId> {
        ring.hedge_candidates(&self.subs[i])
    }
}

/// A ROAR ring at a given partitioning level.
#[derive(Debug, Clone)]
pub struct RoarRing {
    map: RingMap,
    p: usize,
}

impl RoarRing {
    /// # Panics
    /// Panics if `p < 1`.
    pub fn new(map: RingMap, p: usize) -> Self {
        assert!(p >= 1, "partitioning level must be ≥ 1");
        RoarRing { map, p }
    }

    pub fn map(&self) -> &RingMap {
        &self.map
    }

    pub fn map_mut(&mut self) -> &mut RingMap {
        &mut self.map
    }

    /// Current minimum partitioning level `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Change the partitioning level. A ring that serves live queries is
    /// the one home of `p`, so lowering it must follow §4.5: every node
    /// first downloads its longer arc, and only then does `p` drop
    /// (`roar_cluster::Admin::set_p` does this).
    pub fn set_p(&mut self, p: usize) {
        assert!(p >= 1);
        self.p = p;
    }

    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// Replication arc length `L(p)`.
    pub fn l(&self) -> u64 {
        arc_len(self.p)
    }

    /// Average replication level `r = n/p` (Eq. 2.1).
    pub fn r(&self) -> f64 {
        self.n() as f64 / self.p as f64
    }

    /// The replica set of an object: all nodes whose range intersects
    /// `[obj, obj + L(p))` (§4.1).
    pub fn replicas(&self, obj: RingPos) -> Vec<NodeId> {
        if self.p == 1 {
            // p = 1: the replication arc is the whole ring — every node
            // stores every object
            return self.map.nodes().collect();
        }
        self.map.replicas(obj, self.l())
    }

    /// What `node` holds under this ring: the ids whose replication arc
    /// meets its range, `(start − L, end − 1]`, clamped to the full ring
    /// (always so at `p = 1` or on a single-node ring). `None` off the ring.
    pub fn coverage(&self, node: NodeId) -> Option<Window> {
        let (s, e) = self.map.range_of(node)?;
        Some(coverage_window(s, e, self.l()))
    }

    /// Does `node` store `obj` under the current placement?
    pub fn stores(&self, node: NodeId, obj: RingPos) -> bool {
        self.coverage(node).is_some_and(|cov| cov.contains(obj))
    }

    /// Plan a query: `pq` equidistant points from `seed`, one sub-query per
    /// point, each with its dedup window.
    ///
    /// # Panics
    /// Panics if `pq < p` — such a plan could miss objects (the replication
    /// arcs only guarantee coverage for point spacings ≤ 1/p).
    pub fn plan(&self, seed: RingPos, pq: usize) -> QueryPlan {
        assert!(
            pq >= self.p,
            "pq ({pq}) must be at least the partitioning level p ({})",
            self.p
        );
        let points = query_points(seed, pq);
        let windows = windows_of_points(&points);
        let subs = points
            .iter()
            .zip(windows)
            .map(|(&point, window)| SubQuery {
                point,
                window,
                node: self.map.in_charge(point),
            })
            .collect();
        QueryPlan { subs, pq }
    }

    /// Verify that a sub-query window may be executed by a node: every
    /// object in the window must have a replica on the node. Used by tests,
    /// the range-adjustment optimiser and the failure fall-back.
    pub fn window_executable_by(&self, window: &Window, node: NodeId) -> bool {
        self.coverage(node)
            .is_some_and(|cov| window.subset_of(&cov))
    }

    /// Expected number of objects stored on the node at entry `i`, out of
    /// `d` total: `d/p + d·g_i` (§4.6) — the objects whose arc crosses the
    /// range start plus those starting inside the range.
    pub fn expected_store(&self, i: usize, d: u64) -> f64 {
        let g = self.map.fraction_at(i);
        d as f64 / self.p as f64 + d as f64 * g
    }

    /// Hedge candidates for a sub-query: every node **other than** the
    /// planned executor whose coverage contains the whole window, i.e. the
    /// replicas a tail-tolerant front-end may re-dispatch the sub-query to
    /// when the primary straggles. A full-size `1/p` window fits only its
    /// planned executor's coverage, so at `pq = p` this is usually empty and
    /// callers fall back to the §4.4 window split; over-partitioned
    /// (`pq > p`) and split windows leave slack inside each coverage arc and
    /// have up to `r − 1` spares.
    pub fn hedge_candidates(&self, sub: &SubQuery) -> Vec<NodeId> {
        // the §4.8.2 splitter already defines "nodes whose coverage holds
        // this window"; hedging is that set minus the planned executor
        crate::split::candidate_executors(self, &sub.window)
            .into_iter()
            .filter(|&node| node != sub.node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use roar_util::det_rng;

    fn ring(n: usize, p: usize) -> RoarRing {
        RoarRing::new(RingMap::uniform(&(0..n).collect::<Vec<_>>()), p)
    }

    /// An increase shortens every arc and an unchanged ring keeps it: a
    /// node gains nothing either way. The decrease back gains the arc's
    /// extension alone, the one window before its old start.
    #[test]
    fn an_increase_or_an_unchanged_ring_gains_nothing() {
        for p in 1..=5 {
            let (lower, higher) = (ring(6, p), ring(6, p + 1));
            for node in 0..6 {
                let cov = |r: &RoarRing| r.coverage(node).expect("on the ring");
                assert_eq!(cov(&lower).minus(&cov(&lower)).count(), 0);
                assert_eq!(cov(&higher).minus(&cov(&lower)).count(), 0, "p {p}");
                let gain: Vec<Window> = cov(&lower).minus(&cov(&higher)).collect();
                let extension = if p == 1 {
                    Window::new(cov(&higher).end, cov(&higher).start)
                } else {
                    Window::new(cov(&lower).start, cov(&higher).start)
                };
                assert_eq!(gain, vec![extension], "p {p} node {node}");
            }
        }
    }

    #[test]
    fn plan_has_pq_subqueries_partitioning_ring() {
        let r = ring(12, 4);
        let plan = r.plan(777, 4);
        assert_eq!(plan.subs.len(), 4);
        assert!((plan.total_work() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_object_matched_exactly_once() {
        let r = ring(12, 4);
        let mut rng = det_rng(21);
        for pq in [4usize, 5, 7, 12] {
            let plan = r.plan(rng.gen(), pq);
            for _ in 0..2000 {
                let obj: u64 = rng.gen();
                let hits = plan.subs.iter().filter(|s| s.window.contains(obj)).count();
                assert_eq!(hits, 1, "pq={pq} obj={obj:#x}");
            }
        }
    }

    #[test]
    fn matching_node_stores_the_object() {
        // the fundamental rendezvous guarantee: the sub-query that matches an
        // object runs on a node that holds a replica of it
        let mut rng = det_rng(22);
        for (n, p) in [(12usize, 4usize), (13, 5), (50, 10), (7, 7), (40, 2)] {
            let r = ring(n, p);
            for pq in [p, p + 1, 2 * p] {
                let plan = r.plan(rng.gen(), pq.min(4 * n));
                for _ in 0..500 {
                    let obj: u64 = rng.gen();
                    let sub = plan.matcher_of(obj).expect("exactly one matcher");
                    let reps = r.replicas(obj);
                    assert!(
                        reps.contains(&sub.node),
                        "n={n} p={p} pq={pq}: node {} lacks replica of {obj:#x} (replicas {reps:?})",
                        sub.node
                    );
                }
            }
        }
    }

    #[test]
    fn replica_count_averages_r() {
        let r = ring(40, 8); // r = 5
        let mut rng = det_rng(23);
        let total: usize = (0..4000).map(|_| r.replicas(rng.gen()).len()).sum();
        let avg = total as f64 / 4000.0;
        // r replicas on average, within sampling noise; the +1 over-count
        // (both endpoints' owners) raises it slightly above r = 5
        assert!((avg - 6.0).abs() < 0.25, "avg replicas {avg}");
    }

    #[test]
    fn giant_range_node_covers_and_executes_everything() {
        // regression: churn can merge arcs until one node's range exceeds
        // 1 − 1/p of the ring. Its coverage is then the full ring, and it
        // must never refuse a planner window — the unclamped subtraction
        // used to truncate its coverage to ~40% and drive harvest to zero.
        let map = RingMap::new(vec![
            (0xa000_0000_0000_0000, 4),
            (0xa800_0000_0000_0000, 7),
            (0xb000_0000_0000_0000, 5),
            (0xb800_0000_0000_0000, 6), // wraps to 0xa0…: ~91% of the ring
        ]);
        let r = RoarRing::new(map, 2);
        let mut rng = det_rng(25);
        for _ in 0..2000 {
            let obj: u64 = rng.gen();
            assert!(r.stores(6, obj), "node 6 covers the whole ring: {obj:#x}");
        }
        for _ in 0..50 {
            let plan = r.plan(rng.gen(), 2);
            for sub in &plan.subs {
                assert!(
                    r.window_executable_by(&sub.window, sub.node),
                    "window {:?} refused by node {}",
                    sub.window,
                    sub.node
                );
            }
        }
    }

    #[test]
    fn subquery_windows_executable_by_their_nodes() {
        let mut rng = det_rng(24);
        for (n, p) in [(12usize, 3usize), (20, 5), (9, 2)] {
            let r = ring(n, p);
            for pq in [p, p + 2, 2 * p] {
                let plan = r.plan(rng.gen(), pq);
                for sub in &plan.subs {
                    assert!(
                        r.window_executable_by(&sub.window, sub.node),
                        "n={n} p={p} pq={pq}: window {:?} not executable by {}",
                        sub.window,
                        sub.node
                    );
                }
            }
        }
    }

    #[test]
    fn hedge_candidates_are_capable_spares() {
        // every candidate can execute the window and none is the primary;
        // over-partitioned windows (1/2p) must actually have spares
        let r = ring(12, 3); // r = 4
        let plan = r.plan(99, 6);
        for (i, sub) in plan.subs.iter().enumerate() {
            let cands = plan.hedge_candidates(&r, i);
            assert!(!cands.contains(&sub.node), "primary is not a spare");
            for &c in &cands {
                assert!(
                    r.window_executable_by(&sub.window, c),
                    "candidate {c} cannot cover {:?}",
                    sub.window
                );
            }
            assert!(
                !cands.is_empty(),
                "a 1/2p window leaves coverage slack: sub {i} has no spare"
            );
        }
    }

    #[test]
    fn hedge_candidates_grow_with_overpartitioning() {
        // §4.8.2: smaller windows fit more coverages — hedging gets more
        // placement choice exactly when pq > p
        let r = ring(12, 3);
        let narrow = r.plan(5, 6);
        let wide = r.plan(5, 3);
        let min_narrow = (0..narrow.subs.len())
            .map(|i| narrow.hedge_candidates(&r, i).len())
            .min()
            .unwrap();
        let max_wide = (0..wide.subs.len())
            .map(|i| wide.hedge_candidates(&r, i).len())
            .max()
            .unwrap();
        assert!(
            min_narrow >= max_wide,
            "pq=2p windows should have at least as many spares: {min_narrow} vs {max_wide}"
        );
    }

    #[test]
    fn hedge_candidates_full_ring_window() {
        // p = 1: every node stores everything, so every other node is a spare
        let r = ring(5, 1);
        let plan = r.plan(0, 1);
        assert_eq!(plan.hedge_candidates(&r, 0).len(), 4);
    }

    #[test]
    #[should_panic]
    fn pq_below_p_rejected() {
        let r = ring(12, 4);
        let _ = r.plan(0, 3);
    }

    #[test]
    fn p_equals_one_full_scan() {
        let r = ring(3, 1);
        let plan = r.plan(42, 1);
        assert_eq!(plan.subs.len(), 1);
        assert!(plan.subs[0].window.is_full());
        // with p=1 every node stores everything
        let mut rng = det_rng(25);
        for _ in 0..100 {
            let obj: u64 = rng.gen();
            assert_eq!(r.replicas(obj).len(), 3);
        }
    }

    #[test]
    fn heterogeneous_ranges_still_exact() {
        let map = RingMap::proportional(&[0, 1, 2, 3, 4], &[1.0, 5.0, 2.0, 0.5, 1.5]);
        let r = RoarRing::new(map, 2);
        let mut rng = det_rng(26);
        for _ in 0..50 {
            let plan = r.plan(rng.gen(), 3);
            for _ in 0..200 {
                let obj: u64 = rng.gen();
                let sub = plan.matcher_of(obj).unwrap();
                assert!(r.replicas(obj).contains(&sub.node));
            }
        }
    }

    #[test]
    fn expected_store_dominated_by_d_over_p() {
        let r = ring(50, 10);
        let per_node = r.expected_store(0, 1_000_000);
        // d/p = 100k, d·g = 20k
        assert!((per_node - 120_000.0).abs() < 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_rendezvous_exactness(
            n in 2usize..24,
            p_frac in 0.0f64..1.0,
            pq_extra in 0usize..8,
            seed: u64,
            objs in proptest::collection::vec(any::<u64>(), 20)
        ) {
            let p = ((n as f64 * p_frac) as usize).clamp(1, n);
            let r = ring(n, p);
            let pq = p + pq_extra;
            let plan = r.plan(seed, pq);
            for obj in objs {
                let hits: Vec<&SubQuery> =
                    plan.subs.iter().filter(|s| s.window.contains(obj)).collect();
                prop_assert_eq!(hits.len(), 1);
                prop_assert!(r.replicas(obj).contains(&hits[0].node));
            }
        }

        #[test]
        fn prop_stores_consistent_with_replicas(
            n in 2usize..16,
            p in 1usize..16,
            obj: u64
        ) {
            let p = p.min(n);
            let r = ring(n, p);
            let reps = r.replicas(obj);
            for node in 0..n {
                prop_assert_eq!(
                    reps.contains(&node),
                    r.stores(node, obj),
                    "node {} obj {:#x} p {}", node, obj, p
                );
            }
        }
    }
}
