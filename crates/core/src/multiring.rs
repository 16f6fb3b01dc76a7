//! Multiple sliding windows — the multi-ring ROAR variant (§4.7).
//!
//! "Instead of having all servers belong to a single logical ring, create a
//! small number of rings (say 2) and have each server belong to only one of
//! the rings. Objects would be stored in both rings, with r/2 replicas in
//! each. A query would still touch p equidistant points, where each point
//! belongs to either of the rings." The scheduler then has `r·2^(p−1)`
//! choices instead of r, recovering most of PTN's delay advantage while
//! keeping ROAR's reconfiguration economics.
//!
//! Scheduling generalises Algorithm 1 directly (§4.8.1, "Scheduling for
//! Multiple Rings"): each slot's executor is the fastest of the per-ring
//! candidates, and the event heap overlays the boundaries of all rings.

use crate::placement::{QueryPlan, RoarRing, SubQuery};
use crate::ring::{dist_cw, query_points, windows_of_points, RingPos, FULL};
use crate::ringmap::NodeId;
use crate::sched::SchedDecision;
use roar_dr::sched::{Assignment, FinishEstimator, QueryScheduler, Task};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A multi-ring ROAR deployment. All rings share the same partitioning
/// level `p`; every object is stored once *per ring* (so the total
/// replication is `Σ_k r_k = n/p`).
#[derive(Debug, Clone)]
pub struct MultiRing {
    rings: Vec<RoarRing>,
}

impl MultiRing {
    /// # Panics
    /// Panics if rings are empty or disagree on `p`, or if a node appears in
    /// more than one ring.
    pub fn new(rings: Vec<RoarRing>) -> Self {
        assert!(!rings.is_empty(), "need at least one ring");
        let p = rings[0].p();
        assert!(rings.iter().all(|r| r.p() == p), "all rings must share p");
        let mut all: Vec<NodeId> = rings.iter().flat_map(|r| r.map().nodes()).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            total,
            "a node may belong to only one ring (§4.7)"
        );
        MultiRing { rings }
    }

    /// Split `nodes` round-robin into `k` rings with equal partitioning `p`.
    pub fn split_uniform(nodes: &[NodeId], k: usize, p: usize) -> Self {
        assert!(
            k >= 1 && nodes.len() >= k,
            "need at least one node per ring"
        );
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, &nd) in nodes.iter().enumerate() {
            groups[i % k].push(nd);
        }
        MultiRing::new(
            groups
                .into_iter()
                .map(|g| RoarRing::new(crate::ringmap::RingMap::uniform(&g), p))
                .collect(),
        )
    }

    pub fn rings(&self) -> &[RoarRing] {
        &self.rings
    }

    pub fn p(&self) -> usize {
        self.rings[0].p()
    }

    /// Total nodes across rings.
    pub fn n(&self) -> usize {
        self.rings.iter().map(|r| r.n()).sum()
    }

    /// Replicas of an object — the union over all rings (an object is
    /// stored once per ring).
    pub fn replicas(&self, obj: RingPos) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.rings.iter().flat_map(|r| r.replicas(obj)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does any ring place `obj` on `node`? (Each node is in one ring, so
    /// this is that ring's placement.)
    pub fn stores(&self, node: NodeId, obj: RingPos) -> bool {
        self.rings.iter().any(|r| r.stores(node, obj))
    }

    /// Minimum replication level: an object has at least one replica per
    /// ring, so `r ≥ k` — the §4.7 observation that k rings force `r ≥ k`.
    pub fn min_replication(&self) -> usize {
        self.rings.len()
    }

    /// Multi-ring Algorithm 1: sweep the start id over one point spacing,
    /// with per-(slot, ring) boundary events; each slot executes on the
    /// fastest candidate among the rings.
    pub fn schedule_sweep(&self, pq: usize, est: &dyn FinishEstimator, seed: u64) -> SchedDecision {
        assert!(pq >= self.p());
        let _k = self.rings.len();
        let work = 1.0 / pq as f64;
        let limit = FULL.div_ceil(pq as u128) as u64;
        let pts0 = query_points(seed, pq);

        let finish_of = |node: NodeId| -> f64 {
            if est.alive(node) {
                est.estimate(node, work)
            } else {
                f64::INFINITY
            }
        };

        // cur[slot][ring] = entry index in that ring
        let mut cur: Vec<Vec<usize>> = pts0
            .iter()
            .map(|&pt| {
                self.rings
                    .iter()
                    .map(|r| r.map().idx_in_charge(pt))
                    .collect()
            })
            .collect();
        // candidate finish per (slot, ring); slot finish = min over rings
        let mut cand: Vec<Vec<f64>> = cur
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(ri, &c)| finish_of(self.rings[ri].map().entries()[c].node))
                    .collect()
            })
            .collect();
        let slot_finish =
            |cand: &Vec<Vec<f64>>, i: usize| cand[i].iter().cloned().fold(f64::MAX, f64::min);
        let mut finish: Vec<f64> = (0..pq).map(|i| slot_finish(&cand, i)).collect();
        let mut delay_q = finish.iter().cloned().fold(f64::MIN, f64::max);
        let mut best = SchedDecision {
            start_id: seed,
            predicted: delay_q,
        };

        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        for i in 0..pq {
            for (ri, ring) in self.rings.iter().enumerate() {
                if ring.n() < 2 {
                    continue; // single-node ring never changes candidates
                }
                let nxt = ring.map().entries()[ring.map().next_idx(cur[i][ri])].start;
                let d = dist_cw(pts0[i], nxt);
                if (d as u128) < limit as u128 {
                    heap.push(Reverse((d, i, ri)));
                }
            }
        }

        while let Some(&Reverse((d, _, _))) = heap.peek() {
            if d as u128 >= limit as u128 {
                break;
            }
            // batch all events at the same id: the configuration only exists
            // once every coincident boundary crossing is applied
            while let Some(&Reverse((d2, slot, ri))) = heap.peek() {
                if d2 != d {
                    break;
                }
                heap.pop();
                let ring = &self.rings[ri];
                cur[slot][ri] = ring.map().next_idx(cur[slot][ri]);
                let node = ring.map().entries()[cur[slot][ri]].node;
                cand[slot][ri] = finish_of(node);
                let was_max = finish[slot] == delay_q;
                let newf = slot_finish(&cand, slot);
                finish[slot] = newf;
                if was_max && newf < delay_q {
                    delay_q = finish.iter().cloned().fold(f64::MIN, f64::max);
                } else if newf > delay_q {
                    delay_q = newf;
                }
                let nxt = ring.map().entries()[ring.map().next_idx(cur[slot][ri])].start;
                let nd = dist_cw(pts0[slot], nxt);
                if (nd as u128) < limit as u128 && nd > d {
                    heap.push(Reverse((nd, slot, ri)));
                }
            }
            if delay_q < best.predicted {
                best = SchedDecision {
                    start_id: seed.wrapping_add(d),
                    predicted: delay_q,
                };
            }
        }
        best
    }

    /// Build the dispatchable plan for a chosen start id: each point's
    /// executor is the fastest live candidate among the rings.
    pub fn plan(&self, start_id: u64, pq: usize, est: &dyn FinishEstimator) -> QueryPlan {
        assert!(pq >= self.p());
        let work = 1.0 / pq as f64;
        let points = query_points(start_id, pq);
        let windows = windows_of_points(&points);
        let subs = points
            .iter()
            .zip(windows)
            .map(|(&point, window)| {
                let node = self
                    .rings
                    .iter()
                    .map(|r| r.map().in_charge(point))
                    .min_by(|&a, &b| {
                        let fa = if est.alive(a) {
                            est.estimate(a, work)
                        } else {
                            f64::INFINITY
                        };
                        let fb = if est.alive(b) {
                            est.estimate(b, work)
                        } else {
                            f64::INFINITY
                        };
                        fa.partial_cmp(&fb).expect("NaN estimate")
                    })
                    .expect("at least one ring");
                SubQuery {
                    point,
                    window,
                    node,
                }
            })
            .collect();
        QueryPlan { subs, pq }
    }
}

/// [`QueryScheduler`] adapter for the simulator.
pub struct MultiRingScheduler {
    mr: MultiRing,
    pq: usize,
}

impl MultiRingScheduler {
    pub fn new(mr: MultiRing, pq: usize) -> Self {
        assert!(pq >= mr.p());
        MultiRingScheduler { mr, pq }
    }

    pub fn multiring(&self) -> &MultiRing {
        &self.mr
    }
}

impl QueryScheduler for MultiRingScheduler {
    fn name(&self) -> &'static str {
        "ROAR-2ring"
    }

    fn choices(&self) -> u64 {
        // r · 2^(p−1) (§4.7), saturating
        let r = (self.mr.n() / self.mr.p()).max(1) as u64;
        r.saturating_mul(
            1u64.checked_shl((self.mr.p() as u32 - 1).min(63))
                .unwrap_or(u64::MAX),
        )
    }

    fn schedule(&self, est: &dyn FinishEstimator, seed: u64) -> Assignment {
        let dec = self.mr.schedule_sweep(self.pq, est, seed);
        let plan = self.mr.plan(dec.start_id, self.pq, est);
        let tasks = plan
            .subs
            .iter()
            .map(|s| Task {
                server: s.node,
                work: s.work(),
            })
            .collect();
        Assignment {
            tasks,
            predicted_finish: dec.predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use roar_dr::sched::StaticEstimator;
    use roar_util::det_rng;

    fn mr(n: usize, k: usize, p: usize) -> MultiRing {
        MultiRing::split_uniform(&(0..n).collect::<Vec<_>>(), k, p)
    }

    #[test]
    fn object_stored_once_per_ring() {
        let m = mr(12, 2, 3);
        let mut rng = det_rng(71);
        for _ in 0..200 {
            let obj: u64 = rng.gen();
            let reps = m.replicas(obj);
            // each ring of 6 nodes at p=3 contributes r/2 = 2 (+1 boundary)
            assert!(reps.len() >= 2 * m.min_replication(), "reps {reps:?}");
            // both rings represented
            for ring in m.rings() {
                assert!(!ring.replicas(obj).is_empty());
            }
        }
    }

    #[test]
    fn exactly_once_matching() {
        let m = mr(12, 2, 3);
        let est = StaticEstimator::uniform(12, 1.0);
        let mut rng = det_rng(72);
        for _ in 0..20 {
            let plan = m.plan(rng.gen(), 3, &est);
            for _ in 0..300 {
                let obj: u64 = rng.gen();
                let hits: Vec<&SubQuery> = plan
                    .subs
                    .iter()
                    .filter(|s| s.window.contains(obj))
                    .collect();
                assert_eq!(hits.len(), 1);
                assert!(
                    m.stores(hits[0].node, obj),
                    "node {} obj {obj:#x}",
                    hits[0].node
                );
            }
        }
    }

    #[test]
    fn two_rings_beat_one_on_heterogeneous_fleet() {
        // 16 nodes, half fast half slow, interleaved so one ring gets a mix
        let n = 16;
        let p = 4;
        let mut rng = det_rng(73);
        let speeds: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 4.0 } else { 1.0 }).collect();
        let est = StaticEstimator::with_speeds(speeds);
        let single = crate::placement::RoarRing::new(
            crate::ringmap::RingMap::uniform(&(0..n).collect::<Vec<_>>()),
            p,
        );
        let double = mr(n, 2, p);
        let mut single_total = 0.0;
        let mut double_total = 0.0;
        for _ in 0..50 {
            let seed: u64 = rng.gen();
            single_total += crate::sched::schedule_sweep(&single, p, &est, seed).predicted;
            double_total += double.schedule_sweep(p, &est, seed).predicted;
        }
        assert!(
            double_total <= single_total + 1e-9,
            "2 rings should not be slower: {double_total} vs {single_total}"
        );
    }

    #[test]
    fn sweep_matches_brute_force() {
        let m = mr(10, 2, 2);
        let mut rng = det_rng(74);
        let speeds: Vec<f64> = (0..10).map(|_| rng.gen_range(0.5..4.0)).collect();
        let est = StaticEstimator::with_speeds(speeds);
        for _ in 0..10 {
            let seed: u64 = rng.gen();
            let swept = m.schedule_sweep(2, &est, seed);
            // brute force: evaluate the plan makespan at many offsets
            let limit = (FULL / 2) as u64;
            let mut best = f64::INFINITY;
            let steps = 4096u64;
            for s in 0..steps {
                let off = (limit / steps) * s;
                let plan = m.plan(seed.wrapping_add(off), 2, &est);
                let worst = plan
                    .subs
                    .iter()
                    .map(|sub| est.estimate(sub.node, 0.5))
                    .fold(f64::MIN, f64::max);
                best = best.min(worst);
            }
            // fine sampling can miss the exact boundary; allow tiny slack
            assert!(
                swept.predicted <= best + 1e-9,
                "sweep {} worse than sampled best {}",
                swept.predicted,
                best
            );
        }
    }

    #[test]
    #[should_panic]
    fn overlapping_rings_rejected() {
        let a = crate::placement::RoarRing::new(crate::ringmap::RingMap::uniform(&[0, 1]), 1);
        let b = crate::placement::RoarRing::new(crate::ringmap::RingMap::uniform(&[1, 2]), 1);
        let _ = MultiRing::new(vec![a, b]);
    }

    #[test]
    fn min_replication_is_ring_count() {
        assert_eq!(mr(12, 3, 2).min_replication(), 3);
    }
}
