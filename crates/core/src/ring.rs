//! The continuous ring ID space (§4).
//!
//! ROAR's insight is that "the discreteness of replica placement is the main
//! source of problems" in the sliding-window algorithm, so it replaces node
//! slots with a continuous circular ID space. We realise the unit ring
//! `[0, 1)` as 64-bit fixed point: a position is a `u64`, wrap-around is
//! native wrapping arithmetic, and clockwise distance is a wrapping
//! subtraction. Object keys (uniform `u64`s) double as ring positions.
//!
//! Three geometric notions from the paper live here:
//!
//! * **query points** — `pq` maximally-equidistant positions derived from a
//!   start id (§4.2); rounding is spread so consecutive gaps differ by at
//!   most one unit and every gap is ≤ `ceil(2^64/pq)`;
//! * **replication arcs** — each object is stored on the servers whose range
//!   intersects `[obj, obj + L(p))` (§4.1); we set `L(p) = ceil(2^64/p) + 1`
//!   so a query point is always *strictly* inside the arc of every object it
//!   is responsible for, eliminating boundary double-coverage;
//! * **match windows** — the deduplication of §4.2 (Eq. 4.1/4.2) assigns to
//!   the sub-query at point `id_q` the objects in the half-open interval
//!   `(previous point, id_q]`. We carry that window explicitly in each
//!   sub-query, which uniformly expresses normal operation, `pq > p`
//!   over-partitioning, the failure fall-back splits of §4.4 and the range
//!   adjustments of §4.8.2.

use std::ops::Range;

/// A position on the unit ring, in 1/2⁶⁴ units.
pub type RingPos = u64;

/// The full circle as a `u128` (2⁶⁴ units).
pub const FULL: u128 = 1u128 << 64;

/// Convert a fraction in `[0, 1)` to a ring position.
pub fn pos_from_f64(x: f64) -> RingPos {
    let x = x.rem_euclid(1.0);
    (x * FULL as f64) as u64
}

/// Convert a ring position to a fraction in `[0, 1)`.
pub fn pos_to_f64(x: RingPos) -> f64 {
    x as f64 / FULL as f64
}

/// Clockwise distance from `a` to `b` (how far to travel from `a`,
/// increasing, to reach `b`). Zero when equal.
pub fn dist_cw(a: RingPos, b: RingPos) -> u64 {
    b.wrapping_sub(a)
}

/// Replication arc length `L(p)`: the object stored at `o` lives on the
/// servers whose range intersects `[o, o + L(p))`.
///
/// `L(p) = ceil(2^64/p) + 1` (saturating). The `+1` guarantees that the
/// query point immediately clockwise of an object — at most `ceil(2^64/pq) ≤
/// ceil(2^64/p)` away for any `pq ≥ p` — is *strictly* inside the arc, so
/// the server owning that point always holds the object. This is the
/// fixed-point analogue of the paper's `δ` slack (§4.4).
pub fn arc_len(p: usize) -> u64 {
    assert!(p >= 1, "partitioning level must be ≥ 1");
    if p == 1 {
        return u64::MAX;
    }
    let ceil = FULL.div_ceil(p as u128) as u64;
    ceil.saturating_add(1)
}

/// The `pq` maximally-equidistant query points for start id `seed`:
/// `seed + floor(i · 2^64 / pq)` (§4.2). Gaps between consecutive points are
/// `floor` or `ceil` of `2^64/pq`, so max gap ≤ `ceil(2^64/pq)`.
pub fn query_points(seed: RingPos, pq: usize) -> Vec<RingPos> {
    assert!(pq >= 1, "need at least one sub-query");
    (0..pq)
        .map(|i| seed.wrapping_add(((i as u128 * FULL) / pq as u128) as u64))
        .collect()
}

/// Does the replication arc `[obj, obj + len)` contain position `x`?
pub fn arc_contains(obj: RingPos, len: u64, x: RingPos) -> bool {
    dist_cw(obj, x) < len
}

/// The coverage window of the range `[s, e)` under replication-arc length
/// `l`: the ids whose arc intersects the range, `(s − l, e − 1]`.
///
/// Clamped to the full ring when `len(range) + l ≥ 2^64`. Churn can grow a
/// single range past `1 − 1/p` of the ring (arc merges on node removal),
/// where the naive subtraction wraps the window onto itself and silently
/// truncates the coverage to `(range + l) mod 2^64` — the node would then
/// refuse sub-queries inside its *own range*. A zero-length range means the
/// single-entry full ring and is likewise full coverage.
pub fn coverage_window(s: RingPos, e: RingPos, l: u64) -> Window {
    let range_len = dist_cw(s, e) as u128;
    if range_len == 0 || range_len + l as u128 >= FULL {
        Window::full(e)
    } else {
        Window::new(s.wrapping_sub(l), e.wrapping_sub(1))
    }
}

/// A half-open match window `(start, end]` on the ring.
///
/// Convention: `start == end` denotes the **full ring** (used for `pq = 1`);
/// there is no empty window — the planner never constructs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    pub start: RingPos,
    pub end: RingPos,
}

impl Window {
    pub fn new(start: RingPos, end: RingPos) -> Self {
        Window { start, end }
    }

    /// Full-ring window anchored at `at`.
    pub fn full(at: RingPos) -> Self {
        Window { start: at, end: at }
    }

    pub fn is_full(&self) -> bool {
        self.start == self.end
    }

    /// A window never has zero length: equal endpoints mean the full ring.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Window length in ring units (`2^64` for the full ring).
    pub fn len(&self) -> u128 {
        if self.is_full() {
            FULL
        } else {
            dist_cw(self.start, self.end) as u128
        }
    }

    /// Fraction of the ring covered — under uniformly distributed object
    /// ids, also the fraction of the dataset this window scans.
    pub fn fraction(&self) -> f64 {
        self.len() as f64 / FULL as f64
    }

    /// Membership test: `x ∈ (start, end]`. This is the deduplication rule
    /// of Eq. 4.1/4.2 — each object is matched by exactly one of the windows
    /// partitioning the ring.
    pub fn contains(&self, x: RingPos) -> bool {
        if self.is_full() {
            return true;
        }
        // x ∈ (start, end] ⟺ 0 < x−start ≤ end−start
        let dx = dist_cw(self.start, x);
        dx != 0 && dx <= dist_cw(self.start, self.end)
    }

    /// The window as closed id intervals `[lo, hi]` that do not wrap: one,
    /// or — for a window across position 0 — the high slice `[start + 1,
    /// MAX]` followed by the low slice `[0, end]`.
    pub fn intervals(&self) -> impl Iterator<Item = (RingPos, RingPos)> {
        let (lo, hi) = (self.start.wrapping_add(1), self.end);
        let [first, second] = if self.is_full() {
            [Some((0, RingPos::MAX)), None]
        } else if lo <= hi {
            [Some((lo, hi)), None]
        } else {
            [Some((lo, RingPos::MAX)), Some((0, hi))]
        };
        first.into_iter().chain(second)
    }

    /// Where the window cuts the ascending id list `ids`: per interval of
    /// [`intervals`](Self::intervals), in that order, the index range of
    /// the ids inside it (possibly empty). Every store selects, counts and
    /// trims a window through this one binary search.
    pub fn index_ranges<'a>(&self, ids: &'a [RingPos]) -> impl Iterator<Item = Range<usize>> + 'a {
        self.intervals().map(move |(lo, hi)| {
            ids.partition_point(|&id| id < lo)..ids.partition_point(|&id| id <= hi)
        })
    }

    /// Is `self` contained in `other` (both as subsets of the ring)?
    pub fn subset_of(&self, other: &Window) -> bool {
        if other.is_full() {
            return true;
        }
        if self.is_full() {
            return false;
        }
        let shift = dist_cw(other.start, self.start) as u128;
        shift + self.len() <= other.len()
    }

    /// The part of `self` outside `other`, as at most two windows in
    /// clockwise order from `self.start` — what a node must download when
    /// its coverage grows from `other` to `self`. Empty when `self` is a
    /// subset of `other`; full windows count as the whole ring whatever
    /// their anchor.
    pub fn minus(&self, other: &Window) -> impl Iterator<Item = Window> {
        let s = self.start;
        let pieces: [Option<Window>; 2] = if other.is_full() {
            [None, None]
        } else if self.is_full() {
            [Some(Window::new(other.end, other.start)), None]
        } else {
            // offsets clockwise from `s`: self is [1, n] and other is
            // [d + 1, d + m], which runs past FULL back to 1 when it covers
            // `s` (offset FULL is `s` itself; n < FULL here)
            let (n, d, m) = (self.len(), dist_cw(s, other.start) as u128, other.len());
            let piece = |lo: u128, hi: u128| {
                (lo <= hi).then(|| {
                    Window::new(s.wrapping_add((lo - 1) as u64), s.wrapping_add(hi as u64))
                })
            };
            if d + m <= FULL {
                [piece(1, n.min(d)), piece(d + m + 1, n)]
            } else {
                [piece(d + m - FULL + 1, n.min(d)), None]
            }
        };
        pieces.into_iter().flatten()
    }

    /// Split at `mid ∈ (start, end)`, returning `((start, mid], (mid, end])`.
    ///
    /// # Panics
    /// Panics if `mid` is not strictly inside the window.
    pub fn split_at(&self, mid: RingPos) -> (Window, Window) {
        assert!(
            self.contains(mid) && mid != self.end,
            "split point must be strictly inside the window"
        );
        (Window::new(self.start, mid), Window::new(mid, self.end))
    }

    /// The midpoint of the window (for even splits).
    pub fn midpoint(&self) -> RingPos {
        self.start.wrapping_add((self.len() / 2) as u64)
    }
}

/// The windows induced by a set of query points: window `i` is
/// `(point_{i−1}, point_i]` (cyclically), so the windows partition the ring
/// and every object is matched exactly once.
pub fn windows_of_points(points: &[RingPos]) -> Vec<Window> {
    let pq = points.len();
    assert!(pq >= 1);
    if pq == 1 {
        return vec![Window::full(points[0])];
    }
    (0..pq)
        .map(|i| {
            let prev = points[(i + pq - 1) % pq];
            Window::new(prev, points[i])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_cover_exactly_the_window() {
        let probes = [
            0,
            1,
            5,
            6,
            49,
            50,
            51,
            u64::MAX - 10,
            u64::MAX - 9,
            u64::MAX,
        ];
        for w in [
            Window::new(5, 50),
            Window::new(u64::MAX - 10, 50), // wraps: high slice, then low
            Window::new(u64::MAX, 5),       // lo wraps to 0: one interval
            Window::new(50, u64::MAX),
            Window::full(7),
        ] {
            let intervals: Vec<_> = w.intervals().collect();
            assert!(intervals.iter().all(|&(lo, hi)| lo <= hi), "{w:?}");
            for x in probes {
                let inside = intervals.iter().any(|&(lo, hi)| lo <= x && x <= hi);
                assert_eq!(inside, w.contains(x), "{w:?} at {x}");
            }
        }
        let wrapped: Vec<_> = Window::new(u64::MAX - 10, 50).intervals().collect();
        assert_eq!(wrapped, vec![(u64::MAX - 9, u64::MAX), (0, 50)]);
    }
    use proptest::prelude::*;

    #[test]
    fn f64_roundtrip() {
        for x in [0.0, 0.25, 0.5, 0.999999] {
            let p = pos_from_f64(x);
            assert!((pos_to_f64(p) - x).abs() < 1e-9);
        }
        assert_eq!(pos_from_f64(1.25), pos_from_f64(0.25));
    }

    #[test]
    fn dist_cw_wraps() {
        assert_eq!(dist_cw(10, 14), 4);
        assert_eq!(dist_cw(14, 10), u64::MAX - 3);
        assert_eq!(dist_cw(7, 7), 0);
    }

    #[test]
    fn arc_len_exceeds_max_gap() {
        for p in [2usize, 3, 5, 7, 47, 1000] {
            for pq_mult in 1..4 {
                let pq = p * pq_mult;
                let pts = query_points(12345, pq);
                let max_gap = (0..pq)
                    .map(|i| dist_cw(pts[i], pts[(i + 1) % pq]))
                    .max()
                    .unwrap();
                assert!(
                    (max_gap as u128) < arc_len(p) as u128,
                    "p={p} pq={pq}: gap {max_gap} vs L {}",
                    arc_len(p)
                );
            }
        }
    }

    #[test]
    fn query_points_equidistant_within_one_unit() {
        let pts = query_points(0, 7);
        let gaps: Vec<u64> = (0..7).map(|i| dist_cw(pts[i], pts[(i + 1) % 7])).collect();
        let min = *gaps.iter().min().unwrap();
        let max = *gaps.iter().max().unwrap();
        assert!(max - min <= 1, "gaps {gaps:?}");
        let total: u128 = gaps.iter().map(|&g| g as u128).sum();
        assert_eq!(total, FULL);
    }

    #[test]
    fn windows_partition_ring() {
        let pts = query_points(999, 5);
        let ws = windows_of_points(&pts);
        let total: u128 = ws.iter().map(|w| w.len()).sum();
        assert_eq!(total, FULL);
    }

    #[test]
    fn coverage_window_clamps_to_full_ring() {
        // normal arc: the plain subtraction formula
        assert_eq!(coverage_window(1000, 2000, 100), Window::new(900, 1999));
        // range + l spans the whole ring: coverage is everything, not the
        // truncated (range + l) mod 2^64 arc
        let l = arc_len(2);
        let s = 0xb800_0000_0000_0000u64;
        let e = 0xa000_0000_0000_0000u64; // ~91% of the ring
        assert!(coverage_window(s, e, l).is_full());
        // zero-length range: the single-entry full-ring range
        assert!(coverage_window(7, 7, 100).is_full());
        // just below the clamp threshold the formula still applies
        let s2 = 0u64;
        let e2 = u64::MAX; // range one unit short of full
        assert!(!coverage_window(s2, e2, 0).is_full());
        assert!(coverage_window(s2, e2, 1).is_full());
    }

    #[test]
    fn minus_cuts_at_most_two_windows() {
        let minus = |a: Window, b: Window| a.minus(&b).collect::<Vec<_>>();
        let w = Window::new(10, 100);
        assert_eq!(minus(w, Window::new(50, 100)), vec![Window::new(10, 50)]);
        assert_eq!(
            minus(w, Window::new(20, 30)),
            vec![Window::new(10, 20), Window::new(30, 100)]
        );
        assert_eq!(minus(w, Window::new(200, 300)), vec![w], "disjoint");
        assert_eq!(minus(w, Window::full(3)), vec![]);
        assert_eq!(minus(Window::full(3), w), vec![Window::new(100, 10)]);
        // the other window wraps over self.start
        let wrapped = Window::new(u64::MAX - 5, 10);
        assert_eq!(
            minus(wrapped, Window::new(u64::MAX - 10, 0)),
            vec![Window::new(0, 10)]
        );
    }

    #[test]
    fn window_contains_basics() {
        let w = Window::new(10, 20);
        assert!(!w.contains(10)); // open at start
        assert!(w.contains(11));
        assert!(w.contains(20)); // closed at end
        assert!(!w.contains(21));
        assert!(!w.contains(5));
    }

    #[test]
    fn window_wrap_contains() {
        let w = Window::new(u64::MAX - 5, 10);
        assert!(w.contains(u64::MAX));
        assert!(w.contains(0));
        assert!(w.contains(10));
        assert!(!w.contains(11));
        assert!(!w.contains(u64::MAX - 5));
    }

    #[test]
    fn full_window_contains_everything() {
        let w = Window::full(42);
        assert!(w.contains(0));
        assert!(w.contains(42));
        assert!(w.contains(u64::MAX));
        assert_eq!(w.len(), FULL);
    }

    #[test]
    fn subset_relation() {
        let big = Window::new(10, 100);
        let small = Window::new(20, 50);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        assert!(big.subset_of(&big));
        assert!(big.subset_of(&Window::full(7)));
        assert!(!Window::full(7).subset_of(&big));
        // wrap cases
        let wbig = Window::new(u64::MAX - 10, 50);
        let wsmall = Window::new(u64::MAX - 2, 3);
        assert!(wsmall.subset_of(&wbig));
        assert!(!wbig.subset_of(&wsmall));
    }

    #[test]
    fn split_partitions_window() {
        let w = Window::new(100, 200);
        let (a, b) = w.split_at(150);
        assert_eq!(a, Window::new(100, 150));
        assert_eq!(b, Window::new(150, 200));
        assert_eq!(a.len() + b.len(), w.len());
        for x in [101u64, 150, 151, 200] {
            assert_eq!(w.contains(x), a.contains(x) || b.contains(x));
            assert!(!(a.contains(x) && b.contains(x)));
        }
    }

    #[test]
    fn midpoint_inside() {
        let w = Window::new(u64::MAX - 100, 100);
        let m = w.midpoint();
        assert!(w.contains(m));
        assert!(m != w.end);
    }

    proptest! {
        #[test]
        fn prop_windows_exactly_once(seed: u64, obj: u64, pq in 1usize..64) {
            let pts = query_points(seed, pq);
            let ws = windows_of_points(&pts);
            let hits = ws.iter().filter(|w| w.contains(obj)).count();
            prop_assert_eq!(hits, 1);
        }

        #[test]
        fn prop_index_ranges_agree_with_contains(
            set in proptest::collection::btree_set(any::<u64>(), 0..48),
            s: u64,
            e: u64,
            a: usize,
            b: usize,
            mode in 0u8..6
        ) {
            let mut set = set;
            if mode >= 3 {
                set.extend([0, 1, u64::MAX - 1, u64::MAX]); // ids at the wrap
            }
            let ids: Vec<u64> = set.into_iter().collect();
            // endpoints on stored ids put the open start and the closed end
            // on a record
            let at = |k: usize| ids[k % ids.len()];
            let w = match mode % 3 {
                0 => Window::new(s, e),
                1 if !ids.is_empty() => Window::new(at(a), at(b)),
                _ => Window::full(s),
            };
            let ranges: Vec<Range<usize>> = w.index_ranges(&ids).collect();
            prop_assert_eq!(ranges.len(), w.intervals().count());
            let mut got: Vec<u64> = ranges.iter().flat_map(|r| ids[r.clone()].to_vec()).collect();
            let want: Vec<u64> = ids.iter().copied().filter(|&id| w.contains(id)).collect();
            got.sort_unstable();
            prop_assert_eq!(got, want, "{:?} over {:?}", w, ids);
        }

        #[test]
        fn prop_minus_is_the_set_difference(
            s1: u64,
            e1: u64,
            p1 in 1usize..=16,
            s2: u64,
            e2: u64,
            p2 in 1usize..=16,
            short in 1u64..1 << 40,
            mode in 0u8..6,
            points in proptest::collection::vec(any::<u64>(), 16)
        ) {
            // old and new coverage arcs: unrelated, the same range at
            // another p, one range grown at its start, zero-length ranges
            // (full coverage), and short ranges a few units apart
            let (e1, s2, e2) = match mode {
                1 => (e1, s1, e1),
                2 => (e1, s2, e1),
                3 => (s1, s2, e2),
                4 => (e1, s2, s2),
                5 => (s1.wrapping_add(short), s1.wrapping_add(e2 % 8), s1.wrapping_add(short + s2 % 8)),
                _ => (e1, s2, e2),
            };
            let old = coverage_window(s1, e1, arc_len(p1));
            let new = coverage_window(s2, e2, arc_len(p2));
            let gain: Vec<Window> = new.minus(&old).collect();
            prop_assert!(gain.len() <= 2, "{:?} minus {:?} = {:?}", new, old, gain);
            let edges = [old, new].into_iter().chain(gain.iter().copied());
            let edges = edges.flat_map(|w| [w.start, w.end]);
            let near = edges.flat_map(|x| [x.wrapping_sub(1), x, x.wrapping_add(1)]);
            for x in points.into_iter().chain(near) {
                let gained = gain.iter().any(|w| w.contains(x));
                prop_assert!(!(gained && old.contains(x)), "gain meets old at {}", x);
                prop_assert!(!gained || new.contains(x), "gain outside new at {}", x);
                prop_assert!(
                    !new.contains(x) || old.contains(x) || gained,
                    "{:?} minus {:?} = {:?} misses {}", new, old, gain, x
                );
            }
        }

        #[test]
        fn prop_split_exactly_once(start: u64, len in 2u64..u64::MAX, x: u64) {
            let w = Window::new(start, start.wrapping_add(len));
            let mid = w.midpoint();
            prop_assume!(mid != w.end && mid != w.start);
            let (a, b) = w.split_at(mid);
            let in_w = w.contains(x);
            let hits = usize::from(a.contains(x)) + usize::from(b.contains(x));
            prop_assert_eq!(hits, usize::from(in_w));
        }

        #[test]
        fn prop_subset_consistent_with_contains(s1: u64, l1 in 1u64..1000, s2: u64, l2 in 1u64..u64::MAX) {
            let sub = Window::new(s1, s1.wrapping_add(l1));
            let sup = Window::new(s2, s2.wrapping_add(l2));
            if sub.subset_of(&sup) {
                // sample some points of sub; all must be in sup
                for k in 0..l1.min(16) {
                    let x = s1.wrapping_add(1 + k * (l1 / l1.clamp(1, 16)).max(1));
                    if sub.contains(x) {
                        prop_assert!(sup.contains(x));
                    }
                }
                prop_assert!(sup.contains(sub.end));
            }
        }

        #[test]
        fn prop_point_gap_bounded(seed: u64, pq in 1usize..200) {
            let pts = query_points(seed, pq);
            let limit = FULL.div_ceil(pq as u128);
            for i in 0..pq {
                let gap = dist_cw(pts[i], pts[(i + 1) % pq]) as u128;
                let gap = if gap == 0 && pq == 1 { FULL } else { gap };
                prop_assert!(gap <= limit);
            }
        }
    }
}
