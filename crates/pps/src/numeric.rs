//! Numeric matching (§5.5.3): the reference points of the thesis's
//! inequality construction.
//!
//! Agree on `l` reference points `p_1 … p_l`; the dictionary is
//! `{ ">p_i", "<p_i" }`. A metadata value lists every inequality it
//! satisfies; a query is approximated by the nearest reference point. The
//! thesis's exponentially spaced reference points ("1, 2, …, 10, 20, …,
//! 100, 200, …") give ~100 points over 4-byte integers with precision
//! proportional to magnitude.
//!
//! The construction reduces to keyword matching, so the words live in the
//! one stacked keyword space of [`crate::metadata::MetaEncryptor`]
//! (`size>p`, `date<p`), matched by the Bloom scheme as the thesis does.

/// Exponentially spaced reference points over `[1, limit]`:
/// `1..10, 20..100, 200..1000, …` (the §5.5.3 scheme).
pub fn exponential_reference_points(limit: u64) -> Vec<u64> {
    assert!(limit >= 1);
    let mut pts = Vec::new();
    let mut scale = 1u64;
    loop {
        for d in 1..=9u64 {
            let v = d * scale;
            if v > limit {
                pts.push(limit);
                pts.dedup();
                return pts;
            }
            pts.push(v);
        }
        match scale.checked_mul(10) {
            Some(s) => scale = s,
            None => return pts,
        }
    }
}

/// Coarser 1-2-5 reference series (`1, 2, 5, 10, 20, 50, …`): three points
/// per decade instead of nine. The default [`crate::metadata::MetaEncryptor`]
/// uses it to keep per-record encryption cost in the low milliseconds while
/// preserving magnitude-proportional precision; callers needing the paper's
/// full grid pass [`exponential_reference_points`] explicitly.
pub fn coarse_reference_points(limit: u64) -> Vec<u64> {
    assert!(limit >= 1);
    let mut pts = Vec::new();
    let mut scale = 1u64;
    loop {
        for d in [1u64, 2, 5] {
            let v = match d.checked_mul(scale) {
                Some(v) => v,
                None => return pts,
            };
            if v > limit {
                pts.push(limit);
                pts.dedup();
                return pts;
            }
            pts.push(v);
        }
        match scale.checked_mul(10) {
            Some(s) => scale = s,
            None => return pts,
        }
    }
}

/// Nearest reference point to `v`.
pub fn nearest_point(points: &[u64], v: u64) -> u64 {
    assert!(!points.is_empty());
    *points
        .iter()
        .min_by_key(|&&p| p.abs_diff(v))
        .expect("non-empty points")
}

/// Inequality comparison direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Greater,
    Less,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_points_match_paper() {
        let pts = exponential_reference_points(1_000_000_000);
        // paper: "the number of reference points is only 100" for 1e9
        assert!(pts.len() >= 80 && pts.len() <= 110, "{} points", pts.len());
        assert_eq!(pts[0], 1);
        assert!(pts.contains(&10));
        assert!(pts.contains(&200));
        assert_eq!(*pts.last().unwrap(), 1_000_000_000);
        // strictly increasing
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn nearest_point_picks_closest() {
        let pts = vec![1, 10, 100];
        assert_eq!(nearest_point(&pts, 3), 1);
        assert_eq!(nearest_point(&pts, 8), 10);
        assert_eq!(nearest_point(&pts, 70), 100);
    }

    // The inequality words are served by `MetaEncryptor` (`size>p`,
    // `size<p`); these pin the §5.5.3 construction through it.
    use crate::bloom_kw::PrfCounter;
    use crate::metadata::{Attr, FileMeta, MetaEncryptor};
    use roar_util::det_rng;

    fn sized(size: u64) -> FileMeta {
        FileMeta {
            path: String::new(),
            keywords: vec![],
            size,
            mtime: 1,
        }
    }

    #[test]
    fn inequality_exact_at_reference_points() {
        // §5.5.3: "suppose all queries can be expressed exactly" — at
        // reference points matching must be perfect
        let pts = exponential_reference_points(1000);
        let s = MetaEncryptor::with_points(b"key", pts, vec![1]);
        let mut rng = det_rng(131);
        let c = PrfCounter::new();
        for &p in &[10u64, 100, 500] {
            let (gt, used) = s.query_numeric(Attr::Size, Cmp::Greater, p);
            assert_eq!(used, p, "reference point must be used exactly");
            let above = s.encrypt(&mut rng, &sized(p + 1));
            let below = s.encrypt(&mut rng, &sized(p.saturating_sub(1)));
            assert!(MetaEncryptor::matches(&above, &gt, &c));
            assert!(!MetaEncryptor::matches(&below, &gt, &c));
        }
    }

    #[test]
    fn inequality_less_than() {
        let s = MetaEncryptor::with_points(b"key", vec![10, 100, 1000], vec![1]);
        let mut rng = det_rng(132);
        let c = PrfCounter::new();
        let (lt100, _) = s.query_numeric(Attr::Size, Cmp::Less, 100);
        assert!(MetaEncryptor::matches(
            &s.encrypt(&mut rng, &sized(50)),
            &lt100,
            &c
        ));
        assert!(!MetaEncryptor::matches(
            &s.encrypt(&mut rng, &sized(150)),
            &lt100,
            &c
        ));
    }

    #[test]
    fn inequality_approximation_error_bounded() {
        // the paper's example: query >7 approximated by >5 can misclassify 6
        let s = MetaEncryptor::with_points(b"key", vec![1, 5, 10], vec![1]);
        let (_, used) = s.query_numeric(Attr::Size, Cmp::Greater, 7);
        assert!(used == 5 || used == 10);
    }
}
