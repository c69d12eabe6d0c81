//! Property-based tests over the spatial index substrates: every index's
//! range query must agree with a linear scan on arbitrary inputs, and the
//! Z-order machinery must preserve its structural invariants.

use kdv_core::aggregate::RangeAggregates;
use kdv_core::geom::Point;
use kdv_index::zorder;
use kdv_index::{BallTree, KdTree, QuadTree};
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0).prop_map(|(x, y)| Point::new(x, y)),
        0..400,
    )
}

fn query_strategy() -> impl Strategy<Value = (Point, f64)> {
    (
        (-1_200.0f64..1_200.0, -1_200.0f64..1_200.0).prop_map(|(x, y)| Point::new(x, y)),
        0.0f64..2_000.0,
    )
}

fn scan_count(pts: &[Point], q: &Point, r: f64) -> usize {
    pts.iter().filter(|p| q.dist_sq(p) <= r * r).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kdtree_matches_scan(pts in points_strategy(), (q, r) in query_strategy()) {
        let tree = KdTree::build(&pts);
        prop_assert_eq!(tree.count_in_range(&q, r), scan_count(&pts, &q, r));
    }

    #[test]
    fn balltree_matches_scan(pts in points_strategy(), (q, r) in query_strategy()) {
        let tree = BallTree::build(&pts);
        prop_assert_eq!(tree.count_in_range(&q, r), scan_count(&pts, &q, r));
    }

    #[test]
    fn quadtree_count_and_aggregates_match_scan(
        pts in points_strategy(),
        (q, r) in query_strategy(),
    ) {
        let tree = QuadTree::build(&pts);
        let got = std::cell::RefCell::new(RangeAggregates::default());
        tree.visit_range(
            &q,
            r,
            |agg| got.borrow_mut().merge(agg),
            |p| got.borrow_mut().add(p),
        );
        let got = got.into_inner();
        let mut expect = RangeAggregates::default();
        for p in pts.iter().filter(|p| q.dist_sq(p) <= r * r) {
            expect.add(p);
        }
        prop_assert_eq!(got.count, expect.count);
        let tol = 1e-9 * expect.s.abs().max(1.0);
        prop_assert!((got.s - expect.s).abs() <= tol, "S: {} vs {}", got.s, expect.s);
        let tol = 1e-9 * expect.ax.abs().max(1.0);
        prop_assert!((got.ax - expect.ax).abs() <= tol);
    }

    #[test]
    fn kdtree_range_query_returns_exactly_in_range_points(
        pts in points_strategy(),
        (q, r) in query_strategy(),
    ) {
        let tree = KdTree::build(&pts);
        let mut found = Vec::new();
        tree.for_each_in_range(&q, r, |p| found.push(*p));
        // every returned point is in range
        for p in &found {
            prop_assert!(q.dist_sq(p) <= r * r + 1e-9);
        }
        // multiset cardinality matches the scan
        prop_assert_eq!(found.len(), scan_count(&pts, &q, r));
    }

    #[test]
    fn morton_is_monotone_along_axes(x in 0u32..u32::MAX, y in 0u32..u32::MAX) {
        // increasing one cell coordinate strictly increases the code
        prop_assert!(zorder::morton_encode(x + 1, y) > zorder::morton_encode(x, y));
        prop_assert!(zorder::morton_encode(x, y + 1) > zorder::morton_encode(x, y));
    }

    #[test]
    fn zsort_is_a_permutation(pts in points_strategy()) {
        let sorted = zorder::sort_by_zorder(&pts, 16);
        prop_assert_eq!(sorted.len(), pts.len());
        // same multiset: compare coordinate sums (robust for a permutation)
        let sum = |v: &[Point]| v.iter().map(|p| p.x + 2.0 * p.y).sum::<f64>();
        prop_assert!((sum(&sorted) - sum(&pts)).abs() < 1e-6);
    }

    #[test]
    fn strided_sample_size_and_membership(
        pts in points_strategy(),
        frac in 0.0f64..1.0,
    ) {
        let sorted = zorder::sort_by_zorder(&pts, 16);
        let m = ((pts.len() as f64) * frac) as usize;
        let sample = zorder::strided_sample(&sorted, m);
        prop_assert_eq!(sample.len(), m.min(sorted.len()));
        for s in &sample {
            prop_assert!(sorted.contains(s));
        }
    }
}
