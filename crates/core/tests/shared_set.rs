//! Property tests of [`SweepContext::for_grid`]: a context derived for
//! another raster over the same region must be bitwise the context built
//! from scratch for that raster, and share the source's sorted set; over a
//! region with another centre it must get a set of its own.

use std::sync::Arc;

use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::KernelType;
use proptest::prelude::*;

/// Every field of both contexts, bit for bit: the canonical points, the
/// index's coordinates and permutation, the weights, the pixel centres
/// and the centre.
fn assert_same_bits(got: &SweepContext, want: &SweepContext) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let point_bits = |p: Point| [p.x.to_bits(), p.y.to_bits()];
    prop_assert_eq!(point_bits(got.center), point_bits(want.center));
    prop_assert_eq!(got.points.len(), want.points.len());
    prop_assert_eq!(got.index.len(), want.index.len());
    for i in 0..want.points.len() {
        prop_assert_eq!(point_bits(got.points[i]), point_bits(want.points[i]), "point {}", i);
        prop_assert_eq!(point_bits(got.index.point(i)), point_bits(want.index.point(i)));
        prop_assert_eq!(got.index.original_index(i), want.index.original_index(i));
    }
    prop_assert_eq!(got.weights().map(bits), want.weights().map(bits));
    prop_assert_eq!(bits(&got.xs), bits(&want.xs));
    prop_assert_eq!(bits(&got.ks), bits(&want.ks));
    Ok(())
}

fn params(region: Rect, (res_x, res_y): (usize, usize)) -> KdvParams {
    let grid = GridSpec::new(region, res_x, res_y).unwrap();
    KdvParams::new(grid, KernelType::Quartic, 7.0)
}

/// A region at a city-scale offset, a point set over and around it with
/// duplicated y-coordinates, and signed weights.
#[allow(clippy::type_complexity)]
fn problem() -> impl Strategy<Value = (Rect, Vec<Point>, Vec<f64>)> {
    (
        (0.0f64..50.0, 0.0f64..50.0, 1.0f64..80.0, 1.0f64..80.0),
        prop::sample::select(vec![0.0, 3.5e5, -4e6]),
        prop::collection::vec((-20.0f64..150.0, 0u32..40, -2.0f64..2.0), 0..120),
    )
        .prop_map(|((x, y, w, h), off, raw)| {
            let region = Rect::new(x + off, y + off, x + w + off, y + h + off);
            let pts = raw.iter().map(|&(px, py, _)| Point::new(px + off, py as f64 * 3.25 + off));
            let weights = raw.iter().map(|&(_, _, wt)| wt).collect();
            (region, pts.collect(), weights)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Derived for another resolution of the same region, unit and
    /// weighted: bitwise the scratch build, sharing the source's set.
    #[test]
    fn derived_context_on_the_same_region_is_bitwise_and_shared(
        (region, pts, weights) in problem(),
        res_a in (1usize..40, 1usize..40),
        res_b in (1usize..90, 1usize..90),
    ) {
        let (a, b) = (params(region, res_a), params(region, res_b));
        let unit = SweepContext::new(&a, &pts).unwrap();
        let derived = unit.for_grid(&b, &pts).unwrap();
        assert_same_bits(&derived, &SweepContext::new(&b, &pts).unwrap())?;
        prop_assert!(Arc::ptr_eq(derived.set(), unit.set()), "unit set not shared");

        let weighted = SweepContext::weighted(&a, &pts, &weights).unwrap();
        let derived = weighted.for_grid(&b, &pts).unwrap();
        assert_same_bits(&derived, &SweepContext::weighted(&b, &pts, &weights).unwrap())?;
        prop_assert!(Arc::ptr_eq(derived.set(), weighted.set()), "weighted set not shared");
    }

    /// Derived for a region with another centre: bitwise the scratch build
    /// for that region, over a set of its own.
    #[test]
    fn derived_context_on_another_region_builds_its_own_set(
        (region, pts, weights) in problem(),
        res_a in (1usize..40, 1usize..40),
        res_b in (1usize..40, 1usize..40),
        (dx, dy) in (-30.0f64..30.0, 0.5f64..30.0),
    ) {
        let moved = Rect::new(
            region.min_x + dx,
            region.min_y + dy,
            region.max_x + dx,
            region.max_y + dy,
        );
        prop_assume!(moved.center().y.to_bits() != region.center().y.to_bits());
        let (a, b) = (params(region, res_a), params(moved, res_b));
        let unit = SweepContext::new(&a, &pts).unwrap();
        let derived = unit.for_grid(&b, &pts).unwrap();
        assert_same_bits(&derived, &SweepContext::new(&b, &pts).unwrap())?;
        prop_assert!(!Arc::ptr_eq(derived.set(), unit.set()), "unit set shared across centres");

        let weighted = SweepContext::weighted(&a, &pts, &weights).unwrap();
        let derived = weighted.for_grid(&b, &pts).unwrap();
        assert_same_bits(&derived, &SweepContext::weighted(&b, &pts, &weights).unwrap())?;
        prop_assert!(!Arc::ptr_eq(derived.set(), weighted.set()), "weighted set shared");
    }
}

/// Deriving validates the new raster's parameters like a scratch build.
#[test]
fn derived_context_rejects_invalid_parameters() {
    let region = Rect::new(0.0, 0.0, 10.0, 10.0);
    let pts = [Point::new(1.0, 2.0)];
    let ctx = SweepContext::new(&params(region, (4, 4)), &pts).unwrap();
    let mut bad = params(region, (8, 8));
    bad.bandwidth = f64::NAN;
    assert!(ctx.for_grid(&bad, &pts).is_err());
}
