//! Property-based tests of the sweep engines at the crate level,
//! including hostile coordinate regimes (city-scale magnitudes, tight
//! clusters, collinear points) that stress the aggregate decomposition's
//! conditioning.

use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::{DensityGrid, GridSpec};
use kdv_core::weighted::{compute_weighted, weighted_scan};
use kdv_core::{rao, sweep_bucket, sweep_sort, KernelType};
use proptest::prelude::*;

/// Direct per-pixel reference.
fn scan(params: &KdvParams, points: &[Point]) -> DensityGrid {
    let g = &params.grid;
    let mut out = DensityGrid::zeroed(g.res_x, g.res_y);
    for j in 0..g.res_y {
        for i in 0..g.res_x {
            let q = g.pixel_center(i, j);
            out.set(i, j, params.kernel.density_scan(&q, points, params.bandwidth, params.weight));
        }
    }
    out
}

fn max_scaled_error(a: &DensityGrid, b: &DensityGrid) -> f64 {
    let scale = b.max_value().max(1e-300);
    a.values().iter().zip(b.values()).map(|(x, y)| (x - y).abs() / scale).fold(0.0_f64, f64::max)
}

/// City-scale problems: coordinates around a large offset, clustered.
fn city_problem() -> impl Strategy<Value = (Vec<Point>, (usize, usize), f64, u8, f64 /* offset */)>
{
    (
        prop::collection::vec((0.0f64..10_000.0, 0.0f64..8_000.0), 1..150),
        (1usize..20, 1usize..20),
        10.0f64..4_000.0,
        0u8..3,
        prop::sample::select(vec![0.0, 5e5, 4e6, -3e6]),
    )
        .prop_map(|(raw, res, b, k, off)| {
            let pts = raw.into_iter().map(|(x, y)| Point::new(x + off, y + off)).collect();
            (pts, res, b, k, off)
        })
}

/// The recorded proptest regression (see `sweep_properties.proptest-regressions`),
/// promoted to an explicit case: a quartic kernel with one point whose
/// y-coordinate (≈7763) dwarfs the bandwidth (≈133). Before the rolling
/// sweep frame, the RAO path — which sweeps along that axis after
/// transposing — lost ~8 significant digits to the `Σ‖p‖⁴` cancellation
/// (observed scaled error 3.0e-8); with the frame all three paths sit at
/// ~1.5e-14.
#[test]
fn recorded_regression_quartic_large_axis_ratio() {
    let pts = [
        Point::new(361.27219404341287, 0.0),
        Point::new(357.3697509429562, 0.0),
        Point::new(427.89290904142575, 7763.393068137033),
        Point::new(0.0, 0.0),
    ];
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 10_000.0, 8_000.0), 15, 16).unwrap();
    let params = KdvParams::new(grid, KernelType::Quartic, 132.97204695578574);
    let reference = scan(&params, &pts);
    for (name, result) in [
        ("sort", sweep_sort::compute(&params, &pts).unwrap()),
        ("bucket", sweep_bucket::compute(&params, &pts).unwrap()),
        ("rao", rao::compute_bucket(&params, &pts).unwrap()),
    ] {
        let err = max_scaled_error(&result, &reference);
        assert!(err < 1e-12, "{name}: err {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both engines match SCAN at city-scale coordinate offsets — the
    /// recentring must keep the decomposition conditioned.
    #[test]
    fn engines_conditioned_at_large_offsets(
        (pts, (rx, ry), b, ksel, off) in city_problem(),
    ) {
        let region = Rect::new(off, off, off + 10_000.0, off + 8_000.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let kernel = KernelType::ALL[ksel as usize % 3];
        let params = KdvParams::new(grid, kernel, b).with_weight(1.0);
        let reference = scan(&params, &pts);
        // The rolling sweep frame (sweep_sort module docs) bounds every
        // accumulator coordinate by 5b, so the decomposition error is
        // O(eps·|E(k)|) regardless of offset or raster/bandwidth ratio.
        // The flat floor absorbs the max-density scaling (the raster's
        // peak can be far below the active count near cluster edges).
        let tol = 1e-9;
        for (name, result) in [
            ("sort", sweep_sort::compute(&params, &pts).unwrap()),
            ("bucket", sweep_bucket::compute(&params, &pts).unwrap()),
            ("rao", rao::compute_bucket(&params, &pts).unwrap()),
        ] {
            let err = max_scaled_error(&result, &reference);
            prop_assert!(err < tol, "{name} kernel={kernel} off={off}: err {err} tol {tol}");
        }
    }

    /// The weighted sweep matches direct weighted summation under the
    /// same hostile regimes.
    #[test]
    fn weighted_engine_conditioned(
        (pts, (rx, ry), b, ksel, off) in city_problem(),
        wseed in 1u64..,
    ) {
        let region = Rect::new(off, off, off + 10_000.0, off + 8_000.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let kernel = KernelType::ALL[ksel as usize % 3];
        let params = KdvParams::new(grid, kernel, b);
        // deterministic weights in [0.5, 5.5)
        let mut state = wseed;
        let weights: Vec<f64> = (0..pts.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                0.5 + 5.0 * ((state >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        let fast = compute_weighted(&params, &pts, &weights).unwrap();
        let slow = weighted_scan(&params, &pts, &weights);
        let err = max_scaled_error(&fast, &slow);
        let tol = 1e-9; // same rolling-frame bound as above
        prop_assert!(err < tol, "kernel={kernel}: err {err} tol {tol}");
    }

    /// Collinear degenerate datasets (all points on one horizontal line)
    /// still evaluate exactly.
    #[test]
    fn collinear_points(
        xs in prop::collection::vec(0.0f64..100.0, 1..80),
        line_y in 0.0f64..50.0,
        b in 0.5f64..60.0,
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(x, line_y)).collect();
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 50.0), 17, 11).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, b);
        let reference = scan(&params, &pts);
        let bucket = sweep_bucket::compute(&params, &pts).unwrap();
        let err = max_scaled_error(&bucket, &reference);
        prop_assert!(err < 1e-9, "err {err}");
    }

    /// All points coincident: the density raster is `n · K(q, p0)`.
    #[test]
    fn coincident_points(
        n in 1usize..200,
        px in 0.0f64..100.0,
        py in 0.0f64..50.0,
        b in 1.0f64..80.0,
    ) {
        let pts = vec![Point::new(px, py); n];
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 50.0), 13, 9).unwrap();
        let params = KdvParams::new(grid, KernelType::Quartic, b);
        let out = sweep_bucket::compute(&params, &pts).unwrap();
        for j in 0..9 {
            for i in 0..13 {
                let q = grid.pixel_center(i, j);
                let expect = n as f64 * params.kernel.eval(&q, &pts[0], b);
                let tol = 1e-9 * (n as f64).max(1.0);
                prop_assert!((out.get(i, j) - expect).abs() <= tol);
            }
        }
    }
}
