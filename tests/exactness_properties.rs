//! Property-based exactness tests: the central claim of the paper is that
//! SLAM produces the *exact* KDV. For arbitrary point clouds, rasters,
//! bandwidths and kernels, every SLAM variant (and every exact baseline)
//! must agree with the naive SCAN evaluation up to floating-point rounding.

use proptest::prelude::*;
use slam_kdv::baselines::AnyMethod;
use slam_kdv::core::driver::KdvParams;
use slam_kdv::core::stats::max_rel_error;
use slam_kdv::{DensityGrid, GridSpec, KernelType, Method, Point, Rect};

/// Maximum error between two rasters, normalised by the reference raster's
/// peak density. Near the kernel-support boundary the density itself tends
/// to 0 while the aggregate expansion keeps absolute error at a few ulps of
/// the aggregate magnitudes, so a per-pixel *relative* comparison is the
/// wrong yardstick — error relative to the raster scale is what "exact up
/// to floating point" means here.
fn max_scaled_error(got: &DensityGrid, reference: &DensityGrid) -> f64 {
    let scale = reference.max_value().max(1e-300);
    got.values()
        .iter()
        .zip(reference.values())
        .map(|(a, b)| (a - b).abs() / scale)
        .fold(0.0_f64, f64::max)
}

/// Strategy for a modest random KDV problem.
#[allow(clippy::type_complexity)]
fn problem() -> impl Strategy<
    Value = (
        Vec<(f64, f64)>, // points
        (usize, usize),  // resolution
        f64,             // bandwidth
        u8,              // kernel selector
    ),
> {
    (
        prop::collection::vec(
            (
                // points may fall outside the query region on purpose
                prop::num::f64::NORMAL.prop_map(|v| (v % 150.0) - 25.0),
                prop::num::f64::NORMAL.prop_map(|v| (v % 150.0) - 25.0),
            ),
            0..120,
        ),
        (1usize..24, 1usize..24),
        0.5f64..60.0,
        0u8..3,
    )
}

fn kernel_of(sel: u8) -> KernelType {
    KernelType::ALL[sel as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every SLAM variant equals SCAN within rounding on random inputs.
    #[test]
    fn slam_variants_match_scan((pts, (rx, ry), bandwidth, ksel) in problem()) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let kernel = kernel_of(ksel);
        let weight = 0.01;
        let params = KdvParams::new(grid, kernel, bandwidth).with_weight(weight);

        let reference = AnyMethod::Scan.compute(&params, &points).unwrap().grid;
        // The sweep engines evaluate in a rolling recentred frame (see the
        // sweep_sort module docs), which keeps the aggregate expansion's
        // error at O(eps·|E(k)|) no matter how small b is relative to the
        // region — a flat tolerance suffices.
        let tol = 1e-9;
        for m in Method::ALL {
            let got = AnyMethod::Slam(m).compute(&params, &points).unwrap().grid;
            let err = max_scaled_error(&got, &reference);
            prop_assert!(err < tol, "{m} kernel={kernel} err={err} tol={tol}");
        }
    }

    /// The exact baselines (RQS_kd, RQS_ball, QUAD) also equal SCAN.
    #[test]
    fn exact_baselines_match_scan((pts, (rx, ry), bandwidth, ksel) in problem()) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let params = KdvParams::new(grid, kernel_of(ksel), bandwidth).with_weight(1.0);

        let reference = AnyMethod::Scan.compute(&params, &points).unwrap().grid;
        // Unlike the sweep engines, the tree baselines evaluate the
        // aggregate expansion (Eq. 5) in the globally recentred frame, so
        // their achievable f64 error keeps the inherent (c/b)^4 (quartic)
        // conditioning term for coordinate magnitude c ~ 160 here.
        let tol = 1e-9 + 1e-12 * (160.0 / bandwidth).powi(4);
        for m in [AnyMethod::RqsKd, AnyMethod::RqsBall, AnyMethod::Quad] {
            let got = m.compute(&params, &points).unwrap().grid;
            let err = max_scaled_error(&got, &reference);
            prop_assert!(err < tol, "{m} err={err} tol={tol}");
        }
    }

    /// aKDE's absolute error guarantee holds: |err| ≤ w·n·ε/2.
    #[test]
    fn akde_error_bound_holds(
        (pts, (rx, ry), bandwidth, ksel) in problem(),
        eps in 0.0f64..0.5,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let params = KdvParams::new(grid, kernel_of(ksel), bandwidth).with_weight(1.0);

        let reference = AnyMethod::Scan.compute(&params, &points).unwrap().grid;
        let approx = AnyMethod::Akde { epsilon: eps }
            .compute(&params, &points)
            .unwrap()
            .grid;
        let bound = points.len() as f64 * eps * 0.5 + 1e-9;
        for (a, e) in approx.values().iter().zip(reference.values()) {
            prop_assert!((a - e).abs() <= bound, "|{a}-{e}| > {bound}");
        }
    }

    /// Density is translation-invariant: shifting points and region
    /// together leaves the raster unchanged (up to rounding).
    #[test]
    fn translation_invariance(
        (pts, (rx, ry), bandwidth, ksel) in problem(),
        dx in -1e5f64..1e5,
        dy in -1e5f64..1e5,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let kernel = kernel_of(ksel);

        let grid_a = GridSpec::new(region, rx, ry).unwrap();
        let params_a = KdvParams::new(grid_a, kernel, bandwidth);
        let a = AnyMethod::Slam(Method::SlamBucketRao)
            .compute(&params_a, &points)
            .unwrap()
            .grid;

        let shifted: Vec<Point> = points.iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect();
        let region_b =
            Rect::new(region.min_x + dx, region.min_y + dy, region.max_x + dx, region.max_y + dy);
        let grid_b = GridSpec::new(region_b, rx, ry).unwrap();
        let params_b = KdvParams::new(grid_b, kernel, bandwidth);
        let b = AnyMethod::Slam(Method::SlamBucketRao)
            .compute(&params_b, &shifted)
            .unwrap()
            .grid;

        // translated pixel centres differ by rounding, so tolerate a
        // slightly looser bound than the exactness tests
        let err = max_scaled_error(&a, &b).min(max_rel_error(a.values(), b.values()));
        prop_assert!(err < 1e-5, "err={err}");
    }

    /// Densities are non-negative and bounded by w·n·K_max for every
    /// kernel (quartic/epanechnikov peak at 1, uniform at 1/b).
    #[test]
    fn density_bounds((pts, (rx, ry), bandwidth, ksel) in problem()) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let kernel = kernel_of(ksel);
        let params = KdvParams::new(grid, kernel, bandwidth).with_weight(1.0);
        let out = AnyMethod::Slam(Method::SlamBucket)
            .compute(&params, &points)
            .unwrap()
            .grid;
        let k_max = match kernel {
            KernelType::Uniform => 1.0 / bandwidth,
            _ => 1.0,
        };
        let upper = points.len() as f64 * k_max + 1e-9;
        for &v in out.values() {
            prop_assert!(v >= -1e-9, "negative density {v}");
            prop_assert!(v <= upper, "density {v} above bound {upper}");
        }
    }
}
