//! Pinning tests for degenerate inputs: every engine must reject invalid
//! parameters with a typed error (never a panic) and produce finite,
//! correct rasters for boundary-shaped but valid inputs — empty point
//! sets, single-pixel rasters, and 1×Y / X×1 degenerate grids. The
//! conformance harness fuzzes these shapes too (`crates/conformance`);
//! these tests pin the contracts explicitly so a regression names the
//! exact broken promise.

use kdv_core::driver::{validate_points, KdvParams};
use kdv_core::weighted::{compute_weighted, weighted_scan};
use kdv_core::{rao, GridSpec, KdvEngine, KdvError, KernelType, Method, Point, Rect};

fn spec(res_x: usize, res_y: usize) -> GridSpec {
    GridSpec::new(Rect::new(0.0, 0.0, 100.0, 80.0), res_x, res_y).unwrap()
}

fn some_points() -> Vec<Point> {
    vec![Point::new(10.0, 20.0), Point::new(50.0, 40.0), Point::new(99.0, 79.0)]
}

#[test]
fn empty_input_yields_an_all_zero_grid() {
    for kernel in KernelType::ALL {
        let params = KdvParams::new(spec(16, 12), kernel, 25.0);
        for method in Method::ALL {
            let grid = KdvEngine::new(method).compute(&params, &[]).unwrap();
            assert!(
                grid.values().iter().all(|&v| v == 0.0),
                "{method:?}/{kernel:?}: empty input must produce exact zeros"
            );
        }
    }
}

#[test]
fn non_positive_or_non_finite_bandwidth_is_a_typed_error() {
    let pts = some_points();
    for bad in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let params = KdvParams::new(spec(8, 8), KernelType::Epanechnikov, bad);
        for method in Method::ALL {
            match KdvEngine::new(method).compute(&params, &pts) {
                Err(KdvError::InvalidBandwidth(b)) => {
                    assert!(b.is_nan() && bad.is_nan() || b == bad)
                }
                other => {
                    panic!("{method:?} with b={bad}: expected InvalidBandwidth, got {other:?}")
                }
            }
        }
    }
}

#[test]
fn non_finite_weight_is_a_typed_error() {
    let pts = some_points();
    for bad in [f64::NAN, f64::INFINITY] {
        let params = KdvParams::new(spec(8, 8), KernelType::Quartic, 20.0).with_weight(bad);
        assert!(
            matches!(
                KdvEngine::new(Method::SlamSort).compute(&params, &pts),
                Err(KdvError::InvalidWeight(_))
            ),
            "weight {bad} must be rejected"
        );
    }
}

#[test]
fn non_finite_points_are_a_typed_error_with_the_offending_index() {
    let pts = vec![Point::new(1.0, 2.0), Point::new(f64::NAN, 0.0)];
    assert_eq!(validate_points(&pts), Err(KdvError::NonFinitePoint { index: 1 }));
    let params = KdvParams::new(spec(8, 8), KernelType::Uniform, 20.0);
    for method in Method::ALL {
        assert!(
            matches!(
                KdvEngine::new(method).compute(&params, &pts),
                Err(KdvError::NonFinitePoint { index: 1 })
            ),
            "{method:?} must reject the NaN point"
        );
    }
}

#[test]
fn single_pixel_grid_matches_direct_evaluation() {
    let pts = some_points();
    for kernel in KernelType::ALL {
        let params = KdvParams::new(spec(1, 1), kernel, 80.0);
        let q = params.grid.pixel_center(0, 0);
        let expected = kernel.density_scan(&q, &pts, 80.0, 1.0);
        for method in Method::ALL {
            let grid = KdvEngine::new(method).compute(&params, &pts).unwrap();
            assert_eq!(grid.values().len(), 1);
            let got = grid.values()[0];
            assert!(got.is_finite());
            let err = (got - expected).abs() / expected.abs().max(1e-300);
            assert!(err < 1e-9, "{method:?}/{kernel:?}: {got} vs {expected}");
        }
    }
}

#[test]
fn degenerate_one_row_and_one_column_grids_stay_finite_and_exact() {
    let pts = some_points();
    for (rx, ry) in [(1usize, 9usize), (9, 1), (1, 1)] {
        let params = KdvParams::new(spec(rx, ry), KernelType::Quartic, 60.0);
        let reference: Vec<f64> = (0..ry)
            .flat_map(|j| (0..rx).map(move |i| (i, j)).collect::<Vec<_>>().into_iter())
            .map(|(i, j)| {
                let q = params.grid.pixel_center(i, j);
                KernelType::Quartic.density_scan(&q, &pts, 60.0, 1.0)
            })
            .collect();
        for method in Method::ALL {
            let grid = KdvEngine::new(method).compute(&params, &pts).unwrap();
            for (got, expected) in grid.values().iter().zip(&reference) {
                assert!(got.is_finite(), "{method:?} {rx}x{ry}: non-finite output");
                let err = (got - expected).abs() / expected.abs().max(1e-300);
                assert!(err < 1e-9, "{method:?} {rx}x{ry}: {got} vs {expected}");
            }
        }
    }
}

#[test]
fn weighted_engines_handle_empty_and_degenerate_inputs() {
    let params = KdvParams::new(spec(1, 7), KernelType::Epanechnikov, 40.0);
    // empty input: exact zeros, no panic
    let grid = compute_weighted(&params, &[], &[]).unwrap();
    assert!(grid.values().iter().all(|&v| v == 0.0));
    // degenerate 1×Y grid agrees with the weighted scan
    let pts = some_points();
    let ws = [0.5, -1.0, 2.0];
    let got = compute_weighted(&params, &pts, &ws).unwrap();
    let reference = weighted_scan(&params, &pts, &ws);
    let peak = reference.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for (a, b) in got.values().iter().zip(reference.values()) {
        assert!(a.is_finite());
        assert!((a - b).abs() <= 1e-9 * peak.max(1.0));
    }
    // mismatched weights length is a typed error, not a panic
    assert!(compute_weighted(&params, &pts, &[1.0]).is_err());
}

#[test]
fn rao_transpose_handles_degenerate_grids() {
    // RAO transposes the raster internally; 1×Y and X×1 exercise both
    // orientations of the degenerate case
    let pts = some_points();
    for (rx, ry) in [(1usize, 5usize), (5, 1)] {
        let params = KdvParams::new(spec(rx, ry), KernelType::Epanechnikov, 50.0);
        let plain = KdvEngine::new(Method::SlamBucket).compute(&params, &pts).unwrap();
        let transposed = rao::compute_bucket(&params, &pts).unwrap();
        let peak = plain.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for (a, b) in transposed.values().iter().zip(plain.values()) {
            assert!(a.is_finite());
            assert!((a - b).abs() <= 1e-9 * peak.max(1.0));
        }
    }
}
