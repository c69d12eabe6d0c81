//! Property tests for the coreset builder, over random point sets and
//! seeds: the certificate is honest (measured sup-error vs an
//! *independent* exact engine never exceeds the advertised ε), sizing is
//! monotone non-increasing in the target ε, and construction is
//! deterministic for a fixed seed.

use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::weighted::compute_weighted;
use kdv_core::{KdvError, KdvParams, KernelType};
use kdv_coreset::{build, density_scale, Coreset, CoresetMethod, CoresetSpec};

fn random_points(n: usize, seed: u64, extent: Rect) -> Vec<Point> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            // clustered: half the mass in a tight blob, half uniform
            let (x, y) = (next(), next());
            if next() < 0.5 {
                Point::new(
                    extent.min_x + (0.3 + 0.1 * x) * extent.width(),
                    extent.min_y + (0.6 + 0.1 * y) * extent.height(),
                )
            } else {
                Point::new(extent.min_x + x * extent.width(), extent.min_y + y * extent.height())
            }
        })
        .collect()
}

fn spec(
    method: CoresetMethod,
    kernel: KernelType,
    bandwidth: f64,
    weight: f64,
    target: f64,
    seed: u64,
    grids: Vec<GridSpec>,
) -> CoresetSpec {
    CoresetSpec {
        method,
        target_epsilon: target,
        kernel,
        bandwidth,
        weight,
        seed,
        eval_grids: grids,
    }
}

const METHODS: [CoresetMethod; 3] =
    [CoresetMethod::Grid, CoresetMethod::Sort, CoresetMethod::Sample];

/// The certificate must hold against an exact engine the builder did NOT
/// use (sort sweep vs the builder's bucket sweep) — that is what the
/// float-noise slack buys.
#[test]
fn measured_sup_error_never_exceeds_advertised_epsilon() {
    let extent = Rect::new(0.0, 0.0, 500.0, 400.0);
    for (case, (kernel, bandwidth, n)) in [
        (KernelType::Epanechnikov, 60.0, 600),
        (KernelType::Quartic, 90.0, 400),
        (KernelType::Uniform, 45.0, 500),
    ]
    .into_iter()
    .enumerate()
    {
        let points = random_points(n, 0xA11 + case as u64, extent);
        let weight = 1.0 / n as f64;
        let grids =
            vec![GridSpec::new(extent, 48, 40).unwrap(), GridSpec::new(extent, 24, 20).unwrap()];
        let scale = density_scale(kernel, bandwidth, weight, n);
        for method in METHODS {
            for rel in [0.2, 0.02] {
                let cs = build(
                    &spec(method, kernel, bandwidth, weight, rel * scale, 7, grids.clone()),
                    &points,
                )
                .unwrap();
                for grid in &grids {
                    let params = KdvParams::new(*grid, kernel, bandwidth).with_weight(weight);
                    let exact = kdv_core::sweep_sort::compute(&params, &points).unwrap();
                    let approx = compute_weighted(&params, &cs.points, &cs.weights).unwrap();
                    let sup = approx
                        .values()
                        .iter()
                        .zip(exact.values())
                        .map(|(a, r)| (a - r).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        sup <= cs.epsilon,
                        "{kernel} {method} rel={rel}: sup {sup:e} > advertised {:e}",
                        cs.epsilon
                    );
                }
                // a generous target must actually be met
                if rel == 0.2 {
                    assert!(cs.epsilon <= rel * scale, "{kernel} {method}: generous target missed");
                }
            }
        }
    }
}

#[test]
fn coreset_size_is_monotone_non_increasing_in_epsilon() {
    let extent = Rect::new(-100.0, 50.0, 300.0, 250.0);
    let n = 800;
    let points = random_points(n, 0xB22, extent);
    let weight = 1.0 / n as f64;
    let (kernel, bandwidth) = (KernelType::Epanechnikov, 40.0);
    let grids = vec![GridSpec::new(extent, 32, 32).unwrap()];
    let scale = density_scale(kernel, bandwidth, weight, n);
    for method in METHODS {
        let mut last_size = usize::MAX;
        // loosening the target must never grow the coreset
        for rel in [1e-9, 0.001, 0.01, 0.05, 0.2, 1.0] {
            let cs = build(
                &spec(method, kernel, bandwidth, weight, rel * scale, 3, grids.clone()),
                &points,
            )
            .unwrap();
            assert!(
                cs.len() <= last_size,
                "{method}: size {} at rel={rel} after size {last_size}",
                cs.len()
            );
            assert!(cs.len() <= n);
            last_size = cs.len();
        }
    }
}

fn assert_identical(a: &Coreset, b: &Coreset) {
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.x.to_bits(), pb.x.to_bits());
        assert_eq!(pa.y.to_bits(), pb.y.to_bits());
    }
    assert_eq!(
        a.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        b.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
    assert_eq!(a.measured_sup_error.to_bits(), b.measured_sup_error.to_bits());
}

#[test]
fn construction_is_deterministic_for_a_fixed_seed() {
    let extent = Rect::new(0.0, 0.0, 200.0, 200.0);
    for trial in 0..4u64 {
        let points = random_points(300 + 37 * trial as usize, 0xC33 + trial, extent);
        let weight = 1.0 / points.len() as f64;
        let grids = vec![GridSpec::new(extent, 20, 24).unwrap()];
        let scale = density_scale(KernelType::Quartic, 35.0, weight, points.len());
        for method in METHODS {
            let s =
                spec(method, KernelType::Quartic, 35.0, weight, 0.03 * scale, 42, grids.clone());
            let first = build(&s, &points).unwrap();
            let second = build(&s, &points).unwrap();
            assert_identical(&first, &second);
        }
    }
}

#[test]
fn degenerate_inputs_build_cleanly() {
    let extent = Rect::new(0.0, 0.0, 100.0, 100.0);
    let grids = vec![GridSpec::new(extent, 8, 8).unwrap()];
    // empty set
    let s = spec(CoresetMethod::Grid, KernelType::Epanechnikov, 10.0, 1.0, 0.5, 1, grids.clone());
    let empty = build(&s, &[]).unwrap();
    assert!(empty.is_empty());
    assert_eq!(empty.epsilon, 0.0);
    // all points identical (zero-extent MBR)
    let same = vec![Point::new(50.0, 50.0); 64];
    for method in METHODS {
        let s = spec(method, KernelType::Epanechnikov, 10.0, 1.0 / 64.0, 1e-6, 1, grids.clone());
        let cs = build(&s, &same).unwrap();
        assert!(!cs.is_empty());
        let total: f64 = cs.weights.iter().sum();
        assert!((total - 64.0).abs() < 1e-9, "{method}: multiplicities sum to {total}");
    }
}

#[test]
fn a_non_finite_point_is_rejected_with_its_index() {
    let extent = Rect::new(0.0, 0.0, 100.0, 100.0);
    let grids = vec![GridSpec::new(extent, 8, 8).unwrap()];
    let points = random_points(32, 5, extent);
    for method in METHODS {
        let s = spec(method, KernelType::Epanechnikov, 10.0, 1.0 / 32.0, 1e-3, 1, grids.clone());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in [0, 17, 31] {
                for p in [Point::new(bad, 50.0), Point::new(50.0, bad)] {
                    let mut pts = points.clone();
                    pts[index] = p;
                    assert_eq!(
                        build(&s, &pts).map(|cs| cs.len()),
                        Err(KdvError::NonFinitePoint { index }),
                        "{method}: {p:?} at #{index}"
                    );
                }
            }
        }
    }
}
