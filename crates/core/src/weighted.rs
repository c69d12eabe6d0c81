//! Weighted KDV — per-point weights (an extension beyond the paper).
//!
//! The paper's Eq. 1 uses a single normalisation constant `w`. Real feeds
//! often carry per-event weights (casualty counts, call priorities,
//! temporal-kernel factors for spatial-temporal KDV), i.e.
//!
//! ```text
//! F_P(q) = Σ_i w_i · K(q, p_i)
//! ```
//!
//! Because every aggregate term of Table 4 is a *sum over points*, the
//! decomposition survives weighting verbatim: replace `|R(q)|` with
//! `Σ w_i`, `A = Σ p` with `Σ w_i·p`, and so on. The sweep machinery is
//! unchanged — only the accumulator scales each insertion by the point's
//! weight. So there is no separate weighted engine: a
//! [`crate::driver::SweepContext::weighted`] context carries the weights
//! in canonical order, and every driver sweeps it with the one bucket row
//! loop (`SweepAccumulator<true>`), with the same `O(Y(X + n))` complexity
//! (plus RAO). This module keeps the one weighted compute call and the
//! direct-summation reference it is validated against.

use crate::driver::{sweep_context, KdvParams, SweepContext};
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::stats::Kahan;
use crate::sweep_bucket::BucketSweep;

/// Computes the weighted KDV raster with a bucket sweep plus RAO:
/// `F(q) = params.weight · Σ_i weights[i]·K(q, p_i)`,
/// in `O(min(X,Y)·(max(X,Y) + n))` time, with `threads` workers claiming
/// rows (`0` means [`crate::parallel::default_threads`]). The output is
/// bitwise identical for every thread count.
///
/// # Errors
/// In addition to the usual parameter validation, every weight must be
/// finite ([`crate::KdvError::InvalidWeight`]) and `weights.len()` must
/// equal `points.len()` (checked, returns
/// [`crate::KdvError::NonFinitePoint`] pointing at the first missing index
/// for a length mismatch).
pub fn compute_weighted(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
    threads: usize,
) -> Result<DensityGrid> {
    crate::rao::with_rao(params, points, |params, points| {
        let ctx = SweepContext::weighted(params, points, weights)?;
        let (kernel, b, w) = (params.kernel, params.bandwidth, params.weight);
        Ok(sweep_context(&ctx, params, threads, || BucketSweep::new(kernel, b, w)))
    })
}

/// Reference weighted evaluation by direct summation (for tests and as a
/// baseline in weighted workloads).
pub fn weighted_scan(params: &KdvParams, points: &[Point], weights: &[f64]) -> DensityGrid {
    let g = &params.grid;
    let mut out = DensityGrid::zeroed(g.res_x, g.res_y);
    for j in 0..g.res_y {
        for i in 0..g.res_x {
            let q = g.pixel_center(i, j);
            let mut acc = Kahan::new();
            for (p, &w) in points.iter().zip(weights) {
                acc.add(w * params.kernel.eval(&q, p, params.bandwidth));
            }
            out.set(i, j, params.weight * acc.value());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RowEngine;
    use crate::envelope::EnvelopeBuffer;
    use crate::error::KdvError;
    use crate::geom::Rect;
    use crate::grid::GridSpec;
    use crate::kernel::KernelType;

    fn setup() -> (KdvParams, Vec<Point>, Vec<f64>) {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 60.0, 40.0), 21, 13).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 9.0).with_weight(0.5);
        let mut state = 55u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Point> =
            (0..300).map(|_| Point::new(next() * 60.0, next() * 40.0)).collect();
        let weights: Vec<f64> = (0..300).map(|_| next() * 5.0).collect();
        (params, points, weights)
    }

    #[test]
    fn weighted_sweep_matches_direct_for_all_kernels() {
        // Tolerance covers the rolling-frame shift rounding (a few e-12
        // relative, see sweep_sort's module docs), not just summation noise.
        let (mut params, points, weights) = setup();
        for kernel in KernelType::ALL {
            params.kernel = kernel;
            let fast = compute_weighted(&params, &points, &weights, 1).unwrap();
            let slow = weighted_scan(&params, &points, &weights);
            let scale = slow.max_value().max(1e-300);
            for (a, b) in fast.values().iter().zip(slow.values()) {
                assert!((a - b).abs() / scale < 1e-10, "{kernel}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unit_weights_reduce_to_unweighted() {
        let (params, points, _) = setup();
        let ones = vec![1.0; points.len()];
        let weighted = compute_weighted(&params, &points, &ones, 1).unwrap();
        let plain = crate::Method::SlamBucketRao.compute(&params, &points, 1).unwrap();
        let scale = plain.max_value().max(1e-300);
        for (a, b) in weighted.values().iter().zip(plain.values()) {
            assert!((a - b).abs() / scale < 1e-12);
        }
    }

    #[test]
    fn rao_transpose_path_weighted() {
        // tall raster exercises the transpose branch
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 40.0, 60.0), 9, 27).unwrap();
        let params = KdvParams::new(grid, KernelType::Quartic, 11.0);
        let (_, points, weights) = setup();
        let fast = compute_weighted(&params, &points, &weights, 1).unwrap();
        let slow = weighted_scan(&params, &points, &weights);
        let scale = slow.max_value().max(1e-300);
        for (a, b) in fast.values().iter().zip(slow.values()) {
            assert!((a - b).abs() / scale < 1e-11);
        }
        assert_eq!(fast.res_x(), 9);
        assert_eq!(fast.res_y(), 27);
    }

    #[test]
    fn zero_and_negative_weights() {
        // negative weights are legal (e.g. differencing two periods)
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 8, 8).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 4.0);
        let pts = [Point::new(3.0, 5.0), Point::new(7.0, 5.0)];
        let w = [1.0, -1.0];
        let out = compute_weighted(&params, &pts, &w, 1).unwrap();
        let direct = weighted_scan(&params, &pts, &w);
        for (a, b) in out.values().iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-12);
        }
        // antisymmetric configuration: the two halves mirror-negate
        assert!(out.values().iter().any(|&v| v > 0.0));
        assert!(out.values().iter().any(|&v| v < 0.0));
    }

    #[test]
    fn banded_weighted_matches_full_scan_extraction_bitwise() {
        // Reference: the full-scan extraction (O(n) per row) over the same
        // canonical point order, with the weights of the points it keeps.
        // The banded path must be bitwise identical.
        let (params, points, weights) = setup();
        for bandwidth in [0.8, 9.0, 70.0] {
            let mut p = params;
            p.bandwidth = bandwidth;
            let ctx = SweepContext::new(&p, &points).unwrap();
            let sorted_weights: Vec<f64> =
                (0..ctx.index.len()).map(|i| weights[ctx.index.original_index(i)]).collect();
            let mut grid = DensityGrid::zeroed(p.grid.res_x, p.grid.res_y);
            let mut envelope = EnvelopeBuffer::for_points(points.len());
            let mut env_weights = Vec::new();
            let mut engine = BucketSweep::new(p.kernel, bandwidth, p.weight);
            let b2 = bandwidth * bandwidth;
            for j in 0..p.grid.res_y {
                let k = ctx.ks[j];
                let intervals = envelope.fill(&ctx.points, bandwidth, k);
                env_weights.clear();
                for (pt, &w) in ctx.points.iter().zip(&sorted_weights) {
                    let dy = k - pt.y;
                    if b2 - dy * dy >= 0.0 {
                        env_weights.push(w);
                    }
                }
                if intervals.is_empty() {
                    continue;
                }
                engine.process_weighted_row(&ctx.xs, k, intervals, &env_weights, grid.row_mut(j));
            }
            let banded = compute_weighted(&p, &points, &weights, 1).unwrap();
            assert_eq!(banded, grid, "b={bandwidth}");
        }
    }

    /// The weighted sweep evaluates through the crate's one density
    /// polynomial with `n = Σ wᵢ`. With unit weights every weighted moment
    /// is exactly the unweighted one (`1.0·x == x`, and a compensated sum
    /// of ones is exact), so the weighted evaluation must reproduce the
    /// unweighted one bit for bit.
    #[test]
    fn unit_weight_moments_match_the_unweighted_polynomial_bitwise() {
        use crate::aggregate::SweepAccumulator;
        let mut weighted = SweepAccumulator::<true>::new(true);
        let mut plain = SweepAccumulator::<false>::new(true);
        for p in [
            Point::new(0.5, -1.5),
            Point::new(-2.25, 0.75),
            Point::new(3.0, 3.0),
            Point::new(1e-4, -0.3),
        ] {
            weighted.insert(&p, 1.0);
            plain.insert(&p, 1.0);
        }
        let (wsum, moments) = weighted.diff(&SweepAccumulator::new(true));
        let (_, agg) = plain.diff(&SweepAccumulator::new(true));
        for kernel in KernelType::ALL {
            for dx in [-3.5, 0.0, 0.125, 2.75] {
                for b in [1.25, 8.0] {
                    let q = Point::new(dx, 0.0);
                    let want = kernel.density_from_aggregates(&q, &agg, b, 0.6);
                    let got = kernel.density_from_moments(&q, wsum, &moments, b, 0.6);
                    assert_eq!(got.to_bits(), want.to_bits(), "{kernel} dx={dx} b={b}");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_weights() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 4, 4).unwrap();
        let params = KdvParams::new(grid, KernelType::Uniform, 2.0);
        let pts = [Point::new(1.0, 1.0)];
        assert!(matches!(
            compute_weighted(&params, &pts, &[f64::NAN], 1),
            Err(KdvError::InvalidWeight(_))
        ));
        assert!(compute_weighted(&params, &pts, &[], 1).is_err());
    }
}
