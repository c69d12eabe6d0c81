//! Resolution-Aware Optimization — RAO (paper Section 3.6).
//!
//! The row engines cost `O(Y · row(X, n))`: the per-row term is multiplied
//! by the number of rows. When `Y > X` it is cheaper to sweep the *columns*
//! instead (Figure 12). RAO achieves this by transposing the problem —
//! swap every point's coordinates and the raster's axes, run the unchanged
//! row engine, and transpose the resulting grid back. Transposition is pure
//! data movement, so the result is bit-identical to a native column sweep,
//! and the complexity becomes
//! `O(min(X,Y) · (max(X,Y) + n))` for SLAM_BUCKET^(RAO) and
//! `O(min(X,Y) · (max(X,Y) + n log n))` for SLAM_SORT^(RAO) (Theorem 3).

use crate::driver::KdvParams;
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;

/// Whether RAO would transpose this problem (i.e. `Y > X`). Public, with
/// this signature, because `perfbench` calls it.
#[inline]
pub fn should_transpose(params: &KdvParams) -> bool {
    params.grid.res_y > params.grid.res_x
}

/// Runs `f` on the original problem when `X ≥ Y`, or on the transposed
/// problem (transposing the output back) when `Y > X`.
pub(crate) fn with_rao<F>(params: &KdvParams, points: &[Point], f: F) -> Result<DensityGrid>
where
    F: Fn(&KdvParams, &[Point]) -> Result<DensityGrid>,
{
    if !should_transpose(params) {
        return f(params, points);
    }
    let t_params = params.transposed();
    let t_points: Vec<Point> = points.iter().map(Point::transposed).collect();
    let t_grid = f(&t_params, &t_points)?;
    Ok(t_grid.transposed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::grid::GridSpec;
    use crate::kernel::KernelType;
    use crate::Method;

    fn points() -> Vec<Point> {
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..300).map(|_| Point::new(next() * 60.0, next() * 90.0)).collect()
    }

    fn tall_params(kernel: KernelType) -> KdvParams {
        // Y (24) > X (9): RAO transposes.
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 60.0, 90.0), 9, 24).unwrap();
        KdvParams::new(grid, kernel, 15.0).with_weight(0.01)
    }

    #[test]
    fn should_transpose_only_when_taller() {
        assert!(should_transpose(&tall_params(KernelType::Epanechnikov)));
        let wide = GridSpec::new(Rect::new(0.0, 0.0, 60.0, 90.0), 24, 9).unwrap();
        let p = KdvParams::new(wide, KernelType::Epanechnikov, 15.0);
        assert!(!should_transpose(&p));
        let square = GridSpec::new(Rect::new(0.0, 0.0, 1.0, 1.0), 8, 8).unwrap();
        let p = KdvParams::new(square, KernelType::Epanechnikov, 1.0);
        assert!(!should_transpose(&p), "ties keep the default row sweep");
    }

    #[test]
    fn rao_matches_non_rao_for_all_kernels() {
        // Transposed and plain sweeps roll their recentred frames along
        // different axes, so they agree only up to the frame-shift rounding
        // bound (ε·|E(k)|·5⁴ per sweep_sort's docs, a few e-12 here) — not
        // bitwise. 1e-10 leaves a ~30× margin over the observed ~2.6e-12.
        let pts = points();
        for kernel in KernelType::ALL {
            let p = tall_params(kernel);
            let plain = Method::SlamBucket.compute(&p, &pts, 1).unwrap();
            let rao = Method::SlamBucketRao.compute(&p, &pts, 1).unwrap();
            let err = crate::stats::max_rel_error(plain.values(), rao.values());
            assert!(err < 1e-10, "{kernel}: bucket RAO err {err}");

            let plain = Method::SlamSort.compute(&p, &pts, 1).unwrap();
            let rao = Method::SlamSortRao.compute(&p, &pts, 1).unwrap();
            let err = crate::stats::max_rel_error(plain.values(), rao.values());
            assert!(err < 1e-10, "{kernel}: sort RAO err {err}");
        }
    }

    #[test]
    fn rao_output_has_original_orientation() {
        let p = tall_params(KernelType::Epanechnikov);
        let g = Method::SlamBucketRao.compute(&p, &points(), 1).unwrap();
        assert_eq!(g.res_x(), 9);
        assert_eq!(g.res_y(), 24);
    }
}
