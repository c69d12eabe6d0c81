//! # kdv-baselines — the paper's comparator methods (Table 6)
//!
//! Reimplementations of the state-of-the-art methods SLAM is evaluated
//! against, built on the `kdv-index` substrates:
//!
//! | Method       | Module         | Nature |
//! |--------------|----------------|--------|
//! | `SCAN`       | [`scan`]       | exact, naive `O(XYn)` |
//! | `RQS_kd`     | [`rqs`]        | exact, kd-tree range queries |
//! | `RQS_ball`   | [`rqs`]        | exact, ball-tree range queries |
//! | `Z-order`    | [`zsample`]    | approximate, Z-order strided sampling |
//! | `aKDE`       | [`akde`]       | approximate, bounded tree traversal |
//! | `QUAD`       | [`quad`]       | exact, quadratic-bound quadtree |
//!
//! All methods implement the [`Baseline`] trait, and [`AnyMethod`] unifies
//! them with the four SLAM variants so the experiment harness can iterate
//! over the full Table-6 line-up. Every `compute` accepts an optional
//! cooperative deadline, mirroring the paper's 4-hour response-time cap.

pub mod akde;
pub mod quad;
pub mod rqs;
pub mod scan;
pub mod zsample;

use std::time::Instant;

use kdv_core::driver::KdvParams;
use kdv_core::geom::Point;
use kdv_core::grid::DensityGrid;
use kdv_core::{KdvError, Method, Result};

/// Result of one KDV computation plus the method's auxiliary space.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// The density raster (exact or approximate depending on the method).
    pub grid: DensityGrid,
    /// Auxiliary heap bytes the method needed beyond the output raster
    /// (index structures, sweep buffers, samples) — the paper's Figure 17
    /// quantity.
    pub aux_space_bytes: usize,
}

/// A KDV method that can fill a raster, optionally racing a deadline.
pub trait Baseline {
    /// Paper-style method name (e.g. `"RQS_kd"`).
    fn name(&self) -> &'static str;

    /// Whether the method produces the exact density raster.
    fn is_exact(&self) -> bool;

    /// Computes the raster; returns [`KdvError::DeadlineExceeded`] if the
    /// cooperative `deadline` fires first (checked between pixel rows).
    fn compute_with_deadline(
        &self,
        params: &KdvParams,
        points: &[Point],
        deadline: Option<Instant>,
    ) -> Result<MethodOutput>;

    /// Computes the raster without a deadline.
    fn compute(&self, params: &KdvParams, points: &[Point]) -> Result<MethodOutput> {
        self.compute_with_deadline(params, points, None)
    }
}

/// Returns `Err(DeadlineExceeded)` when `deadline` has passed.
#[inline]
pub(crate) fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(KdvError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// Every method of the paper's Table 6, unified for the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyMethod {
    /// Naive per-pixel scan.
    Scan,
    /// Range-query solution over a kd-tree.
    RqsKd,
    /// Range-query solution over a ball-tree.
    RqsBall,
    /// Z-order strided-sampling approximation with the given sample
    /// fraction (0 < f ≤ 1).
    ZOrder {
        /// Fraction of the dataset kept in the sample.
        sample_fraction: f64,
    },
    /// Gray–Moore bounded traversal with the given absolute kernel-value
    /// tolerance (`0` degenerates to an exact traversal).
    Akde {
        /// Per-point absolute kernel-value tolerance.
        epsilon: f64,
    },
    /// Quadratic-bound quadtree (exact).
    Quad,
    /// One of the four SLAM variants from `kdv-core`.
    Slam(Method),
}

impl AnyMethod {
    /// The paper's Table-6/7 line-up, in column order, with the default
    /// approximation parameters used by the experiment harness.
    pub fn paper_lineup() -> Vec<AnyMethod> {
        vec![
            AnyMethod::Scan,
            AnyMethod::RqsKd,
            AnyMethod::RqsBall,
            AnyMethod::ZOrder { sample_fraction: 0.05 },
            AnyMethod::Akde { epsilon: 1e-6 },
            AnyMethod::Quad,
            AnyMethod::Slam(Method::SlamSort),
            AnyMethod::Slam(Method::SlamBucket),
            AnyMethod::Slam(Method::SlamSortRao),
            AnyMethod::Slam(Method::SlamBucketRao),
        ]
    }

    /// Paper-style display name.
    pub fn name(&self) -> String {
        match self {
            AnyMethod::Scan => "SCAN".into(),
            AnyMethod::RqsKd => "RQS_kd".into(),
            AnyMethod::RqsBall => "RQS_ball".into(),
            AnyMethod::ZOrder { .. } => "Z-order".into(),
            AnyMethod::Akde { .. } => "aKDE".into(),
            AnyMethod::Quad => "QUAD".into(),
            AnyMethod::Slam(m) => m.name().into(),
        }
    }

    /// Whether the method is exact (Z-order and aKDE are approximate).
    pub fn is_exact(&self) -> bool {
        !matches!(self, AnyMethod::ZOrder { .. } | AnyMethod::Akde { .. })
    }

    /// Runs the method, checking the cooperative deadline between rows.
    pub fn compute_with_deadline(
        &self,
        params: &KdvParams,
        points: &[Point],
        deadline: Option<Instant>,
    ) -> Result<MethodOutput> {
        match self {
            AnyMethod::Scan => scan::Scan.compute_with_deadline(params, points, deadline),
            AnyMethod::RqsKd => rqs::Rqs::kd_tree().compute_with_deadline(params, points, deadline),
            AnyMethod::RqsBall => {
                rqs::Rqs::ball_tree().compute_with_deadline(params, points, deadline)
            }
            AnyMethod::ZOrder { sample_fraction } => zsample::ZOrderSampling::new(*sample_fraction)
                .compute_with_deadline(params, points, deadline),
            AnyMethod::Akde { epsilon } => {
                akde::Akde::new(*epsilon).compute_with_deadline(params, points, deadline)
            }
            AnyMethod::Quad => quad::Quad.compute_with_deadline(params, points, deadline),
            AnyMethod::Slam(m) => {
                // SLAM's engines are the fast path and run uninterrupted;
                // honour the deadline by checking before starting.
                check_deadline(deadline)?;
                let grid = m.compute(params, points, 1)?;
                // aux space: recentred copy + envelope buffer (~O(n) each)
                // plus the y-sorted banded extraction index
                let aux = std::mem::size_of_val(points) * 2
                    + kdv_core::envelope::BandIndex::bytes_for(points.len());
                Ok(MethodOutput { grid, aux_space_bytes: aux })
            }
        }
    }

    /// Runs the method without a deadline.
    pub fn compute(&self, params: &KdvParams, points: &[Point]) -> Result<MethodOutput> {
        self.compute_with_deadline(params, points, None)
    }
}

impl std::fmt::Display for AnyMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Shared reference evaluation used by tests in this crate.
#[cfg(test)]
pub(crate) fn scan_reference(params: &KdvParams, points: &[Point]) -> DensityGrid {
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

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::{GridSpec, KernelType, Rect};

    fn setup() -> (KdvParams, Vec<Point>) {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 40.0, 30.0), 16, 12).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 6.0).with_weight(0.01);
        let mut state = 5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts = (0..300).map(|_| Point::new(next() * 40.0, next() * 30.0)).collect();
        (params, pts)
    }

    #[test]
    fn exact_methods_agree_with_scan() {
        let (params, pts) = setup();
        let reference = AnyMethod::Scan.compute(&params, &pts).unwrap().grid;
        for m in AnyMethod::paper_lineup() {
            if !m.is_exact() {
                continue;
            }
            let got = m.compute(&params, &pts).unwrap().grid;
            let err = kdv_core::stats::max_rel_error(got.values(), reference.values());
            assert!(err < 1e-9, "{m}: err {err}");
        }
    }

    #[test]
    fn deadline_in_the_past_rejects() {
        let (params, pts) = setup();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        for m in AnyMethod::paper_lineup() {
            let r = m.compute_with_deadline(&params, &pts, Some(past));
            assert!(
                matches!(r, Err(KdvError::DeadlineExceeded)),
                "{m} must respect an expired deadline"
            );
        }
    }

    #[test]
    fn lineup_matches_table6() {
        let names: Vec<String> = AnyMethod::paper_lineup().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            [
                "SCAN",
                "RQS_kd",
                "RQS_ball",
                "Z-order",
                "aKDE",
                "QUAD",
                "SLAM_SORT",
                "SLAM_BUCKET",
                "SLAM_SORT^(RAO)",
                "SLAM_BUCKET^(RAO)"
            ]
        );
    }
}
