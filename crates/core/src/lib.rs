//! # kdv-core — SLAM sweep-line algorithms for exact KDV
//!
//! A from-scratch Rust implementation of the algorithms in *SLAM: Efficient
//! Sweep Line Algorithms for Kernel Density Visualization* (Chan, U, Choi,
//! Xu — SIGMOD 2022). Kernel Density Visualization colours every pixel of
//! an `X × Y` raster with the kernel density `F_P(q) = Σ_p w·K(q, p)` of
//! `n` location points; the naive evaluation is `O(XYn)`. The SLAM family
//! computes the **exact** same raster in
//! `O(Y(X + n log n))` ([`sweep_sort`], Theorem 1),
//! `O(Y(X + n))` ([`sweep_bucket`], Theorem 2), and — with the
//! resolution-aware optimization ([`rao`], Theorem 3) —
//! `O(min(X,Y)·(max(X,Y) + n))`.
//!
//! ## Quick start
//!
//! ```
//! use kdv_core::{GridSpec, KdvEngine, KdvParams, KernelType, Method, Point, Rect};
//!
//! // a tiny dataset with a hotspot around (30, 30)
//! let points: Vec<Point> = (0..100)
//!     .map(|i| Point::new(30.0 + (i % 10) as f64, 30.0 + (i / 10) as f64))
//!     .collect();
//!
//! let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 64, 48)?;
//! let params = KdvParams::new(grid, KernelType::Epanechnikov, 15.0)
//!     .with_weight(1.0 / points.len() as f64);
//!
//! let density = KdvEngine::new(Method::SlamBucketRao).compute(&params, &points)?;
//! assert_eq!(density.res_x(), 64);
//! let hottest = density.max_value();
//! assert!(hottest > 0.0);
//! # Ok::<(), kdv_core::KdvError>(())
//! ```
//!
//! ## Module tour
//!
//! * [`geom`] — points and rectangles.
//! * [`grid`] — raster mapping ([`GridSpec`]) and output ([`DensityGrid`]).
//! * [`kernel`] — uniform / Epanechnikov / quartic kernels and their
//!   aggregate decompositions (Table 2 / Table 4).
//! * [`aggregate`] — range aggregates with compensated maintenance (Eq. 5).
//! * [`envelope`] — per-row envelope point sets and sweep intervals
//!   (Definition 1, Lemma 2), extracted via a y-sorted banded index
//!   (`O(log n + |E(k)|)` per row instead of a full `O(n)` scan).
//! * [`sweep_sort`] / [`sweep_bucket`] — the two SLAM engines
//!   (Algorithms 1 and 2).
//! * [`rao`] — resolution-aware optimization (Section 3.6).
//!
//! Extensions beyond the paper (each documented as such):
//!
//! * [`parallel`] — work-stealing row-parallel runtime (plain, RAO,
//!   and weighted sweeps); what its workers did is recorded as `kdv-obs`
//!   spans (`sweep.parallel`, `band.search`, `envelope.fill`, `row.sweep`).
//! * [`weighted`] — per-point weights (temporal kernels, event counts).
//! * [`simd`] — the machine's `f64` lane class, reported in the benchmark
//!   fingerprint (the engines themselves have one scalar row loop).
//! * [`tile`] — tile-decomposed computation whose stitched output is
//!   bitwise identical to the monolithic sweep (the compute layer under
//!   the `kdv-serve` tile cache).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod digest;
pub mod driver;
pub mod envelope;
pub mod error;
pub mod geom;
pub mod grid;
pub mod kernel;
pub mod parallel;
pub mod rao;
pub mod simd;
pub mod stats;
pub mod sweep_bucket;
pub mod sweep_sort;
pub mod tile;
pub mod weighted;

pub use driver::KdvParams;
pub use error::{KdvError, Result};
pub use geom::{Point, Rect};
pub use grid::{DensityGrid, GridSpec};
pub use kernel::KernelType;

/// The SLAM method variants exposed by [`KdvEngine`] (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// SLAM_SORT — `O(Y(X + n log n))`.
    SlamSort,
    /// SLAM_BUCKET — `O(Y(X + n))`.
    SlamBucket,
    /// SLAM_SORT^(RAO) — `O(min(X,Y)(max(X,Y) + n log n))`.
    SlamSortRao,
    /// SLAM_BUCKET^(RAO) — `O(min(X,Y)(max(X,Y) + n))`; the paper's best.
    SlamBucketRao,
}

impl Method {
    /// All SLAM variants, in Table-1 order.
    pub const ALL: [Method; 4] =
        [Method::SlamSort, Method::SlamBucket, Method::SlamSortRao, Method::SlamBucketRao];

    /// Paper-style name, e.g. `"SLAM_BUCKET^(RAO)"`.
    pub fn name(&self) -> &'static str {
        match self {
            Method::SlamSort => "SLAM_SORT",
            Method::SlamBucket => "SLAM_BUCKET",
            Method::SlamSortRao => "SLAM_SORT^(RAO)",
            Method::SlamBucketRao => "SLAM_BUCKET^(RAO)",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Unified front-door for the SLAM family.
///
/// Thin dispatcher over [`sweep_sort::compute`], [`sweep_bucket::compute`]
/// and the [`rao`] wrappers; see the crate docs for an example.
#[derive(Debug, Clone, Copy)]
pub struct KdvEngine {
    method: Method,
}

impl KdvEngine {
    /// An engine running the chosen SLAM variant.
    pub const fn new(method: Method) -> Self {
        Self { method }
    }

    /// The variant this engine dispatches to.
    pub const fn method(&self) -> Method {
        self.method
    }

    /// Computes the exact density raster for `points` under `params`.
    pub fn compute(&self, params: &KdvParams, points: &[Point]) -> Result<DensityGrid> {
        match self.method {
            Method::SlamSort => sweep_sort::compute(params, points),
            Method::SlamBucket => sweep_bucket::compute(params, points),
            Method::SlamSortRao => rao::compute_sort(params, points),
            Method::SlamBucketRao => rao::compute_bucket(params, points),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_agree() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 50.0, 80.0), 13, 21).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 11.0).with_weight(0.01);
        let pts: Vec<Point> = (0..150)
            .map(|i| {
                let t = i as f64;
                Point::new((t * 7.13) % 50.0, (t * 3.77) % 80.0)
            })
            .collect();
        let reference = KdvEngine::new(Method::SlamSort).compute(&params, &pts).unwrap();
        for m in Method::ALL {
            let got = KdvEngine::new(m).compute(&params, &pts).unwrap();
            // RAO reassociates float ops across the transpose, so agreement
            // is to rounding error, not bitwise.
            let err = stats::max_rel_error(got.values(), reference.values());
            assert!(err < 1e-9, "{m}: err {err}");
        }
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::SlamBucketRao.name(), "SLAM_BUCKET^(RAO)");
        assert_eq!(Method::SlamSort.to_string(), "SLAM_SORT");
    }
}
