//! Shared row-by-row driver for the sweep-line engines.
//!
//! Both SLAM variants process the raster one pixel row at a time (Figure 4):
//! extract the envelope point set `E(k)` of the row, turn it into sweep
//! intervals, and hand the row to an engine that fills the `X` densities.
//! This module owns everything row-independent: input validation, numerical
//! recentring, pixel-centre precomputation and buffer reuse.

use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::envelope::{BandIndex, EnvelopeBuffer, SweepInterval};
use crate::error::{KdvError, Result};
use crate::geom::Point;
use crate::grid::{DensityGrid, GridSpec};
use crate::kernel::KernelType;
use crate::parallel::{chunk_len, run_workers, workers_for};

/// Parameters of one KDV computation (Problem 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KdvParams {
    /// The query region and raster resolution.
    pub grid: GridSpec,
    /// Kernel function `K` (Table 2).
    pub kernel: KernelType,
    /// Kernel bandwidth `b` in data units (metres).
    pub bandwidth: f64,
    /// Normalisation constant `w` of Eq. 1.
    pub weight: f64,
}

impl KdvParams {
    /// Creates parameters with weight 1.
    pub fn new(grid: GridSpec, kernel: KernelType, bandwidth: f64) -> Self {
        Self { grid, kernel, bandwidth, weight: 1.0 }
    }

    /// Replaces the normalisation weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Validates bandwidth, weight and (via `GridSpec`) the raster.
    pub fn validate(&self) -> Result<()> {
        if !self.bandwidth.is_finite() || self.bandwidth <= 0.0 {
            return Err(KdvError::InvalidBandwidth(self.bandwidth));
        }
        if !self.weight.is_finite() {
            return Err(KdvError::InvalidWeight(self.weight));
        }
        // GridSpec::new re-runs the resolution/region checks.
        GridSpec::new(self.grid.region, self.grid.res_x, self.grid.res_y)?;
        Ok(())
    }

    /// Parameters for the transposed problem (RAO).
    pub fn transposed(&self) -> KdvParams {
        KdvParams { grid: self.grid.transposed(), ..*self }
    }
}

/// Validates that every input coordinate is finite.
pub fn validate_points(points: &[Point]) -> Result<()> {
    for (i, p) in points.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(KdvError::NonFinitePoint { index: i });
        }
    }
    Ok(())
}

/// Validates a weight vector against its point set: the lengths must match
/// (a mismatch reports [`KdvError::NonFinitePoint`] at the first index
/// only one side has) and every weight must be finite.
pub(crate) fn validate_weights(points: &[Point], weights: &[f64]) -> Result<()> {
    if weights.len() != points.len() {
        return Err(KdvError::NonFinitePoint { index: weights.len().min(points.len()) });
    }
    if let Some(i) = weights.iter().position(|w| !w.is_finite()) {
        return Err(KdvError::InvalidWeight(weights[i]));
    }
    Ok(())
}

/// A sweep engine that can fill one pixel row.
///
/// `xs` are the recentred pixel-centre x-coordinates (strictly increasing),
/// `k` the recentred row y-coordinate, `intervals` the row's envelope point
/// set with bounds, and `out` the `X` output densities.
pub trait RowEngine {
    /// Fills `out[i] = F_P(q_i)` for every pixel of the row.
    fn process_row(&mut self, xs: &[f64], k: f64, intervals: &[SweepInterval], out: &mut [f64]);

    /// [`RowEngine::process_row`] with per-point weights,
    /// `F(q_i) = w·Σ weights[j]·K(q_i, intervals[j].point)`. The drivers
    /// call it for every row of a weighted [`SweepContext`]. Only the
    /// bucket engine sweeps weights; this default panics, so a weighted
    /// context handed to a unit-only engine fails loudly instead of
    /// dropping its weights.
    fn process_weighted_row(
        &mut self,
        _xs: &[f64],
        _k: f64,
        _intervals: &[SweepInterval],
        _weights: &[f64],
        _out: &mut [f64],
    ) {
        panic!("this row engine sweeps unit weights only");
    }

    /// Sweeps the pixels `row.cols` of a row into `out` (`row.cols.len()`
    /// values, bitwise those pixels of the whole-row sweep). The sweep
    /// starts from `resume`, the row's state at `row.cols.start` as an
    /// earlier call captured it. With no `resume` it starts fresh at the
    /// last pixel at or left of `row.cols.start` where no interval of the
    /// row is active (pixel 0 at worst), because the whole-row sweep
    /// restarts from a fresh state there too.
    /// At each pixel boundary of `marks` (ascending, within
    /// `row.cols.start + 1..=row.cols.end`) it writes the row's state into
    /// the next [`RowEngine::state_words`] words of `captured`.
    ///
    /// This default sweeps whole rows only, through
    /// [`RowEngine::process_row`] or [`RowEngine::process_weighted_row`];
    /// the bucket engine overrides it.
    ///
    /// # Panics
    /// The default panics on a partial row, a `resume` or a `marks`.
    fn sweep_span(
        &mut self,
        row: &RowSpan<'_>,
        resume: Option<&[u64]>,
        marks: &[usize],
        captured: &mut [u64],
        out: &mut [f64],
    ) {
        let _ = captured;
        assert!(
            row.cols == (0..row.xs.len()) && resume.is_none() && marks.is_empty(),
            "this row engine sweeps whole rows only"
        );
        match row.weights {
            Some(weights) => self.process_weighted_row(row.xs, row.k, row.intervals, weights, out),
            None => self.process_row(row.xs, row.k, row.intervals, out),
        }
    }

    /// Words of one row's state at a pixel boundary, as
    /// [`RowEngine::sweep_span`] captures and resumes it, for a unit or a
    /// weighted row (0: the engine cannot checkpoint).
    fn state_words(&self, weighted: bool) -> usize {
        let _ = weighted;
        0
    }

    /// Auxiliary heap bytes currently held by the engine (for the paper's
    /// space-consumption experiment, Figure 17).
    fn space_bytes(&self) -> usize {
        0
    }
}

/// One row as [`RowEngine::sweep_span`] sweeps it.
#[derive(Debug, Clone)]
pub struct RowSpan<'a> {
    /// Recentred pixel centres of the whole row, strictly increasing.
    pub xs: &'a [f64],
    /// The pixels to sweep, a range of `xs`.
    pub cols: Range<usize>,
    /// Recentred row coordinate.
    pub k: f64,
    /// The row's envelope intervals in canonical order: all of them, or
    /// any subsequence that keeps every interval with an endpoint event
    /// inside `cols` — inside `0..cols.end` for a sweep with no resume
    /// state, which finds where to start from the intervals left of
    /// `cols`.
    pub intervals: &'a [SweepInterval],
    /// Per-interval weights (`None`: unit weights).
    pub weights: Option<&'a [f64]>,
}

/// The part of a [`SweepContext`] that depends only on the point set and
/// the region centre: the recentred points in the **canonical sweep
/// order** — ascending y, ties in input order — their banded index and,
/// for a weighted set, the weights in that order.
///
/// The canonical order is what both the banded index and the full-scan
/// reference emit, so every extraction path hands intervals to the
/// engines in the same sequence (bitwise-reproducible accumulation).
/// Every raster over regions with the same centre sweeps the same set, so
/// contexts for several resolutions of one region (the levels of a tile
/// pyramid) share one set behind an [`Arc`] ([`SweepContext::for_grid`]).
pub struct SweepSet {
    /// Points shifted so the region centre is the origin, sorted by
    /// ascending y (stable, so runs are deterministic).
    pub points: Vec<Point>,
    /// Banded envelope index over `points`: y-sorted SoA coordinates plus
    /// the permutation back to the caller's input order.
    pub index: BandIndex,
    /// Offset that was subtracted (region centre).
    pub center: Point,
    /// Per-point weights in canonical order (`None`: unit weights).
    weights: Option<Vec<f64>>,
}

impl SweepSet {
    /// Recentres `points` about `center` and sorts them into the banded
    /// index, carrying `weights` (in input order) into the canonical
    /// order. The inputs are already validated.
    fn build(center: Point, points: &[Point], weights: Option<&[f64]>) -> Self {
        let shifted: Vec<_> = points.iter().map(|p| p.shifted(center.x, center.y)).collect();
        let index = BandIndex::build(&shifted);
        let sorted = (0..index.len()).map(|i| index.point(i)).collect();
        let weights =
            weights.map(|w| (0..index.len()).map(|i| w[index.original_index(i)]).collect());
        Self { points: sorted, index, center, weights }
    }

    /// Per-point weights in canonical order (`None`: unit weights).
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Heap bytes held by the set (points, index, weights).
    fn space_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point>()
            + self.index.space_bytes()
            + self.weights.as_ref().map_or(0, Vec::capacity) * std::mem::size_of::<f64>()
    }
}

/// Pre-processed, recentred inputs shared by every row of one computation:
/// a shared [`SweepSet`] (read through `Deref`, so `ctx.points`,
/// `ctx.index`, `ctx.center` and `ctx.weights()` are the set's) plus the
/// pixel centres of one raster.
///
/// A context built with [`SweepContext::weighted`] carries per-point
/// weights in the canonical order, so a row's weights are the slice of its
/// band and every driver sweeps it as a weighted KDV with no further setup.
pub struct SweepContext {
    set: Arc<SweepSet>,
    /// Recentred pixel-centre x-coordinates, strictly increasing.
    pub xs: Vec<f64>,
    /// Recentred pixel-centre y-coordinates, one per row.
    pub ks: Vec<f64>,
}

impl Deref for SweepContext {
    type Target = SweepSet;

    #[inline]
    fn deref(&self) -> &SweepSet {
        &self.set
    }
}

impl SweepContext {
    /// Recentres points, sorts them by y into the banded index, and
    /// precomputes pixel coordinates — O(n log n), once per computation.
    ///
    /// Shifting both the data and the query raster by the region centre is
    /// exact in real arithmetic (kernels depend only on `q − p`) and keeps
    /// the aggregate expansion (Eq. 5) well conditioned when coordinates
    /// are large (city projections are ~1e5–1e7 metres).
    pub fn new(params: &KdvParams, points: &[Point]) -> Result<Self> {
        params.validate()?;
        validate_points(points)?;
        let set = SweepSet::build(params.grid.region.center(), points, None);
        Ok(Self::on_set(&params.grid, Arc::new(set)))
    }

    /// [`SweepContext::new`] for a weighted KDV: `weights[i]` is the weight
    /// of `points[i]`, stored in the canonical order.
    ///
    /// # Errors
    /// Those of [`SweepContext::new`], plus [`KdvError::InvalidWeight`] for a
    /// non-finite weight and [`KdvError::NonFinitePoint`] at the first
    /// unmatched index when the lengths differ.
    pub fn weighted(params: &KdvParams, points: &[Point], weights: &[f64]) -> Result<Self> {
        validate_weights(points, weights)?;
        params.validate()?;
        validate_points(points)?;
        let set = SweepSet::build(params.grid.region.center(), points, Some(weights));
        Ok(Self::on_set(&params.grid, Arc::new(set)))
    }

    /// The context for the raster of `params` over this context's point
    /// set, bitwise the one [`SweepContext::new`] (or, for a weighted
    /// context, [`SweepContext::weighted`] with the same weights) builds
    /// from `points`, the input this context was built from.
    ///
    /// When the two regions' centres are bitwise equal the recentred set is
    /// too, so the new context shares this one's [`SweepSet`] and computes
    /// only its own pixel centres, `O(X + Y)`; `points` is not read. Any
    /// other region gets a freshly built set.
    pub fn for_grid(&self, params: &KdvParams, points: &[Point]) -> Result<Self> {
        let center = params.grid.region.center();
        if center.x.to_bits() == self.center.x.to_bits()
            && center.y.to_bits() == self.center.y.to_bits()
        {
            params.validate()?;
            return Ok(Self::on_set(&params.grid, Arc::clone(&self.set)));
        }
        let Some(canonical) = self.weights() else {
            return Self::new(params, points);
        };
        // The weights back in input order, through the index's permutation.
        let mut weights = vec![0.0; canonical.len()];
        for (i, &w) in canonical.iter().enumerate() {
            weights[self.index.original_index(i)] = w;
        }
        Self::weighted(params, points, &weights)
    }

    /// The context over `set` with the pixel centres of `grid`, recentred
    /// by the set's centre.
    fn on_set(grid: &GridSpec, set: Arc<SweepSet>) -> Self {
        let center = set.center;
        let xs = (0..grid.res_x).map(|i| grid.pixel_x(i) - center.x).collect();
        let ks = (0..grid.res_y).map(|j| grid.pixel_y(j) - center.y).collect();
        Self { set, xs, ks }
    }

    /// The shared point set this context sweeps.
    #[inline]
    pub fn set(&self) -> &Arc<SweepSet> {
        &self.set
    }

    /// Heap bytes held by the context (its set plus pixel coordinates).
    pub fn space_bytes(&self) -> usize {
        self.set.space_bytes()
            + (self.xs.capacity() + self.ks.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Runs one `make_engine()` engine per worker over every row of the
/// raster with banded envelope extraction, on `threads` workers (`0`:
/// auto; see [`crate::parallel`]): O(n log n) once, then `Y` iterations of
/// an `O(log n + |E(k)| + X)` row (rows with an empty band are skipped
/// outright — their densities are exactly zero). Bitwise identical for
/// every thread count.
pub fn sweep_grid<E: RowEngine>(
    params: &KdvParams,
    points: &[Point],
    threads: usize,
    make_engine: impl Fn() -> E + Sync,
) -> Result<DensityGrid> {
    let ctx = SweepContext::new(params, points)?;
    Ok(sweep_context(&ctx, params, threads, make_engine))
}

/// The raster of a built context, unit or weighted as the context says:
/// the workers claim chunks of rows, each a disjoint slice of the output,
/// and sweep them with [`crate::tile::sweep_rows`]. The `sweep.parallel`
/// span carries the rows, the workers and, at close, the auxiliary heap:
/// `peak_bytes` of the largest worker (envelope buffer plus engine) and
/// `aux_bytes` of all workers plus the context.
pub(crate) fn sweep_context<E: RowEngine>(
    ctx: &SweepContext,
    params: &KdvParams,
    threads: usize,
    make_engine: impl Fn() -> E + Sync,
) -> DensityGrid {
    let (res_x, res_y) = (params.grid.res_x, params.grid.res_y);
    let workers = workers_for(threads, res_y);
    let chunk = chunk_len(res_y, workers);
    let mut values = vec![0.0; res_x * res_y];
    let mut span =
        kdv_obs::span2("sweep.parallel", "rows", res_y as u64, "threads", workers as u64);
    let heap = run_workers(workers, values.chunks_mut(chunk * res_x).enumerate(), |claims| {
        let mut engine = make_engine();
        let mut envelope = EnvelopeBuffer::for_points(ctx.points.len());
        for (c, out) in claims {
            let rows = c * chunk..c * chunk + out.len() / res_x;
            crate::tile::sweep_rows(ctx, params.bandwidth, rows, &mut engine, &mut envelope, out);
        }
        envelope.space_bytes() + engine.space_bytes()
    });
    span.arg("peak_bytes", heap.iter().copied().max().unwrap_or(0) as u64);
    span.arg("aux_bytes", (ctx.space_bytes() + heap.iter().sum::<usize>()) as u64);
    DensityGrid::from_values(res_x, res_y, values)
}

/// [`sweep_grid`] with the paper's original full-scan extraction (`O(n)`
/// per row over the same canonical point order). Kept as the reference
/// implementation: regression tests assert the banded path is bitwise
/// identical to it, and the extraction benchmarks measure it.
pub fn sweep_grid_scan<E: RowEngine>(
    params: &KdvParams,
    points: &[Point],
    engine: &mut E,
) -> Result<DensityGrid> {
    let ctx = SweepContext::new(params, points)?;
    let mut grid = DensityGrid::zeroed(params.grid.res_x, params.grid.res_y);
    let mut envelope = EnvelopeBuffer::for_points(ctx.points.len());
    for j in 0..params.grid.res_y {
        let k = ctx.ks[j];
        let intervals = envelope.fill(&ctx.points, params.bandwidth, k);
        if intervals.is_empty() {
            continue;
        }
        engine.process_row(&ctx.xs, k, intervals, grid.row_mut(j));
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    /// Fills each row it sweeps with `100 + |E(k)|`, so a skipped row
    /// (left exactly zero) is told apart from a swept empty one.
    struct CountingEngine;

    impl RowEngine for CountingEngine {
        fn process_row(
            &mut self,
            xs: &[f64],
            _k: f64,
            intervals: &[SweepInterval],
            out: &mut [f64],
        ) {
            assert_eq!(xs.len(), out.len());
            out.fill(100.0 + intervals.len() as f64);
        }
    }

    fn params(res_x: usize, res_y: usize) -> KdvParams {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), res_x, res_y).unwrap();
        KdvParams::new(grid, KernelType::Epanechnikov, 2.0)
    }

    #[test]
    fn validation_rejects_bad_bandwidth_and_points() {
        let mut p = params(4, 4);
        p.bandwidth = 0.0;
        assert!(matches!(p.validate(), Err(KdvError::InvalidBandwidth(_))));
        p.bandwidth = f64::NAN;
        assert!(p.validate().is_err());
        assert!(matches!(
            validate_points(&[Point::new(0.0, f64::INFINITY)]),
            Err(KdvError::NonFinitePoint { index: 0 })
        ));
    }

    #[test]
    fn driver_visits_every_nonempty_row_with_envelope_sets() {
        let p = params(8, 5);
        // one point near the bottom, one near the top
        let pts = [Point::new(5.0, 1.0), Point::new(5.0, 9.0)];
        // row centres are y = 1,3,5,7,9; b = 2 ⇒ row 0 sees pt0 only,
        // row 1 sees pt0, row 2 sees none (skipped outright), row 3 sees
        // pt1, row 4 sees pt1 — on any number of workers.
        for threads in [1, 2, 5] {
            let grid = sweep_grid(&p, &pts, threads, || CountingEngine).unwrap();
            for (j, want) in [101.0, 101.0, 0.0, 101.0, 101.0].into_iter().enumerate() {
                assert!(grid.row(j).iter().all(|&v| v == want), "row {j} threads {threads}");
            }
        }
    }

    #[test]
    fn banded_driver_matches_full_scan_driver_bitwise() {
        let p = params(16, 11);
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> =
            (0..250).map(|_| Point::new(next() * 12.0 - 1.0, next() * 12.0 - 1.0)).collect();
        for bandwidth in [0.3, 2.0, 25.0] {
            let mut params = p;
            params.bandwidth = bandwidth;
            let make = || crate::sweep_bucket::BucketSweep::new(params.kernel, bandwidth, 1.0);
            let mut b = make();
            let banded = sweep_grid(&params, &pts, 1, make).unwrap();
            let scan = sweep_grid_scan(&params, &pts, &mut b).unwrap();
            assert_eq!(banded, scan, "b={bandwidth}");
        }
    }

    #[test]
    fn context_recentres_about_region_center() {
        let p = params(4, 4);
        let ctx = SweepContext::new(&p, &[Point::new(5.0, 5.0)]).unwrap();
        assert_eq!(ctx.center, Point::new(5.0, 5.0));
        assert_eq!(ctx.points[0], Point::new(0.0, 0.0));
        // xs symmetric about 0
        assert!((ctx.xs[0] + ctx.xs[3]).abs() < 1e-12);
    }

    #[test]
    fn transposed_params_swap_resolution() {
        let p = params(8, 5).transposed();
        assert_eq!(p.grid.res_x, 5);
        assert_eq!(p.grid.res_y, 8);
    }
}
