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
//! weight. This module provides a weighted bucket sweep with the same
//! `O(Y(X + n))` complexity (plus RAO), validated against direct
//! summation.

use crate::driver::{KdvParams, SweepContext};
use crate::envelope::EnvelopeBuffer;
use crate::error::{KdvError, Result};
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::kernel::KernelType;
use crate::stats::Kahan;
use crate::sweep_bucket::{Buckets, NIL};

/// Weighted counterpart of `RangeAggregates`: every term carries the
/// point's weight; `wsum` plays the role of the count.
#[derive(Debug, Clone, Copy, Default)]
struct WeightedAggregates {
    wsum: f64,
    ax: f64,
    ay: f64,
    s: f64,
    cx: f64,
    cy: f64,
    q4: f64,
    mxx: f64,
    mxy: f64,
    myy: f64,
}

/// Kahan-compensated weighted accumulator for one sweep side.
///
/// `count` tracks the number of insertions exactly (weights may be
/// negative or zero, so `wsum` cannot detect emptiness) — the sweep uses it
/// for the rolling-frame reset, mirroring `SweepAccumulator`.
#[derive(Debug, Clone, Default)]
struct WeightedAccumulator {
    count: u64,
    wsum: Kahan,
    ax: Kahan,
    ay: Kahan,
    s: Kahan,
    cx: Kahan,
    cy: Kahan,
    q4: Kahan,
    mxx: Kahan,
    mxy: Kahan,
    myy: Kahan,
    maintain_quartic: bool,
}

impl WeightedAccumulator {
    #[inline(always)]
    fn new(maintain_quartic: bool) -> Self {
        Self { maintain_quartic, ..Self::default() }
    }

    #[inline(always)]
    fn insert(&mut self, p: &Point, w: f64) {
        self.count += 1;
        self.wsum.add(w);
        self.ax.add(w * p.x);
        self.ay.add(w * p.y);
        let n2 = p.norm_sq();
        self.s.add(w * n2);
        if self.maintain_quartic {
            self.cx.add(w * n2 * p.x);
            self.cy.add(w * n2 * p.y);
            self.q4.add(w * n2 * n2);
            self.mxx.add(w * p.x * p.x);
            self.mxy.add(w * p.x * p.y);
            self.myy.add(w * p.y * p.y);
        }
    }

    #[inline(always)]
    fn reset(&mut self) {
        let mq = self.maintain_quartic;
        *self = Self::new(mq);
    }

    /// Weighted analogue of `SweepAccumulator::shift_x`: translates the
    /// frame along x by `delta` (`wsum` plays the role of the count).
    #[inline(always)]
    fn shift_x(&mut self, delta: f64) {
        if self.count == 0 {
            return;
        }
        let n = self.wsum.value();
        let d = delta;
        let ax = self.ax.value();
        self.ax.add(-n * d);
        if self.maintain_quartic {
            let ay = self.ay.value();
            let s = self.s.value();
            let cx = self.cx.value();
            let mxx = self.mxx.value();
            let mxy = self.mxy.value();
            let d2 = d * d;
            self.s.add(-2.0 * d * ax + n * d2);
            self.q4.add(
                -4.0 * d * cx + 2.0 * d2 * s + 4.0 * d2 * mxx - 4.0 * d * d2 * ax + n * d2 * d2,
            );
            self.cx.add(-d * (s + 2.0 * mxx) + 3.0 * d2 * ax - n * d * d2);
            self.cy.add(-2.0 * d * mxy + d2 * ay);
            self.mxx.add(-2.0 * d * ax + n * d2);
            self.mxy.add(-d * ay);
        } else {
            self.s.add(-2.0 * d * ax + n * d * d);
        }
    }

    #[inline(always)]
    fn diff(&self, other: &Self) -> WeightedAggregates {
        WeightedAggregates {
            wsum: self.wsum.value() - other.wsum.value(),
            ax: self.ax.value() - other.ax.value(),
            ay: self.ay.value() - other.ay.value(),
            s: self.s.value() - other.s.value(),
            cx: self.cx.value() - other.cx.value(),
            cy: self.cy.value() - other.cy.value(),
            q4: self.q4.value() - other.q4.value(),
            mxx: self.mxx.value() - other.mxx.value(),
            mxy: self.mxy.value() - other.mxy.value(),
            myy: self.myy.value() - other.myy.value(),
        }
    }
}

impl WeightedAggregates {
    /// Snapshot in the shared emit form: `wsum` plays the role of the
    /// count, the polynomial is identical term-for-term (see
    /// [`crate::simd::density_at`]).
    #[inline]
    fn emit(&self) -> crate::simd::EmitAggregates {
        crate::simd::EmitAggregates {
            n: self.wsum,
            ax: self.ax,
            ay: self.ay,
            s: self.s,
            cx: self.cx,
            cy: self.cy,
            q4: self.q4,
            mxx: self.mxx,
            mxy: self.mxy,
            myy: self.myy,
        }
    }
}

/// Weighted density from aggregates — the weighted analogue of
/// `KernelType::density_from_aggregates`. The scalar sweep path evaluates
/// through this directly; the vector path goes through
/// [`crate::simd::density_at`] with `n = wsum`, which mirrors this
/// expression tree bit-for-bit (pinned by the emit-path test below).
#[inline]
fn density_from_weighted(
    kernel: KernelType,
    q: &Point,
    agg: &WeightedAggregates,
    bandwidth: f64,
    global_weight: f64,
) -> f64 {
    let b2 = bandwidth * bandwidth;
    match kernel {
        KernelType::Uniform => global_weight / bandwidth * agg.wsum,
        KernelType::Epanechnikov => {
            let qn = q.norm_sq();
            let qta = q.x * agg.ax + q.y * agg.ay;
            global_weight * (agg.wsum - (agg.wsum * qn - 2.0 * qta + agg.s) / b2)
        }
        KernelType::Quartic => {
            let qn = q.norm_sq();
            let qta = q.x * agg.ax + q.y * agg.ay;
            let qtc = q.x * agg.cx + q.y * agg.cy;
            let qmq = q.x * q.x * agg.mxx + 2.0 * q.x * q.y * agg.mxy + q.y * q.y * agg.myy;
            let sum_u = agg.wsum * qn - 2.0 * qta + agg.s;
            let sum_u2 = agg.wsum * qn * qn + 4.0 * qmq + agg.q4 - 4.0 * qn * qta
                + 2.0 * qn * agg.s
                - 4.0 * qtc;
            global_weight * (agg.wsum - 2.0 / b2 * sum_u + sum_u2 / (b2 * b2))
        }
    }
}

/// Reusable weighted bucket-sweep row engine.
///
/// Mirrors [`crate::sweep_bucket::BucketSweep`] — identical bucketing,
/// scatter skip (`bl == bu`), rolling recentred frame and early
/// deactivation (see the `sweep_sort` module docs) — except that every
/// insertion carries the point's weight. Factored out of
/// [`compute_weighted`] so the sequential and parallel drivers share one
/// implementation.
pub(crate) struct WeightedRowSweep {
    kernel: KernelType,
    bandwidth: f64,
    global_weight: f64,
    buckets: Buckets,
    emit: crate::simd::EmitBuffer,
}

impl WeightedRowSweep {
    pub(crate) fn new(kernel: KernelType, bandwidth: f64, global_weight: f64) -> Self {
        Self {
            kernel,
            bandwidth,
            global_weight,
            buckets: Buckets::default(),
            emit: crate::simd::EmitBuffer::default(),
        }
    }

    /// Rebinds the engine to new kernel parameters, keeping the bucket
    /// scratch buffers (the accumulators are row-local, so nothing else
    /// carries over).
    pub(crate) fn reconfigure(&mut self, kernel: KernelType, bandwidth: f64, global_weight: f64) {
        self.kernel = kernel;
        self.bandwidth = bandwidth;
        self.global_weight = global_weight;
    }

    /// Fills one pixel row. `env_weights[i]` is the weight of
    /// `intervals[i].point` (aligned by [`fill_env_weights`]).
    pub(crate) fn process_row(
        &mut self,
        xs: &[f64],
        k: f64,
        intervals: &[crate::envelope::SweepInterval],
        env_weights: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(intervals.len(), env_weights.len());
        debug_assert_eq!(out.len(), xs.len());
        self.buckets.scatter(xs, intervals);
        if self.kernel.needs_quartic_terms() {
            self.sweep::<true>(xs, k, intervals, env_weights, out);
        } else {
            self.sweep::<false>(xs, k, intervals, env_weights, out);
        }
    }

    /// Sweep pass over the scattered buckets; `QUARTIC` and the row-local
    /// accumulators as in `BucketSweep::sweep`.
    fn sweep<const QUARTIC: bool>(
        &mut self,
        xs: &[f64],
        k: f64,
        intervals: &[crate::envelope::SweepInterval],
        env_weights: &[f64],
        out: &mut [f64],
    ) {
        let Buckets { head_l, head_u, next_l, next_u } = &self.buckets;
        let x_count = xs.len();

        // Two variants, dispatched once per row on [`crate::simd::mode`] —
        // see `BucketSweep::sweep`. Scalar: the fused per-pixel loop
        // through `density_from_weighted`. Vector: event-free pixel
        // stretches share one aggregate snapshot and frame, recorded as
        // runs and evaluated by `EmitBuffer::flush` (4 pixels per
        // iteration), bitwise identical to the per-pixel loop.
        let mut l_acc = WeightedAccumulator::new(QUARTIC);
        let mut u_acc = WeightedAccumulator::new(QUARTIC);
        let shift_limit = 4.0 * self.bandwidth;
        let mut frame_x = xs[0];
        let mode = crate::simd::mode();
        let mut span = kdv_obs::span1("emit.simd", "mode", mode as u64);
        let lanes = match mode {
            crate::simd::SimdMode::Scalar => {
                for (i, &x) in xs.iter().enumerate() {
                    if l_acc.count == u_acc.count {
                        l_acc.reset();
                        u_acc.reset();
                        frame_x = x;
                    } else if x - frame_x > shift_limit {
                        let delta = x - frame_x;
                        l_acc.shift_x(delta);
                        u_acc.shift_x(delta);
                        frame_x = x;
                    }
                    let mut cur = head_l[i];
                    while cur != NIL {
                        let idx = cur as usize;
                        let p = &intervals[idx].point;
                        l_acc.insert(&Point::new(p.x - frame_x, p.y - k), env_weights[idx]);
                        cur = next_l[idx];
                    }
                    let agg = l_acc.diff(&u_acc);
                    let q = Point::new(x - frame_x, 0.0);
                    out[i] = density_from_weighted(
                        self.kernel,
                        &q,
                        &agg,
                        self.bandwidth,
                        self.global_weight,
                    );
                    let mut cur = head_u[i + 1];
                    while cur != NIL {
                        let idx = cur as usize;
                        let p = &intervals[idx].point;
                        u_acc.insert(&Point::new(p.x - frame_x, p.y - k), env_weights[idx]);
                        cur = next_u[idx];
                    }
                }
                0
            }
            crate::simd::SimdMode::Vector => {
                self.emit.clear();
                let mut i = 0usize;
                while i < x_count {
                    let x = xs[i];
                    if l_acc.count == u_acc.count {
                        l_acc.reset();
                        u_acc.reset();
                        frame_x = x;
                    } else if x - frame_x > shift_limit {
                        let delta = x - frame_x;
                        l_acc.shift_x(delta);
                        u_acc.shift_x(delta);
                        frame_x = x;
                    }
                    let mut cur = head_l[i];
                    while cur != NIL {
                        let idx = cur as usize;
                        let p = &intervals[idx].point;
                        l_acc.insert(&Point::new(p.x - frame_x, p.y - k), env_weights[idx]);
                        cur = next_l[idx];
                    }
                    // `count` (insertions, not `wsum`) detects emptiness
                    // exactly as the per-pixel loop does; empty ⟹ the reset
                    // above ran and the lower-bound drain inserted nothing,
                    // so every run pixel evaluates at `q = (+0.0, 0.0)`
                    // with zeroed aggregates.
                    let empty = l_acc.count == u_acc.count;
                    let mut e = i + 1;
                    if empty {
                        while e < x_count && head_l[e] == NIL && head_u[e] == NIL {
                            e += 1;
                        }
                    } else {
                        while e < x_count
                            && head_l[e] == NIL
                            && head_u[e] == NIL
                            && xs[e] - frame_x <= shift_limit
                        {
                            e += 1;
                        }
                    }
                    if empty {
                        self.emit.push_fill(
                            i,
                            e,
                            crate::simd::density_at(
                                self.kernel,
                                &crate::simd::EmitAggregates::default(),
                                0.0,
                                self.bandwidth,
                                self.global_weight,
                            ),
                        );
                        frame_x = xs[e - 1];
                    } else {
                        let agg = l_acc.diff(&u_acc);
                        self.emit.push_run(i, e, frame_x, agg.emit());
                    }
                    let mut cur = head_u[e];
                    while cur != NIL {
                        let idx = cur as usize;
                        let p = &intervals[idx].point;
                        u_acc.insert(&Point::new(p.x - frame_x, p.y - k), env_weights[idx]);
                        cur = next_u[idx];
                    }
                    i = e;
                }
                self.emit.flush(self.kernel, self.bandwidth, self.global_weight, xs, out)
            }
        };
        span.arg("lanes", lanes as u64);
    }

    /// Auxiliary heap bytes held by the engine.
    pub(crate) fn space_bytes(&self) -> usize {
        self.buckets.space_bytes() + self.emit.space_bytes()
    }
}

/// Validates the weight vector against the point set: lengths must match
/// and every weight must be finite. Shared by the sequential and parallel
/// weighted drivers.
pub(crate) fn validate_weights(points: &[Point], weights: &[f64]) -> Result<()> {
    if weights.len() != points.len() {
        return Err(KdvError::NonFinitePoint { index: weights.len().min(points.len()) });
    }
    if let Some(i) = weights.iter().position(|w| !w.is_finite()) {
        return Err(KdvError::InvalidWeight(weights[i]));
    }
    Ok(())
}

/// Reusable buffers for repeated weighted sweeps.
///
/// STKDV animations render hundreds of frames with the same raster and
/// kernel; allocating a fresh envelope buffer, weight scratch and engine
/// per frame wastes both time and allocator churn. One workspace per
/// worker, passed to [`compute_weighted_with`], keeps every buffer warm
/// across frames.
#[derive(Default)]
pub struct WeightedWorkspace {
    pub(crate) envelope: EnvelopeBuffer,
    pub(crate) env_weights: Vec<f64>,
    pub(crate) engine: Option<WeightedRowSweep>,
    /// Scratch for the RAO transpose path.
    pub(crate) t_points: Vec<Point>,
}

impl WeightedWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Auxiliary heap bytes currently held.
    pub fn space_bytes(&self) -> usize {
        self.envelope.space_bytes()
            + self.env_weights.capacity() * std::mem::size_of::<f64>()
            + self.engine.as_ref().map_or(0, |e| e.space_bytes())
            + self.t_points.capacity() * std::mem::size_of::<Point>()
    }

    /// The row engine configured for `params`, reusing prior scratch.
    pub(crate) fn engine_for(&mut self, params: &KdvParams) -> &mut WeightedRowSweep {
        let engine = self.engine.get_or_insert_with(|| {
            WeightedRowSweep::new(params.kernel, params.bandwidth, params.weight)
        });
        engine.reconfigure(params.kernel, params.bandwidth, params.weight);
        engine
    }
}

/// Computes the weighted KDV raster with a bucket sweep plus RAO:
/// `F(q) = params.weight · Σ_i weights[i]·K(q, p_i)`,
/// in `O(min(X,Y)·(max(X,Y) + n))` time.
///
/// # Errors
/// In addition to the usual parameter validation, every weight must be
/// finite ([`KdvError::InvalidWeight`]) and `weights.len()` must equal
/// `points.len()` (checked, returns [`KdvError::NonFinitePoint`] pointing
/// at the first missing index for a length mismatch).
pub fn compute_weighted(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
) -> Result<DensityGrid> {
    compute_weighted_with(params, points, weights, &mut WeightedWorkspace::new())
}

/// [`compute_weighted`] reusing a caller-owned [`WeightedWorkspace`] —
/// the allocation-free path for frame loops (STKDV) and repeated queries.
pub fn compute_weighted_with(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
    workspace: &mut WeightedWorkspace,
) -> Result<DensityGrid> {
    validate_weights(points, weights)?;
    // RAO: transpose when the raster is taller than wide.
    if params.grid.res_y > params.grid.res_x {
        let t_params = params.transposed();
        let mut t_points = std::mem::take(&mut workspace.t_points);
        t_points.clear();
        t_points.extend(points.iter().map(Point::transposed));
        let result = compute_weighted_rows(&t_params, &t_points, weights, workspace);
        workspace.t_points = t_points;
        return Ok(result?.transposed());
    }
    compute_weighted_rows(params, points, weights, workspace)
}

/// Row-sweep core of [`compute_weighted`] (no RAO dispatch): banded
/// envelope extraction per row, empty rows skipped outright.
fn compute_weighted_rows(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
    workspace: &mut WeightedWorkspace,
) -> Result<DensityGrid> {
    let ctx = SweepContext::new(params, points)?;
    let res_x = params.grid.res_x;
    let res_y = params.grid.res_y;
    let bandwidth = params.bandwidth;

    let mut grid = DensityGrid::zeroed(res_x, res_y);
    workspace.engine_for(params);
    let WeightedWorkspace { envelope, env_weights, engine, .. } = workspace;
    let engine = engine.as_mut().expect("engine_for configured the engine");

    for j in 0..res_y {
        let k = ctx.ks[j];
        let band = ctx.index.band(bandwidth, k);
        if band.is_empty() {
            continue;
        }
        ctx.index.gather(band.clone(), weights, env_weights);
        let intervals = envelope.fill_band(&ctx.index, band, bandwidth, k);
        engine.process_row(&ctx.xs, k, intervals, env_weights, grid.row_mut(j));
    }
    Ok(grid)
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
    use crate::geom::Rect;
    use crate::grid::GridSpec;

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
            let fast = compute_weighted(&params, &points, &weights).unwrap();
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
        let weighted = compute_weighted(&params, &points, &ones).unwrap();
        let plain = crate::rao::compute_bucket(&params, &points).unwrap();
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
        let fast = compute_weighted(&params, &points, &weights).unwrap();
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
        let out = compute_weighted(&params, &pts, &w).unwrap();
        let direct = weighted_scan(&params, &pts, &w);
        for (a, b) in out.values().iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-12);
        }
        // antisymmetric configuration: the two halves mirror-negate
        assert!(out.values().iter().any(|&v| v > 0.0));
        assert!(out.values().iter().any(|&v| v < 0.0));
    }

    #[test]
    fn workspace_reuse_matches_fresh_computation() {
        let (params, points, weights) = setup();
        let mut ws = WeightedWorkspace::new();
        let first = compute_weighted_with(&params, &points, &weights, &mut ws).unwrap();
        assert_eq!(first, compute_weighted(&params, &points, &weights).unwrap());
        // a different kernel/bandwidth through the same (warm) workspace
        let mut p2 = params;
        p2.kernel = KernelType::Quartic;
        p2.bandwidth = 4.0;
        let second = compute_weighted_with(&p2, &points, &weights, &mut ws).unwrap();
        assert_eq!(second, compute_weighted(&p2, &points, &weights).unwrap());
        // RAO transpose path through the workspace as well
        let tall = GridSpec::new(Rect::new(0.0, 0.0, 40.0, 60.0), 9, 27).unwrap();
        let p3 = KdvParams::new(tall, KernelType::Epanechnikov, 8.0);
        let third = compute_weighted_with(&p3, &points, &weights, &mut ws).unwrap();
        assert_eq!(third, compute_weighted(&p3, &points, &weights).unwrap());
        assert!(ws.space_bytes() > 0);
    }

    #[test]
    fn banded_weighted_matches_full_scan_extraction_bitwise() {
        // Reference: the pre-change full-scan extraction (O(n) per row)
        // over the same canonical point order, weights aligned via the
        // index permutation. The banded path must be bitwise identical.
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
            let mut engine = WeightedRowSweep::new(p.kernel, bandwidth, p.weight);
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
                engine.process_row(&ctx.xs, k, intervals, &env_weights, grid.row_mut(j));
            }
            let banded =
                compute_weighted_rows(&p, &points, &weights, &mut WeightedWorkspace::new())
                    .unwrap();
            assert_eq!(banded, grid, "b={bandwidth}");
        }
    }

    /// The sweep now emits through `simd::density_at` with `n = wsum`; that
    /// expression tree must mirror the weighted reference bit-for-bit.
    #[test]
    fn emit_path_matches_density_from_weighted_bitwise() {
        let mut l = WeightedAccumulator::new(true);
        for (i, p) in [
            Point::new(0.5, -1.5),
            Point::new(-2.25, 0.75),
            Point::new(3.0, 3.0),
            Point::new(1e-4, -0.3),
        ]
        .iter()
        .enumerate()
        {
            l.insert(p, 0.25 + i as f64 * 1.5);
        }
        let agg = l.diff(&WeightedAccumulator::new(true));
        let emit = agg.emit();
        for kernel in KernelType::ALL {
            for dx in [-3.5, 0.0, 0.125, 2.75] {
                for b in [1.25, 8.0] {
                    let q = Point::new(dx, 0.0);
                    let reference = density_from_weighted(kernel, &q, &agg, b, 0.6);
                    let got = crate::simd::density_at(kernel, &emit, dx, b, 0.6);
                    assert_eq!(got.to_bits(), reference.to_bits(), "{kernel} dx={dx} b={b}");
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
            compute_weighted(&params, &pts, &[f64::NAN]),
            Err(KdvError::InvalidWeight(_))
        ));
        assert!(compute_weighted(&params, &pts, &[]).is_err());
    }
}
