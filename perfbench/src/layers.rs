//! The benchmark's own timers around the core's public per-row calls:
//! `SweepContext::new`, `BandIndex::band`, `EnvelopeBuffer::fill_band`
//! and `BucketSweep::process_row`. These drive the same row program as
//! `kdv_core::driver::sweep_grid` / `kdv_core::tile::sweep_rows`, so the
//! instrumented output must be bitwise-equal to the untimed one; every
//! caller checks that.

use std::ops::Range;
use std::time::Instant;

use kdv_core::driver::{KdvParams, RowEngine, SweepContext};
use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::{DensityGrid, Point, Result};

use crate::report::Outcome;
use crate::stats::ns_to_s;

/// Time spent in each core layer by the instrumented calls, plus the
/// wall time of those calls. `wall − attributed` is the unattributed
/// remainder (allocation, transposition, loop overhead).
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreLayers {
    pub context_ns: u64,
    pub band_ns: u64,
    pub fill_ns: u64,
    pub sweep_ns: u64,
    pub wall_ns: u64,
    /// Σ |E(k)| over swept rows.
    pub envelope_points: u64,
    pub rows: u64,
    pub rows_skipped: u64,
}

impl CoreLayers {
    pub fn attributed_ns(&self) -> u64 {
        self.context_ns + self.band_ns + self.fill_ns + self.sweep_ns
    }

    /// `wall − attributed`; negative only if layer timers overlapped.
    pub fn unattributed_ns(&self) -> i128 {
        i128::from(self.wall_ns) - i128::from(self.attributed_ns())
    }

    /// Checks the reconciliation identity `Σ layers + unattributed =
    /// wall` with a non-negative remainder, returning the failure.
    pub fn reconcile(&self, what: &str) -> Option<String> {
        let unattributed = self.unattributed_ns();
        let residual = i128::from(self.wall_ns) - i128::from(self.attributed_ns()) - unattributed;
        (residual != 0 || unattributed < 0).then(|| {
            format!(
                "{what}: layers {} ns + unattributed {unattributed} ns != wall {} ns (residual {residual})",
                self.attributed_ns(),
                self.wall_ns
            )
        })
    }

    /// Publishes the split as the `core.*` per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("core.context_s", ns_to_s(self.context_ns));
        out.metric("core.band_search_s", ns_to_s(self.band_ns));
        out.metric("core.envelope_fill_s", ns_to_s(self.fill_ns));
        out.metric("core.row_sweep_s", ns_to_s(self.sweep_ns));
        out.metric("core.envelope_points", self.envelope_points as f64);
        out.metric("core.rows_skipped", self.rows_skipped as f64);
        out.metric("core.unattributed_s", self.unattributed_ns() as f64 / 1e9);
    }

    pub fn add(&mut self, o: &CoreLayers) {
        self.context_ns += o.context_ns;
        self.band_ns += o.band_ns;
        self.fill_ns += o.fill_ns;
        self.sweep_ns += o.sweep_ns;
        self.wall_ns += o.wall_ns;
        self.envelope_points += o.envelope_points;
        self.rows += o.rows;
        self.rows_skipped += o.rows_skipped;
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `SweepContext::new`, timed.
pub fn context(
    params: &KdvParams,
    points: &[Point],
    layers: &mut CoreLayers,
) -> Result<SweepContext> {
    let t = Instant::now();
    let ctx = SweepContext::new(params, points);
    let ns = ns_since(t);
    layers.context_ns += ns;
    layers.wall_ns += ns;
    ctx
}

/// The row loop of `kdv_core::tile::sweep_rows` with each call timed:
/// rows `rows` of `ctx`, written row-major into `out`.
pub fn sweep_rows(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    engine: &mut BucketSweep,
    envelope: &mut EnvelopeBuffer,
    out: &mut [f64],
    layers: &mut CoreLayers,
) {
    let start = Instant::now();
    let x_count = ctx.xs.len();
    out.fill(0.0);
    for (slot, j) in rows.enumerate() {
        let k = ctx.ks[j];
        let t0 = Instant::now();
        let band = ctx.index.band(bandwidth, k);
        let t1 = Instant::now();
        layers.band_ns += (t1 - t0).as_nanos() as u64;
        layers.rows += 1;
        if band.is_empty() {
            layers.rows_skipped += 1;
            continue;
        }
        let intervals = envelope.fill_band(&ctx.index, band, bandwidth, k);
        let t2 = Instant::now();
        layers.fill_ns += (t2 - t1).as_nanos() as u64;
        layers.envelope_points += intervals.len() as u64;
        engine.process_row(&ctx.xs, k, intervals, &mut out[slot * x_count..(slot + 1) * x_count]);
        layers.sweep_ns += ns_since(t2);
    }
    layers.wall_ns += ns_since(start);
}

/// A whole exact raster with SLAM_BUCKET^(RAO) on the calling thread,
/// every layer call timed. Bitwise-equal to
/// `kdv_core::parallel::compute_parallel_rao(.., Bucket, _)`.
pub fn render(
    params: &KdvParams,
    points: &[Point],
    layers: &mut CoreLayers,
) -> Result<DensityGrid> {
    let start = Instant::now();
    let mut inner = CoreLayers::default();
    let transpose = kdv_core::rao::should_transpose(params);
    let transposed: Vec<Point>;
    let (params, points) = if transpose {
        transposed = points.iter().map(Point::transposed).collect();
        (params.transposed(), &transposed[..])
    } else {
        (*params, points)
    };
    let ctx = context(&params, points, &mut inner)?;
    let (res_x, res_y) = (params.grid.res_x, params.grid.res_y);
    let mut values = vec![0.0; res_x * res_y];
    let mut engine = BucketSweep::new(params.kernel, params.bandwidth, params.weight);
    let mut envelope = EnvelopeBuffer::for_points(ctx.points.len());
    sweep_rows(
        &ctx,
        params.bandwidth,
        0..res_y,
        &mut engine,
        &mut envelope,
        &mut values,
        &mut inner,
    );
    let grid = DensityGrid::from_values(res_x, res_y, values);
    let grid = if transpose { grid.transposed() } else { grid };
    // the nested calls' wall is inside this call's wall
    inner.wall_ns = ns_since(start);
    layers.add(&inner);
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::parallel::{compute_parallel_rao, ParallelEngine};
    use kdv_core::{GridSpec, KernelType, Rect};

    #[test]
    fn instrumented_render_is_bitwise_the_parallel_render_and_reconciles() {
        let pts: Vec<Point> =
            (0..3000).map(|i| Point::new((i * 37 % 1000) as f64, (i * 91 % 700) as f64)).collect();
        for (rx, ry) in [(64, 48), (40, 72)] {
            let grid = GridSpec::new(Rect::new(0.0, 0.0, 1000.0, 700.0), rx, ry).unwrap();
            let params = KdvParams::new(grid, KernelType::Epanechnikov, 60.0).with_weight(1e-3);
            let mut layers = CoreLayers::default();
            let ours = render(&params, &pts, &mut layers).unwrap();
            let theirs = compute_parallel_rao(&params, &pts, ParallelEngine::Bucket, 2).unwrap();
            assert_eq!(ours, theirs, "{rx}x{ry}");
            assert_eq!(layers.reconcile("render"), None);
            assert_eq!(layers.rows as usize, rx.min(ry));
            assert!(layers.envelope_points > 0);
        }
    }
}
