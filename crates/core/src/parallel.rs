//! Work-stealing row-parallel sweep runtime — an extension beyond the paper.
//!
//! The paper evaluates a single-CPU setting and lists parallel execution as
//! future work (Section 5, "Parallel/distributed and hardware-based
//! methods"). Rows are embarrassingly parallel: each row sweep touches only
//! its own envelope set and output row, so any row partition yields the
//! bitwise-sequential result. A *static* partition, however, balances badly
//! on clustered data — envelope sizes `|E(k)|` (and hence row cost) can vary
//! by orders of magnitude across rows, so contiguous bands leave most
//! workers idle while one grinds through the hotspot.
//!
//! This module therefore schedules rows dynamically: workers claim small
//! chunks of row indices from a shared atomic counter until the raster is
//! exhausted. Each row is still swept start-to-finish by exactly one engine,
//! so no floating-point reassociation crosses a row boundary and the output
//! is **bitwise identical** to the sequential sweep for every thread count.
//! One `fetch_add` per chunk keeps contention negligible next to an
//! `O(X + n)` row.
//!
//! The same scheduler drives every parallel entry point in the workspace:
//! plain sweeps ([`compute_parallel`]), RAO composition
//! ([`compute_parallel_rao`]), weighted sweeps
//! ([`compute_weighted_parallel`]), multi-bandwidth exploration
//! ([`compute_multi_bandwidth_parallel`]) and — via [`for_each_index`] —
//! the temporal frame driver in `kdv-temporal`. The `*_with_report`
//! variants additionally collect a [`SweepReport`] of per-row envelope
//! sizes, fill/sweep phase times and the rows-per-worker distribution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::driver::{KdvParams, RowEngine, SweepContext};
use crate::envelope::EnvelopeBuffer;
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::sweep_bucket::BucketSweep;
use crate::sweep_sort::SortSweep;
use crate::telemetry::{SweepReport, WorkerStats};

/// Which sequential engine each worker thread instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelEngine {
    /// SLAM_SORT per row.
    Sort,
    /// SLAM_BUCKET per row.
    Bucket,
}

/// Default worker count: the machine's available parallelism (1 if it
/// cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a user-facing thread request: `0` means "auto".
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Chunked claiming from a shared atomic row counter — the work-stealing
/// heart of the runtime.
struct RowClaimer {
    next: AtomicUsize,
    rows: usize,
    chunk: usize,
}

impl RowClaimer {
    fn new(rows: usize, workers: usize) -> Self {
        // Chunks small enough that a clustered hotspot cannot pin a worker
        // for long, large enough that the atomic traffic stays negligible.
        let chunk = (rows / (workers.max(1) * 8)).clamp(1, 64);
        Self { next: AtomicUsize::new(0), rows, chunk }
    }

    fn claim(&self) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.rows {
            None
        } else {
            Some(start..(start + self.chunk).min(self.rows))
        }
    }
}

/// Hands out disjoint mutable raster rows to workers.
///
/// Safety contract: every row index is claimed by exactly one worker (the
/// `RowClaimer` guarantees unique claims), so the aliasing rules hold even
/// though the borrow checker cannot see it.
struct RowTable {
    base: *mut f64,
    row_len: usize,
    rows: usize,
}

unsafe impl Send for RowTable {}
unsafe impl Sync for RowTable {}

impl RowTable {
    fn new(values: &mut [f64], row_len: usize) -> Self {
        let rows = values.len().checked_div(row_len).unwrap_or(0);
        debug_assert_eq!(values.len(), rows * row_len);
        Self { base: values.as_mut_ptr(), row_len, rows }
    }

    /// # Safety
    /// `j` must be claimed by exactly one worker for the table's lifetime.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.rows);
        unsafe { std::slice::from_raw_parts_mut(self.base.add(j * self.row_len), self.row_len) }
    }
}

/// Generic work-stealing scheduler: spawns `workers` scoped threads, each
/// building private state with `make_state` and running `sweep_row` for
/// every claimed row. Returns the per-worker telemetry records in spawn
/// order.
fn run_scheduler<S>(
    rows: usize,
    workers: usize,
    make_state: &(impl Fn() -> S + Sync),
    sweep_row: &(impl Fn(&mut S, usize, &mut WorkerStats) + Sync),
    aux_bytes: &(impl Fn(&S) -> usize + Sync),
) -> Vec<WorkerStats> {
    let workers = workers.min(rows).max(1);
    let claimer = RowClaimer::new(rows, workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let claimer = &claimer;
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut stats = WorkerStats::default();
                    while let Some(range) = claimer.claim() {
                        for j in range {
                            sweep_row(&mut state, j, &mut stats);
                            stats.rows += 1;
                        }
                    }
                    stats.aux_bytes = aux_bytes(&state);
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    })
}

/// Computes the raster with `threads` workers claiming rows dynamically.
/// `threads == 0` uses [`default_threads`]; `1` falls back to the
/// sequential path. Output is bitwise identical to the sequential sweep
/// for every thread count.
pub fn compute_parallel(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<DensityGrid> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return match engine {
            ParallelEngine::Sort => crate::sweep_sort::compute(params, points),
            ParallelEngine::Bucket => crate::sweep_bucket::compute(params, points),
        };
    }
    compute_parallel_with_report(params, points, engine, threads).map(|(grid, _)| grid)
}

/// [`compute_parallel`] plus execution telemetry. Runs the scheduler even
/// for `threads == 1` so the report is always populated.
pub fn compute_parallel_with_report(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<(DensityGrid, SweepReport)> {
    let ctx = SweepContext::new(params, points)?;
    let (kernel, b, w) = (params.kernel, params.bandwidth, params.weight);
    Ok(match engine {
        ParallelEngine::Sort => {
            sweep_context_parallel(&ctx, params, threads, || SortSweep::new(kernel, b, w))
        }
        ParallelEngine::Bucket => {
            sweep_context_parallel(&ctx, params, threads, || BucketSweep::new(kernel, b, w))
        }
    })
}

/// The work-stealing row sweep over a built context, unit or weighted as
/// the context says, with one `make_engine()` engine per worker: the one
/// row closure of every parallel sweep driver.
fn sweep_context_parallel<E: RowEngine>(
    ctx: &SweepContext,
    params: &KdvParams,
    threads: usize,
    make_engine: impl Fn() -> E + Sync,
) -> (DensityGrid, SweepReport) {
    let threads = resolve_threads(threads);
    let res_x = params.grid.res_x;
    let res_y = params.grid.res_y;
    let mut values = vec![0.0_f64; res_x * res_y];
    let table = RowTable::new(&mut values, res_x);

    let start = Instant::now();
    let workers = {
        let _sweep =
            kdv_obs::span2("sweep.parallel", "rows", res_y as u64, "threads", threads as u64);
        run_scheduler(
            res_y,
            threads,
            &|| (EnvelopeBuffer::for_points(ctx.points.len()), make_engine()),
            &|(envelope, eng), j, stats| {
                let k = ctx.ks[j];
                let t0 = Instant::now();
                let band = {
                    let _s = kdv_obs::span1("band.search", "row", j as u64);
                    ctx.index.band(params.bandwidth, k)
                };
                if band.is_empty() {
                    // the output row is already zeroed — skip the engine
                    stats.fill_nanos += t0.elapsed().as_nanos() as u64;
                    stats.rows_skipped += 1;
                    stats.envelope_sizes.push((j, 0));
                    return;
                }
                let intervals = {
                    let mut s = kdv_obs::span1("envelope.fill", "row", j as u64);
                    let intervals =
                        envelope.fill_band(&ctx.index, band.clone(), params.bandwidth, k);
                    s.arg("size", intervals.len() as u64);
                    intervals
                };
                let t1 = Instant::now();
                // SAFETY: the scheduler claims each row exactly once.
                let out = unsafe { table.row(j) };
                {
                    let _s = kdv_obs::span1("row.sweep", "row", j as u64);
                    ctx.sweep_row(eng, band, k, intervals, out);
                }
                stats.fill_nanos += (t1 - t0).as_nanos() as u64;
                stats.sweep_nanos += t1.elapsed().as_nanos() as u64;
                stats.envelope_sizes.push((j, intervals.len()));
            },
            &|(envelope, eng)| envelope.space_bytes() + eng.space_bytes(),
        )
    };
    let mut report = SweepReport::from_workers(workers, res_y, ctx.space_bytes());
    report.wall_nanos = start.elapsed().as_nanos() as u64;
    (DensityGrid::from_values(res_x, res_y, values), report)
}

/// Parallel sweep with the resolution-aware optimization: transposes when
/// the raster is taller than wide (Theorem 3), then runs the work-stealing
/// sweep over the (fewer, longer) rows.
pub fn compute_parallel_rao(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<DensityGrid> {
    compute_parallel_rao_with_report(params, points, engine, threads).map(|(grid, _)| grid)
}

/// [`compute_parallel_rao`] plus telemetry. When the problem transposes,
/// the report describes the *transposed* sweep (rows = original columns).
pub fn compute_parallel_rao_with_report(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<(DensityGrid, SweepReport)> {
    with_rao_report(params, points, |params, points| {
        compute_parallel_with_report(params, points, engine, threads)
    })
}

/// [`crate::rao::with_rao`] for the drivers that also return a report.
fn with_rao_report(
    params: &KdvParams,
    points: &[Point],
    sweep: impl Fn(&KdvParams, &[Point]) -> Result<(DensityGrid, SweepReport)>,
) -> Result<(DensityGrid, SweepReport)> {
    if !crate::rao::should_transpose(params) {
        return sweep(params, points);
    }
    let t_points: Vec<Point> = points.iter().map(Point::transposed).collect();
    let (grid, report) = sweep(&params.transposed(), &t_points)?;
    Ok((grid.transposed(), report))
}

/// Parallel weighted sweep (bucket engine plus RAO dispatch), bitwise
/// identical to [`crate::weighted::compute_weighted`].
pub fn compute_weighted_parallel(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
    threads: usize,
) -> Result<DensityGrid> {
    compute_weighted_parallel_with_report(params, points, weights, threads).map(|(g, _)| g)
}

/// [`compute_weighted_parallel`] plus telemetry (transposed semantics as in
/// [`compute_parallel_rao_with_report`]).
pub fn compute_weighted_parallel_with_report(
    params: &KdvParams,
    points: &[Point],
    weights: &[f64],
    threads: usize,
) -> Result<(DensityGrid, SweepReport)> {
    with_rao_report(params, points, |params, points| {
        let ctx = SweepContext::weighted(params, points, weights)?;
        let (kernel, b, w) = (params.kernel, params.bandwidth, params.weight);
        Ok(sweep_context_parallel(&ctx, params, threads, || BucketSweep::new(kernel, b, w)))
    })
}

/// Parallel multi-bandwidth exploration, bitwise identical to
/// [`crate::multi_bandwidth::compute_multi_bandwidth`]: per claimed row the
/// widest bandwidth's band is located once and bounds the binary search of
/// every smaller bandwidth; one bucket engine per worker is rebound per
/// bandwidth.
pub fn compute_multi_bandwidth_parallel(
    params: &KdvParams,
    points: &[Point],
    bandwidths: &[f64],
    threads: usize,
) -> Result<Vec<DensityGrid>> {
    use crate::error::KdvError;

    for &b in bandwidths {
        if !b.is_finite() || b <= 0.0 {
            return Err(KdvError::InvalidBandwidth(b));
        }
    }
    if bandwidths.is_empty() {
        return Ok(Vec::new());
    }
    let threads = resolve_threads(threads);
    let b_max = bandwidths.iter().copied().fold(f64::MIN, f64::max);
    let mut check = *params;
    check.bandwidth = b_max;
    let ctx = SweepContext::new(&check, points)?;

    let res_x = params.grid.res_x;
    let res_y = params.grid.res_y;
    let mut buffers: Vec<Vec<f64>> =
        bandwidths.iter().map(|_| vec![0.0_f64; res_x * res_y]).collect();
    let tables: Vec<RowTable> = buffers.iter_mut().map(|b| RowTable::new(b, res_x)).collect();

    run_scheduler(
        res_y,
        threads,
        &|| {
            (
                EnvelopeBuffer::for_points(ctx.points.len()),
                BucketSweep::new(params.kernel, b_max, params.weight),
            )
        },
        &|(envelope, engine), j, stats| {
            let k = ctx.ks[j];
            let t0 = Instant::now();
            // the widest band bounds every smaller bandwidth's binary search
            let band_max = {
                let _s = kdv_obs::span1("band.search", "row", j as u64);
                ctx.index.band(b_max, k)
            };
            if band_max.is_empty() {
                stats.fill_nanos += t0.elapsed().as_nanos() as u64;
                stats.rows_skipped += 1;
                stats.envelope_sizes.push((j, 0));
                return;
            }
            let t1 = Instant::now();
            for (bi, &b) in bandwidths.iter().enumerate() {
                let band = ctx.index.band_in(band_max.clone(), b, k);
                if band.is_empty() {
                    continue;
                }
                let intervals = {
                    let mut s = kdv_obs::span1("envelope.fill", "row", j as u64);
                    let intervals = envelope.fill_band(&ctx.index, band, b, k);
                    s.arg("size", intervals.len() as u64);
                    intervals
                };
                engine.set_bandwidth(b);
                // SAFETY: the scheduler claims each row exactly once, and
                // each bandwidth writes to its own raster.
                let out = unsafe { tables[bi].row(j) };
                let _s = kdv_obs::span1("row.sweep", "row", j as u64);
                engine.process_row(&ctx.xs, k, intervals, out);
            }
            stats.fill_nanos += (t1 - t0).as_nanos() as u64;
            stats.sweep_nanos += t1.elapsed().as_nanos() as u64;
            stats.envelope_sizes.push((j, band_max.len()));
        },
        &|(envelope, engine)| envelope.space_bytes() + engine.space_bytes(),
    );
    drop(tables);
    Ok(buffers.into_iter().map(|v| DensityGrid::from_values(res_x, res_y, v)).collect())
}

/// Generic work-stealing index loop for embarrassingly parallel tasks that
/// are not row sweeps (e.g. temporal frames in `kdv-temporal`). Runs
/// `task(i)` for every `i in 0..count` on up to `threads` workers and
/// returns the results in index order. `threads == 0` means "auto".
pub fn for_each_index<T: Send>(
    count: usize,
    threads: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    for_each_index_with(count, threads, || (), |(), i| task(i))
}

/// [`for_each_index`] with per-worker scratch state: each worker builds one
/// `S` with `make_state` and threads it through every task it claims. This
/// is how frame loops keep buffers warm across frames without sharing them
/// between threads (e.g. one [`crate::tile::BandWorkspace`] per worker).
pub fn for_each_index_with<S, T: Send>(
    count: usize,
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if count == 0 {
        return Vec::new();
    }
    let workers = resolve_threads(threads).min(count).max(1);
    let claimer = RowClaimer::new(count, workers);
    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let claimer = &claimer;
                let task = &task;
                let make_state = &make_state;
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut local = Vec::new();
                    while let Some(range) = claimer.claim() {
                        for i in range {
                            local.push((i, task(&mut state, i)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("index worker panicked")).collect()
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for worker in collected.iter_mut() {
        for (i, value) in worker.drain(..) {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(value);
        }
    }
    slots.into_iter().map(|s| s.expect("index not produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::grid::GridSpec;
    use crate::kernel::KernelType;

    fn setup() -> (KdvParams, Vec<Point>) {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 70.0), 40, 23).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 9.0).with_weight(0.002);
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts = (0..800).map(|_| Point::new(next() * 100.0, next() * 70.0)).collect();
        (params, pts)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (params, pts) = setup();
        let seq = crate::sweep_bucket::compute(&params, &pts).unwrap();
        for threads in [2, 3, 8, 64] {
            let par = compute_parallel(&params, &pts, ParallelEngine::Bucket, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        let seq = crate::sweep_sort::compute(&params, &pts).unwrap();
        let par = compute_parallel(&params, &pts, ParallelEngine::Sort, 4).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn one_thread_falls_back() {
        let (params, pts) = setup();
        let a = compute_parallel(&params, &pts, ParallelEngine::Bucket, 1).unwrap();
        let b = crate::sweep_bucket::compute(&params, &pts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_rows() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 6, 2).unwrap();
        let params = KdvParams::new(grid, KernelType::Uniform, 3.0);
        let pts = vec![Point::new(5.0, 5.0)];
        let par = compute_parallel(&params, &pts, ParallelEngine::Bucket, 16).unwrap();
        let seq = crate::sweep_bucket::compute(&params, &pts).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn report_accounts_for_every_row() {
        let (params, pts) = setup();
        let (grid, report) =
            compute_parallel_with_report(&params, &pts, ParallelEngine::Bucket, 3).unwrap();
        assert_eq!(grid, crate::sweep_bucket::compute(&params, &pts).unwrap());
        assert_eq!(report.rows, 23);
        assert_eq!(report.rows_per_worker.iter().sum::<usize>(), 23);
        assert_eq!(report.envelope_sizes.len(), 23);
        // every row of this dense dataset has a non-empty envelope
        assert!(report.envelope_sizes.iter().all(|&s| s > 0));
        assert!(report.total_aux_bytes > 0);
        assert!(report.threads <= 3);
    }

    #[test]
    fn rao_parallel_matches_sequential_rao() {
        // tall raster: the RAO path transposes
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 70.0, 100.0), 23, 40).unwrap();
        let params = KdvParams::new(grid, KernelType::Quartic, 9.0).with_weight(0.002);
        let (_, pts) = setup();
        let seq = crate::rao::compute_bucket(&params, &pts).unwrap();
        for threads in [2, 5] {
            let par = compute_parallel_rao(&params, &pts, ParallelEngine::Bucket, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn weighted_parallel_matches_sequential() {
        let (params, pts) = setup();
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 7) as f64).collect();
        let seq = crate::weighted::compute_weighted(&params, &pts, &weights).unwrap();
        for threads in [2, 4] {
            let par = compute_weighted_parallel(&params, &pts, &weights, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        // weight validation propagates
        assert!(compute_weighted_parallel(&params, &pts, &weights[1..], 2).is_err());
    }

    #[test]
    fn multi_bandwidth_parallel_matches_sequential() {
        let (params, pts) = setup();
        let bandwidths = [3.0, 9.0, 25.0];
        let seq =
            crate::multi_bandwidth::compute_multi_bandwidth(&params, &pts, &bandwidths).unwrap();
        let par = compute_multi_bandwidth_parallel(&params, &pts, &bandwidths, 3).unwrap();
        assert_eq!(seq, par);
        assert!(compute_multi_bandwidth_parallel(&params, &pts, &[-1.0], 2).is_err());
        assert!(compute_multi_bandwidth_parallel(&params, &pts, &[], 2).unwrap().is_empty());
    }

    #[test]
    fn for_each_index_preserves_order() {
        let out = for_each_index(100, 4, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(for_each_index(0, 4, |i| i).is_empty());
    }

    #[test]
    fn for_each_index_with_reuses_worker_state() {
        // each worker counts how many tasks it ran through its own state;
        // results stay in index order and every task sees a warm state
        let out = for_each_index_with(
            50,
            3,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(out.len(), 50);
        for (slot, (i, seen)) in out.iter().enumerate() {
            assert_eq!(slot, *i);
            assert!(*seen >= 1);
        }
        // a worker that claims multiple chunks must have kept its state
        assert!(out.iter().any(|&(_, seen)| seen > 1));
    }

    #[test]
    fn zero_threads_means_auto() {
        let (params, pts) = setup();
        let auto = compute_parallel(&params, &pts, ParallelEngine::Bucket, 0).unwrap();
        let seq = crate::sweep_bucket::compute(&params, &pts).unwrap();
        assert_eq!(auto, seq);
    }
}
