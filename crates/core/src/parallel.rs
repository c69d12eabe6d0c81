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
//! This module therefore schedules work dynamically: workers claim small
//! chunks of rows (or of any indexed tasks) from one shared queue until it
//! runs dry. The raster driver ([`crate::driver::sweep_grid`]) hands each
//! claimed chunk's output rows out as a disjoint `&mut` slice and sweeps
//! them with the one band loop, [`crate::tile::sweep_rows`]. Each row is
//! still swept start-to-finish by exactly one engine, so no floating-point
//! reassociation crosses a row boundary and the output is **bitwise
//! identical** for every thread count. One lock per chunk keeps contention
//! negligible next to an `O(X + n)` row. The calling thread is always one
//! of the workers, so a one-thread run spawns nothing.
//!
//! The same scheduler drives every compute call in the workspace:
//! [`crate::Method::compute`] (plain and RAO sweeps),
//! [`crate::weighted::compute_weighted`] and — via [`for_each_index_with`]
//! — tile bands, serving requests and the temporal frame driver in
//! `kdv-temporal`. What the workers did is recorded as `kdv-obs` spans
//! (`sweep.parallel` around the raster, `band.search` / `envelope.fill` /
//! `row.sweep` per row, on each worker's own thread track).
//!
//! [`compute_parallel_rao`], [`ParallelEngine`] and [`default_threads`]
//! stay public because the repository benchmark (`perfbench`) calls them
//! directly; the workspace's own rasters go through the compute calls
//! above.

use std::sync::{Mutex, PoisonError};

use crate::driver::{sweep_grid, KdvParams};
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::sweep_bucket::BucketSweep;
use crate::sweep_sort::SortSweep;

/// Which row engine each worker thread instantiates. Public for
/// `perfbench`, which names it in its [`compute_parallel_rao`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelEngine {
    /// SLAM_SORT per row.
    Sort,
    /// SLAM_BUCKET per row.
    Bucket,
}

/// Default worker count: the machine's available parallelism (1 if it
/// cannot be determined). What a thread request of `0` resolves to;
/// `perfbench` reads it too.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Workers for `items` work items under a user-facing thread request
/// (`0` means "auto"): never more workers than items, never fewer than one.
pub(crate) fn workers_for(threads: usize, items: usize) -> usize {
    let threads = if threads == 0 { default_threads() } else { threads };
    threads.min(items).max(1)
}

/// Items per claim: small enough that a clustered hotspot cannot pin a
/// worker for long, large enough that the queue traffic stays negligible.
pub(crate) fn chunk_len(items: usize, workers: usize) -> usize {
    (items / (workers * 8)).clamp(1, 64)
}

/// The shared work queue of [`run_workers`]: each worker iterates it, and
/// every item goes to exactly one worker.
pub(crate) struct Claims<I>(Mutex<I>);

impl<I: Iterator> Iterator for &Claims<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        // Workers never panic while holding the lock, so a poisoned
        // queue is still consistent.
        self.0.lock().unwrap_or_else(PoisonError::into_inner).next()
    }
}

/// Runs `worker` on `workers` workers sharing the queue `items`: the
/// calling thread plus `workers - 1` scoped threads. Returns the workers'
/// results, the spawned ones first.
pub(crate) fn run_workers<I, R>(
    workers: usize,
    items: I,
    worker: impl Fn(&Claims<I>) -> R + Sync,
) -> Vec<R>
where
    I: Iterator + Send,
    R: Send,
{
    let claims = Claims(Mutex::new(items));
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(|| worker(&claims))).collect();
        let own = worker(&claims);
        // Explicit joins: a joined thread has also drained its span log.
        let mut results: Vec<R> =
            spawned.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect();
        results.push(own);
        results
    })
}

/// Computes the raster with `threads` workers claiming rows dynamically
/// (`threads == 0` uses [`default_threads`]). Output is bitwise identical
/// for every thread count. [`crate::Method::compute`] runs it for the two
/// non-RAO variants.
pub(crate) fn compute_parallel(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<DensityGrid> {
    let (kernel, b, w) = (params.kernel, params.bandwidth, params.weight);
    match engine {
        ParallelEngine::Sort => {
            sweep_grid(params, points, threads, || SortSweep::new(kernel, b, w))
        }
        ParallelEngine::Bucket => {
            sweep_grid(params, points, threads, || BucketSweep::new(kernel, b, w))
        }
    }
}

/// Parallel sweep with the resolution-aware optimization: transposes when
/// the raster is taller than wide (Theorem 3), then runs the work-stealing
/// sweep over the (fewer, longer) rows. [`crate::Method::compute`] runs it
/// for the two RAO variants; it stays public, with this signature, because
/// `perfbench` calls it directly.
pub fn compute_parallel_rao(
    params: &KdvParams,
    points: &[Point],
    engine: ParallelEngine,
    threads: usize,
) -> Result<DensityGrid> {
    crate::rao::with_rao(params, points, |params, points| {
        compute_parallel(params, points, engine, threads)
    })
}

/// Generic work-stealing index loop for embarrassingly parallel tasks that
/// are not row sweeps (e.g. temporal frames in `kdv-temporal`). Runs
/// `task(state, i)` for every `i in 0..count` on up to `threads` workers
/// and returns the results in index order. `threads == 0` means "auto".
///
/// Each worker builds one `S` with `make_state` and threads it through
/// every task it claims. This is how frame loops keep buffers warm across
/// frames without sharing them between threads (e.g. one
/// [`crate::tile::BandWorkspace`] per worker). Each worker writes its
/// results straight into their slots.
pub fn for_each_index_with<S, T: Send>(
    count: usize,
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers_for(threads, count);
    let chunk = chunk_len(count, workers);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    run_workers(workers, slots.chunks_mut(chunk).enumerate(), |claims| {
        let mut state = make_state();
        for (c, out) in claims {
            for (slot, i) in out.iter_mut().zip(c * chunk..) {
                *slot = Some(task(&mut state, i));
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every index is claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RowEngine, SweepContext};
    use crate::envelope::SweepInterval;
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
        let seq = compute_parallel(&params, &pts, ParallelEngine::Sort, 1).unwrap();
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
    fn workers_sweep_every_row_once() {
        // each worker's engine notes the rows it sweeps: together they
        // sweep every row of this dense raster exactly once
        struct Noting<'a>(&'a Mutex<Vec<u64>>);
        impl RowEngine for Noting<'_> {
            fn process_row(&mut self, _: &[f64], k: f64, _: &[SweepInterval], out: &mut [f64]) {
                self.0.lock().unwrap().push(k.to_bits());
                out.fill(1.0);
            }
        }
        let (params, pts) = setup();
        let ctx = SweepContext::new(&params, &pts).unwrap();
        let mut rows: Vec<u64> = ctx.ks.iter().map(|k| k.to_bits()).collect();
        rows.sort_unstable();
        for threads in [1, 3, 8, 64] {
            let seen = Mutex::new(Vec::new());
            let grid = sweep_grid(&params, &pts, threads, || Noting(&seen)).unwrap();
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, rows, "threads={threads}");
            assert!(grid.values().iter().all(|&v| v == 1.0), "threads={threads}");
        }
    }

    #[test]
    fn rao_parallel_matches_sequential_rao() {
        // tall raster: the RAO path transposes
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 70.0, 100.0), 23, 40).unwrap();
        let params = KdvParams::new(grid, KernelType::Quartic, 9.0).with_weight(0.002);
        let (_, pts) = setup();
        let seq = compute_parallel_rao(&params, &pts, ParallelEngine::Bucket, 1).unwrap();
        for threads in [2, 5] {
            let par = compute_parallel_rao(&params, &pts, ParallelEngine::Bucket, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn weighted_parallel_matches_sequential() {
        use crate::weighted::compute_weighted;
        let (params, pts) = setup();
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 7) as f64).collect();
        let seq = compute_weighted(&params, &pts, &weights, 1).unwrap();
        for threads in [2, 4] {
            let par = compute_weighted(&params, &pts, &weights, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        // weight validation propagates
        assert!(compute_weighted(&params, &pts, &weights[1..], 2).is_err());
    }

    #[test]
    fn for_each_index_preserves_order() {
        let out = for_each_index_with(100, 4, || (), |(), i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(for_each_index_with(0, 4, || (), |(), i| i).is_empty());
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
