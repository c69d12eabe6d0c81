//! Regression tests for the work-stealing parallel runtime: heavily
//! clustered datasets make per-row costs wildly uneven, which is exactly
//! where a static band split loses — and where dynamic scheduling must
//! still reproduce the sequential raster bit for bit.
//!
//! One test reads the span recorder, which is process-global, so every
//! test here holds [`kdv_obs::span::exclusive`]: no other test's spans
//! land in its trace.

use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::parallel::{
    compute_parallel, compute_parallel_rao, compute_weighted_parallel, default_threads,
    ParallelEngine,
};
use kdv_core::{rao, sweep_bucket, sweep_sort, KernelType};

/// A pathologically clustered dataset: 90% of the points live in a band
/// covering ~6% of the rows, so those rows carry envelope sets ~15× the
/// average — the load-imbalance worst case for static row bands.
fn clustered_points() -> Vec<Point> {
    let mut state = 0xC0FFEEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = Vec::new();
    for _ in 0..1_800 {
        // dense horizontal band at y ∈ [42, 48]
        pts.push(Point::new(next() * 100.0, 42.0 + next() * 6.0));
    }
    for _ in 0..200 {
        pts.push(Point::new(next() * 100.0, next() * 100.0));
    }
    pts
}

fn params(kernel: KernelType) -> KdvParams {
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 48, 37).unwrap();
    KdvParams::new(grid, kernel, 4.0).with_weight(5e-4)
}

fn thread_counts() -> Vec<usize> {
    vec![2, 3, 8, default_threads()]
}

#[test]
fn clustered_bucket_parallel_is_bitwise_sequential() {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    for kernel in KernelType::ALL {
        let p = params(kernel);
        let seq = sweep_bucket::compute(&p, &pts).unwrap();
        for threads in thread_counts() {
            let par = compute_parallel(&p, &pts, ParallelEngine::Bucket, threads).unwrap();
            assert_eq!(par, seq, "bucket kernel={kernel} threads={threads}");
        }
    }
}

#[test]
fn clustered_sort_parallel_is_bitwise_sequential() {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    let p = params(KernelType::Quartic);
    let seq = sweep_sort::compute(&p, &pts).unwrap();
    for threads in thread_counts() {
        let par = compute_parallel(&p, &pts, ParallelEngine::Sort, threads).unwrap();
        assert_eq!(par, seq, "sort threads={threads}");
    }
}

#[test]
fn clustered_rao_parallel_is_bitwise_sequential() {
    let _quiet = kdv_obs::span::exclusive();
    // tall raster so the RAO path actually transposes
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 17, 53).unwrap();
    let p = KdvParams::new(grid, KernelType::Epanechnikov, 4.0).with_weight(5e-4);
    let pts = clustered_points();
    let seq = rao::compute_bucket(&p, &pts).unwrap();
    for threads in thread_counts() {
        let par = compute_parallel_rao(&p, &pts, ParallelEngine::Bucket, threads).unwrap();
        assert_eq!(par, seq, "rao threads={threads}");
    }
}

#[test]
fn clustered_weighted_parallel_is_bitwise_sequential() {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    let weights: Vec<f64> = (0..pts.len()).map(|i| 0.1 + (i % 11) as f64 * 0.3).collect();
    let p = params(KernelType::Quartic);
    let seq = kdv_core::weighted::compute_weighted(&p, &pts, &weights).unwrap();
    for threads in thread_counts() {
        let par = compute_weighted_parallel(&p, &pts, &weights, threads).unwrap();
        assert_eq!(par, seq, "weighted threads={threads}");
    }
}

#[test]
fn report_reflects_the_cluster() {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    let p = params(KernelType::Epanechnikov);
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let grid = compute_parallel(&p, &pts, ParallelEngine::Bucket, 3);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    assert_eq!(grid.unwrap(), sweep_bucket::compute(&p, &pts).unwrap());
    let named = |name| trace.events.iter().filter(move |e| e.name == name);
    let size =
        |e: &kdv_obs::TraceEvent| e.args.as_slice().iter().find(|a| a.0 == "size").unwrap().1;
    assert_eq!(named("band.search").count(), 37, "one band search per row");
    // the dense band must dominate the envelope-size distribution
    let sizes: Vec<u64> = named("envelope.fill").map(size).collect();
    assert_eq!(sizes.len(), 37, "every row of this dataset has an envelope");
    let max = *sizes.iter().max().unwrap();
    let mean = sizes.iter().sum::<u64>() as f64 / 37.0;
    assert!(
        max as f64 > 3.0 * mean,
        "expected a skewed envelope distribution, max {max} mean {mean:.1}"
    );
}
