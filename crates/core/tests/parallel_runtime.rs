//! Regression tests for the work-stealing parallel runtime: heavily
//! clustered datasets make per-row costs wildly uneven, which is exactly
//! where a static band split loses — and where dynamic scheduling must
//! still reproduce the one-thread raster bit for bit.
//!
//! The bitwise tests are one table: every [`Method`] and the weighted call
//! at every entry of [`THREADS`] against the same call on one thread.
//!
//! One test reads the span recorder, which is process-global, so every
//! test here holds [`kdv_obs::span::exclusive`]: no other test's spans
//! land in its trace.

use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::{DensityGrid, GridSpec};
use kdv_core::weighted::compute_weighted;
use kdv_core::{sweep_bucket, KernelType, Method, Result};

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

/// A wide raster: every variant sweeps its rows as given.
const WIDE: (usize, usize) = (48, 37);
/// A tall raster: the RAO variants transpose it.
const TALL: (usize, usize) = (17, 53);

fn params_at((res_x, res_y): (usize, usize), kernel: KernelType) -> KdvParams {
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), res_x, res_y).unwrap();
    KdvParams::new(grid, kernel, 4.0).with_weight(5e-4)
}

fn params(kernel: KernelType) -> KdvParams {
    params_at(WIDE, kernel)
}

/// The thread counts each call is run at; `0` is "auto".
const THREADS: [usize; 5] = [2, 3, 8, 64, 0];

/// Asserts, for every kernel and both rasters, that `call` at each entry
/// of [`THREADS`] is bitwise equal to `call` on one thread.
fn assert_bitwise_for_every_thread_count(
    label: &str,
    call: impl Fn(&KdvParams, &[Point], usize) -> Result<DensityGrid>,
) {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    for res in [WIDE, TALL] {
        for kernel in KernelType::ALL {
            let p = params_at(res, kernel);
            let one = call(&p, &pts, 1).unwrap();
            for threads in THREADS {
                let got = call(&p, &pts, threads).unwrap();
                assert_eq!(got, one, "{label} {res:?} kernel={kernel} threads={threads}");
            }
        }
    }
}

#[test]
fn clustered_bucket_parallel_is_bitwise_sequential() {
    for method in [Method::SlamBucket, Method::SlamBucketRao] {
        assert_bitwise_for_every_thread_count(method.name(), |p, pts, t| method.compute(p, pts, t));
    }
}

#[test]
fn clustered_sort_parallel_is_bitwise_sequential() {
    for method in [Method::SlamSort, Method::SlamSortRao] {
        assert_bitwise_for_every_thread_count(method.name(), |p, pts, t| method.compute(p, pts, t));
    }
}

#[test]
fn clustered_rao_parallel_is_bitwise_sequential() {
    // on a tall raster a RAO variant at any thread count is the plain
    // variant's one-thread sweep of the transposed problem, transposed back
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    let transposed: Vec<Point> = pts.iter().map(Point::transposed).collect();
    let p = params_at(TALL, KernelType::Epanechnikov);
    for (rao, plain) in
        [(Method::SlamSortRao, Method::SlamSort), (Method::SlamBucketRao, Method::SlamBucket)]
    {
        let column_sweep = plain.compute(&p.transposed(), &transposed, 1).unwrap().transposed();
        for threads in THREADS {
            let got = rao.compute(&p, &pts, threads).unwrap();
            assert_eq!(got, column_sweep, "{rao} threads={threads}");
        }
    }
}

#[test]
fn clustered_weighted_parallel_is_bitwise_sequential() {
    let weights: Vec<f64> = (0..2_000).map(|i| 0.1 + (i % 11) as f64 * 0.3).collect();
    assert_bitwise_for_every_thread_count("weighted", |p, pts, t| {
        compute_weighted(p, pts, &weights, t)
    });
}

#[test]
fn report_reflects_the_cluster() {
    let _quiet = kdv_obs::span::exclusive();
    let pts = clustered_points();
    let p = params(KernelType::Epanechnikov);
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let grid = Method::SlamBucket.compute(&p, &pts, 3);
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
