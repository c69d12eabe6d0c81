//! Property tests of the span recorder under the work-stealing parallel
//! scheduler: whatever the raster shape, thread count, or engine, the
//! spans each thread recorded must nest (no two partly overlap), and the
//! [`SweepReport`] derived from the span stream must agree structurally
//! with the report the workers assembled directly.
//!
//! The recorder is process-global, so every case runs under
//! [`kdv_obs::span::exclusive`] and this file is its own integration-test
//! binary (proptest drives cases sequentially; no sibling test races the
//! span logs).

use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::parallel::{compute_parallel_with_report, ParallelEngine};
use kdv_core::telemetry::SweepReport;
use kdv_core::KernelType;
use proptest::prelude::*;

/// Runs one instrumented parallel sweep and returns the worker-assembled
/// report plus the recorded trace.
fn run_instrumented(
    points: &[Point],
    res: (usize, usize),
    bandwidth: f64,
    threads: usize,
    engine: ParallelEngine,
) -> (SweepReport, kdv_obs::Trace) {
    let _guard = kdv_obs::span::exclusive();
    let extent = Rect::new(0.0, 0.0, 1_000.0, 1_000.0);
    let grid = GridSpec::new(extent, res.0, res.1).expect("valid grid");
    let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth).with_weight(1.0);
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let out = compute_parallel_with_report(&params, points, engine, threads);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    let (_, report) = out.expect("sweep must succeed");
    (report, trace)
}

fn problem() -> impl Strategy<Value = (Vec<Point>, (usize, usize), f64, usize, ParallelEngine)> {
    (
        prop::collection::vec((0.0f64..1_000.0, 0.0f64..1_000.0), 0..60),
        (1usize..24, 1usize..24),
        10.0f64..600.0,
        1usize..5,
        0u8..2,
    )
        .prop_map(|(raw, res, b, threads, sort)| {
            let pts = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let engine = if sort == 1 { ParallelEngine::Sort } else { ParallelEngine::Bucket };
            (pts, res, b, threads, engine)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_threads_spans_nest((points, res, bandwidth, threads, engine) in problem()) {
        let (_, trace) = run_instrumented(&points, res, bandwidth, threads, engine);
        let crossing = trace.partial_overlap();
        prop_assert!(crossing.is_none(), "spans of one thread partly overlap: {:?}", crossing);
        prop_assert!(!trace.events.is_empty(), "instrumented sweep recorded nothing");
    }

    #[test]
    fn from_trace_matches_the_report_structurally(
        (points, res, bandwidth, threads, engine) in problem()
    ) {
        let (report, trace) = run_instrumented(&points, res, bandwidth, threads, engine);
        let derived = SweepReport::from_trace(&trace, res.1);
        prop_assert_eq!(derived.rows, report.rows);
        prop_assert_eq!(derived.rows_skipped, report.rows_skipped);
        prop_assert_eq!(&derived.envelope_sizes, &report.envelope_sizes);
        // every claimed row shows up on some derived worker track
        let derived_claimed: usize = derived.rows_per_worker.iter().sum();
        let report_claimed: usize = report.rows_per_worker.iter().sum();
        prop_assert_eq!(derived_claimed, report_claimed);
        // the trace can only show threads the scheduler actually spawned
        // (idle workers record no spans and so no derived track)
        prop_assert!(derived.threads <= report.threads);
    }
}
