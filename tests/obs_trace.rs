//! Golden-schema test: an instrumented parallel sweep must emit a Chrome
//! trace-event JSON file that Perfetto / `chrome://tracing` can load —
//! well-formed JSON with `ph`/`ts`/`dur`/`tid` fields, thread-name
//! metadata, and per-worker tracks for the envelope-fill and row-sweep
//! phases.
//!
//! The span recorder is process-global, so the whole test runs under
//! [`kdv_obs::span::exclusive`] and this file stays a dedicated
//! integration-test binary (one process, no sibling tests racing the
//! span logs).

use std::collections::BTreeSet;

use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::parallel::{compute_parallel, ParallelEngine};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_obs::{chrome_trace_json, validate_json};

#[test]
fn instrumented_sweep_emits_loadable_chrome_trace() {
    let _guard = kdv_obs::span::exclusive();
    let extent = Rect::new(0.0, 0.0, 4_000.0, 4_000.0);
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), 4_000, 7).into_iter().map(|r| r.point).collect();
    let grid = GridSpec::new(extent, 64, 512).expect("valid grid");
    let params = KdvParams::new(grid, KernelType::Epanechnikov, 300.0).with_weight(1.0 / 4_000.0);

    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let result = compute_parallel(&params, &points, ParallelEngine::Bucket, 4);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    result.expect("instrumented sweep must succeed");

    let crossing = trace.partial_overlap();
    assert!(crossing.is_none(), "spans of one thread must nest: {crossing:?}");
    assert!(!trace.events.is_empty());

    // 512 rows over 4 workers: fill and sweep phases must appear on at
    // least two distinct thread tracks (work stealing may idle a worker,
    // but never 3 of 4 on a 512-row raster).
    let tids_of = |name: &str| -> BTreeSet<u64> {
        trace.events.iter().filter(|e| e.name == name).map(|e| e.tid).collect()
    };
    assert!(tids_of("envelope.fill").len() >= 2, "envelope.fill on one track only");
    assert!(tids_of("row.sweep").len() >= 2, "row.sweep on one track only");
    assert_eq!(tids_of("sweep.parallel").len(), 1, "one parent span on the calling thread");

    let json = chrome_trace_json(&trace);
    validate_json(&json).unwrap_or_else(|off| {
        panic!(
            "chrome trace is not valid JSON near byte {off}: ...{:?}",
            &json[off.saturating_sub(40)..(off + 40).min(json.len())]
        )
    });

    // The trace-event fields Perfetto keys on.
    for needle in
        ["\"traceEvents\"", "\"ph\":\"X\"", "\"ph\":\"M\"", "\"ts\":", "\"dur\":", "\"tid\":"]
    {
        assert!(json.contains(needle), "trace JSON missing {needle}");
    }
    // Thread-name metadata and the span names the registry promises.
    for needle in ["thread_name", "envelope.fill", "row.sweep", "band.search", "sweep.parallel"] {
        assert!(json.contains(needle), "trace JSON missing {needle}");
    }
}
