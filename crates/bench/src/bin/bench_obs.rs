//! Observability overhead benchmark: instrumented vs disabled replay.
//!
//! Replays the canonical pan trace (the same shape `bench_tiles` uses)
//! against a fresh [`TileServer`] twice — once with the span recorder
//! disabled (the shipping default: one relaxed atomic load per span
//! site) and once with it enabled and draining a full Chrome trace —
//! and reports the wall-clock ratio. Also proves the recorder is
//! observation-only: a parallel sweep with spans enabled must be
//! bitwise identical to the same sweep with them disabled.
//!
//! Appends a dated entry to `BENCH_obs.json` in the output directory
//! (`--out`, default `results/`). `./ci.sh obs` runs this and asserts
//! the ratio bound; `tests/bench_results.rs` guards the committed
//! ratio trajectory across entries.

use std::time::Instant;

use kdv_bench::HarnessConfig;
use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::parallel::{compute_parallel, ParallelEngine};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_serve::{PyramidSpec, ServeConfig, TileServer, Viewport};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;

/// Generous bound on instrumented/disabled wall ratio. Span recording is
/// a `try_lock` and a push per completed span; even fully traced the
/// replay should stay well under this. Kept lenient so CI boxes under
/// load don't flake.
const MAX_RATIO: f64 = 3.0;

fn make_server(points: &[Point], extent: Rect, bandwidth: f64) -> TileServer {
    let pyramid = PyramidSpec::new(extent, TILE_SIZE, BASE_RES, BASE_RES, MAX_ZOOM)
        .expect("valid pyramid geometry");
    let config = ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / points.len().max(1) as f64,
    };
    TileServer::new(pyramid, config, points.to_vec(), 512 << 20, 16)
}

/// The pan trace from `bench_tiles`: 512×512 window stepping 128 px
/// right across the deepest level.
fn pan_trace() -> Vec<Viewport> {
    (0..12)
        .map(|i| Viewport { zoom: MAX_ZOOM, px: i * 128, py: 640, width: 512, height: 512 })
        .collect()
}

/// Cold replay against a fresh server, returning wall seconds.
fn replay_cold(points: &[Point], extent: Rect, bandwidth: f64, trace: &[Viewport]) -> f64 {
    let server = make_server(points, extent, bandwidth);
    let t0 = Instant::now();
    for vp in trace {
        server.serve_viewport(vp, 0).expect("trace viewport must be servable");
    }
    t0.elapsed().as_secs_f64()
}

fn median3(mut run: impl FnMut() -> f64) -> f64 {
    let samples = [run(), run(), run()];
    kdv_obs::stats::median_f64(&samples).expect("three samples")
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (1_000_000.0 * cfg.scale).round().max(1_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 11).into_iter().map(|r| r.point).collect();
    let bandwidth = 400.0;
    let trace = pan_trace();

    println!(
        "observability overhead bench: n={} tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} \
         max_zoom={MAX_ZOOM} bandwidth={bandwidth} requests={}",
        points.len(),
        trace.len()
    );

    // 1. Observation-only check: spans on vs off must not change densities.
    let grid = GridSpec::new(extent, 256, 256).expect("valid grid");
    let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth)
        .with_weight(1.0 / points.len() as f64);
    let plain = compute_parallel(&params, &points, ParallelEngine::Bucket, 4)
        .expect("plain sweep must succeed");
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let traced = compute_parallel(&params, &points, ParallelEngine::Bucket, 4)
        .expect("traced sweep must succeed");
    kdv_obs::set_enabled(false);
    let recorded = kdv_obs::span::take_trace();
    assert_eq!(plain, traced, "enabling the recorder must not change densities");
    assert!(recorded.partial_overlap().is_none(), "spans of one thread must nest");
    assert!(!recorded.events.is_empty(), "instrumented sweep must record spans");
    println!(
        "bitwise check: instrumented sweep identical over {} cells, {} span(s) recorded",
        256 * 256,
        recorded.events.len()
    );

    // 2. Overhead: cold pan replay, recorder off vs on.
    let disabled_s = median3(|| replay_cold(&points, extent, bandwidth, &trace));
    let instrumented_s = median3(|| {
        kdv_obs::span::clear();
        kdv_obs::set_enabled(true);
        let s = replay_cold(&points, extent, bandwidth, &trace);
        kdv_obs::set_enabled(false);
        kdv_obs::span::clear();
        s
    });
    let ratio = if disabled_s > 0.0 { instrumented_s / disabled_s } else { 1.0 };
    println!(
        "pan replay: disabled {:.2}ms, instrumented {:.2}ms, ratio {:.3}x (bound {MAX_RATIO}x)",
        disabled_s * 1e3,
        instrumented_s * 1e3,
        ratio
    );
    assert!(
        ratio <= MAX_RATIO,
        "instrumented replay {ratio:.3}x slower than disabled (bound {MAX_RATIO}x)"
    );

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {},\n      \"requests\": {},\n      \
         \"spans\": {},\n      \"disabled_s\": {:.6},\n      \"instrumented_s\": {:.6},\n      \
         \"ratio\": {:.4},\n      \"max_ratio\": {MAX_RATIO}\n    }}",
        kdv_bench::utc_date(now),
        points.len(),
        trace.len(),
        recorded.events.len(),
        disabled_s,
        instrumented_s,
        ratio
    );
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_obs.json");
    kdv_bench::append_run(&path, &entry);
    println!("wrote {}", path.display());
}
