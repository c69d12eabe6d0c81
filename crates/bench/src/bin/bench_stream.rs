//! Streaming ingestion benchmark: the pan trace replayed under a live
//! point feed, patch arm vs recompute arm, with the correctness
//! assertions `./ci.sh stream` relies on baked in.
//!
//! One pan sequence at the deepest zoom is replayed over `GENERATIONS`
//! delta batches against two streaming servers fed the identical
//! append schedule — one patching cached tiles with each sealed batch,
//! one with patching disabled (stale tiles recompute from the epoch
//! base). The run **aborts** unless:
//!
//! * every response checksum of the patch arm is bitwise-equal to its
//!   recompute twin (and the settled grids compare equal outright),
//! * the single-flight duplicate counter is zero in both arms,
//! * the patch arm actually patched (and the recompute arm never did),
//! * patching is at least [`MIN_SPEEDUP`]× faster over the live phase
//!   (appends and serves only; the response checksums are taken off the
//!   clock).
//!
//! Appends one dated entry per run to `BENCH_stream.json` in the output
//! directory (`--out`, default `target/bench-results/`; `--out results`
//! records the run in the committed history).

use std::time::{Duration, Instant};

use kdv_bench::HarnessConfig;
use kdv_core::digest::grid_checksum;
use kdv_core::geom::{Point, Rect};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_serve::{LiveConfig, PyramidSpec, ServeConfig, TileServer, Viewport};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;
const GENERATIONS: usize = 12;
const BATCH: usize = 8;
const MIN_SPEEDUP: f64 = 5.0;

/// The pan trace: five zoom-2 steps across the middle band rows, 128 px
/// per step (the same shape as `traces/pan.trace`).
fn pan_steps() -> Vec<Viewport> {
    (0..5)
        .map(|step| Viewport { zoom: MAX_ZOOM, px: step * 128, py: 384, width: 512, height: 512 })
        .collect()
}

struct ArmResult {
    checksums: Vec<u64>,
    live_s: f64,
    server: TileServer,
}

/// Replays the identical feed (warm at generation 0, then `batches`
/// appends each followed by the full pan) against a fresh server; only
/// the live phase after the warm-up is timed, and within it only the
/// appends and the serves: hashing each response is outside the clock.
fn run_arm(
    patching: bool,
    points: &[Point],
    extent: Rect,
    bandwidth: f64,
    batches: &[Vec<Point>],
    steps: &[Viewport],
) -> ArmResult {
    let pyramid = PyramidSpec::new(extent, TILE_SIZE, BASE_RES, BASE_RES, MAX_ZOOM)
        .expect("valid pyramid geometry");
    let config = ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / points.len().max(1) as f64,
    };
    let server = TileServer::with_live(
        pyramid,
        config,
        LiveConfig { patching, compact_every: None },
        points.to_vec(),
        512 << 20,
        16,
    );
    for vp in steps {
        server.serve_viewport(vp, 4).expect("warm serve");
    }
    let mut checksums = Vec::with_capacity(batches.len() * steps.len());
    let mut live = Duration::ZERO;
    for batch in batches {
        let t = Instant::now();
        server.append(batch);
        live += t.elapsed();
        for vp in steps {
            let t = Instant::now();
            let (grid, _) = server.serve_viewport(vp, 4).expect("live serve");
            live += t.elapsed();
            checksums.push(grid_checksum(&grid));
        }
    }
    ArmResult { checksums, live_s: live.as_secs_f64(), server }
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (2_000_000.0 * cfg.scale).round().max(10_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 23).into_iter().map(|r| r.point).collect();
    let bandwidth = 400.0;
    let steps = pan_steps();
    let batches: Vec<Vec<Point>> = (0..GENERATIONS)
        .map(|g| {
            generate(&SynthConfig::simple(extent), BATCH, 1_000 + g as u64)
                .into_iter()
                .map(|r| r.point)
                .collect()
        })
        .collect();
    let requests = GENERATIONS * steps.len();
    println!(
        "stream bench: n={} generations={GENERATIONS} batch={BATCH} requests={requests} \
         tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} max_zoom={MAX_ZOOM}",
        points.len()
    );

    let patch = run_arm(true, &points, extent, bandwidth, &batches, &steps);
    let recompute = run_arm(false, &points, extent, bandwidth, &batches, &steps);

    // correctness gate 1: bitwise equality, request by request
    assert_eq!(patch.checksums.len(), recompute.checksums.len());
    for (i, (p, r)) in patch.checksums.iter().zip(&recompute.checksums).enumerate() {
        assert_eq!(p, r, "request {i}: patched response bits diverge from the cold recompute arm");
    }
    // and the settled grids compare equal outright, not just by digest
    let vp = steps[0];
    let (settled_patch, _) = patch.server.serve_viewport(&vp, 4).expect("settled serve");
    let (settled_cold, _) = recompute.server.serve_viewport(&vp, 4).expect("settled serve");
    assert_eq!(settled_patch, settled_cold, "settled grids diverge between arms");

    // correctness gate 2: single-flight discipline held in both arms
    assert_eq!(
        patch.server.flight_stats().duplicate_computes(),
        0,
        "duplicate tile computes in the patch arm"
    );
    assert_eq!(
        recompute.server.flight_stats().duplicate_computes(),
        0,
        "duplicate tile computes in the recompute arm"
    );

    // correctness gate 3: the arms exercised the paths they claim to
    let patched_bands = patch.server.live_stats().patched_bands();
    let folded = patch.server.live_stats().folded_batches();
    assert!(patched_bands > 0, "patch arm never patched a band");
    assert_eq!(recompute.server.live_stats().patched_bands(), 0, "recompute arm must not patch");

    // the headline: patching beats rebuild-from-scratch by >= MIN_SPEEDUP
    let speedup = recompute.live_s / patch.live_s.max(1e-9);
    println!(
        "live phase: patch {:.3}s  recompute {:.3}s  speedup {speedup:.1}x  \
         ({patched_bands} bands patched, {folded} batches folded)",
        patch.live_s, recompute.live_s
    );
    assert!(speedup >= MIN_SPEEDUP, "patch speedup {speedup:.2}x below the {MIN_SPEEDUP:.0}x gate");

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {},\n      \"generations\": {GENERATIONS},\n      \"batch\": {BATCH},\n      \"requests\": {requests},\n      \"patch_s\": {:.6},\n      \"recompute_s\": {:.6},\n      \"speedup\": {speedup:.2},\n      \"patched_bands\": {patched_bands},\n      \"folded_batches\": {folded},\n      \"duplicate_computes\": 0\n    }}",
        kdv_bench::utc_date(now),
        points.len(),
        patch.live_s,
        recompute.live_s,
    );
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_stream.json");
    kdv_bench::append_run(&path, &entry);
    println!("appended run to {}", path.display());
}
