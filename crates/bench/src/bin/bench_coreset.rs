//! Approximate-overview-tier benchmark: cold overview latency of a
//! coreset-backed tile server vs the exact server on the same pyramid,
//! with the correctness assertions `./ci.sh coreset` relies on baked in.
//!
//! The same overview workload (the full zoom-0 raster plus all four
//! zoom-1 quadrants) is served cold from two fresh servers — one exact,
//! one with the coreset tier enabled below zoom 2 — and the run
//! **aborts** unless:
//!
//! * every overview pixel of the coreset server is within the advertised
//!   ε of the exact server's raster (the certificate holds end to end
//!   through tiling and caching),
//! * the deep-zoom raster (zoom 2, exact tier on both servers) is
//!   bitwise-identical between the two — the approximation never bleeds
//!   across the tier boundary, and
//! * at `n ≥ 10⁶` the coreset server answers the cold overview at least
//!   5× faster than the exact server (below that, the sweep's `O(Y·X)`
//!   pixel term dominates `O(Y·n)` and the speedup is reported but not
//!   gated).
//!
//! Appends one dated entry per run to `BENCH_coreset.json` in the
//! output directory (`--out`, default `target/bench-results/`; `--out
//! results` records the run in the committed history).

use std::time::Instant;

use kdv_bench::HarnessConfig;
use kdv_core::geom::{Point, Rect};
use kdv_core::{DensityGrid, KernelType};
use kdv_coreset::CoresetMethod;
use kdv_data::synth::{generate, SynthConfig};
use kdv_serve::{
    LiveConfig, OverviewConfig, PyramidSpec, ServeConfig, TileServer, TileTier, Viewport,
};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;
/// Zoom levels at or below this are coreset-served.
const OVERVIEW_ZOOM: u8 = 1;
const TARGET_REL: f64 = 0.01;
const MIN_SPEEDUP: f64 = 5.0;
/// The speedup gate only applies at paper-relevant dataset sizes; the
/// sup-error and bitwise gates apply at every size.
const SPEEDUP_FLOOR_N: usize = 1_000_000;

fn pyramid(extent: Rect) -> PyramidSpec {
    PyramidSpec::new(extent, TILE_SIZE, BASE_RES, BASE_RES, MAX_ZOOM)
        .expect("valid pyramid geometry")
}

fn serve_config(n: usize, bandwidth: f64) -> ServeConfig {
    ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / n.max(1) as f64,
    }
}

/// The cold overview workload: the whole of every coreset-served level.
fn overview_viewports() -> Vec<Viewport> {
    let mut vps = vec![Viewport { zoom: 0, px: 0, py: 0, width: BASE_RES, height: BASE_RES }];
    for (qx, qy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        vps.push(Viewport {
            zoom: 1,
            px: qx * BASE_RES,
            py: qy * BASE_RES,
            width: BASE_RES,
            height: BASE_RES,
        });
    }
    vps
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (2_000_000.0 * cfg.scale).round().max(1_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 23).into_iter().map(|r| r.point).collect();
    let bandwidth = 400.0;
    let n = points.len();

    println!(
        "coreset bench: n={n} tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} \
         max_zoom={MAX_ZOOM} overview_zoom<={OVERVIEW_ZOOM} target_rel={TARGET_REL}"
    );

    // --- the two servers -------------------------------------------------
    let exact_server =
        TileServer::new(pyramid(extent), serve_config(n, bandwidth), points.clone(), 512 << 20, 16);
    let t0 = Instant::now();
    let coreset_server = TileServer::with_overview_coreset(
        pyramid(extent),
        serve_config(n, bandwidth),
        LiveConfig::default(),
        points.clone(),
        512 << 20,
        16,
        OverviewConfig {
            max_zoom: OVERVIEW_ZOOM,
            method: CoresetMethod::Grid,
            target_rel_epsilon: TARGET_REL,
            seed: 7,
        },
    )
    .expect("coreset tier construction");
    let build_s = t0.elapsed().as_secs_f64();

    let info = coreset_server.tier_info(0);
    assert_eq!(info.tier, TileTier::Coreset, "zoom 0 must be coreset-served");
    let epsilon = info.epsilon.expect("coreset tier advertises epsilon");
    let coreset_size = info.coreset_size.expect("coreset tier advertises size");
    println!(
        "coreset: {coreset_size} of {n} points ({:.2}%), advertised eps {epsilon:.3e}, \
         built in {build_s:.3}s",
        100.0 * coreset_size as f64 / n.max(1) as f64
    );

    // --- cold overview: exact vs coreset ---------------------------------
    let vps = overview_viewports();
    let t0 = Instant::now();
    let exact_grids: Vec<DensityGrid> =
        vps.iter().map(|vp| exact_server.serve_viewport(vp, 4).expect("exact serve").0).collect();
    let exact_overview_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let coreset_grids: Vec<DensityGrid> = vps
        .iter()
        .map(|vp| {
            let (grid, _, info) = coreset_server.serve_viewport_tiered(vp, 4).expect("tier serve");
            assert_eq!(info.tier, TileTier::Coreset, "zoom {} must be coreset-served", vp.zoom);
            grid
        })
        .collect();
    let coreset_overview_s = t0.elapsed().as_secs_f64();

    // correctness gate 1: the advertised ε bounds every overview pixel
    let mut sup_error = 0.0_f64;
    for (e, c) in exact_grids.iter().zip(&coreset_grids) {
        for (a, r) in c.values().iter().zip(e.values()) {
            sup_error = sup_error.max((a - r).abs());
        }
    }
    assert!(
        sup_error <= epsilon,
        "overview sup-error {sup_error:.3e} exceeds the advertised eps {epsilon:.3e}"
    );

    // correctness gate 2: the exact tier is untouched by the coreset
    let deep = Viewport { zoom: 2, px: 768, py: 768, width: BASE_RES, height: BASE_RES };
    let (deep_exact, _) = exact_server.serve_viewport(&deep, 4).expect("deep exact serve");
    let (deep_coreset, _, deep_info) =
        coreset_server.serve_viewport_tiered(&deep, 4).expect("deep tier serve");
    assert_eq!(deep_info.tier, TileTier::Exact, "zoom 2 must be exact");
    assert_eq!(deep_exact, deep_coreset, "deep zoom must stay bitwise-identical");

    // correctness gate 3: the overview pays off at paper-relevant sizes
    let speedup = exact_overview_s / coreset_overview_s.max(1e-12);
    println!(
        "cold overview ({} viewports): exact {exact_overview_s:.3}s  coreset \
         {coreset_overview_s:.3}s  speedup {speedup:.1}x  sup-error {sup_error:.3e} (<= eps)",
        vps.len()
    );
    if n >= SPEEDUP_FLOOR_N {
        assert!(
            speedup >= MIN_SPEEDUP,
            "overview speedup {speedup:.2}x below the {MIN_SPEEDUP:.0}x gate at n={n}"
        );
    } else {
        println!("(speedup gate skipped: n={n} < {SPEEDUP_FLOOR_N})");
    }

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {n},\n      \"method\": \"{}\",\n      \
         \"target_rel\": {TARGET_REL},\n      \"epsilon\": {epsilon:e},\n      \
         \"coreset_size\": {coreset_size},\n      \"sup_error\": {sup_error:e},\n      \
         \"build_s\": {build_s:.6},\n      \"exact_overview_s\": {exact_overview_s:.6},\n      \
         \"coreset_overview_s\": {coreset_overview_s:.6},\n      \"speedup\": {speedup:.3},\n      \
         \"deep_bitwise\": true\n    }}",
        kdv_bench::utc_date(now),
        CoresetMethod::Grid.name(),
    );

    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_coreset.json");
    kdv_bench::append_run(&path, &entry);
    println!("appended run to {}", path.display());
}
