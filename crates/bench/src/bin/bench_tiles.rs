//! Viewport-trace replay benchmark for the tile-pyramid serving layer.
//!
//! Replays three synthetic exploration traces — a horizontal pan, a zoom
//! ladder and a revisit loop — against a fresh [`TileServer`] (cold: every
//! tile computed) and again against the now-warm cache (warm: assembly
//! from cached tiles only). The warm/cold ratio is the amortisation the
//! serving layer exists for.
//!
//! Appends one dated entry per run to `BENCH_tiles.json` in the output
//! directory (`--out`, default `results/`), so successive runs accumulate
//! a history (`./ci.sh bench` drives this).

use std::time::Instant;

use kdv_bench::HarnessConfig;
use kdv_core::geom::{Point, Rect};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_serve::{PyramidSpec, ServeConfig, TileServer, Viewport};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;

fn make_server(points: &[Point], extent: Rect, bandwidth: f64, cache_bytes: usize) -> TileServer {
    let pyramid = PyramidSpec::new(extent, TILE_SIZE, BASE_RES, BASE_RES, MAX_ZOOM)
        .expect("valid pyramid geometry");
    let config = ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / points.len().max(1) as f64,
    };
    TileServer::new(pyramid, config, points.to_vec(), cache_bytes, 16)
}

/// A horizontal pan across the deepest level: 512×512 window stepping
/// 128 px right — the canonical interactive-exploration access pattern.
fn pan_trace() -> Vec<Viewport> {
    (0..12)
        .map(|i| Viewport { zoom: MAX_ZOOM, px: i * 128, py: 640, width: 512, height: 512 })
        .collect()
}

/// A zoom ladder: the same world quadrant at every level, twice over.
fn zoom_trace() -> Vec<Viewport> {
    let mut out = Vec::new();
    for _ in 0..2 {
        for zoom in 0..=MAX_ZOOM {
            let res = BASE_RES << zoom;
            out.push(Viewport {
                zoom,
                px: res / 4,
                py: res / 4,
                width: (res / 2).min(512),
                height: (res / 2).min(512),
            });
        }
    }
    out
}

/// A revisit loop: six mid-level viewports cycled three times.
fn revisit_trace() -> Vec<Viewport> {
    let spots = [(0, 0), (256, 128), (512, 256), (128, 512), (384, 384), (0, 256)]
        .map(|(px, py)| Viewport { zoom: 1, px, py, width: 384, height: 384 });
    (0..3).flat_map(|_| spots).collect()
}

/// Replays `trace` once, returning wall seconds.
fn replay(server: &TileServer, trace: &[Viewport]) -> f64 {
    let t0 = Instant::now();
    for vp in trace {
        server.serve_viewport(vp, 0).expect("trace viewport must be servable");
    }
    t0.elapsed().as_secs_f64()
}

struct Row {
    trace: &'static str,
    requests: usize,
    cold_s: f64,
    warm_s: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.warm_s > 0.0 {
            self.cold_s / self.warm_s
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (5_000_000.0 * cfg.scale).round().max(1_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 11).into_iter().map(|r| r.point).collect();
    let bandwidth = 400.0;

    println!(
        "tile serving bench: n={} tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} max_zoom={MAX_ZOOM} bandwidth={bandwidth}",
        points.len()
    );
    println!(
        "{:>10} {:>9} {:>12} {:>12} {:>9} {:>7} {:>7} {:>10}",
        "trace", "requests", "cold", "warm", "speedup", "hits", "misses", "evictions"
    );

    let traces: [(&'static str, Vec<Viewport>); 3] =
        [("pan", pan_trace()), ("zoom", zoom_trace()), ("revisit", revisit_trace())];
    let mut rows = Vec::new();
    for (name, trace) in &traces {
        let server = make_server(&points, extent, bandwidth, 512 << 20);
        let cold_s = replay(&server, trace);
        // warm: median of 3 replays over the now-populated cache
        let warm = [replay(&server, trace), replay(&server, trace), replay(&server, trace)];
        let warm_s = kdv_obs::stats::median_f64(&warm).expect("three samples");
        let stats = server.cache_stats();
        let row = Row {
            trace: name,
            requests: trace.len(),
            cold_s,
            warm_s,
            hits: stats.hits(),
            misses: stats.misses(),
            evictions: stats.evictions(),
        };
        println!(
            "{:>10} {:>9} {:>10.2}ms {:>10.2}ms {:>8.1}x {:>7} {:>7} {:>10}",
            row.trace,
            row.requests,
            row.cold_s * 1e3,
            row.warm_s * 1e3,
            row.speedup(),
            row.hits,
            row.misses,
            row.evictions
        );
        rows.push(row);
    }

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {},\n      \"tile_size\": {TILE_SIZE},\n      \"base_res\": {BASE_RES},\n      \"max_zoom\": {MAX_ZOOM},\n      \"bandwidth\": {bandwidth},\n      \"configs\": [\n",
        kdv_bench::utc_date(now),
        points.len()
    );
    for (i, r) in rows.iter().enumerate() {
        entry.push_str(&format!(
            "        {{\"trace\": \"{}\", \"requests\": {}, \"cold_s\": {:.6}, \"warm_s\": {:.6}, \"speedup\": {:.2}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}}{}\n",
            r.trace,
            r.requests,
            r.cold_s,
            r.warm_s,
            r.speedup(),
            r.hits,
            r.misses,
            r.evictions,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    entry.push_str("      ]\n    }");

    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_tiles.json");
    kdv_bench::append_run(&path, &entry);
    println!("appended run to {}", path.display());

    let pan = &rows[0];
    if pan.speedup() < 5.0 {
        eprintln!(
            "warning: pan warm/cold speedup {:.1}x below the 5x expectation — cache ineffective?",
            pan.speedup()
        );
    }
}
