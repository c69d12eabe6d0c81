//! Flight-recorder benchmark: ring overhead, trigger injection, and
//! Prometheus export agreement.
//!
//! Three gates, mirroring the observability acceptance criteria:
//!
//! 1. **Overhead** — replays the canonical pan trace against a fresh
//!    [`TileServer`] in [`PAIRS`] back-to-back off/on pairs. The median
//!    per-pair on/off ratio must stay within [`MAX_RATIO`] and every
//!    replay's responses must be bitwise identical (checksummed per
//!    request) — the flight recorder is observation-only.
//! 2. **Trigger injection** — a zero deadline forces a shed and a 1 ns
//!    p99 target forces an SLO breach; each must produce *exactly one*
//!    incident dump that validates as Chrome-trace JSON and carries the
//!    offending request's span tree (the breach dump also its exemplar).
//! 3. **Prometheus** — the text exposition of the live metrics registry
//!    must parse under the golden-format grammar and agree with the
//!    [`kdv_obs::metrics::Snapshot`] counter-for-counter.
//!
//! Appends a dated entry to `BENCH_flight.json` in the output directory
//! (`--out`, default `target/bench-results/`; `--out results` records
//! the run in the committed history). `./ci.sh obs-live` runs this.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdv_bench::HarnessConfig;
use kdv_core::digest::grid_checksum;
use kdv_core::geom::{Point, Rect};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_obs::metrics::MetricValue;
use kdv_obs::{ring, IncidentConfig, SloTargets, SloTracker};
use kdv_serve::{
    Frontend, FrontendConfig, PyramidSpec, ServeConfig, ServeError, ShedReason, TileServer,
    Viewport,
};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;

/// Bound on the recorder-on/off wall ratio. Recording is one
/// `try_lock` plus a push per *completed* span — far off the
/// density hot path — so the replay must stay within 10%.
const MAX_RATIO: f64 = 1.10;

/// Off/on replay pairs behind the overhead gate. Both arms of a pair run
/// back to back, so load drifting on a shared host hits both sides of
/// the pair's ratio alike; the arm that runs first alternates from pair
/// to pair, so neither arm always inherits the other's warm caches.
const PAIRS: usize = 11;

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

/// Cold replay against a fresh server: wall seconds + response checksums.
fn replay_cold(
    points: &[Point],
    extent: Rect,
    bandwidth: f64,
    trace: &[Viewport],
) -> (f64, Vec<u64>) {
    let server = make_server(points, extent, bandwidth);
    let t0 = Instant::now();
    let sums = trace
        .iter()
        .map(|vp| {
            let (grid, _) = server.serve_viewport(vp, 0).expect("trace viewport must be servable");
            grid_checksum(&grid)
        })
        .collect();
    (t0.elapsed().as_secs_f64(), sums)
}

/// [`replay_cold`] with the flight recorder on or off for its duration.
fn replay_recording(
    recording: bool,
    points: &[Point],
    extent: Rect,
    bandwidth: f64,
    trace: &[Viewport],
) -> (f64, Vec<u64>) {
    ring::clear();
    ring::set_recording(recording);
    let out = replay_cold(points, extent, bandwidth, trace);
    ring::set_recording(false);
    out
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdv-flight-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads the directory's single incident dump, validating it as
/// Chrome-trace JSON carrying the offending request's span tree.
fn sole_incident(dir: &PathBuf, trigger: &str) -> String {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("incident dir must exist after the injected failure")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert_eq!(files.len(), 1, "{trigger}: expected exactly one dump, got {files:?}");
    let body = std::fs::read_to_string(&files[0]).expect("read incident");
    kdv_obs::validate_json(&body)
        .unwrap_or_else(|off| panic!("{trigger} dump is not valid JSON at byte {off}"));
    for marker in [
        "\"displayTimeUnit\":\"ms\"",
        "\"traceEvents\":[",
        &format!("\"trigger\":\"{trigger}\""),
        "\"request_id\":1",
        "\"serve.request\"",
        "\"req\":1",
    ] {
        assert!(body.contains(marker), "{trigger} dump missing {marker}: {body}");
    }
    body
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
        "flight recorder bench: n={} tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} \
         max_zoom={MAX_ZOOM} bandwidth={bandwidth} requests={}",
        points.len(),
        trace.len()
    );

    // --- 1. ring overhead: paired off/on replays, bitwise responses ---
    let mut reference: Option<Vec<u64>> = None;
    let mut replay = |recording: bool| {
        let (secs, sums) = replay_recording(recording, &points, extent, bandwidth, &trace);
        match &reference {
            None => reference = Some(sums),
            Some(first) if recording => {
                assert_eq!(&sums, first, "flight recorder changed a served response")
            }
            Some(first) => assert_eq!(&sums, first, "repeat replays must be bitwise stable"),
        }
        secs
    };
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (off_s, on_s) = if pair % 2 == 0 {
            let off_s = replay(false);
            (off_s, replay(true))
        } else {
            let on_s = replay(true);
            (replay(false), on_s)
        };
        off.push(off_s);
        on.push(on_s);
        ratios.push(if off_s > 0.0 { on_s / off_s } else { 1.0 });
    }
    ring::clear();
    let (ring_off_s, ring_on_s) = (median(off), median(on));
    let overhead_ratio = median(ratios);
    println!(
        "pan replay over {PAIRS} off/on pairs: ring off {:.2}ms, ring on {:.2}ms (medians), \
         median pair ratio {:.3}x (bound {MAX_RATIO}x), responses bitwise-identical",
        ring_off_s * 1e3,
        ring_on_s * 1e3,
        overhead_ratio
    );
    assert!(
        overhead_ratio <= MAX_RATIO,
        "recorder-on replay {overhead_ratio:.3}x slower than off in the median pair \
         (bound {MAX_RATIO}x)"
    );

    // --- 2a. injected deadline shed -> exactly one incident dump ---
    let shed_dir = fresh_dir("shed");
    ring::clear();
    kdv_obs::arm_incidents(IncidentConfig::new(shed_dir.clone()));
    let fe = Frontend::new(
        Arc::new(make_server(&points, extent, bandwidth)),
        FrontendConfig { workers: 1, deadline: Some(Duration::ZERO), ..FrontendConfig::default() },
    );
    let vp = trace[0];
    // two sheds inside the cooldown: the first dumps, the second must not
    for _ in 0..2 {
        match fe.serve(vp) {
            Err(ServeError::Shed(ShedReason::DeadlineExceeded)) => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
    }
    drop(fe);
    kdv_obs::disarm_incidents();
    let body = sole_incident(&shed_dir, "shed.deadline");
    assert!(body.contains("\"shed\":1"), "shed dump must tag the request span: {body}");
    let shed_incidents = 1u64;
    println!("injected deadline shed: one valid incident dump in {}", shed_dir.display());
    let _ = std::fs::remove_dir_all(&shed_dir);

    // --- 2b. injected SLO breach -> exactly one dump with the exemplar ---
    let slo_dir = fresh_dir("slo");
    ring::clear();
    kdv_obs::arm_incidents(IncidentConfig::new(slo_dir.clone()));
    let fe = Frontend::new(
        Arc::new(make_server(&points, extent, bandwidth)),
        FrontendConfig { workers: 1, ..FrontendConfig::default() },
    );
    // 1 ns p99 target: every completion is slow, the windowed p99 crosses
    // the target on the first one — a single breach edge.
    fe.set_slo(Arc::new(SloTracker::uniform(10_000_000_000, SloTargets { p50_ns: 1, p99_ns: 1 })));
    for _ in 0..3 {
        fe.serve(vp).expect("served");
    }
    drop(fe);
    kdv_obs::disarm_incidents();
    let body = sole_incident(&slo_dir, "slo.p99");
    assert!(
        body.contains("\"exemplars\":[{\"request_id\":1,\"class\":\"exact\""),
        "breach dump must carry the offending request's exemplar: {body}"
    );
    let slo_incidents = 1u64;
    println!("injected SLO breach: one valid incident dump with exemplar in {}", slo_dir.display());
    let _ = std::fs::remove_dir_all(&slo_dir);
    ring::clear();

    // --- 3. prometheus export parses and agrees with the snapshot ---
    let snap = kdv_obs::metrics::global().snapshot();
    let text = kdv_obs::prometheus_text(&snap);
    let samples = kdv_obs::prometheus::parse_text(&text)
        .unwrap_or_else(|line| panic!("prometheus output failed to parse at line {line}:\n{text}"));
    let sample_value = |series: &str| {
        samples
            .iter()
            .find(|s| s.series == series)
            .unwrap_or_else(|| panic!("prometheus output missing series {series}"))
            .value
    };
    let mut counters = 0usize;
    for (name, value) in &snap.values {
        match value {
            MetricValue::Counter(v) => {
                counters += 1;
                let got = sample_value(&kdv_obs::prometheus::metric_name(name));
                assert!(
                    got == *v as f64,
                    "prometheus disagrees with snapshot on {name}: {got} != {v}"
                );
            }
            MetricValue::Gauge(v) => {
                let got = sample_value(&kdv_obs::prometheus::metric_name(name));
                assert!(
                    got == *v as f64,
                    "prometheus disagrees with snapshot on {name}: {got} != {v}"
                );
            }
            MetricValue::Histogram(h) => {
                let count =
                    sample_value(&format!("{}_count", kdv_obs::prometheus::metric_name(name)));
                assert!(
                    count == h.count as f64,
                    "prometheus disagrees with snapshot on {name}_count: {count} != {}",
                    h.count
                );
            }
        }
    }
    assert!(counters > 0, "serving must have registered counters to compare");
    println!(
        "prometheus export: {} series parsed, {} snapshot metric(s) agree to the counter",
        samples.len(),
        snap.values.len()
    );

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {},\n      \"requests\": {},\n      \"pairs\": {PAIRS},\n      \
         \"ring_off_s\": {:.6},\n      \"ring_on_s\": {:.6},\n      \
         \"overhead_ratio\": {overhead_ratio:.4},\n      \"max_ratio\": {MAX_RATIO},\n      \
         \"bitwise\": true,\n      \"shed_incidents\": {shed_incidents},\n      \
         \"slo_incidents\": {slo_incidents},\n      \"prometheus_series\": {}\n    }}",
        kdv_bench::utc_date(now),
        points.len(),
        trace.len(),
        ring_off_s,
        ring_on_s,
        samples.len()
    );
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_flight.json");
    kdv_bench::append_run(&path, &entry);
    println!("wrote {}", path.display());
}
