//! Concurrent-serving load benchmark: multi-session trace replay
//! through the worker-pool front end, with the correctness assertions
//! `./ci.sh serve-load` relies on baked in.
//!
//! Four overlapping pan sessions are replayed twice against fresh
//! servers — sequentially (single-threaded ground truth) and
//! concurrently (one closed-loop thread per session through the
//! [`Frontend`]) — and the run **aborts** unless:
//!
//! * every concurrent grid checksum is bitwise-equal to its sequential
//!   twin,
//! * the single-flight duplicate counter is zero (no tile computed
//!   twice despite the overlap),
//! * tiles computed equals the distinct tile count of the trace,
//! * concurrent p99 latency stays under a generous cap, and
//! * a deliberately saturated run (1 worker, depth-2 queue) sheds with
//!   explicit `QueueFull` rejections while every accepted request still
//!   completes.
//!
//! Appends one dated entry per run to `BENCH_serve.json` in the output
//! directory (`--out`, default `results/`).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use kdv_bench::HarnessConfig;
use kdv_core::geom::{Point, Rect};
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};
use kdv_serve::replay::latency_quantile_ns;
use kdv_serve::{
    Frontend, FrontendConfig, PyramidSpec, ReplayOutcome, ServeConfig, ServeError, Session,
    SessionRequest, ShedReason, TileServer, Viewport,
};

const TILE_SIZE: usize = 256;
const BASE_RES: usize = 512;
const MAX_ZOOM: u8 = 2;
const P99_CAP_MS: f64 = 2_000.0;

fn make_server(points: &[Point], extent: Rect, bandwidth: f64) -> Arc<TileServer> {
    let pyramid = PyramidSpec::new(extent, TILE_SIZE, BASE_RES, BASE_RES, MAX_ZOOM)
        .expect("valid pyramid geometry");
    let config = ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / points.len().max(1) as f64,
    };
    Arc::new(TileServer::new(pyramid, config, points.to_vec(), 512 << 20, 16))
}

/// Four pan sessions at the deepest zoom, horizontally offset so every
/// session's viewports overlap its neighbours' tiles.
fn pan_sessions() -> Vec<Session> {
    (0..4u32)
        .map(|id| Session {
            id,
            requests: (0..6)
                .map(|step| SessionRequest {
                    think_ms: 0,
                    viewport: Viewport {
                        zoom: MAX_ZOOM,
                        px: (id as usize * 64 + step * 128) % 1536,
                        py: 640 + (id as usize % 2) * 128,
                        width: 512,
                        height: 512,
                    },
                })
                .collect(),
        })
        .collect()
}

/// Distinct `(zoom, tx, ty)` tiles the sessions touch — the exact
/// number of tile computes an ideal (fully deduplicated) replay performs
/// when nothing is evicted.
fn distinct_tiles(sessions: &[Session]) -> usize {
    let mut tiles = HashSet::new();
    for s in sessions {
        for r in &s.requests {
            let vp = &r.viewport;
            for ty in vp.tile_rows(TILE_SIZE) {
                tiles.extend(vp.tile_cols(TILE_SIZE).map(|tx| (vp.zoom, tx, ty)));
            }
        }
    }
    tiles.len()
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (2_000_000.0 * cfg.scale).round().max(1_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 23).into_iter().map(|r| r.point).collect();
    let bandwidth = 400.0;

    let sessions = pan_sessions();
    let requests: usize = sessions.iter().map(|s| s.requests.len()).sum();
    let expected_tiles = distinct_tiles(&sessions);
    println!(
        "serve load bench: n={} sessions={} requests={requests} distinct_tiles={expected_tiles} \
         tile={TILE_SIZE}px base={BASE_RES}x{BASE_RES} max_zoom={MAX_ZOOM}",
        points.len(),
        sessions.len()
    );

    // --- sequential ground truth ---------------------------------------
    let seq_server = make_server(&points, extent, bandwidth);
    let t0 = Instant::now();
    let seq = kdv_serve::replay_sequential(&seq_server, &sessions, 0);
    let seq_s = t0.elapsed().as_secs_f64();

    // --- concurrent replay through the front end ------------------------
    let conc_server = make_server(&points, extent, bandwidth);
    let frontend = Frontend::new(
        Arc::clone(&conc_server),
        FrontendConfig { workers: 4, queue_depth: 64, deadline: None, threads_per_request: 2 },
    );
    let t0 = Instant::now();
    let conc = kdv_serve::replay_concurrent(&frontend, &sessions, false);
    let conc_s = t0.elapsed().as_secs_f64();

    // correctness gate 1: bitwise equality, request by request
    assert_eq!(seq.len(), conc.len(), "replay record counts diverge");
    for (s, c) in seq.iter().zip(&conc) {
        assert_eq!((s.session, s.seq), (c.session, c.seq), "replay record order diverges");
        assert!(
            matches!(s.outcome, ReplayOutcome::Served { .. }),
            "sequential request failed: {:?}",
            s.outcome
        );
        assert_eq!(
            s.outcome, c.outcome,
            "session {} request {}: concurrent grid bits diverge from sequential",
            s.session, s.seq
        );
    }

    // correctness gate 2: single-flight eliminated every duplicate sweep
    let flights = conc_server.flight_stats();
    assert_eq!(
        flights.duplicate_computes(),
        0,
        "duplicate tile computes under overlapping concurrent sessions"
    );
    assert_eq!(
        flights.computed() as usize,
        expected_tiles,
        "tiles computed must equal the trace's distinct tile count"
    );

    // correctness gate 3: tail latency under the (generous) cap
    let p50_ms = kdv_obs::stats::ns_to_ms(latency_quantile_ns(&conc, 0.5));
    let p99_ms = kdv_obs::stats::ns_to_ms(latency_quantile_ns(&conc, 0.99));
    assert!(
        p99_ms < P99_CAP_MS,
        "concurrent p99 {p99_ms:.1} ms breached the {P99_CAP_MS:.0} ms cap"
    );

    println!(
        "sequential {seq_s:.3}s  concurrent {conc_s:.3}s  p50 {p50_ms:.3} ms  p99 {p99_ms:.3} ms"
    );
    println!(
        "tiles: {} computed (= distinct), {} joined in flight, 0 duplicates; checksums bitwise-equal",
        flights.computed(),
        flights.joined()
    );

    // --- saturation: overload must shed explicitly, not queue forever ---
    let sat_server = make_server(&points, extent, bandwidth);
    let sat = Frontend::new(
        Arc::clone(&sat_server),
        FrontendConfig { workers: 1, queue_depth: 2, deadline: None, threads_per_request: 1 },
    );
    let burst = Viewport { zoom: MAX_ZOOM, px: 0, py: 0, width: 512, height: 512 };
    let mut accepted = Vec::new();
    for _ in 0..5_000 {
        match sat.submit(burst) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Shed(ShedReason::QueueFull)) => {}
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
        if sat.stats().shed_queue_full() >= 16 {
            break;
        }
    }
    let shed = sat.stats().shed_queue_full();
    assert!(shed > 0, "saturated front end never shed a request");
    for t in accepted {
        t.wait().expect("accepted requests must complete under overload");
    }
    println!(
        "saturation (1 worker, depth-2 queue): {} accepted, {shed} shed with explicit QueueFull",
        sat.stats().submitted()
    );

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "    {{\n      \"date\": \"{}\",\n      \"n\": {},\n      \"sessions\": {},\n      \"requests\": {requests},\n      \"distinct_tiles\": {expected_tiles},\n      \"sequential_s\": {seq_s:.6},\n      \"concurrent_s\": {conc_s:.6},\n      \"p50_ms\": {p50_ms:.3},\n      \"p99_ms\": {p99_ms:.3},\n      \"tiles_computed\": {},\n      \"tiles_joined\": {},\n      \"duplicate_computes\": 0,\n      \"saturation_shed\": {shed}\n    }}",
        kdv_bench::utc_date(now),
        points.len(),
        sessions.len(),
        flights.computed(),
        flights.joined()
    );

    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_serve.json");
    kdv_bench::append_run(&path, &entry);
    println!("appended run to {}", path.display());
}
