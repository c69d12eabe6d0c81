//! Concurrency hammer for the serving layer.
//!
//! Satellite of the single-flight work: N threads serve overlapping
//! viewports against ONE `TileServer` and the results must be
//! bitwise-equal to a sequential server, with the single-flight
//! counters proving each tile was computed exactly once — concurrent
//! misses on the same tile join the in-flight compute instead of
//! duplicating it, and per-request cache deltas stay attributed to the
//! request that caused them (hits + misses always equals the request's
//! own tile count, never a smeared global diff).

use std::collections::HashSet;
use std::sync::Arc;

use kdv_core::{KernelType, Point, Rect};
use kdv_serve::{
    Frontend, FrontendConfig, PyramidSpec, ServeConfig, Session, SessionRequest, TileServer,
    Viewport,
};

fn points(n: usize) -> Vec<Point> {
    let mut state = 0xABCDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 80.0, next() * 80.0)).collect()
}

fn make_server() -> Arc<TileServer> {
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 80.0, 80.0), 16, 48, 48, 2).unwrap();
    let config = ServeConfig {
        dataset: 7,
        kernel: KernelType::Epanechnikov,
        bandwidth: 10.0,
        weight: 0.004,
    };
    Arc::new(TileServer::new(pyramid, config, points(250), 1 << 22, 4))
}

/// Tile count of a viewport with 16-px tiles.
fn tiles_of(vp: &Viewport) -> u64 {
    (vp.tile_cols(16).len() * vp.tile_rows(16).len()) as u64
}

/// Distinct `(zoom, tx, ty)` tiles the viewports cover with 16-px tiles.
fn distinct_tiles(viewports: &[Viewport]) -> usize {
    let mut tiles = HashSet::new();
    for vp in viewports {
        for ty in vp.tile_rows(16) {
            tiles.extend(vp.tile_cols(16).map(|tx| (vp.zoom, tx, ty)));
        }
    }
    tiles.len()
}

#[test]
fn hammer_overlapping_viewports_single_flight_and_bitwise_equal() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;

    // eight viewports at zoom 1, all overlapping tile rows 0..=3
    let viewports: Vec<Viewport> = (0..THREADS)
        .map(|i| Viewport {
            zoom: 1,
            px: (i * 4) % 32,
            py: 10 + (i % 3) * 2,
            width: 60,
            height: 40,
        })
        .collect();

    let shared = make_server();
    let grids: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = viewports
            .iter()
            .map(|vp| {
                let server = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut last = None;
                    for _ in 0..ROUNDS {
                        let (grid, report) = server.serve_viewport(vp, 2).unwrap();
                        // per-request attribution: this request's deltas
                        // cover exactly its own tiles, regardless of what
                        // the other 7 threads are doing to the shared cache
                        assert_eq!(
                            report.cache_hits + report.cache_misses,
                            tiles_of(vp),
                            "{vp:?}: deltas must sum to the request's tile count"
                        );
                        last = Some(grid);
                    }
                    last.unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hammer thread panicked")).collect()
    });

    // bitwise-equal to a sequential cold server, viewport by viewport
    let sequential = make_server();
    for (vp, grid) in viewports.iter().zip(&grids) {
        let (reference, _) = sequential.serve_viewport(vp, 1).unwrap();
        let got: Vec<u64> = grid.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = reference.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{vp:?}: concurrent bits diverge from sequential");
    }

    // single-flight: every tile the viewports cover is computed exactly
    // once — every other miss on it must have joined an in-flight compute
    // or hit cache (the cache is large enough that nothing is evicted)
    let flights = shared.flight_stats();
    assert_eq!(
        flights.computed() as usize,
        distinct_tiles(&viewports),
        "each overlapped tile computed exactly once"
    );
    assert_eq!(
        flights.duplicate_computes(),
        0,
        "a tile was computed twice despite the single-flight table"
    );
}

#[test]
fn frontend_replay_of_sessions_matches_sequential_ground_truth() {
    // four pan sessions over the same zoom-2 stripe, as in
    // traces/pan_sessions.trace but against the test pyramid
    let sessions: Vec<Session> = (0..4u32)
        .map(|id| Session {
            id,
            requests: (0..5)
                .map(|step| SessionRequest {
                    think_ms: 0,
                    viewport: Viewport {
                        zoom: 2,
                        px: (id as usize * 16 + step * 24) % 96,
                        py: 64 + (id as usize % 2) * 16,
                        width: 80,
                        height: 64,
                    },
                })
                .collect(),
        })
        .collect();

    let seq = kdv_serve::replay::replay_sequential(&make_server(), &sessions, 1);
    let frontend = Frontend::new(
        make_server(),
        FrontendConfig { workers: 4, queue_depth: 64, ..FrontendConfig::default() },
    );
    let conc = kdv_serve::replay::replay_concurrent(&frontend, &sessions, false);
    assert_eq!(seq.len(), conc.len());
    for (s, c) in seq.iter().zip(&conc) {
        assert_eq!((s.session, s.seq), (c.session, c.seq));
        assert_eq!(s.outcome, c.outcome, "session {} seq {} bits diverged", s.session, s.seq);
        assert!(
            matches!(s.outcome, kdv_serve::ReplayOutcome::Served { .. }),
            "all requests must be served"
        );
    }
}

#[test]
fn saturation_produces_explicit_load_shed_not_latency() {
    let fe = Frontend::new(
        make_server(),
        FrontendConfig { workers: 1, queue_depth: 2, ..FrontendConfig::default() },
    );
    let vp = Viewport { zoom: 2, px: 0, py: 0, width: 96, height: 96 };
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for _ in 0..5_000 {
        match fe.submit(vp) {
            Ok(t) => accepted.push(t),
            Err(kdv_serve::ServeError::Shed(kdv_serve::ShedReason::QueueFull)) => shed += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
        if shed >= 8 {
            break;
        }
    }
    assert!(shed >= 8, "an open-loop burst never saturated a depth-2 queue");
    assert_eq!(fe.stats().shed_queue_full(), shed);
    for t in accepted {
        t.wait().expect("accepted requests still complete under overload");
    }
}

#[test]
fn saturated_depth_one_queue_reconciles_submitted_with_completed_and_shed() {
    // An open-loop burst into one worker behind a one-slot queue: most
    // offers are shed at the door. Every offer counts as submitted, so
    // once the admitted ones finish, submitted = completed + shed.
    let fe = Frontend::new(
        make_server(),
        FrontendConfig { workers: 1, queue_depth: 1, ..FrontendConfig::default() },
    );
    let vp = Viewport { zoom: 2, px: 0, py: 0, width: 96, height: 96 };
    let (mut accepted, mut shed) = (Vec::new(), 0u64);
    for _ in 0..64 {
        match fe.submit(vp) {
            Ok(t) => accepted.push(t),
            Err(kdv_serve::ServeError::Shed(kdv_serve::ShedReason::QueueFull)) => shed += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(shed > 0, "a depth-1 queue never shed a burst of 64");
    let admitted = accepted.len() as u64;
    for t in accepted {
        t.wait().expect("admitted requests complete under overload");
    }
    let stats = fe.stats();
    assert_eq!(stats.submitted(), 64, "every offer counts as submitted");
    assert_eq!(stats.completed(), admitted);
    assert_eq!(stats.shed(), shed);
    assert_eq!(stats.submitted(), stats.completed() + stats.shed());
}
