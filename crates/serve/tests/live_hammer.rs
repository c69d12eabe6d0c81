//! Concurrency hammer for the streaming tile server: 7 client threads
//! submit through a 4-worker [`Frontend`] while 1 appender seals batches
//! on the same [`TileServer`], and every single response must be a
//! **pure generation** — bitwise-equal to the canonical rebuild of some
//! state the stream actually passed through, never a torn mix of pre- and
//! post-append tiles.
//!
//! The appender seals a known sequence of batches, so the full set of
//! legal response checksums (per viewport × per generation) is
//! precomputable by cold replay through [`kdv_stream::rebuild_grid`].
//! A response whose tiles straddled an append would checksum to a value
//! outside that set.
//!
//! Single-flight discipline must also hold under fire: flights are keyed
//! by `(zoom, tx, ty, generation)`, and the cache is sized to hold the
//! current generation's working set (patching retires stale-generation
//! tiles in place), so no tile of a generation is ever computed twice —
//! the duplicate counter stays at exactly zero. And every response
//! counts each of its window's tiles once, as a hit, a miss or a patch,
//! with the requests' misses summing to the cache's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use kdv_core::digest::grid_checksum;
use kdv_core::{DensityGrid, KernelType, Point, Rect};
use kdv_serve::{
    Frontend, FrontendConfig, LiveConfig, PyramidSpec, ServeConfig, TileServer, Viewport,
};
use kdv_stream::{rebuild_grid, StreamingPointSet};

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
}

fn pyramid() -> PyramidSpec {
    PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 48, 48, 1).unwrap()
}

fn config() -> ServeConfig {
    ServeConfig { dataset: 7, kernel: KernelType::Epanechnikov, bandwidth: 14.0, weight: 0.005 }
}

/// Tiles one viewport's window covers.
fn tiles(vp: &Viewport) -> u64 {
    let size = pyramid().tile_size;
    (vp.tile_cols(size).len() * vp.tile_rows(size).len()) as u64
}

/// Crops the canonical rebuild of `set`'s current state to `vp`.
fn reference(set: &StreamingPointSet, vp: &Viewport) -> DensityGrid {
    let params = pyramid().level_params(vp.zoom, config().kernel, 14.0, 0.005);
    let full = rebuild_grid(&params, &set.snapshot()).unwrap();
    let mut out = DensityGrid::zeroed(vp.width, vp.height);
    for j in 0..vp.height {
        out.row_mut(j).copy_from_slice(&full.row(vp.py + j)[vp.px..vp.px + vp.width]);
    }
    out
}

#[test]
fn hammered_live_server_never_serves_a_torn_generation() {
    const GENERATIONS: usize = 24;
    const SERVE_THREADS: usize = 7;

    let base = points(300, 0xBADC0FFE);
    let batches: Vec<Vec<Point>> =
        (0..GENERATIONS).map(|g| points(3, 0xA11CE ^ (g as u64) << 8)).collect();
    let viewports = [
        Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
        Viewport { zoom: 1, px: 13, py: 29, width: 61, height: 50 },
    ];

    // Every legal response checksum: per viewport, per generation the
    // stream will pass through, computed by cold replay.
    let mut legal: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut replay = StreamingPointSet::new(base.clone());
    for g in 0..=GENERATIONS {
        if g > 0 {
            replay.append(&batches[g - 1]).unwrap();
        }
        for (v, vp) in viewports.iter().enumerate() {
            legal.insert(grid_checksum(&reference(&replay, vp)), (v, g));
        }
    }

    // Cache sized to hold the current generation's full working set with
    // headroom (patching retires stale generations in place, so the
    // live working set is one generation's tiles per level).
    let server = Arc::new(TileServer::with_live(
        pyramid(),
        config(),
        LiveConfig::default(),
        base,
        512 << 10,
        4,
    ));

    // The appender starts only once every server has cached generation 0,
    // so later requests find stale-generation tiles to patch. Without this
    // the appender could seal every batch before any tile was cached, and
    // the patch path would go unexercised.
    let warmed = Arc::new(Barrier::new(SERVE_THREADS + 1));
    let done = Arc::new(AtomicBool::new(false));
    let appender = {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        let warmed = Arc::clone(&warmed);
        let batches = batches.clone();
        thread::spawn(move || {
            warmed.wait();
            for batch in &batches {
                server.append(batch);
                thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let frontend = Arc::new(Frontend::new(
        Arc::clone(&server),
        FrontendConfig { workers: 4, ..FrontendConfig::default() },
    ));
    let misses = Arc::new(AtomicU64::new(0));
    let servers: Vec<_> = (0..SERVE_THREADS)
        .map(|t| {
            let frontend = Arc::clone(&frontend);
            let misses = Arc::clone(&misses);
            let done = Arc::clone(&done);
            let warmed = Arc::clone(&warmed);
            let legal = legal.clone();
            thread::spawn(move || {
                let mut served = 0usize;
                let mut rounds_after_done = 0;
                while rounds_after_done < 2 {
                    if served == viewports.len() {
                        warmed.wait();
                    }
                    if done.load(Ordering::SeqCst) {
                        rounds_after_done += 1;
                    }
                    for (v, vp) in viewports.iter().enumerate() {
                        let (grid, report) = frontend.serve(*vp).unwrap();
                        assert_eq!(
                            report.cache_hits + report.cache_misses + report.cache_patched,
                            tiles(vp),
                            "thread {t}: every window tile counts once"
                        );
                        misses.fetch_add(report.cache_misses, Ordering::Relaxed);
                        let sum = grid_checksum(&grid);
                        let hit = legal.get(&sum);
                        assert!(
                            matches!(hit, Some(&(lv, _)) if lv == v),
                            "thread {t}: response for viewport {v} is a torn mix \
                             (checksum {sum:#x} matches no pure generation)"
                        );
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    appender.join().unwrap();
    let total_served: usize = servers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_served >= SERVE_THREADS * 2, "hammer actually served traffic");
    assert_eq!(frontend.stats().completed(), total_served as u64);
    assert_eq!(frontend.stats().shed(), 0);
    assert_eq!(
        server.cache_stats().misses(),
        misses.load(Ordering::Relaxed),
        "the requests' misses sum to the cache's"
    );

    // No (band, generation) may ever be computed twice.
    assert_eq!(
        server.flight_stats().duplicate_computes(),
        0,
        "duplicate band computes under concurrency"
    );
    // The run must actually exercise the patch path, not just recompute.
    assert!(server.live_stats().patched_bands() > 0, "hammer never patched a band");

    // And the settled state is bitwise the final rebuild.
    let mut final_set = StreamingPointSet::new(points(300, 0xBADC0FFE));
    for batch in &batches {
        final_set.append(batch).unwrap();
    }
    for vp in &viewports {
        let (grid, _) = server.serve_viewport(vp, 0).unwrap();
        assert_eq!(grid, reference(&final_set, vp), "settled serve diverged from rebuild");
    }
}

#[test]
fn hammer_with_expirations_and_compaction_stays_pure() {
    // A smaller variant that mixes appends, expirations and a forced
    // compaction; every post-compaction response must equal the fresh
    // rebuild of the live set (the epoch-rebase contract).
    let base = points(200, 0x5EED);
    let server = Arc::new(TileServer::with_live(
        pyramid(),
        config(),
        LiveConfig { patching: true, compact_every: None },
        base,
        512 << 10,
        4,
    ));
    let vp = Viewport { zoom: 1, px: 0, py: 0, width: 96, height: 48 };

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                for i in 0..6 {
                    if t == 0 {
                        // the single mutator: appends, expirations, and a
                        // mid-run compaction
                        server.append(&points(2, (t * 31 + i) as u64 + 1));
                        if i == 3 {
                            server.compact();
                        } else if i % 2 == 1 {
                            server.expire_oldest(1);
                        }
                    }
                    server.serve_viewport(&vp, 1).unwrap();
                }
            })
        })
        .collect();
    for handle in threads {
        handle.join().unwrap();
    }

    assert_eq!(server.flight_stats().duplicate_computes(), 0);
    // The canonical reference for the settled state: the epoch base
    // (frozen at the compaction) plus the batches sealed after it,
    // replayed through a fresh stream — bitwise what the server must
    // serve.
    let snapshot = server.snapshot();
    let mut fresh = StreamingPointSet::new(snapshot.base.as_ref().clone());
    for batch in &snapshot.batches {
        fresh.apply_signed(&batch.points, &batch.weights).unwrap();
    }
    let (grid, _) = server.serve_viewport(&vp, 0).unwrap();
    assert_eq!(grid, reference(&fresh, &vp), "post-compaction serve diverged from fresh rebuild");
}
