//! Pinned regressions for the serving layer.
//!
//! * Counter rollover: a long-lived cache whose counters approach
//!   `u64::MAX` must keep reporting monotone, non-wrapping statistics
//!   (the boundary is faked through [`kdv_serve::CacheStats::force`] —
//!   nobody serves 2⁶⁴ requests in a test).
//! * Thread-count independence: a `--threads 1` server must produce the
//!   same bytes as a multi-threaded one, miss or hit.

use kdv_core::{KernelType, Point, Rect};
use kdv_serve::{PyramidSpec, ServeConfig, TileServer, Viewport};

fn points(n: usize) -> Vec<Point> {
    let mut state = 0x05EA_51DEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 70.0, next() * 70.0)).collect()
}

fn make_server() -> TileServer {
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 70.0, 70.0), 16, 48, 48, 2).unwrap();
    let config =
        ServeConfig { dataset: 3, kernel: KernelType::Epanechnikov, bandwidth: 9.0, weight: 0.005 };
    TileServer::new(pyramid, config, points(220), 1 << 22, 4)
}

#[test]
fn cache_hit_after_counter_rollover_reports_monotone_counters() {
    let server = make_server();
    let vp = Viewport { zoom: 1, px: 4, py: 4, width: 40, height: 40 };

    // warm the cache, then push the counters to the u64 boundary
    server.serve_viewport(&vp, 1).unwrap();
    server.cache_stats().force(u64::MAX - 1, u64::MAX - 1, u64::MAX);

    let before = (
        server.cache_stats().hits(),
        server.cache_stats().misses(),
        server.cache_stats().evictions(),
    );
    // an all-hits request at the boundary: hits MAX-1 -> saturates at MAX
    let (_, report) = server.serve_viewport(&vp, 1).unwrap();
    let after = (
        server.cache_stats().hits(),
        server.cache_stats().misses(),
        server.cache_stats().evictions(),
    );

    // cumulative counters never decrease (no wrap to ~0)...
    assert!(after.0 >= before.0, "hits wrapped: {before:?} -> {after:?}");
    assert!(after.1 >= before.1, "misses wrapped: {before:?} -> {after:?}");
    assert!(after.2 >= before.2, "evictions wrapped: {before:?} -> {after:?}");
    assert_eq!(after.0, u64::MAX, "hits must saturate at the boundary");
    // ...and the per-request report deltas stay sane (no underflow into
    // astronomically large counts)
    let looked_up = 9; // 3x3 tiles of 16 at zoom 1
    assert!(report.cache_hits <= looked_up, "delta hits {} implausible", report.cache_hits);
    assert!(report.cache_misses <= looked_up, "delta misses {} implausible", report.cache_misses);

    // saturated counters stay pinned through further traffic
    server.serve_viewport(&vp, 1).unwrap();
    assert_eq!(server.cache_stats().hits(), u64::MAX);
    assert!(server.cache_stats().misses() >= u64::MAX - 1);
}

#[test]
fn single_threaded_serve_matches_multi_threaded_bitwise() {
    let viewports = [
        Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
        Viewport { zoom: 1, px: 11, py: 23, width: 61, height: 37 },
        Viewport { zoom: 2, px: 80, py: 5, width: 100, height: 90 },
    ];
    // separate servers so both sides compute every tile from cold
    let solo = make_server();
    let fleet = make_server();
    for vp in &viewports {
        let (a, _) = solo.serve_viewport(vp, 1).unwrap();
        let (b, _) = fleet.serve_viewport(vp, 6).unwrap();
        let a_bits: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "{vp:?}: threads=1 vs threads=6 cold");
        // and warm (cache-assembled) responses agree across thread counts too
        let (aw, _) = solo.serve_viewport(vp, 6).unwrap();
        let (bw, _) = fleet.serve_viewport(vp, 1).unwrap();
        assert_eq!(aw, a, "{vp:?}: warm solo diverged");
        assert_eq!(bw, b, "{vp:?}: warm fleet diverged");
    }
}
