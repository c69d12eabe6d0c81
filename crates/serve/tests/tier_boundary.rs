//! Regression tests for the exact/approximate tier boundary.
//!
//! With a coreset overview tier at zoom threshold `z`, serving zoom `z`
//! (last coreset level) and `z+1` (first exact level) for the same
//! viewport must carry the correct tier metadata, and the cache must
//! never return a coreset tile for an exact-tier key: the `TileTier`
//! discriminant in the key is what keeps the two point sets from
//! aliasing, and the 8-thread hammer here churns a tiny cache across the
//! boundary to prove it holds under concurrent eviction and recompute.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdv_core::sweep_bucket;
use kdv_core::{DensityGrid, KernelType, Point, Rect};
use kdv_coreset::CoresetMethod;
use kdv_serve::{
    LiveConfig, OverviewConfig, PyramidSpec, ServeConfig, TileServer, TileTier, Viewport,
};

const STRESS_BUDGET: Duration = Duration::from_secs(120);

/// Zoom threshold of the overview tier: zoom ≤ 1 is coreset, zoom 2 is
/// exact.
const THRESHOLD: u8 = 1;

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 90.0, next() * 90.0)).collect()
}

fn make_server(cache_bytes: usize) -> TileServer {
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 90.0, 90.0), 8, 40, 40, 2).unwrap();
    let config =
        ServeConfig { dataset: 42, kernel: KernelType::Quartic, bandwidth: 11.0, weight: 0.01 };
    let overview = OverviewConfig {
        max_zoom: THRESHOLD,
        method: CoresetMethod::Sort,
        target_rel_epsilon: 0.02,
        seed: 9,
    };
    TileServer::with_overview_coreset(
        pyramid,
        config,
        LiveConfig::default(),
        points(250, 0x57E55),
        cache_bytes,
        4,
        overview,
    )
    .unwrap()
}

/// The exact monolithic raster of one level, cropped to the viewport.
fn exact_crop(server: &TileServer, vp: &Viewport, pts: &[Point]) -> DensityGrid {
    let cfg = server.config();
    let params = server.pyramid().level_params(vp.zoom, cfg.kernel, cfg.bandwidth, cfg.weight);
    let full = sweep_bucket::compute(&params, pts).unwrap();
    let mut out = DensityGrid::zeroed(vp.width, vp.height);
    for j in 0..vp.height {
        out.row_mut(j).copy_from_slice(&full.row(vp.py + j)[vp.px..vp.px + vp.width]);
    }
    out
}

/// The same pixel window requested at the last coreset level and the
/// first exact level must both carry correct tier metadata; the exact
/// side must be bitwise-equal to the monolithic raster and the coreset
/// side within its advertised ε.
#[test]
fn boundary_zooms_carry_correct_tier_metadata() {
    let server = make_server(1 << 22);
    let pts = points(250, 0x57E55);
    let vp_coreset = Viewport { zoom: THRESHOLD, px: 8, py: 12, width: 40, height: 32 };
    // the same geographic window one level deeper (pixel coords double)
    let vp_exact = Viewport { zoom: THRESHOLD + 1, px: 16, py: 24, width: 80, height: 64 };

    let (approx, _, tier_lo) = server.serve_viewport_tiered(&vp_coreset, 1).unwrap();
    assert_eq!(tier_lo.tier, TileTier::Coreset);
    let eps = tier_lo.epsilon.expect("coreset tier must advertise epsilon");
    assert!(eps > 0.0 && eps.is_finite());
    assert!(tier_lo.coreset_size.unwrap() <= 250);
    let reference = exact_crop(&server, &vp_coreset, &pts);
    let sup = approx
        .values()
        .iter()
        .zip(reference.values())
        .map(|(a, r)| (a - r).abs())
        .fold(0.0f64, f64::max);
    assert!(sup <= eps, "coreset level: sup {sup:e} > advertised {eps:e}");

    let (exact, _, tier_hi) = server.serve_viewport_tiered(&vp_exact, 1).unwrap();
    assert_eq!(tier_hi.tier, TileTier::Exact);
    assert_eq!(tier_hi.epsilon, None);
    assert_eq!(tier_hi.coreset_size, None);
    assert_eq!(exact, exact_crop(&server, &vp_exact, &pts), "exact tier must stay bitwise");
}

/// 8 threads hammer a tiny cache with interleaved requests at the
/// boundary zooms. Exact-tier responses must stay bitwise-equal to the
/// monolithic raster at every instant — if eviction churn ever let a
/// coreset tile answer an exact-tier key, the sup-error of that response
/// would be far above zero and the bitwise check would catch it.
#[test]
fn hammered_tier_boundary_never_leaks_coreset_tiles_into_exact_keys() {
    let server = Arc::new(make_server(24 * 1024)); // tiny: constant churn
    let pts = points(250, 0x57E55);

    // workload straddles the boundary: coreset level and exact level
    let mut cases: Vec<(Viewport, DensityGrid, TileTier)> = Vec::new();
    for (zoom, tier) in [(THRESHOLD, TileTier::Coreset), (THRESHOLD + 1, TileTier::Exact)] {
        let (rx, ry) = server.pyramid().level_res(zoom);
        for (px, py, w, h) in [(0, 0, 24, 24), (rx / 3, ry / 4, 19, 23), (rx / 2, 0, 17, 31)] {
            let vp = Viewport { zoom, px, py, width: w.min(rx - px), height: h.min(ry - py) };
            cases.push((vp, exact_crop(&server, &vp, &pts), tier));
        }
    }
    let eps = server.tier_info(THRESHOLD).epsilon.unwrap();
    let cases = Arc::new(cases);
    let deadline = Instant::now() + STRESS_BUDGET;
    let failed = Arc::new(AtomicBool::new(false));

    let threads = 8;
    let iterations = 60;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let server = Arc::clone(&server);
            let cases = Arc::clone(&cases);
            let failed = Arc::clone(&failed);
            handles.push(scope.spawn(move || {
                for i in 0..iterations {
                    if Instant::now() > deadline || failed.load(Ordering::Relaxed) {
                        return;
                    }
                    let (vp, want, tier) = &cases[(i * (t + 3) + t) % cases.len()];
                    let (got, _, info) = server.serve_viewport_tiered(vp, 1).unwrap();
                    if info.tier != *tier {
                        failed.store(true, Ordering::Relaxed);
                        panic!("thread {t}: {vp:?} reported tier {:?}", info.tier);
                    }
                    let ok = match tier {
                        // bitwise: a leaked coreset tile cannot pass this
                        TileTier::Exact => got == *want,
                        // within ε: a leaked exact tile would pass (it is
                        // strictly closer), so also check metadata above
                        TileTier::Coreset => got
                            .values()
                            .iter()
                            .zip(want.values())
                            .all(|(a, r)| (a - r).abs() <= eps),
                    };
                    if !ok {
                        failed.store(true, Ordering::Relaxed);
                        panic!("thread {t} iteration {i}: tier contract violated for {vp:?}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("stress worker panicked");
        }
    });

    assert!(
        Instant::now() <= deadline,
        "stress run exceeded its {STRESS_BUDGET:?} wall-clock guard (livelock?)"
    );
    assert!(!failed.load(Ordering::Relaxed));
    let stats = server.cache_stats();
    assert!(stats.evictions() > 0, "budget was never exercised — misconfigured stress");
}
