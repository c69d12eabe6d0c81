//! Bitwise coverage of viewport assembly on both tile servers.
//!
//! Every served viewport must equal, bit for bit, the crop of the
//! monolithic `sweep_bucket::compute` raster of its level to the clamped
//! window — whether its tiles were computed by this request (cold) or
//! all came from the cache (warm). The level rasters here are not
//! multiples of the 5-pixel tile size, so the right and bottom edge
//! tiles are clipped narrower (level 1 is 46 × 38: its last tile column
//! is one pixel wide).

use kdv_core::{sweep_bucket, DensityGrid, KernelType, Point, Rect};
use kdv_serve::{LiveConfig, PyramidSpec, ServeConfig, TileServer, Viewport};

const TILE: usize = 5;

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 60.0, next() * 50.0)).collect()
}

fn pyramid() -> PyramidSpec {
    PyramidSpec::new(Rect::new(0.0, 0.0, 60.0, 50.0), TILE, 23, 19, 1).unwrap()
}

fn config() -> ServeConfig {
    ServeConfig { dataset: 9, kernel: KernelType::Epanechnikov, bandwidth: 7.5, weight: 0.003 }
}

/// The monolithic raster of every level.
fn level_rasters(pts: &[Point]) -> Vec<DensityGrid> {
    let p = pyramid();
    (0..=p.max_zoom)
        .map(|z| {
            let params = p.level_params(z, config().kernel, config().bandwidth, config().weight);
            sweep_bucket::compute(&params, pts).unwrap()
        })
        .collect()
}

fn crop(full: &DensityGrid, vp: &Viewport) -> DensityGrid {
    let mut values = Vec::with_capacity(vp.width * vp.height);
    for j in vp.py..vp.py + vp.height {
        values.extend_from_slice(&full.row(j)[vp.px..vp.px + vp.width]);
    }
    DensityGrid::from_values(vp.width, vp.height, values)
}

/// The viewports under test, per level: origins at every residue mod the
/// tile size, windows inside the clipped edge tiles, 1 × 1, single-tile
/// and full-level windows, and windows hanging over the edge.
fn viewports() -> Vec<Viewport> {
    let p = pyramid();
    let mut out = Vec::new();
    for zoom in 0..=p.max_zoom {
        let (rx, ry) = p.level_res(zoom);
        let vp = |px, py, width, height| Viewport { zoom, px, py, width, height };
        for rx0 in 0..TILE {
            for ry0 in 0..TILE {
                out.push(vp(TILE + rx0, ry0, 7 + 2 * rx0, 6 + ry0));
            }
        }
        // right and bottom edge tiles, clipped narrower
        out.push(vp(rx - rx % TILE, ry - ry % TILE, rx % TILE, ry % TILE));
        out.push(vp(rx - 9, ry - 8, 9, 8));
        out.push(vp(rx - 1, 0, 1, ry));
        out.push(vp(0, ry - 1, rx, 1));
        // 1 × 1 windows, corners and interior
        for (x, y) in [(0, 0), (rx - 1, ry - 1), (rx - 1, 0), (0, ry - 1), (7, 11)] {
            out.push(vp(x, y, 1, 1));
        }
        // exactly one tile, and a window strictly inside one tile
        out.push(vp(TILE, 2 * TILE, TILE, TILE));
        out.push(vp(TILE + 1, TILE + 1, 3, 2));
        // the full level
        out.push(vp(0, 0, rx, ry));
        // hanging over the right, the bottom, and both edges
        out.push(vp(rx - 4, 3, 40, 6));
        out.push(vp(2, ry - 3, 8, 40));
        out.push(vp(rx - 6, ry - 2, usize::MAX, usize::MAX));
    }
    out
}

/// Serves every viewport twice (cold, then warm) and checks each against
/// the crop of the monolithic raster.
fn check<E: std::fmt::Debug>(
    name: &str,
    rasters: &[DensityGrid],
    serve: impl Fn(&Viewport) -> Result<DensityGrid, E>,
) {
    for pass in ["cold", "warm"] {
        for vp in viewports() {
            let clamped = vp.clamped(&pyramid()).expect("every test viewport keeps pixels");
            let grid = serve(&vp).unwrap();
            assert_eq!(grid, crop(&rasters[vp.zoom as usize], &clamped), "{name} {pass} {vp:?}");
        }
    }
}

#[test]
fn tile_server_viewports_equal_monolithic_crops() {
    let pts = points(180, 0xA55E);
    let rasters = level_rasters(&pts);
    let server = TileServer::new(pyramid(), config(), pts, 1 << 24, 3);
    check("frozen", &rasters, |vp| server.serve_viewport(vp, 2).map(|(grid, _)| grid));
    assert!(server.cache_stats().hits() > 0, "the warm pass must assemble from cached tiles");
}

#[test]
fn live_server_viewports_equal_monolithic_crops() {
    let pts = points(180, 0xA55E);
    let rasters = level_rasters(&pts);
    let server = TileServer::with_live(pyramid(), config(), LiveConfig::default(), pts, 1 << 24, 3);
    check("live", &rasters, |vp| server.serve_viewport(vp, 2).map(|(grid, _)| grid));
    assert!(server.cache_stats().hits() > 0, "the warm pass must assemble from cached tiles");
}

#[test]
fn live_server_patched_viewports_equal_rebuild_crops() {
    let server = TileServer::with_live(
        pyramid(),
        config(),
        LiveConfig::default(),
        points(180, 0xA55E),
        1 << 24,
        3,
    );
    for vp in viewports() {
        server.serve_viewport(&vp, 1).unwrap();
    }
    server.append(&points(6, 0xB47C));
    server.expire_oldest(4);
    let rasters: Vec<DensityGrid> = (0..=pyramid().max_zoom)
        .map(|z| {
            let params =
                pyramid().level_params(z, config().kernel, config().bandwidth, config().weight);
            kdv_stream::rebuild_grid(&params, &server.snapshot()).unwrap()
        })
        .collect();
    check("live patched", &rasters, |vp| server.serve_viewport(vp, 2).map(|(grid, _)| grid));
    assert!(server.live_stats().patched_bands() > 0, "cached bands should be patched forward");
}
