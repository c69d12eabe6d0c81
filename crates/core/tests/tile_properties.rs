//! Seam-focused properties of the tile compute layer: for *any* tile
//! size — degenerate, misaligned, smaller than the bandwidth, larger than
//! the raster — the assembled band tiles are byte-for-byte the monolithic
//! raster, and individual tiles are viewport-independent (the soundness
//! precondition of the `kdv-serve` cache).

use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::tile::{assemble, compute_band, BandWorkspace, Tile, Tiling};
use kdv_core::{sweep_bucket, DensityGrid, GridSpec, KernelType, Point, Rect};

/// Every tile of the raster in tiles of `tile_size`, band by band through
/// `compute_band` (the path a `TileServer` miss runs), in row-major
/// `(ty, tx)` order.
fn band_tiles(params: &KdvParams, pts: &[Point], tile_size: usize) -> (Tiling, Vec<Tile>) {
    let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size).unwrap();
    let ctx = SweepContext::new(params, pts).unwrap();
    let mut ws = BandWorkspace::new(params);
    let tiles = (0..tiling.tiles_y())
        .flat_map(|ty| {
            let BandWorkspace { engine, envelope, band, .. } = &mut ws;
            compute_band(&ctx, &tiling, params.bandwidth, ty, engine, envelope, band)
        })
        .collect();
    (tiling, tiles)
}

/// The whole raster `assemble`d from [`band_tiles`].
fn tiled(params: &KdvParams, pts: &[Point], tile_size: usize) -> DensityGrid {
    let (tiling, tiles) = band_tiles(params, pts, tile_size);
    assemble(&tiling, 0, 0, tiling.res_x, tiling.res_y, |tx, ty| &tiles[ty * tiling.tiles_x() + tx])
}

/// Deterministic xorshift point cloud with a couple of tight clusters —
/// clusters make band populations uneven across tile rows.
fn clustered_points(n: usize, seed: u64, region: Rect) -> Vec<Point> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let w = region.max_x - region.min_x;
    let h = region.max_y - region.min_y;
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        if i % 3 == 0 {
            // cluster near one corner, spilling past the region edge
            pts.push(Point::new(
                region.min_x - 0.1 * w + next() * 0.3 * w,
                region.min_y + 0.7 * h + next() * 0.4 * h,
            ));
        } else {
            pts.push(Point::new(region.min_x + next() * w, region.min_y + next() * h));
        }
    }
    pts
}

fn bytes_of(grid: &DensityGrid) -> Vec<u64> {
    grid.values().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn stitched_equals_monolithic_for_every_tile_size() {
    let region = Rect::new(-500.0, 220.0, -380.0, 310.0);
    let grid = GridSpec::new(region, 97, 61).unwrap();
    let pts = clustered_points(350, 0xA11CE, region);
    for kernel in [KernelType::Uniform, KernelType::Epanechnikov, KernelType::Quartic] {
        let params = KdvParams::new(grid, kernel, 17.5).with_weight(1.0 / 350.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        // 1 = per-pixel tiles; 7/13 misaligned with everything; 61/97 hit
        // exactly one raster dimension; 128 exceeds both.
        for tile_size in [1, 7, 13, 61, 97, 128] {
            assert_eq!(
                bytes_of(&tiled(&params, &pts, tile_size)),
                bytes_of(&mono),
                "{kernel:?} tile_size={tile_size} diverged from monolithic"
            );
        }
    }
}

#[test]
fn tiles_much_smaller_than_bandwidth_stay_exact() {
    // bandwidth 80 over 4-pixel tiles: every envelope interval crosses
    // dozens of tile seams, and most rows' active sets span the raster
    let region = Rect::new(0.0, 0.0, 120.0, 90.0);
    let grid = GridSpec::new(region, 72, 54).unwrap();
    let pts = clustered_points(200, 0xBEE, region);
    let params = KdvParams::new(grid, KernelType::Quartic, 80.0).with_weight(0.005);
    let mono = sweep_bucket::compute(&params, &pts).unwrap();
    for tile_size in [2, 4] {
        assert_eq!(
            bytes_of(&tiled(&params, &pts, tile_size)),
            bytes_of(&mono),
            "tile_size={tile_size}"
        );
    }
}

#[test]
fn unaligned_viewport_windows_match_the_full_raster() {
    // Serving cuts arbitrary pixel windows out of tiles; verify windows
    // that straddle seams at odd offsets agree with the raster bytes.
    let region = Rect::new(1000.0, -2000.0, 1150.0, -1880.0);
    let grid = GridSpec::new(region, 83, 59).unwrap();
    let pts = clustered_points(260, 0xD0E, region);
    let params = KdvParams::new(grid, KernelType::Epanechnikov, 21.0).with_weight(0.01);
    let mono = sweep_bucket::compute(&params, &pts).unwrap();
    let (tiling, tiles) = band_tiles(&params, &pts, 16);
    // windows chosen to start/end mid-tile in both axes
    for (px, py, w, h) in [(3, 5, 30, 27), (15, 16, 17, 17), (47, 31, 36, 28), (0, 58, 83, 1)] {
        for j in 0..h {
            for i in 0..w {
                let (x, y) = (px + i, py + j);
                let tile = &tiles[(y / 16) * tiling.tiles_x() + x / 16];
                assert_eq!(
                    tile.get(x % 16, y % 16).to_bits(),
                    mono.get(x, y).to_bits(),
                    "window ({px},{py},{w},{h}) pixel ({x},{y})"
                );
            }
        }
    }
}

#[test]
fn tile_bits_do_not_depend_on_tiling_geometry() {
    // The same pixel served under different tile sizes must carry the
    // same bits — tiles are slices of one canonical row program, not
    // per-tile recomputations.
    let region = Rect::new(-40.0, -40.0, 60.0, 45.0);
    let grid = GridSpec::new(region, 55, 38).unwrap();
    let pts = clustered_points(180, 0xFAB, region);
    let params = KdvParams::new(grid, KernelType::Uniform, 12.0).with_weight(0.02);
    let reference = tiled(&params, &pts, 9);
    for tile_size in [3, 20, 55] {
        let other = tiled(&params, &pts, tile_size);
        assert_eq!(bytes_of(&other), bytes_of(&reference), "tile_size={tile_size}");
    }
}

#[test]
fn degenerate_rasters_tile_cleanly() {
    // 1×Y, X×1 and 1×1 rasters with any tile size
    let region = Rect::new(5.0, 5.0, 25.0, 30.0);
    let pts = clustered_points(40, 0x1D, region);
    for (rx, ry) in [(1, 19), (23, 1), (1, 1)] {
        let grid = GridSpec::new(region, rx, ry).unwrap();
        let params = KdvParams::new(grid, KernelType::Epanechnikov, 8.0).with_weight(0.1);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        for tile_size in [1, 2, 64] {
            let got = tiled(&params, &pts, tile_size);
            assert_eq!(bytes_of(&got), bytes_of(&mono), "{rx}x{ry} tile={tile_size}");
        }
    }
}
