//! What the two serving workloads share: the New York base data, the tile
//! pyramid, the reference crops, and the direct per-band core timing of
//! their traced runs.

use std::collections::BTreeSet;
use std::time::Instant;

use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::parallel::{compute_parallel_rao, ParallelEngine};
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::tile::compute_band;
use kdv_core::{DensityGrid, KernelType, Point};
use kdv_data::catalog::City;
use kdv_serve::{PyramidSpec, ServeConfig, Viewport};

use crate::layers::{self, CoreLayers};
use crate::report::Outcome;
use crate::stats;

/// Points in the serving base set (the New York generator).
pub const BASE_N: usize = 40_000;
pub const TILE: usize = 256;
pub const BASE_RES: (usize, usize) = (320, 240);
pub const MAX_ZOOM: u8 = 3;
/// Client viewport size.
pub const VIEW: (usize, usize) = (1024, 768);
/// Where every walk starts (fractions of the level).
pub const START: (f64, f64) = (0.45, 0.55);

/// `n` New York points from stream `salt` of the workload seed.
pub fn ny_points(seed: u64, salt: u64, n: usize) -> Vec<Point> {
    kdv_data::synth::generate(&City::NewYork.synth_config(), n, stats::derive_seed(seed, salt))
        .into_iter()
        .map(|r| r.point)
        .collect()
}

pub fn pyramid() -> PyramidSpec {
    PyramidSpec::new(City::NewYork.synth_config().extent, TILE, BASE_RES.0, BASE_RES.1, MAX_ZOOM)
        .expect("valid pyramid")
}

/// The kernel configuration for a base set: Epanechnikov, Scott's-rule
/// bandwidth, weight 1/n.
pub fn serve_config(points: &[Point]) -> ServeConfig {
    ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth: kdv_data::scott_bandwidth(points),
        weight: 1.0 / points.len() as f64,
    }
}

/// Bytes of every tile of every level (the cache's accounting unit).
pub fn pyramid_bytes(pyramid: &PyramidSpec) -> usize {
    (0..=pyramid.max_zoom)
        .map(|z| {
            let tiling = pyramid.level_tiling(z);
            let (rx, ry) = pyramid.level_res(z);
            rx * ry * std::mem::size_of::<f64>()
                + tiling.tile_count() * std::mem::size_of::<kdv_core::tile::Tile>()
        })
        .sum()
}

/// One tile-sized viewport at the walk's start on each level: builds
/// every level's sweep context and first band before timing starts.
pub fn warmup_viewports(pyramid: &PyramidSpec) -> Vec<Viewport> {
    (0..=pyramid.max_zoom)
        .map(|zoom| {
            let (rx, ry) = pyramid.level_res(zoom);
            let px = ((START.0 * rx as f64) as usize).min(rx - 1);
            let py = ((START.1 * ry as f64) as usize).min(ry - 1);
            Viewport { zoom, px, py, width: 1, height: 1 }
        })
        .collect()
}

/// The window `vp` (clamped) of a whole level raster.
pub fn crop(level: &DensityGrid, vp: &Viewport) -> DensityGrid {
    let mut out = DensityGrid::zeroed(vp.width, vp.height);
    for y in 0..vp.height {
        out.row_mut(y).copy_from_slice(&level.row(vp.py + y)[vp.px..vp.px + vp.width]);
    }
    out
}

/// Bitwise equality (distinguishes `-0.0` from `0.0`, equates NaNs).
pub fn same_bits(a: &DensityGrid, b: &DensityGrid) -> bool {
    a.res_x() == b.res_x()
        && a.res_y() == b.res_y()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The `(zoom, band)` row bands a viewport needs.
pub fn bands_of(vp: &Viewport) -> impl Iterator<Item = (u8, usize)> {
    let zoom = vp.zoom;
    vp.tile_rows(TILE).map(move |ty| (zoom, ty))
}

/// One `render_s` sample for a serving workload: the wall time of a
/// single-thread full exact render of `points` at the pyramid level with
/// the paper's 1280×960 raster.
pub fn full_render_s(pyramid: &PyramidSpec, config: &ServeConfig, points: &[Point]) -> f64 {
    let zoom = (0..=pyramid.max_zoom)
        .find(|&z| pyramid.level_res(z) == (1280, 960))
        .expect("1280x960 level");
    let params = pyramid.level_params(zoom, config.kernel, config.bandwidth, config.weight);
    let t = Instant::now();
    let grid =
        compute_parallel_rao(&params, points, ParallelEngine::Bucket, 1).expect("valid render");
    let s = t.elapsed().as_secs_f64();
    drop(grid);
    s
}

/// Times `tile::compute_band` on each band of `bands` over `points`, then
/// reruns the band through the benchmark's per-layer timers and checks
/// the two agree bitwise. Returns each band's compute time in ms.
pub fn time_bands(
    pyramid: &PyramidSpec,
    config: &ServeConfig,
    points: &[Point],
    bands: &BTreeSet<(u8, usize)>,
    core: &mut CoreLayers,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut band_ms = Vec::new();
    let zooms: BTreeSet<u8> = bands.iter().map(|&(z, _)| z).collect();
    for zoom in zooms {
        let params = pyramid.level_params(zoom, config.kernel, config.bandwidth, config.weight);
        let tiling = pyramid.level_tiling(zoom);
        let ctx = layers::context(&params, points, core).expect("valid level context");
        let mut engine = BucketSweep::new(config.kernel, config.bandwidth, config.weight);
        let mut envelope = EnvelopeBuffer::for_points(points.len());
        let mut buffer = Vec::new();
        let mut timed = Vec::new();
        for &(_, ty) in bands.iter().filter(|&&(z, _)| z == zoom) {
            let t = Instant::now();
            let tiles = compute_band(
                &ctx,
                &tiling,
                config.bandwidth,
                ty,
                &mut engine,
                &mut envelope,
                &mut buffer,
            );
            band_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(tiles);
            let rows = tiling.tile_rows(ty);
            timed.resize(rows.len() * tiling.res_x, 0.0);
            layers::sweep_rows(
                &ctx,
                config.bandwidth,
                rows,
                &mut engine,
                &mut envelope,
                &mut timed,
                core,
            );
            let same = timed.len() == buffer.len()
                && timed.iter().zip(&buffer).all(|(a, b)| a.to_bits() == b.to_bits());
            out.check(same, || {
                format!("band ({zoom}, {ty}): instrumented sweep differs from tile::compute_band")
            });
        }
    }
    band_ms
}
