//! A panning session with a zoom excursion, under a cache of a third of
//! the pyramid: the excursion pushes panned tiles out of the cache, and
//! every re-missed tile must then sweep only its own columns. Its band's
//! earlier sweep checkpointed the tile's left edge, and the checkpoint
//! SLRU keeps that state after the tile itself is gone, so the cold run
//! resumes exactly there (its `tile.band` span's `start`) and its pixels
//! stay bitwise the crop of the level raster.
//!
//! The test toggles the process-global span recorder, so it holds
//! `kdv_obs::span::exclusive()` and lives in its own integration binary.

use std::collections::{BTreeMap, HashSet};

use kdv_core::tile::Tile;
use kdv_core::{sweep_bucket, DensityGrid, KernelType, Point, Rect};
use kdv_serve::{PyramidSpec, ServeConfig, TileCoord, TileKey, TileServer, Viewport};

/// The benchmark's session geometry at a quarter of its size: 64-px
/// tiles, a 80×60 base, zooms 0..=3 and 256×192 viewports.
const TILE: usize = 64;
const VIEW: (usize, usize) = (256, 192);

fn config() -> ServeConfig {
    ServeConfig { dataset: 5, kernel: KernelType::Epanechnikov, bandwidth: 9.0, weight: 0.002 }
}

fn points() -> Vec<Point> {
    let mut state = 0x5E55_1011_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..500).map(|_| Point::new(next() * 160.0, next() * 120.0)).collect()
}

/// Bytes of every tile of every level, as the cache counts them.
fn pyramid_bytes(pyramid: &PyramidSpec) -> usize {
    (0..=pyramid.max_zoom)
        .map(|z| {
            let (rx, ry) = pyramid.level_res(z);
            rx * ry * 8 + pyramid.level_tiling(z).tile_count() * std::mem::size_of::<Tile>()
        })
        .sum()
}

/// Quarter-viewport pans in seeded directions at `zoom`, from the
/// level's centre, clamped to the level.
fn pans(pyramid: &PyramidSpec, zoom: u8, seed: u64, steps: usize) -> Vec<Viewport> {
    let (rx, ry) = pyramid.level_res(zoom);
    let (mut px, mut py) = ((rx - VIEW.0) / 2, (ry - VIEW.1) / 2);
    let mut state = seed;
    (0..steps)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (dx, dy) = (VIEW.0 / 4, VIEW.1 / 4);
            match state % 4 {
                0 => px = (px + dx).min(rx - VIEW.0),
                1 => px = px.saturating_sub(dx),
                2 => py = (py + dy).min(ry - VIEW.1),
                _ => py = py.saturating_sub(dy),
            }
            Viewport { zoom, px, py, width: VIEW.0, height: VIEW.1 }
        })
        .collect()
}

fn crop(level: &DensityGrid, vp: &Viewport) -> Vec<u64> {
    (0..vp.height)
        .flat_map(|j| &level.row(vp.py + j)[vp.px..vp.px + vp.width])
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn re_missed_tiles_resume_at_their_left_edge_after_a_zoom_excursion() {
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 160.0, 120.0), TILE, 80, 60, 3).unwrap();
    let cfg = config();
    let pts = points();
    let server = TileServer::new(pyramid, cfg, pts.clone(), pyramid_bytes(&pyramid) / 3, 1);
    let levels: BTreeMap<u8, DensityGrid> = (2..=3)
        .map(|z| {
            let params = pyramid.level_params(z, cfg.kernel, cfg.bandwidth, cfg.weight);
            (z, sweep_bucket::compute(&params, &pts).unwrap())
        })
        .collect();
    let cached = |zoom, tx, ty| {
        let coord = TileCoord { zoom, tx: tx as u32, ty: ty as u32 };
        let key = TileKey::new(cfg.dataset, cfg.kernel, cfg.bandwidth, cfg.weight, coord, 0);
        server.cache().peek(&key).is_some()
    };

    // Pan at zoom 2, zoom in to 3 about the last centre for one request,
    // and pan the same path again: the panned tiles the excursion pushed
    // out are re-missed, and so are the excursion's own on its next turn.
    let mut cycle = pans(&pyramid, 2, 0x9A45, 12);
    let last = cycle[cycle.len() - 1];
    let centre = (2 * last.px + VIEW.0, 2 * last.py + VIEW.1);
    let (rx, ry) = pyramid.level_res(3);
    let (px, py) =
        ((centre.0 - VIEW.0 / 2).min(rx - VIEW.0), (centre.1 - VIEW.1 / 2).min(ry - VIEW.1));
    cycle.push(Viewport { zoom: 3, px, py, width: VIEW.0, height: VIEW.1 });
    let walk: Vec<Viewport> = cycle.iter().cycle().take(3 * cycle.len()).copied().collect();

    let _guard = kdv_obs::span::exclusive();
    let mut computed: HashSet<(u8, usize, usize)> = HashSet::new();
    let (mut resumed, mut cold_runs) = (0, 0);
    for (step, vp) in walk.iter().enumerate() {
        let cold: HashSet<(usize, usize)> = vp
            .tile_rows(TILE)
            .flat_map(|ty| vp.tile_cols(TILE).map(move |tx| (tx, ty)))
            .filter(|&(tx, ty)| !cached(vp.zoom, tx, ty))
            .collect();
        kdv_obs::span::clear();
        kdv_obs::set_enabled(true);
        let (grid, _) = server.serve_viewport(vp, 1).unwrap();
        kdv_obs::set_enabled(false);
        let trace = kdv_obs::span::take_trace();
        let bits: Vec<u64> = grid.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, crop(&levels[&vp.zoom], vp), "step {step} {vp:?}");

        for band in trace.events.iter().filter(|e| e.name == "tile.band") {
            let arg = |key| band.args.as_slice().iter().find(|a| a.0 == key).unwrap().1 as usize;
            let (ty, start) = (arg("ty"), arg("start"));
            // the run's first tile: its leftmost cold tile at or past `start`
            let first = cold
                .iter()
                .filter(|&&(tx, t)| t == ty && tx * TILE >= start)
                .map(|&(tx, _)| tx)
                .min()
                .expect("a cold run computes a cold tile");
            cold_runs += 1;
            if computed.contains(&(vp.zoom, first, ty)) {
                resumed += 1;
                assert_eq!(
                    start,
                    first * TILE,
                    "step {step} {vp:?}: band {ty} re-missed tile {first} but swept from {start}"
                );
            }
        }
        computed.extend(cold.iter().map(|&(tx, ty)| (vp.zoom, tx, ty)));
    }
    assert!(resumed > 0, "no tile was re-missed ({cold_runs} cold runs)");
    let stats = server.cache_stats();
    assert!(stats.evictions() > 0, "the excursion pushed no tile out");
    assert!(server.cache().bytes() <= server.cache().budget());
    eprintln!(
        "{cold_runs} cold runs, {resumed} of re-missed tiles; tile evictions {}, checkpoint hits {} misses {} evictions {}",
        stats.evictions(),
        stats.checkpoint_hits(),
        stats.checkpoint_misses(),
        stats.checkpoint_evictions()
    );
}
