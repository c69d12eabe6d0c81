//! Per-tile single-flight hammer.
//!
//! Eight threads request viewports that share tile row bands but want
//! different column ranges of them: left halves, right halves and
//! overlapping middles. A request leads only the tiles nobody else is
//! computing, sweeps each band up to its rightmost led tile, and joins
//! the rest, so these requests interleave leaders and joiners inside one
//! band. Every round, on a fresh server:
//!
//! * every response is bitwise-equal to a sequential cold server's,
//! * each distinct tile the viewports cover is computed exactly once
//!   (`computed` equals the count derived from the viewports),
//! * no tile is computed twice (`duplicate_computes == 0`), and
//! * no request panics, so every window tile was served (a tile a
//!   request neither found, led nor joined would trip
//!   `TileWindow::assemble`'s panic).

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use kdv_core::{KernelType, Point, Rect};
use kdv_serve::{PyramidSpec, ServeConfig, TileServer, Viewport};

const TILE: usize = 16;
const THREADS: usize = 8;
const ROUNDS: usize = 6;

fn points(n: usize) -> Vec<Point> {
    let mut state = 0x71E5u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 80.0, next() * 80.0)).collect()
}

/// Zoom 2 of this pyramid is 192 × 192 pixels: 12 × 12 tiles of 16 px.
fn make_server() -> TileServer {
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 80.0, 80.0), TILE, 48, 48, 2).unwrap();
    let config =
        ServeConfig { dataset: 11, kernel: KernelType::Quartic, bandwidth: 9.0, weight: 0.004 };
    TileServer::new(pyramid, config, points(300), 1 << 24, 4)
}

/// Eight zoom-2 viewports over the same bands 2..=5: a left half, a right
/// half, two overlapping middles and four narrower column ranges, each
/// starting one or two rows apart so the bands' clipped rows differ too.
fn viewports() -> Vec<Viewport> {
    let cols = [(0, 96), (96, 96), (48, 96), (24, 120), (0, 40), (150, 42), (70, 30), (110, 60)];
    cols.iter()
        .enumerate()
        .map(|(i, &(px, width))| Viewport { zoom: 2, px, py: 36 + i % 3, width, height: 50 })
        .collect()
}

/// Tiles one viewport covers.
fn own_tiles(vp: &Viewport) -> u64 {
    (vp.tile_cols(TILE).len() * vp.tile_rows(TILE).len()) as u64
}

/// Distinct `(zoom, tx, ty)` tiles the viewports cover.
fn distinct_tiles(viewports: &[Viewport]) -> usize {
    let mut tiles = HashSet::new();
    for vp in viewports {
        for ty in vp.tile_rows(TILE) {
            tiles.extend(vp.tile_cols(TILE).map(|tx| (vp.zoom, tx, ty)));
        }
    }
    tiles.len()
}

fn bits(grid: &kdv_core::DensityGrid) -> Vec<u64> {
    grid.values().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn hammer_column_ranges_of_shared_bands_compute_each_tile_once() {
    let viewports = viewports();
    let sequential = make_server();
    let reference: Vec<Vec<u64>> =
        viewports.iter().map(|vp| bits(&sequential.serve_viewport(vp, 1).unwrap().0)).collect();
    let expected = distinct_tiles(&viewports);
    let requested: usize = viewports.iter().map(|vp| own_tiles(vp) as usize).sum();
    assert!(expected < requested, "the viewports must share tiles");

    for round in 0..ROUNDS {
        let server = Arc::new(make_server());
        let start = Arc::new(Barrier::new(THREADS));
        let grids: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = viewports
                .iter()
                .map(|vp| {
                    let (server, start) = (Arc::clone(&server), Arc::clone(&start));
                    scope.spawn(move || {
                        start.wait();
                        let (grid, report) = server.serve_viewport(vp, 1 + round % 2).unwrap();
                        let deltas = report.cache_hits + report.cache_misses;
                        assert_eq!(deltas, own_tiles(vp), "{vp:?}");
                        bits(&grid)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a request panicked: a window tile went unserved"))
                .collect()
        });

        for ((vp, got), want) in viewports.iter().zip(&grids).zip(&reference) {
            assert_eq!(got, want, "round {round} {vp:?}: bits diverge from the sequential server");
        }
        let flights = server.flight_stats();
        assert_eq!(
            flights.computed() as usize,
            expected,
            "round {round}: each requested tile computed exactly once"
        );
        assert_eq!(flights.duplicate_computes(), 0, "round {round}: a tile was computed twice");
        assert_eq!(server.cache().len(), expected, "round {round}: only requested tiles cached");
    }
}
