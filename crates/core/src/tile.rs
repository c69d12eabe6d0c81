//! Tile-decomposed sweep computation — the compute layer under the
//! `kdv-serve` tile cache (an extension beyond the paper).
//!
//! Interactive pan/zoom workloads (the paper's Section 1 motivation and
//! Figure 16) re-request overlapping viewports of the same point set. A
//! tile cache amortises that repetition, but only if a tile's bits do not
//! depend on which viewport asked for it and if stitched tiles reproduce
//! the monolithic raster *exactly* — approximation is what the SLAM family
//! exists to avoid.
//!
//! Both properties fall out of the sweep's structure. The monolithic
//! drivers ([`crate::driver::sweep_grid`]) process the raster one pixel
//! row at a time and rows never interact: each row sweep reads only its
//! own envelope set and writes only its own output row. The tiles of a
//! *tile row band* (all tiles covering the same `tile_size` pixel rows)
//! can therefore be computed by running the ordinary row sweeps for
//! exactly those rows and slicing the results into tiles:
//!
//! * **Bitwise-identical stitching.** Every pixel is produced by the same
//!   floating-point program as in the monolithic sweep — same
//!   [`crate::driver::SweepContext`] recentring, same banded envelope
//!   extraction, same rolling recentred accumulator frame walking the
//!   row from its left edge (the PR 1 precision fix carries over
//!   unchanged). Cutting the row into tiles *after* the sweep moves
//!   memory, not arithmetic.
//! * **Viewport independence.** A tile's bits are a function of the grid
//!   specification, kernel, bandwidth, weight and point set alone, so a
//!   cache keyed on those is sound. (Starting the accumulator frame at a
//!   tile's left edge instead would make the bits depend on where the
//!   enclosing sweep began — exactly the history-dependence that breaks
//!   cacheability.)
//!
//! The unit of work is a tile, not a band. A pixel's density depends
//! only on the events at or left of it (the sweep runs left to right),
//! so the tiles at columns `cols` of a band cost the row *prefixes* that
//! end at the right edge of the rightmost of them: [`compute_band_tiles`]
//! hands each row's engine the shorter pixel slice `xs[..end]` and slices
//! out only the requested tiles. The prefix is bitwise the full row's
//! prefix (the engines are unchanged; the tests pin it for both engines,
//! every kernel and weighted rows), so a tile's bits do not depend on
//! which other tiles were computed with it. [`compute_band`] is the
//! all-columns case.
//!
//! Cost: the tiles of a band whose rightmost requested column ends at
//! pixel `end` cost `O(tile_size · (end + |E|))`. The envelope `E` of a
//! row is the same whatever the prefix, so the per-interval work
//! (envelope fill and bucket scatter) is paid in full, and tiles near the
//! left edge are the cheapest; exactness is the price of that floor.
//!
//! Assembly is the other half: [`assemble`] cuts any pixel window out of
//! a set of tiles, and it is the only assembly path — [`stitch`] is
//! `assemble` over the whole raster, and both `kdv-serve` servers answer
//! every viewport with it. It writes the window row by row into one
//! buffer reserved up front, appending each overlapping tile's row
//! segment, so every pixel is written once and nothing is zero-filled.
//! A viewport whose tiles are all cached therefore costs one copy of its
//! pixels; for a 1024 × 768 viewport that copy (6.3 MB) is most of the
//! request.

use std::ops::Range;

use crate::driver::{KdvParams, RowEngine, SweepContext};
use crate::envelope::EnvelopeBuffer;
use crate::error::{KdvError, Result};
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::parallel::for_each_index_with;
use crate::sweep_bucket::BucketSweep;

/// Partition of an `X × Y` raster into square tiles of side `tile_size`
/// (edge tiles are clipped). Pure index arithmetic — the geometry stays in
/// [`crate::grid::GridSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Raster width in pixels.
    pub res_x: usize,
    /// Raster height in pixels.
    pub res_y: usize,
    /// Tile side length in pixels (≥ 1).
    pub tile_size: usize,
}

impl Tiling {
    /// Creates a tiling; `tile_size` must be at least 1.
    pub fn new(res_x: usize, res_y: usize, tile_size: usize) -> Result<Self> {
        if res_x == 0 || res_y == 0 {
            return Err(KdvError::EmptyResolution { x: res_x, y: res_y });
        }
        if tile_size == 0 {
            return Err(KdvError::InvalidTileSize { tile_size });
        }
        Ok(Self { res_x, res_y, tile_size })
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> usize {
        self.res_x.div_ceil(self.tile_size)
    }

    /// Number of tile rows (bands).
    #[inline]
    pub fn tiles_y(&self) -> usize {
        self.res_y.div_ceil(self.tile_size)
    }

    /// Total tile count.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_x() * self.tiles_y()
    }

    /// Pixel columns covered by tile column `tx` (clipped at the raster
    /// edge).
    #[inline]
    pub fn tile_cols(&self, tx: usize) -> Range<usize> {
        let start = tx * self.tile_size;
        start..(start + self.tile_size).min(self.res_x)
    }

    /// Pixel rows covered by tile row `ty` (clipped at the raster edge).
    #[inline]
    pub fn tile_rows(&self, ty: usize) -> Range<usize> {
        let start = ty * self.tile_size;
        start..(start + self.tile_size).min(self.res_y)
    }

    /// Position of tile `(tx, ty)` in the row-major tile order emitted by
    /// [`compute_tiles`].
    #[inline]
    pub fn index_of(&self, tx: usize, ty: usize) -> usize {
        ty * self.tiles_x() + tx
    }
}

/// One computed tile: a row-major density buffer covering pixel columns
/// `tx·tile_size..` and rows `ty·tile_size..` of the parent raster.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Tile column in the parent tiling.
    pub tx: usize,
    /// Tile row in the parent tiling.
    pub ty: usize,
    /// Width in pixels (may be clipped at the raster edge).
    pub width: usize,
    /// Height in pixels (may be clipped at the raster edge).
    pub height: usize,
    values: Vec<f64>,
}

impl Tile {
    /// Builds a tile from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `values.len() != width * height`.
    pub fn new(tx: usize, ty: usize, width: usize, height: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), width * height, "tile buffer/extent mismatch");
        Self { tx, ty, width, height, values }
    }

    /// Density at tile-local pixel `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[j * self.width + i]
    }

    /// The row-major density buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Tile-local row `j` as a slice.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        &self.values[j * self.width..(j + 1) * self.width]
    }

    /// Heap bytes held by the density buffer (the unit of the cache's
    /// byte budget, matching the `space_bytes()` accounting convention).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }
}

/// Runs the ordinary full-width row sweeps for `rows`, writing the
/// results row-major into `out` (`rows.len() × ctx.xs.len()`). Rows whose
/// envelope band is empty are skipped and set to exactly zero, as in
/// [`crate::driver::sweep_grid`]. A weighted context sweeps each row with
/// its band's weights. This is the canonical
/// band computation shared by the monolithic and stitched drivers and the
/// `kdv-serve` tile cache: running it for any row range produces the same
/// bits the monolithic sweep produces for those rows.
pub fn sweep_rows<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    out: &mut [f64],
) {
    sweep_row_prefixes(ctx, bandwidth, rows, ctx.xs.len(), engine, envelope, out);
}

/// [`sweep_rows`] over the pixel prefix `xs[..end]` of each row: `out`
/// is `rows.len() × end`, and each of its rows is bitwise the first `end`
/// pixels of the full row.
///
/// # Panics
/// Panics if `end` is zero or past the row, or if `out` is not
/// `rows.len() × end`.
pub fn sweep_row_prefixes<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    end: usize,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    out: &mut [f64],
) {
    assert!((1..=ctx.xs.len()).contains(&end), "row prefix must be non-empty and inside the row");
    assert_eq!(out.len(), rows.len() * end, "band buffer/row-range mismatch");
    for (j, out) in rows.zip(out.chunks_exact_mut(end)) {
        let k = ctx.ks[j];
        let band = {
            let _s = kdv_obs::span1("band.search", "row", j as u64);
            ctx.index.band(bandwidth, k)
        };
        if band.is_empty() {
            out.fill(0.0);
            continue;
        }
        let intervals = {
            let mut s = kdv_obs::span1("envelope.fill", "row", j as u64);
            let intervals = envelope.fill_band(&ctx.index, band.clone(), bandwidth, k);
            s.arg("size", intervals.len() as u64);
            intervals
        };
        let _s = kdv_obs::span1("row.sweep", "row", j as u64);
        ctx.sweep_row(engine, band, k, intervals, out);
    }
}

/// Computes one tile row band — the ordinary full-width row sweeps for
/// band `ty`, sliced into that band's tiles (in `tx` order): the
/// all-columns case of [`compute_band_tiles`]. `band` is reusable
/// scratch (resized as needed).
pub fn compute_band<E: RowEngine>(
    ctx: &SweepContext,
    tiling: &Tiling,
    bandwidth: f64,
    ty: usize,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    band: &mut Vec<f64>,
) -> Vec<Tile> {
    let cols: Vec<usize> = (0..tiling.tiles_x()).collect();
    compute_band_tiles(ctx, tiling, bandwidth, ty, &cols, engine, envelope, band)
}

/// Computes the tiles at columns `cols` of band `ty`, in the order
/// given — the unit the `kdv-serve` tile server computes on a miss. Each
/// row of the band is swept only over the pixel prefix that ends at the
/// right edge of the rightmost requested tile, and only the requested
/// tiles are sliced out. Every tile is bitwise the tile [`compute_band`]
/// returns at that position. `band` is reusable scratch (resized as
/// needed); an empty `cols` computes nothing.
///
/// # Panics
/// Panics if a column is outside the tiling.
#[allow(clippy::too_many_arguments)]
pub fn compute_band_tiles<E: RowEngine>(
    ctx: &SweepContext,
    tiling: &Tiling,
    bandwidth: f64,
    ty: usize,
    cols: &[usize],
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    band: &mut Vec<f64>,
) -> Vec<Tile> {
    let Some(&last) = cols.iter().max() else {
        return Vec::new();
    };
    assert!(last < tiling.tiles_x(), "tile column outside the tiling");
    let rows = tiling.tile_rows(ty);
    let end = tiling.tile_cols(last).end;
    let mut s = kdv_obs::span2("tile.band", "ty", ty as u64, "rows", rows.len() as u64);
    s.arg("end", end as u64);
    band.resize(rows.len() * end, 0.0);
    sweep_row_prefixes(ctx, bandwidth, rows, end, engine, envelope, band);
    slice_band_tiles(tiling, ty, end, cols, band)
}

/// Band accumulation — the streaming patch primitive. Runs the row
/// sweeps for `rows` over the pixel prefix `xs[..end]` of `ctx` (a
/// weighted context built over a *delta batch*, not the base set) into
/// `scratch`, then folds the result elementwise into `out`, the
/// `rows.len() × end` prefix band of the existing densities.
///
/// Kernel sums are additive, so `base band + delta band` is the live
/// band; signed weights make the same call an append (`+w`) or an
/// expiration (`-w`). Exactly-zero delta pixels are *skipped* rather
/// than added: `t + 0.0` flushes a `-0.0` to `+0.0`, so skipping keeps
/// the fold bit-transparent for pixels the delta cannot touch — a batch
/// outside the band's bandwidth radius folds to a perfect no-op, and the
/// caller may elide it entirely without changing a bit. Both the cold
/// rebuild path and the cached-tile patch path in `kdv-serve` go through
/// this one function, which is what makes patch-then-serve bitwise-equal
/// to rebuild-from-scratch by construction. A prefix fold is bitwise the
/// first `end` pixels of the full-width fold, as for [`sweep_row_prefixes`].
///
/// # Panics
/// Panics if `end` is zero or past the row, or if `out` is not
/// `rows.len() × end`.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_rows<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    end: usize,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len() * end, "band buffer/row-range mismatch");
    let _s =
        kdv_obs::span2("tile.patch", "rows", rows.len() as u64, "points", ctx.points.len() as u64);
    scratch.resize(rows.len() * end, 0.0);
    sweep_row_prefixes(ctx, bandwidth, rows, end, engine, envelope, scratch);
    for (o, &d) in out.iter_mut().zip(scratch.iter()) {
        if d != 0.0 {
            *o += d;
        }
    }
}

/// Cuts the tiles at columns `cols` of band `ty` (in the order given)
/// out of `band`, the band's `rows × end` prefix buffer (as
/// [`sweep_row_prefixes`] and [`accumulate_rows`] fill it) — pure memory
/// movement, shared by [`compute_band_tiles`] and the `kdv-serve` patch
/// and cold paths.
///
/// # Panics
/// Panics if a column ends past `end`.
pub fn slice_band_tiles(
    tiling: &Tiling,
    ty: usize,
    end: usize,
    cols: &[usize],
    band: &[f64],
) -> Vec<Tile> {
    let _s = kdv_obs::span1("tile.slice", "tiles", cols.len() as u64);
    let height = tiling.tile_rows(ty).len();
    cols.iter()
        .map(|&tx| {
            let cols = tiling.tile_cols(tx);
            assert!(cols.end <= end, "tile column past the band prefix");
            let mut values = Vec::with_capacity(cols.len() * height);
            for row in band.chunks_exact(end).take(height) {
                values.extend_from_slice(&row[cols.clone()]);
            }
            Tile::new(tx, ty, cols.len(), height, values)
        })
        .collect()
}

/// Per-worker scratch of the band computations: the bucket row engine,
/// its envelope buffer, the band being built (full raster width,
/// row-major) and the delta buffer of [`accumulate_rows`]. Everything
/// grows on first use and stays warm across bands.
pub struct BandWorkspace {
    /// Row engine configured for the level's kernel parameters.
    pub engine: BucketSweep,
    /// Envelope buffer reused across rows.
    pub envelope: EnvelopeBuffer,
    /// The band's densities.
    pub band: Vec<f64>,
    /// Delta rows folded into `band` by [`accumulate_rows`].
    pub delta: Vec<f64>,
}

impl BandWorkspace {
    /// An empty workspace whose engine sweeps under `params`.
    pub fn new(params: &KdvParams) -> Self {
        Self {
            engine: BucketSweep::new(params.kernel, params.bandwidth, params.weight),
            envelope: EnvelopeBuffer::new(),
            band: Vec::new(),
            delta: Vec::new(),
        }
    }
}

/// Computes every tile of the raster with SLAM_BUCKET row sweeps, one
/// shared full-width sweep per row band. Tiles are returned in row-major
/// `(ty, tx)` order (see [`Tiling::index_of`]): [`compute_tiles_parallel`]
/// on one worker.
pub fn compute_tiles(params: &KdvParams, points: &[Point], tile_size: usize) -> Result<Vec<Tile>> {
    compute_tiles_parallel(params, points, tile_size, 1)
}

/// [`compute_tiles`] with row bands distributed over the work-stealing
/// runtime (`threads == 0` means "auto", as everywhere). Each band is
/// swept start-to-finish by one worker's engine, so the output is bitwise
/// identical to the sequential path for every thread count.
pub fn compute_tiles_parallel(
    params: &KdvParams,
    points: &[Point],
    tile_size: usize,
    threads: usize,
) -> Result<Vec<Tile>> {
    let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size)?;
    let ctx = SweepContext::new(params, points)?;
    let per_band: Vec<Vec<Tile>> = for_each_index_with(
        tiling.tiles_y(),
        threads,
        || BandWorkspace::new(params),
        |ws, ty| {
            let BandWorkspace { engine, envelope, band, .. } = ws;
            compute_band(&ctx, &tiling, params.bandwidth, ty, engine, envelope, band)
        },
    );
    Ok(per_band.into_iter().flatten().collect())
}

/// Assembles the `width × height` pixel window at `(px, py)` of the
/// tiled raster from its overlapping tiles; `tile_at(tx, ty)` returns
/// the tile at that position of `tiling`.
///
/// The window is written row by row into one buffer reserved up front:
/// each output row is the concatenation of the overlapping tiles' row
/// segments, appended with `extend_from_slice`, so every pixel is
/// written exactly once and nothing is zero-filled first.
///
/// # Panics
/// Panics if the window is empty or leaves the raster, or if a tile's
/// extent disagrees with the tiling.
pub fn assemble<'t>(
    tiling: &Tiling,
    px: usize,
    py: usize,
    width: usize,
    height: usize,
    mut tile_at: impl FnMut(usize, usize) -> &'t Tile,
) -> DensityGrid {
    assert!(
        (1..=tiling.res_x.saturating_sub(px)).contains(&width)
            && (1..=tiling.res_y.saturating_sub(py)).contains(&height),
        "window must be non-empty and inside the raster"
    );
    let (x_end, y_end) = (px + width, py + height);
    let size = tiling.tile_size;
    let col_tiles = px / size..(x_end - 1) / size + 1;
    let mut values = Vec::with_capacity(width * height);
    for ty in py / size..(y_end - 1) / size + 1 {
        let rows = tiling.tile_rows(ty);
        for y in py.max(rows.start)..y_end.min(rows.end) {
            for tx in col_tiles.clone() {
                let cols = tiling.tile_cols(tx);
                let tile = tile_at(tx, ty);
                assert_eq!(
                    (tile.width, tile.height),
                    (cols.len(), rows.len()),
                    "tile extent mismatch"
                );
                let (x0, x1) = (px.max(cols.start), x_end.min(cols.end));
                values
                    .extend_from_slice(&tile.row(y - rows.start)[x0 - cols.start..x1 - cols.start]);
            }
        }
    }
    DensityGrid::from_values(width, height, values)
}

/// Reassembles tiles (in any order) into the full raster: [`assemble`]
/// over the whole tiling.
///
/// # Panics
/// Panics if the tile count or a tile's extent disagrees with the tiling
/// or a pixel is left uncovered (a missing or duplicated tile) — a
/// stitching bug must never degrade silently into a half-zero raster.
pub fn stitch(tiling: &Tiling, tiles: &[Tile]) -> DensityGrid {
    let _s = kdv_obs::span1("tile.stitch", "tiles", tiles.len() as u64);
    assert_eq!(tiles.len(), tiling.tile_count(), "tile count mismatch");
    let mut by_index: Vec<Option<&Tile>> = vec![None; tiles.len()];
    for tile in tiles {
        assert!(tile.tx < tiling.tiles_x() && tile.ty < tiling.tiles_y(), "tile extent mismatch");
        by_index[tiling.index_of(tile.tx, tile.ty)] = Some(tile);
    }
    assemble(tiling, 0, 0, tiling.res_x, tiling.res_y, |tx, ty| {
        by_index[tiling.index_of(tx, ty)].expect("stitched tiles must cover every pixel")
    })
}

/// Computes the raster through the tile path — partition, per-band sweep,
/// stitch — and returns the reassembled grid. Bitwise identical to
/// [`crate::sweep_bucket::compute`] for every `tile_size` (the conformance
/// harness holds this to the exact policy).
pub fn compute_stitched(
    params: &KdvParams,
    points: &[Point],
    tile_size: usize,
) -> Result<DensityGrid> {
    let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size)?;
    let tiles = compute_tiles(params, points, tile_size)?;
    Ok(stitch(&tiling, &tiles))
}

/// Parallel [`compute_stitched`]; bitwise identical for every thread
/// count.
pub fn compute_stitched_parallel(
    params: &KdvParams,
    points: &[Point],
    tile_size: usize,
    threads: usize,
) -> Result<DensityGrid> {
    let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size)?;
    let tiles = compute_tiles_parallel(params, points, tile_size, threads)?;
    Ok(stitch(&tiling, &tiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sweep_grid;
    use crate::geom::Rect;
    use crate::grid::GridSpec;
    use crate::kernel::KernelType;
    use crate::sweep_bucket;

    fn setup(res_x: usize, res_y: usize, bandwidth: f64) -> (KdvParams, Vec<Point>) {
        let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), res_x, res_y).unwrap();
        let params = KdvParams::new(grid, KernelType::Quartic, bandwidth).with_weight(0.004);
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts = (0..400).map(|_| Point::new(-20.0 + next() * 120.0, next() * 80.0)).collect();
        (params, pts)
    }

    #[test]
    fn tiling_partitions_exactly() {
        let t = Tiling::new(100, 37, 16).unwrap();
        assert_eq!((t.tiles_x(), t.tiles_y()), (7, 3));
        assert_eq!(t.tile_cols(6), 96..100);
        assert_eq!(t.tile_rows(2), 32..37);
        let covered: usize = (0..t.tiles_y()).map(|ty| t.tile_rows(ty).len() * t.res_x).sum();
        assert_eq!(covered, 100 * 37);
        assert!(Tiling::new(10, 10, 0).is_err());
        assert!(Tiling::new(0, 10, 4).is_err());
    }

    #[test]
    fn stitched_matches_monolithic_bitwise() {
        let (params, pts) = setup(50, 33, 12.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        for tile_size in [1, 7, 16, 33, 50, 256] {
            let stitched = compute_stitched(&params, &pts, tile_size).unwrap();
            assert_eq!(stitched, mono, "tile_size={tile_size}");
        }
    }

    #[test]
    fn parallel_tiles_match_sequential_bitwise() {
        let (params, pts) = setup(41, 29, 8.0);
        let seq = compute_tiles(&params, &pts, 16).unwrap();
        for threads in [1, 2, 5] {
            let par = compute_tiles_parallel(&params, &pts, 16, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn tiles_smaller_than_bandwidth_still_exact() {
        // bandwidth spans many tiles: interval endpoints cross every seam
        let (params, pts) = setup(64, 48, 55.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        let stitched = compute_stitched(&params, &pts, 4).unwrap();
        assert_eq!(stitched, mono);
    }

    #[test]
    fn sweep_rows_agrees_with_sweep_grid_rows() {
        let (params, pts) = setup(30, 24, 9.0);
        let full = {
            let mut engine = BucketSweep::new(params.kernel, params.bandwidth, params.weight);
            sweep_grid(&params, &pts, &mut engine).unwrap()
        };
        let ctx = SweepContext::new(&params, &pts).unwrap();
        let mut engine = BucketSweep::new(params.kernel, params.bandwidth, params.weight);
        let mut envelope = EnvelopeBuffer::for_points(ctx.points.len());
        let rows = 5..17;
        let mut out = vec![f64::NAN; rows.len() * 30];
        sweep_rows(&ctx, params.bandwidth, rows.clone(), &mut engine, &mut envelope, &mut out);
        for (slot, j) in rows.enumerate() {
            assert_eq!(&out[slot * 30..(slot + 1) * 30], full.row(j), "row {j}");
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Sweeps `xs` whole and then each prefix `xs[..e]` for `e` in `ends`
    /// with `sweep`, and asserts each prefix row is bitwise the first `e`
    /// pixels of the full row.
    fn assert_prefixes_match(
        xs: &[f64],
        ends: &[usize],
        what: &str,
        mut sweep: impl FnMut(&[f64], &mut [f64]),
    ) {
        let mut full = vec![f64::NAN; xs.len()];
        sweep(xs, &mut full);
        for &e in ends {
            let mut prefix = vec![f64::NAN; e];
            sweep(&xs[..e], &mut prefix);
            assert_eq!(bits(&prefix), bits(&full[..e]), "{what}: prefix of {e} pixels");
        }
    }

    #[test]
    fn row_prefix_sweeps_equal_full_row_prefixes_bitwise() {
        // The serving layer computes a tile from the row prefix that ends at
        // its right edge; this pins that the unchanged engines give exactly
        // the full row's prefix, unit and weighted, for every kernel.
        let (_, pts) = setup(1, 1, 1.0);
        let mut state = 0x7E57_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n
        };
        // width 1 is the single-pixel row whose bucket guess has
        // `inv_gap = 0`; every `e = 1` prefix is one too
        for width in [1, 97, 331, 2560] {
            let mut ends = vec![1, width];
            ends.extend((0..6).map(|_| 1 + below(width)));
            for kernel in KernelType::ALL {
                let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), width, 5).unwrap();
                let params = KdvParams::new(grid, kernel, 12.0).with_weight(0.004);
                let ctx = SweepContext::new(&params, &pts).unwrap();
                let mut envelope = EnvelopeBuffer::new();
                let mut bucket = BucketSweep::new(kernel, params.bandwidth, params.weight);
                let mut sort =
                    crate::sweep_sort::SortSweep::new(kernel, params.bandwidth, params.weight);
                for (j, &k) in ctx.ks.iter().enumerate() {
                    let band = ctx.index.band(params.bandwidth, k);
                    let intervals = envelope.fill_band(&ctx.index, band, params.bandwidth, k);
                    assert!(!intervals.is_empty(), "row {j} should have an envelope");
                    let weights: Vec<f64> =
                        (0..intervals.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
                    let what = format!("{kernel:?} width {width} row {j}");
                    assert_prefixes_match(&ctx.xs, &ends, &format!("bucket {what}"), |xs, out| {
                        bucket.process_row(xs, k, intervals, out)
                    });
                    assert_prefixes_match(&ctx.xs, &ends, &format!("sort {what}"), |xs, out| {
                        sort.process_row(xs, k, intervals, out)
                    });
                    assert_prefixes_match(
                        &ctx.xs,
                        &ends,
                        &format!("weighted bucket {what}"),
                        |xs, out| bucket.process_weighted_row(xs, k, intervals, &weights, out),
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_folds_equal_full_width_folds_bitwise() {
        // The serving layer patches a tile over the row prefix that ends
        // at its right edge: the base sweep plus each signed batch folded
        // over `xs[..e]` must be exactly the first `e` pixels of the same
        // program run over the full width.
        let (_, pts) = setup(1, 1, 1.0);
        let signed: Vec<f64> = (0..60).map(|i| if i % 3 == 0 { -1.0 } else { 1.0 }).collect();
        let expired = vec![-1.0; 40];
        let mut state = 0xF01D_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n
        };
        for width in [1, 97, 331, 2560] {
            let mut ends = vec![1, width];
            ends.extend((0..6).map(|_| 1 + below(width)));
            for kernel in KernelType::ALL {
                let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), width, 5).unwrap();
                let params = KdvParams::new(grid, kernel, 12.0).with_weight(0.004);
                let base = SweepContext::new(&params, &pts[60..]).unwrap();
                let batches = [
                    SweepContext::weighted(&params, &pts[..60], &signed).unwrap(),
                    SweepContext::weighted(&params, &pts[100..140], &expired).unwrap(),
                ];
                let mut ws = BandWorkspace::new(&params);
                let mut fold = |end: usize| {
                    let BandWorkspace { engine, envelope, delta, .. } = &mut ws;
                    let mut out = vec![f64::NAN; 5 * end];
                    sweep_row_prefixes(
                        &base,
                        params.bandwidth,
                        0..5,
                        end,
                        engine,
                        envelope,
                        &mut out,
                    );
                    for batch in &batches {
                        accumulate_rows(
                            batch,
                            params.bandwidth,
                            0..5,
                            end,
                            engine,
                            envelope,
                            delta,
                            &mut out,
                        );
                    }
                    out
                };
                let full = fold(width);
                for &e in &ends {
                    let prefix = fold(e);
                    for j in 0..5 {
                        assert_eq!(
                            bits(&prefix[j * e..(j + 1) * e]),
                            bits(&full[j * width..j * width + e]),
                            "{kernel:?} width {width} row {j}: fold over a prefix of {e} pixels"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn band_tiles_of_any_column_subset_match_compute_band_bitwise() {
        // 50 × 33 in tiles of 7: the last column and band are clipped
        let (params, pts) = setup(50, 33, 12.0);
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 9) as f64 * 0.5).collect();
        let tiling = Tiling::new(50, 33, 7).unwrap();
        let subsets: [&[usize]; 7] =
            [&[0], &[6], &[3], &[0, 1, 2], &[2, 5], &[6, 0, 4], &[0, 1, 2, 3, 4, 5, 6]];
        for ctx in [
            SweepContext::new(&params, &pts).unwrap(),
            SweepContext::weighted(&params, &pts, &weights).unwrap(),
        ] {
            let mut ws = BandWorkspace::new(&params);
            for ty in 0..tiling.tiles_y() {
                let BandWorkspace { engine, envelope, band, .. } = &mut ws;
                let whole =
                    compute_band(&ctx, &tiling, params.bandwidth, ty, engine, envelope, band);
                for cols in subsets {
                    let tiles = compute_band_tiles(
                        &ctx,
                        &tiling,
                        params.bandwidth,
                        ty,
                        cols,
                        engine,
                        envelope,
                        band,
                    );
                    assert_eq!(tiles.len(), cols.len());
                    for (tile, &tx) in tiles.iter().zip(cols) {
                        assert_eq!((tile.tx, tile.ty), (tx, ty));
                        assert_eq!(bits(tile.values()), bits(whole[tx].values()), "({tx}, {ty})");
                        assert_eq!((tile.width, tile.height), (whole[tx].width, whole[tx].height));
                    }
                }
                let none = compute_band_tiles(
                    &ctx,
                    &tiling,
                    params.bandwidth,
                    ty,
                    &[],
                    engine,
                    envelope,
                    band,
                );
                assert!(none.is_empty());
            }
        }
    }

    #[test]
    fn weighted_band_matches_monolithic_weighted_bitwise() {
        // wide raster: compute_weighted takes the non-RAO row path, which
        // is the exact floating-point program the band sweep re-runs, so
        // agreement is bitwise.
        let (params, pts) = setup(50, 33, 12.0);
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 9) as f64 * 0.5).collect();
        let mono = crate::weighted::compute_weighted(&params, &pts, &weights).unwrap();
        let ctx = SweepContext::weighted(&params, &pts, &weights).unwrap();
        for tile_size in [1, 7, 16, 33] {
            let tiling = Tiling::new(50, 33, tile_size).unwrap();
            let mut ws = BandWorkspace::new(&params);
            let mut tiles = Vec::new();
            for ty in 0..tiling.tiles_y() {
                tiles.extend(compute_band(
                    &ctx,
                    &tiling,
                    params.bandwidth,
                    ty,
                    &mut ws.engine,
                    &mut ws.envelope,
                    &mut ws.band,
                ));
            }
            let stitched = stitch(&tiling, &tiles);
            assert_eq!(stitched, mono, "tile_size={tile_size}");
        }
    }

    #[test]
    fn weighted_rows_match_full_weighted_rows() {
        let (params, pts) = setup(30, 24, 9.0);
        let weights: Vec<f64> = (0..pts.len()).map(|i| (i % 5) as f64 * 0.3 + 0.1).collect();
        let full = crate::weighted::compute_weighted(&params, &pts, &weights).unwrap();
        let ctx = SweepContext::weighted(&params, &pts, &weights).unwrap();
        let mut engine = BucketSweep::new(params.kernel, params.bandwidth, params.weight);
        let rows = 4..19;
        let mut out = vec![f64::NAN; rows.len() * 30];
        sweep_rows(
            &ctx,
            params.bandwidth,
            rows.clone(),
            &mut engine,
            &mut EnvelopeBuffer::new(),
            &mut out,
        );
        for (slot, j) in rows.enumerate() {
            assert_eq!(&out[slot * 30..(slot + 1) * 30], full.row(j), "row {j}");
        }
    }

    #[test]
    #[should_panic(expected = "unit weights only")]
    fn weighted_context_rejects_a_unit_only_engine() {
        let (params, pts) = setup(12, 9, 9.0);
        let ctx = SweepContext::weighted(&params, &pts, &vec![2.0; pts.len()]).unwrap();
        let mut engine =
            crate::sweep_sort::SortSweep::new(params.kernel, params.bandwidth, params.weight);
        let mut out = vec![0.0; 9 * 12];
        sweep_rows(&ctx, params.bandwidth, 0..9, &mut engine, &mut EnvelopeBuffer::new(), &mut out);
    }

    #[test]
    fn stitch_panics_on_missing_tile() {
        let tiling = Tiling::new(8, 8, 4).unwrap();
        let tiles: Vec<Tile> =
            (0..3).map(|i| Tile::new(i % 2, i / 2, 4, 4, vec![0.0; 16])).collect();
        let result = std::panic::catch_unwind(|| stitch(&tiling, &tiles));
        assert!(result.is_err());
    }

    #[test]
    fn stitch_panics_on_duplicate_tile() {
        // right count, but (0, 0) twice and (1, 1) never
        let tiling = Tiling::new(8, 8, 4).unwrap();
        let tiles: Vec<Tile> = [(0, 0), (1, 0), (0, 1), (0, 0)]
            .iter()
            .map(|&(tx, ty)| Tile::new(tx, ty, 4, 4, vec![0.0; 16]))
            .collect();
        let result = std::panic::catch_unwind(|| stitch(&tiling, &tiles));
        assert!(result.is_err());
    }

    #[test]
    fn stitch_panics_on_tile_outside_the_tiling() {
        let tiling = Tiling::new(8, 4, 4).unwrap();
        let tiles = vec![Tile::new(0, 0, 4, 4, vec![0.0; 16]), Tile::new(2, 0, 0, 4, Vec::new())];
        let result = std::panic::catch_unwind(|| stitch(&tiling, &tiles));
        assert!(result.is_err());
    }

    #[test]
    fn assembled_windows_match_monolithic_crops_bitwise() {
        // 23 × 17 in tiles of 5: the last column and row are clipped
        let (params, pts) = setup(23, 17, 9.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        let tiling = Tiling::new(23, 17, 5).unwrap();
        let tiles = compute_tiles(&params, &pts, 5).unwrap();
        let mut windows = vec![(0, 0, 23, 17), (22, 16, 1, 1), (5, 10, 5, 5), (20, 15, 3, 2)];
        windows.extend((0..5).flat_map(|x| (0..5).map(move |y| (5 + x, y, 11 - x, 9 + y))));
        for (px, py, width, height) in windows {
            let grid =
                assemble(&tiling, px, py, width, height, |tx, ty| &tiles[tiling.index_of(tx, ty)]);
            assert_eq!((grid.res_x(), grid.res_y()), (width, height));
            for j in 0..height {
                assert_eq!(grid.row(j), &mono.row(py + j)[px..px + width], "({px}, {py}) row {j}");
            }
        }
    }

    #[test]
    fn assemble_rejects_windows_outside_the_raster() {
        let tiling = Tiling::new(8, 8, 4).unwrap();
        let tile = Tile::new(0, 0, 4, 4, vec![0.0; 16]);
        for (px, py, width, height) in
            [(0, 0, 0, 1), (0, 0, 9, 1), (7, 0, 2, 1), (usize::MAX, 0, 2, 1)]
        {
            let result =
                std::panic::catch_unwind(|| assemble(&tiling, px, py, width, height, |_, _| &tile));
            assert!(result.is_err(), "({px}, {py}, {width}, {height})");
        }
    }

    #[test]
    fn empty_input_stitches_to_zero() {
        let (params, _) = setup(20, 20, 5.0);
        let stitched = compute_stitched(&params, &[], 7).unwrap();
        assert_eq!(stitched.max_value(), 0.0);
    }
}
