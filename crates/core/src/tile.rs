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
//! and only through the sweep's state `(L, U, frame_x)` between two
//! pixels (paper Lemma 5). So [`sweep_band`] sweeps any column range
//! `s..e` of a band's rows: resumed from a [`BandCheckpoint`] — that
//! state, captured at a tile boundary by an earlier sweep of the same
//! band — or, without one, started fresh at the last pixel at or left of
//! `s` where no interval is active, because the whole-row sweep resets to
//! a fresh state there (pixel 0 is always such a pixel). Interval buckets are always computed
//! against the whole row, so a sweep that stops at `e` leaves active every
//! interval that crosses `e`, and its state there is the whole-row
//! sweep's. The swept pixels are bitwise the whole row's (the tests pin
//! it for every kernel, unit and weighted rows, resumed or not), so a
//! tile's bits do not depend on which other tiles were computed with it
//! or where the sweep that computed it began. [`compute_band_tiles`] is
//! the case `s = 0`, and [`compute_band`] its all-columns case.
//!
//! Cost: a band sweep over columns `s..e` costs
//! `O(tile_size · ((e − s) + |E_w|))`, where `E_w` is the part of a row's
//! envelope that can have an event inside `s..e`: the points with
//! `x ∈ [x_s − b, x_{e−1} + b]`, selected once per band. A cold tile that
//! resumes from a checkpoint at its left edge therefore costs its own
//! columns and the points within `b` of them, wherever it lies in the
//! row. Without a checkpoint each row's sweep starts at its last clean
//! pixel at or left of `s`: pixel 0 for the rows of a dense point set,
//! whose active sets rarely empty, but close to `s` for a sparse delta
//! batch, so folding a batch into a few tiles costs about their columns.
//! A checkpoint of a unit Epanechnikov
//! or uniform band holds 11 words (88 B) per row, about a twenty-third of
//! a 256-px tile's bytes: the accumulators keep no `Σy` for a kernel that
//! is not quartic (see [`crate::aggregate::SweepAccumulator`]).
//!
//! Assembly is the other half: [`assemble`] cuts any pixel window out of
//! a set of tiles, and it is the only assembly path — the `kdv-serve`
//! `TileServer` answers every viewport with it. It writes the window row
//! by row into one buffer reserved up front, appending each overlapping
//! tile's row segment, so every pixel is written once and nothing is
//! zero-filled.
//! A viewport whose tiles are all cached therefore costs one copy of its
//! pixels; for a 1024 × 768 viewport that copy (6.3 MB) is most of the
//! request.

use std::ops::Range;

use crate::driver::{KdvParams, RowEngine, RowSpan, SweepContext, SweepSet};
use crate::envelope::EnvelopeBuffer;
use crate::error::{KdvError, Result};
use crate::grid::DensityGrid;
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

    /// The tile boundaries a band sweep over pixel columns `cols` crosses
    /// and can checkpoint at: the left edges of tiles in
    /// `cols.start + 1..=cols.end`, ascending. The raster's right edge is
    /// not one: no sweep resumes there.
    pub fn boundaries(&self, cols: Range<usize>) -> impl Iterator<Item = usize> {
        let (end, size) = (cols.end.min(self.res_x - 1), self.tile_size);
        (cols.start / size + 1..).map(move |tx| tx * size).take_while(move |&c| c <= end)
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
/// its band's weights. This is [`sweep_band`] over whole rows: the
/// canonical band computation shared by the monolithic driver and the
/// `kdv-serve` tile cache, so running it for any row range produces the
/// same bits the monolithic sweep produces for those rows.
pub fn sweep_rows<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    out: &mut [f64],
) {
    sweep_band(ctx, bandwidth, rows, 0..ctx.xs.len(), None, &[], engine, envelope, out);
}

/// The sweep state of every row of one band at one pixel boundary — the
/// `(L, U, frame_x)` of paper Lemma 5 per row, packed into the words
/// [`RowEngine::state_words`] names. A sweep that resumes from it at
/// `boundary` computes bitwise the pixels a whole-row sweep computes
/// right of `boundary`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandCheckpoint {
    /// The pixel column the state was taken at: the sweep had processed
    /// pixels `..boundary` of each row.
    pub boundary: usize,
    /// Words per row.
    row_words: usize,
    /// Row-major states, one `row_words` chunk per row of the band
    /// (all zero for a row whose envelope band is empty).
    words: Vec<u64>,
}

impl BandCheckpoint {
    /// Heap bytes held, counted like [`Tile::bytes`].
    pub fn bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

/// The one band loop: sweeps pixels `cols` of each row of `rows` into
/// `out` (`rows.len() × cols.len()`, row-major), bitwise those pixels of
/// the whole-row sweeps, and returns the band's state at each boundary of
/// `marks` (ascending, within `cols.start + 1..=cols.end`).
///
/// The sweep starts from `resume`, a checkpoint of the same rows and
/// context taken at `cols.start`. With no `resume`, each row's sweep
/// starts fresh at the last pixel at or left of `cols.start` where none
/// of its intervals is active (pixel 0 at worst; see
/// [`RowEngine::sweep_span`]): a sparse delta batch folded over a few
/// tiles sweeps about their columns, not the whole row prefix. Unless
/// `cols` is the whole row, each row's envelope is restricted to the
/// window of points that can have an endpoint event in the swept pixels
/// (`cols` with a resume state, `0..cols.end` without), selected once for
/// the band ([`EnvelopeBuffer::set_window`]), so the per-interval work
/// scales with the swept columns as well; the events inside them are
/// exactly the whole row's, so the bits are too. Whether a row is skipped
/// as exactly zero is decided on its whole envelope band, as in
/// [`sweep_rows`].
///
/// # Panics
/// Panics if `cols` is empty or leaves the row, if `out` is not
/// `rows.len() × cols.len()`, or if an engine that sweeps whole rows
/// only is given a partial row, a `resume` or `marks`.
#[allow(clippy::too_many_arguments)]
pub fn sweep_band<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    cols: Range<usize>,
    resume: Option<&BandCheckpoint>,
    marks: &[usize],
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    out: &mut [f64],
) -> Vec<BandCheckpoint> {
    let x_count = ctx.xs.len();
    assert!(
        cols.start < cols.end && cols.end <= x_count,
        "swept pixels must be non-empty and inside the row"
    );
    assert_eq!(out.len(), rows.len() * cols.len(), "band buffer/row-range mismatch");
    // The shared set, read once per band rather than through the context
    // on every row.
    let set: &SweepSet = ctx;
    let (index, weights) = (&set.index, set.weights());
    let row_words = engine.state_words(weights.is_some());
    if let Some(from) = resume {
        assert_eq!(from.boundary, cols.start, "checkpoint taken at another pixel");
        assert_eq!(from.words.len(), rows.len() * row_words, "checkpoint of another band");
    }
    // Each row's states at the marks, row-major, regrouped by mark below.
    let mut states = vec![0u64; rows.len() * marks.len() * row_words];
    let windowed = cols.len() < x_count;
    if windowed && !rows.is_empty() {
        let (first, last) = (ctx.ks[rows.start], ctx.ks[rows.end - 1]);
        let (a, b) = (index.band(bandwidth, first), index.band(bandwidth, last));
        let points = a.start.min(b.start)..a.end.max(b.end);
        let from = if resume.is_some() { cols.start } else { 0 };
        let (x_lo, x_hi) = (ctx.xs[from], ctx.xs[cols.end - 1]);
        envelope.set_window(index, weights, points, bandwidth, x_lo, x_hi);
    }
    let per_row = marks.len() * row_words;
    for (slot, (j, out)) in rows.clone().zip(out.chunks_exact_mut(cols.len())).enumerate() {
        let k = ctx.ks[j];
        let band = {
            let _s = kdv_obs::span1("band.search", "row", j as u64);
            index.band(bandwidth, k)
        };
        if band.is_empty() {
            out.fill(0.0);
            continue;
        }
        let (intervals, row_weights) = {
            let mut s = kdv_obs::span1("envelope.fill", "row", j as u64);
            let (intervals, row_weights) = if windowed {
                let (intervals, w) = envelope.fill_window(bandwidth, k);
                (intervals, weights.map(|_| w))
            } else {
                let w = weights.map(|w| &w[band.clone()]);
                (envelope.fill_band(index, band, bandwidth, k), w)
            };
            s.arg("size", intervals.len() as u64);
            (intervals, row_weights)
        };
        let _s = kdv_obs::span1("row.sweep", "row", j as u64);
        let row = RowSpan { xs: &ctx.xs, cols: cols.clone(), k, intervals, weights: row_weights };
        let from = resume.map(|c| &c.words[slot * row_words..(slot + 1) * row_words]);
        let captured = &mut states[slot * per_row..(slot + 1) * per_row];
        engine.sweep_span(&row, from, marks, captured, out);
    }
    marks
        .iter()
        .enumerate()
        .map(|(m, &boundary)| {
            let words = states
                .chunks_exact(per_row.max(1))
                .flat_map(|row| &row[m * row_words..(m + 1) * row_words])
                .copied()
                .collect();
            BandCheckpoint { boundary, row_words, words }
        })
        .collect()
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
/// given: [`sweep_band`] from pixel 0 to the right edge of the rightmost
/// requested tile, sliced into the requested tiles. Every tile is bitwise
/// the tile [`compute_band`] returns at that position. `band` is reusable
/// scratch (resized as needed); an empty `cols` computes nothing.
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
    let span = 0..tiling.tile_cols(last).end;
    let mut s = kdv_obs::span2("tile.band", "ty", ty as u64, "rows", rows.len() as u64);
    s.arg("start", span.start as u64);
    s.arg("end", span.end as u64);
    band.resize(rows.len() * span.len(), 0.0);
    sweep_band(ctx, bandwidth, rows, span.clone(), None, &[], engine, envelope, band);
    slice_band_tiles(tiling, ty, span, cols, band)
}

/// Band accumulation — the streaming patch primitive. Sweeps pixels
/// `cols` of the rows `rows` of `ctx` (a weighted context built over a
/// *delta batch*, not the base set) into `scratch`, each row from its
/// last clean pixel at or left of `cols.start` ([`sweep_band`] with no
/// resume state), then folds them elementwise into `out`, the
/// `rows.len() × cols.len()` band of the existing densities over those
/// columns.
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
/// to rebuild-from-scratch by construction. Each folded pixel is
/// bitwise that pixel of the full-width fold, as for [`sweep_band`].
///
/// # Panics
/// Panics if `cols` is empty or leaves the row, or if `out` is not
/// `rows.len() × cols.len()`.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_rows<E: RowEngine>(
    ctx: &SweepContext,
    bandwidth: f64,
    rows: Range<usize>,
    cols: Range<usize>,
    engine: &mut E,
    envelope: &mut EnvelopeBuffer,
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len() * cols.len(), "band buffer/row-range mismatch");
    let _s =
        kdv_obs::span2("tile.patch", "rows", rows.len() as u64, "points", ctx.points.len() as u64);
    scratch.resize(rows.len() * cols.len(), 0.0);
    sweep_band(ctx, bandwidth, rows, cols.clone(), None, &[], engine, envelope, scratch);
    for (out, delta) in out.chunks_exact_mut(cols.len()).zip(scratch.chunks_exact(cols.len())) {
        for (o, &d) in out.iter_mut().zip(delta) {
            if d != 0.0 {
                *o += d;
            }
        }
    }
}

/// Cuts the tiles at columns `cols` of band `ty` (in the order given)
/// out of `band`, the band's rows over pixel columns `span` (as
/// [`sweep_band`] and [`accumulate_rows`] fill it) — pure memory
/// movement, shared by [`compute_band_tiles`] and the `kdv-serve` patch
/// and cold paths.
///
/// # Panics
/// Panics if a column leaves `span`.
pub fn slice_band_tiles(
    tiling: &Tiling,
    ty: usize,
    span: Range<usize>,
    cols: &[usize],
    band: &[f64],
) -> Vec<Tile> {
    let _s = kdv_obs::span1("tile.slice", "tiles", cols.len() as u64);
    let height = tiling.tile_rows(ty).len();
    cols.iter()
        .map(|&tx| {
            let cols = tiling.tile_cols(tx);
            assert!(
                span.start <= cols.start && cols.end <= span.end,
                "tile column outside the band's pixels"
            );
            let local = cols.start - span.start..cols.end - span.start;
            let mut values = Vec::with_capacity(cols.len() * height);
            for row in band.chunks_exact(span.len()).take(height) {
                values.extend_from_slice(&row[local.clone()]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sweep_grid;
    use crate::geom::{Point, Rect};
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

    /// Every tile of the raster, band by band through [`compute_band`]
    /// (the path a `TileServer` miss runs), in row-major `(ty, tx)` order.
    fn band_tiles(ctx: &SweepContext, params: &KdvParams, tiling: &Tiling) -> Vec<Tile> {
        let mut ws = BandWorkspace::new(params);
        (0..tiling.tiles_y())
            .flat_map(|ty| {
                let BandWorkspace { engine, envelope, band, .. } = &mut ws;
                compute_band(ctx, tiling, params.bandwidth, ty, engine, envelope, band)
            })
            .collect()
    }

    /// The whole raster [`assemble`]d from row-major `tiles`.
    fn whole(tiling: &Tiling, tiles: &[Tile]) -> DensityGrid {
        assemble(tiling, 0, 0, tiling.res_x, tiling.res_y, |tx, ty| {
            &tiles[ty * tiling.tiles_x() + tx]
        })
    }

    /// The raster through the tile path in tiles of `tile_size`.
    fn tiled(params: &KdvParams, pts: &[Point], tile_size: usize) -> DensityGrid {
        let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size).unwrap();
        let ctx = SweepContext::new(params, pts).unwrap();
        whole(&tiling, &band_tiles(&ctx, params, &tiling))
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
            assert_eq!(tiled(&params, &pts, tile_size), mono, "tile_size={tile_size}");
        }
    }

    #[test]
    fn tiles_smaller_than_bandwidth_still_exact() {
        // bandwidth spans many tiles: interval endpoints cross every seam
        let (params, pts) = setup(64, 48, 55.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        assert_eq!(tiled(&params, &pts, 4), mono);
    }

    #[test]
    fn sweep_rows_agrees_with_sweep_grid_rows() {
        let (params, pts) = setup(30, 24, 9.0);
        let full = sweep_grid(&params, &pts, 1, || {
            BucketSweep::new(params.kernel, params.bandwidth, params.weight)
        })
        .unwrap();
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
        // A row cut short at any pixel is a prefix of the whole row: both
        // engines give exactly the full row's first pixels, unit and
        // weighted, for every kernel.
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
        // The serving layer folds batches over the columns of the tiles it
        // computes; for columns `0..e`, the base sweep plus each signed
        // batch folded over them must be exactly the first `e` pixels of
        // the same program run over the full width.
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
                    sweep_band(
                        &base,
                        params.bandwidth,
                        0..5,
                        0..end,
                        None,
                        &[],
                        engine,
                        envelope,
                        &mut out,
                    );
                    for batch in &batches {
                        accumulate_rows(
                            batch,
                            params.bandwidth,
                            0..5,
                            0..end,
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

    /// Points in two x-clusters with an empty gap between them (so some
    /// pixels have an empty active set) and y below 50 (so the top rows
    /// of a `5..70` raster have empty envelope bands).
    fn clustered_points() -> Vec<Point> {
        let mut state = 0xC4EC_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..300)
            .map(|i| {
                let x = if i % 2 == 0 { -12.0 + next() * 50.0 } else { 62.0 + next() * 30.0 };
                Point::new(x, 3.0 + next() * 47.0)
            })
            .collect()
    }

    /// Decoded `(frame_x, l.count, u.count)` of one row of a checkpoint.
    fn frame_and_counts(c: &BandCheckpoint, slot: usize) -> (f64, u64, u64) {
        let w = &c.words[slot * c.row_words..(slot + 1) * c.row_words];
        let side = (c.row_words - 1) / 2;
        (f64::from_bits(w[0]), w[1], w[1 + side])
    }

    #[test]
    fn resumed_band_sweeps_equal_whole_row_sweeps_bitwise() {
        // The tile server resumes a cold tile run from the band's state at a
        // tile boundary: for every kernel, unit and weighted rows, any
        // checkpoint `s` and any end `e`, `resume(checkpoint(s), s..e)` is
        // bitwise pixels `s..e` of the whole-row sweep, and its state at `e`
        // is the whole-row sweep's state at `e`.
        let pts = clustered_points();
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
        let mut state = 0x5EED_C0DE_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n
        };
        let (mut empty_active, mut after_shift, mut empty_rows) = (0, 0, 0);
        for width in [1, 97, 331, 2560] {
            for kernel in KernelType::ALL {
                let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), width, 7).unwrap();
                let params = KdvParams::new(grid, kernel, 6.0).with_weight(0.004);
                for ctx in [
                    SweepContext::new(&params, &pts).unwrap(),
                    SweepContext::weighted(&params, &pts, &weights).unwrap(),
                ] {
                    let what =
                        format!("{kernel:?} width {width} weighted {}", ctx.weights().is_some());
                    let mut engine = BucketSweep::new(kernel, params.bandwidth, params.weight);
                    let mut envelope = EnvelopeBuffer::new();
                    let marks: Vec<usize> = (1..=width).collect();
                    let mut whole = vec![f64::NAN; 7 * width];
                    sweep_rows(&ctx, 6.0, 0..7, &mut engine, &mut envelope, &mut whole);
                    let mut full = vec![f64::NAN; 7 * width];
                    let at = sweep_band(
                        &ctx,
                        6.0,
                        0..7,
                        0..width,
                        None,
                        &marks,
                        &mut engine,
                        &mut envelope,
                        &mut full,
                    );
                    assert_eq!(bits(&full), bits(&whole), "{what}: capturing changed the sweep");
                    empty_rows +=
                        (0..7).filter(|&j| ctx.index.band(6.0, ctx.ks[j]).is_empty()).count();
                    for c in &at {
                        for slot in 0..7 {
                            let (frame_x, l, u) = frame_and_counts(c, slot);
                            empty_active += usize::from(l == u && l > 0);
                            after_shift += usize::from(l != u && frame_x == ctx.xs[c.boundary - 1]);
                        }
                    }
                    let mut starts = vec![0, width - 1];
                    starts.extend((0..10).map(|_| below(width)));
                    for s in starts {
                        let mut ends = vec![s + 1, width];
                        ends.extend((0..3).map(|_| s + 1 + below(width - s)));
                        for e in ends {
                            let resume = s.checked_sub(1).map(|i| &at[i]);
                            let mut got = vec![f64::NAN; 7 * (e - s)];
                            let end_state = sweep_band(
                                &ctx,
                                6.0,
                                0..7,
                                s..e,
                                resume,
                                &[e],
                                &mut engine,
                                &mut envelope,
                                &mut got,
                            );
                            for j in 0..7 {
                                assert_eq!(
                                    bits(&got[j * (e - s)..(j + 1) * (e - s)]),
                                    bits(&whole[j * width + s..j * width + e]),
                                    "{what} row {j}: resumed {s}..{e}"
                                );
                            }
                            assert_eq!(
                                end_state,
                                [at[e - 1].clone()],
                                "{what}: state at {e} from {s}"
                            );
                        }
                    }
                }
            }
        }
        assert!(empty_active > 0, "no checkpoint fell on an empty active set");
        assert!(after_shift > 0, "no checkpoint fell just after a frame shift");
        assert!(empty_rows > 0, "no row had an empty band");
    }

    #[test]
    fn fresh_band_sweeps_right_of_pixel_0_equal_whole_row_sweeps_bitwise() {
        // With no checkpoint, a sweep over `s..e` starts each row fresh at
        // its last clean pixel at or left of `s`: for every kernel, unit,
        // weighted and sparse batch-like rows, its pixels, its state at `e`
        // and its fold into a band are bitwise the whole-row sweep's.
        let pts = clustered_points();
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
        let sparse: Vec<Point> = pts.iter().step_by(23).copied().collect();
        let signed: Vec<f64> = (0..sparse.len()).map(|i| [1.0, -1.0, 2.5][i % 3]).collect();
        let mut state = 0xC1EA_u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n
        };
        let (mut at_s, mut between, mut at_0) = (0, 0, 0);
        for width in [1, 97, 331, 2560] {
            for kernel in KernelType::ALL {
                let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), width, 7).unwrap();
                let params = KdvParams::new(grid, kernel, 6.0).with_weight(0.004);
                for ctx in [
                    SweepContext::new(&params, &pts).unwrap(),
                    SweepContext::weighted(&params, &pts, &weights).unwrap(),
                    SweepContext::weighted(&params, &sparse, &signed).unwrap(),
                ] {
                    let what = format!("{kernel:?} width {width} points {}", ctx.points.len());
                    let mut engine = BucketSweep::new(kernel, params.bandwidth, params.weight);
                    let mut envelope = EnvelopeBuffer::new();
                    let marks: Vec<usize> = (1..=width).collect();
                    let mut whole = vec![f64::NAN; 7 * width];
                    let at = sweep_band(
                        &ctx,
                        6.0,
                        0..7,
                        0..width,
                        None,
                        &marks,
                        &mut engine,
                        &mut envelope,
                        &mut whole,
                    );
                    let mut starts = vec![0, width - 1];
                    starts.extend((0..10).map(|_| below(width)));
                    for s in starts {
                        for j in 0..7 {
                            let band = ctx.index.band(6.0, ctx.ks[j]);
                            if band.is_empty() {
                                continue;
                            }
                            let intervals = envelope.fill_band(&ctx.index, band, 6.0, ctx.ks[j]);
                            match sweep_bucket::clean_start(&ctx.xs, intervals, s) {
                                c if c == s => at_s += 1,
                                0 => at_0 += 1,
                                _ => between += 1,
                            }
                        }
                        let e = s + 1 + below(width - s);
                        let mut got = vec![f64::NAN; 7 * (e - s)];
                        let end_state = sweep_band(
                            &ctx,
                            6.0,
                            0..7,
                            s..e,
                            None,
                            &[e],
                            &mut engine,
                            &mut envelope,
                            &mut got,
                        );
                        let mut folded = vec![0.0; 7 * (e - s)];
                        let mut scratch = Vec::new();
                        accumulate_rows(
                            &ctx,
                            6.0,
                            0..7,
                            s..e,
                            &mut engine,
                            &mut envelope,
                            &mut scratch,
                            &mut folded,
                        );
                        for j in 0..7 {
                            let want = &whole[j * width + s..j * width + e];
                            let got = &got[j * (e - s)..(j + 1) * (e - s)];
                            assert_eq!(bits(got), bits(want), "{what} row {j}: fresh {s}..{e}");
                            let fold: Vec<f64> = want
                                .iter()
                                .map(|&d| if d != 0.0 { 0.0 + d } else { 0.0 })
                                .collect();
                            assert_eq!(
                                bits(&folded[j * (e - s)..(j + 1) * (e - s)]),
                                bits(&fold),
                                "{what} row {j}: fold over {s}..{e}"
                            );
                        }
                        assert_eq!(end_state, [at[e - 1].clone()], "{what}: state at {e} from {s}");
                    }
                }
            }
        }
        assert!(at_s > 0, "no sweep started at its first pixel");
        assert!(between > 0, "no sweep started between pixel 0 and its first pixel");
        assert!(at_0 > 0, "no sweep had to start at pixel 0");
    }

    #[test]
    fn windowed_envelopes_sweep_like_whole_envelopes_bitwise() {
        // A sweep over `s..e` reads only the intervals with an event inside
        // it, so the band's x-window may drop every other point: the engine
        // gives the same bits from the windowed envelope as from the whole
        // one, resumed or from pixel 0, unit and weighted.
        let pts = clustered_points();
        let weights: Vec<f64> = (0..pts.len()).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
        for width in [97, 331] {
            for kernel in KernelType::ALL {
                let grid = GridSpec::new(Rect::new(-10.0, 5.0, 90.0, 70.0), width, 4).unwrap();
                let params = KdvParams::new(grid, kernel, 6.0).with_weight(0.004);
                for ctx in [
                    SweepContext::new(&params, &pts).unwrap(),
                    SweepContext::weighted(&params, &pts, &weights).unwrap(),
                ] {
                    let mut engine = BucketSweep::new(kernel, 6.0, params.weight);
                    let mut envelope = EnvelopeBuffer::new();
                    let marks: Vec<usize> = (1..width).collect();
                    let mut full = vec![0.0; 4 * width];
                    let at = sweep_band(
                        &ctx,
                        6.0,
                        0..4,
                        0..width,
                        None,
                        &marks,
                        &mut engine,
                        &mut envelope,
                        &mut full,
                    );
                    let words = engine.state_words(ctx.weights().is_some());
                    for (s, e) in [(0, width / 3), (width / 3, width / 2), (width / 2, width)] {
                        let mut windowed = vec![0.0; 4 * (e - s)];
                        let resume = s.checked_sub(1).map(|i| &at[i]);
                        sweep_band(
                            &ctx,
                            6.0,
                            0..4,
                            s..e,
                            resume,
                            &[],
                            &mut engine,
                            &mut envelope,
                            &mut windowed,
                        );
                        let mut kept = 0;
                        for (slot, j) in (0..4).enumerate() {
                            let k = ctx.ks[j];
                            let band = ctx.index.band(6.0, k);
                            if band.is_empty() {
                                continue;
                            }
                            let intervals =
                                envelope.fill_band(&ctx.index, band.clone(), 6.0, k).to_vec();
                            let row = RowSpan {
                                xs: &ctx.xs,
                                cols: s..e,
                                k,
                                intervals: &intervals,
                                weights: ctx.weights().map(|w| &w[band]),
                            };
                            let from = resume.map(|c| &c.words[slot * words..(slot + 1) * words]);
                            let mut whole = vec![0.0; e - s];
                            engine.sweep_span(&row, from, &[], &mut [], &mut whole);
                            assert_eq!(
                                bits(&windowed[slot * (e - s)..(slot + 1) * (e - s)]),
                                bits(&whole),
                                "{kernel:?} width {width} row {j}: {s}..{e}"
                            );
                            kept += intervals.len();
                        }
                        assert!(kept > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn boundaries_are_the_tile_edges_a_sweep_crosses() {
        let t = Tiling::new(100, 8, 16).unwrap();
        let b = |cols: Range<usize>| t.boundaries(cols).collect::<Vec<_>>();
        assert_eq!(b(0..100), [16, 32, 48, 64, 80, 96]);
        assert_eq!(b(16..48), [32, 48]);
        assert_eq!(b(17..47), [32]);
        assert_eq!(b(96..100), Vec::<usize>::new(), "the raster's right edge is no boundary");
        assert_eq!(b(0..16), [16]);
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
            let tiles = band_tiles(&ctx, &params, &tiling);
            assert_eq!(whole(&tiling, &tiles), mono, "tile_size={tile_size}");
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
    fn assembled_windows_match_monolithic_crops_bitwise() {
        // 23 × 17 in tiles of 5: the last column and row are clipped
        let (params, pts) = setup(23, 17, 9.0);
        let mono = sweep_bucket::compute(&params, &pts).unwrap();
        let tiling = Tiling::new(23, 17, 5).unwrap();
        let ctx = SweepContext::new(&params, &pts).unwrap();
        let tiles = band_tiles(&ctx, &params, &tiling);
        let mut windows = vec![(0, 0, 23, 17), (22, 16, 1, 1), (5, 10, 5, 5), (20, 15, 3, 2)];
        windows.extend((0..5).flat_map(|x| (0..5).map(move |y| (5 + x, y, 11 - x, 9 + y))));
        for (px, py, width, height) in windows {
            let grid = assemble(&tiling, px, py, width, height, |tx, ty| {
                &tiles[ty * tiling.tiles_x() + tx]
            });
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
        assert_eq!(tiled(&params, &[], 7).max_value(), 0.0);
    }
}
