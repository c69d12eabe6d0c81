//! The zoom pyramid: one raster resolution per zoom level over a fixed
//! world region, partitioned into fixed-size tiles.
//!
//! Level `z` covers the *same* region as level 0 at `2^z ×` the base
//! resolution, so zooming in refines pixels without moving the region —
//! and, crucially, every level is computed from the **same point set**
//! with the exact sweep. Coarse levels are never downsampled from fine
//! ones (that would be a resampling approximation); each level is its own
//! exact KDV raster, so any tile of any level is bitwise-reproducible
//! from `(dataset, kernel, bandwidth, zoom, tx, ty)` alone — the cache
//! key's soundness argument.

use kdv_core::driver::KdvParams;
use kdv_core::tile::Tiling;
use kdv_core::{GridSpec, KdvError, KernelType, Rect, Result};

/// Address of one tile in the pyramid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Zoom level (0 = coarsest).
    pub zoom: u8,
    /// Tile column within the level.
    pub tx: u32,
    /// Tile row within the level.
    pub ty: u32,
}

/// The zoom levels a pyramid can have: `max_zoom` is below this.
pub const ZOOM_LIMIT: u8 = 24;

/// Pyramid geometry: region, per-level resolutions and the tile grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PyramidSpec {
    /// World region covered by every level.
    pub region: Rect,
    /// Tile side length in pixels.
    pub tile_size: usize,
    /// Level-0 raster width in pixels.
    pub base_res_x: usize,
    /// Level-0 raster height in pixels.
    pub base_res_y: usize,
    /// Deepest zoom level served (level resolutions are `base << zoom`).
    pub max_zoom: u8,
}

impl PyramidSpec {
    /// Creates a pyramid, validating the geometry and guarding the
    /// `base << max_zoom` shifts against overflow.
    pub fn new(
        region: Rect,
        tile_size: usize,
        base_res_x: usize,
        base_res_y: usize,
        max_zoom: u8,
    ) -> Result<Self> {
        // GridSpec::new validates region and the base resolution.
        GridSpec::new(region, base_res_x, base_res_y)?;
        if tile_size == 0 {
            return Err(KdvError::InvalidTileSize { tile_size });
        }
        if max_zoom >= ZOOM_LIMIT
            || base_res_x.checked_shl(max_zoom as u32).is_none()
            || base_res_y.checked_shl(max_zoom as u32).is_none()
        {
            return Err(KdvError::EmptyResolution { x: base_res_x, y: base_res_y });
        }
        Ok(Self { region, tile_size, base_res_x, base_res_y, max_zoom })
    }

    /// Raster resolution of level `zoom`.
    #[inline]
    pub fn level_res(&self, zoom: u8) -> (usize, usize) {
        (self.base_res_x << zoom, self.base_res_y << zoom)
    }

    /// The level's raster specification (same region at every level).
    pub fn level_grid(&self, zoom: u8) -> GridSpec {
        let (rx, ry) = self.level_res(zoom);
        GridSpec { region: self.region, res_x: rx, res_y: ry }
    }

    /// The level's tile partition.
    pub fn level_tiling(&self, zoom: u8) -> Tiling {
        let (rx, ry) = self.level_res(zoom);
        Tiling { res_x: rx, res_y: ry, tile_size: self.tile_size }
    }

    /// KDV parameters for one level under the given kernel configuration.
    pub fn level_params(
        &self,
        zoom: u8,
        kernel: KernelType,
        bandwidth: f64,
        weight: f64,
    ) -> KdvParams {
        KdvParams::new(self.level_grid(zoom), kernel, bandwidth).with_weight(weight)
    }

    /// Whether `zoom` is served by this pyramid.
    #[inline]
    pub fn has_zoom(&self, zoom: u8) -> bool {
        zoom <= self.max_zoom
    }
}

/// A rectangular pixel window into one pyramid level — what a client
/// requests when panning or zooming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Viewport {
    /// Zoom level of the request.
    pub zoom: u8,
    /// Left pixel column (inclusive) in the level raster.
    pub px: usize,
    /// Bottom pixel row (inclusive) in the level raster.
    pub py: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Viewport {
    /// Clamps the viewport to the level raster, shrinking it if it hangs
    /// over the edge. Returns `None` if nothing remains (zero-size or
    /// fully outside).
    pub fn clamped(&self, pyramid: &PyramidSpec) -> Option<Viewport> {
        if !pyramid.has_zoom(self.zoom) || self.width == 0 || self.height == 0 {
            return None;
        }
        let (rx, ry) = pyramid.level_res(self.zoom);
        if self.px >= rx || self.py >= ry {
            return None;
        }
        Some(Viewport {
            zoom: self.zoom,
            px: self.px,
            py: self.py,
            width: self.width.min(rx - self.px),
            height: self.height.min(ry - self.py),
        })
    }

    /// Tile columns intersected by the viewport (assumes it is clamped).
    pub fn tile_cols(&self, tile_size: usize) -> std::ops::Range<usize> {
        self.px / tile_size..(self.px + self.width - 1) / tile_size + 1
    }

    /// Tile rows intersected by the viewport (assumes it is clamped).
    pub fn tile_rows(&self, tile_size: usize) -> std::ops::Range<usize> {
        self.py / tile_size..(self.py + self.height - 1) / tile_size + 1
    }

    /// Number of pixels in the viewport.
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pyramid() -> PyramidSpec {
        PyramidSpec::new(Rect::new(0.0, 0.0, 1000.0, 800.0), 64, 80, 50, 4).unwrap()
    }

    #[test]
    fn level_resolutions_double() {
        let p = pyramid();
        assert_eq!(p.level_res(0), (80, 50));
        assert_eq!(p.level_res(3), (640, 400));
        assert_eq!(p.level_grid(2).region, p.region);
        let t = p.level_tiling(1);
        assert_eq!((t.res_x, t.res_y, t.tile_size), (160, 100, 64));
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(PyramidSpec::new(r, 0, 8, 8, 2).is_err());
        assert!(PyramidSpec::new(r, 16, 0, 8, 2).is_err());
        assert!(PyramidSpec::new(r, 16, 8, 8, 60).is_err());
        assert!(PyramidSpec::new(r, 256, 256, 256, 3).is_ok());
    }

    #[test]
    fn viewport_clamps_and_finds_tiles() {
        let p = pyramid();
        // level 2: 320x200, tiles of 64 -> 5x4 tile grid (last row clipped)
        let vp = Viewport { zoom: 2, px: 300, py: 190, width: 100, height: 100 };
        let c = vp.clamped(&p).unwrap();
        assert_eq!((c.width, c.height), (20, 10));
        assert_eq!(c.tile_cols(64), 4..5);
        assert_eq!(c.tile_rows(64), 2..4);
        // fully outside or degenerate viewports vanish
        assert!(Viewport { zoom: 2, px: 320, py: 0, width: 5, height: 5 }.clamped(&p).is_none());
        assert!(Viewport { zoom: 9, px: 0, py: 0, width: 5, height: 5 }.clamped(&p).is_none());
        assert!(Viewport { zoom: 2, px: 0, py: 0, width: 0, height: 5 }.clamped(&p).is_none());
    }

    #[test]
    fn tile_ranges_cover_exact_pixels() {
        let vp = Viewport { zoom: 0, px: 64, py: 0, width: 64, height: 64 };
        assert_eq!(vp.tile_cols(64), 1..2, "aligned viewport touches exactly one tile column");
        let off = Viewport { zoom: 0, px: 63, py: 0, width: 2, height: 1 };
        assert_eq!(off.tile_cols(64), 0..2, "one-pixel overhang pulls in the neighbour");
    }
}
