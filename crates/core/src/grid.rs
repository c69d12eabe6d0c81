//! Raster grid mapping and the density output buffer.
//!
//! [`GridSpec`] describes the paper's setting: a geographical query region
//! covered by an `X × Y` pixel raster. Each pixel `(i, j)` is evaluated at
//! its *centre* coordinate. [`DensityGrid`] is the row-major `f64` output
//! buffer (`O(XY)` space — the dominant term of Theorem 4).

use crate::error::{KdvError, Result};
use crate::geom::{Point, Rect};

/// A query region discretised into an `X × Y` pixel raster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Geographical region covered by the raster.
    pub region: Rect,
    /// Number of pixels along the x-axis (paper's `X`).
    pub res_x: usize,
    /// Number of pixels along the y-axis (paper's `Y`).
    pub res_y: usize,
}

impl GridSpec {
    /// Creates a grid, validating the resolution and region.
    ///
    /// The resolution must have at least one pixel per axis, and its
    /// density buffer (`res_x · res_y` `f64`s) must fit in an allocation's
    /// `isize::MAX` bytes: an overflowing size would otherwise reach the
    /// allocator and abort the process instead of returning an error.
    pub fn new(region: Rect, res_x: usize, res_y: usize) -> Result<Self> {
        if res_x == 0 || res_y == 0 {
            return Err(KdvError::EmptyResolution { x: res_x, y: res_y });
        }
        let bytes = res_x
            .checked_mul(res_y)
            .and_then(|pixels| pixels.checked_mul(std::mem::size_of::<f64>()));
        if bytes.is_none_or(|b| b > isize::MAX as usize) {
            return Err(KdvError::ResolutionTooLarge { x: res_x, y: res_y });
        }
        let (w, h) = (region.width(), region.height());
        if !w.is_finite() || !h.is_finite() || w <= 0.0 || h <= 0.0 {
            return Err(KdvError::DegenerateRegion { width: w, height: h });
        }
        Ok(Self { region, res_x, res_y })
    }

    /// Pixel gap along x (paper's `g_x`): the horizontal distance between
    /// two consecutive pixel centres.
    #[inline]
    pub fn gap_x(&self) -> f64 {
        self.region.width() / self.res_x as f64
    }

    /// Pixel gap along y (`g_y`).
    #[inline]
    pub fn gap_y(&self) -> f64 {
        self.region.height() / self.res_y as f64
    }

    /// x-coordinate of the centre of pixel column `i` (0-based).
    #[inline]
    pub fn pixel_x(&self, i: usize) -> f64 {
        self.region.min_x + (i as f64 + 0.5) * self.gap_x()
    }

    /// y-coordinate of the centre of pixel row `j` (0-based).
    #[inline]
    pub fn pixel_y(&self, j: usize) -> f64 {
        self.region.min_y + (j as f64 + 0.5) * self.gap_y()
    }

    /// Centre point of pixel `(i, j)`.
    #[inline]
    pub fn pixel_center(&self, i: usize, j: usize) -> Point {
        Point::new(self.pixel_x(i), self.pixel_y(j))
    }

    /// Total number of pixels `X · Y`.
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.res_x * self.res_y
    }

    /// The transposed grid (swap x/y), used by the resolution-aware
    /// optimization to sweep along the shorter dimension.
    #[inline]
    pub fn transposed(&self) -> GridSpec {
        GridSpec { region: self.region.transposed(), res_x: self.res_y, res_y: self.res_x }
    }
}

/// Row-major density raster: `values[j * res_x + i]` is `F_P(q_{i,j})`.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityGrid {
    res_x: usize,
    res_y: usize,
    values: Vec<f64>,
}

impl DensityGrid {
    /// A zero-filled grid of the given resolution.
    pub fn zeroed(res_x: usize, res_y: usize) -> Self {
        Self { res_x, res_y, values: vec![0.0; res_x * res_y] }
    }

    /// Builds a grid from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `values.len() != res_x * res_y`.
    pub fn from_values(res_x: usize, res_y: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), res_x * res_y, "buffer/resolution mismatch");
        Self { res_x, res_y, values }
    }

    /// Number of pixel columns.
    #[inline]
    pub fn res_x(&self) -> usize {
        self.res_x
    }

    /// Number of pixel rows.
    #[inline]
    pub fn res_y(&self) -> usize {
        self.res_y
    }

    /// Density at pixel `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[j * self.res_x + i]
    }

    /// Sets the density at pixel `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.values[j * self.res_x + i] = v;
    }

    /// Immutable view of row `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        &self.values[j * self.res_x..(j + 1) * self.res_x]
    }

    /// Mutable view of row `j`; the row sweeps write a full row at a time.
    #[inline]
    pub fn row_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.values[j * self.res_x..(j + 1) * self.res_x]
    }

    /// The whole raster as a flat row-major slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Maximum density value (0 for an all-zero grid).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0_f64, f64::max)
    }

    /// Sum of all density values, useful as a cheap checksum in tests.
    pub fn total(&self) -> f64 {
        crate::stats::kahan_sum(&self.values)
    }

    /// Returns the transposed grid: output `(i, j)` = input `(j, i)`.
    ///
    /// RAO computes on the transposed raster and transposes the result
    /// back, so this must be exact (pure element moves, no arithmetic).
    pub fn transposed(&self) -> DensityGrid {
        let mut out = DensityGrid::zeroed(self.res_y, self.res_x);
        for j in 0..self.res_y {
            for i in 0..self.res_x {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Heap bytes held by this grid (for the space-consumption experiment).
    pub fn space_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec::new(Rect::new(0.0, 0.0, 10.0, 20.0), 5, 4).unwrap()
    }

    #[test]
    fn rejects_invalid_inputs() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(matches!(GridSpec::new(r, 0, 4), Err(KdvError::EmptyResolution { .. })));
        let deg = Rect::new(0.0, 0.0, 0.0, 1.0);
        assert!(matches!(GridSpec::new(deg, 2, 2), Err(KdvError::DegenerateRegion { .. })));
    }

    #[test]
    fn rejects_resolutions_whose_buffer_overflows() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let too_large =
            |x, y| matches!(GridSpec::new(r, x, y), Err(KdvError::ResolutionTooLarge { .. }));
        // `x · y` overflows usize.
        assert!(too_large(1 << 32, 1 << 32));
        assert!(too_large(usize::MAX, 2));
        // `x · y` fits, but `x · y · 8` bytes overflows.
        assert!(too_large(usize::MAX / 4, 1));
        // `x · y · 8` fits in usize but exceeds isize::MAX bytes.
        assert!(too_large(isize::MAX as usize / 8 + 1, 1));
        // The largest buffer an allocation can describe is accepted.
        assert!(GridSpec::new(r, isize::MAX as usize / 8, 1).is_ok());
    }

    #[test]
    fn pixel_centers() {
        let g = spec();
        assert_eq!(g.gap_x(), 2.0);
        assert_eq!(g.gap_y(), 5.0);
        assert_eq!(g.pixel_x(0), 1.0);
        assert_eq!(g.pixel_x(4), 9.0);
        assert_eq!(g.pixel_y(0), 2.5);
        assert_eq!(g.pixel_center(1, 1), Point::new(3.0, 7.5));
    }

    #[test]
    fn grid_spec_transpose_swaps_dims() {
        let g = spec();
        let t = g.transposed();
        assert_eq!(t.res_x, 4);
        assert_eq!(t.res_y, 5);
        assert_eq!(t.gap_x(), g.gap_y());
        // pixel (i,j) in t corresponds to pixel (j,i) in g
        let p = t.pixel_center(2, 3);
        let q = g.pixel_center(3, 2);
        assert_eq!(p.x, q.y);
        assert_eq!(p.y, q.x);
    }

    #[test]
    fn density_grid_round_trip() {
        let mut d = DensityGrid::zeroed(3, 2);
        d.set(2, 1, 7.0);
        assert_eq!(d.get(2, 1), 7.0);
        assert_eq!(d.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(d.max_value(), 7.0);
        assert_eq!(d.total(), 7.0);
    }

    #[test]
    fn transpose_is_involution() {
        let vals: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let d = DensityGrid::from_values(4, 3, vals);
        let t = d.transposed();
        assert_eq!(t.res_x(), 3);
        assert_eq!(t.get(0, 1), d.get(1, 0));
        assert_eq!(t.transposed(), d);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_values_checks_len() {
        let _ = DensityGrid::from_values(2, 2, vec![0.0; 3]);
    }
}
