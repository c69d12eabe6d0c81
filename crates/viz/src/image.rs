//! Heat-map image rendering: density grid → RGB image → PPM/ASCII.
//!
//! The output format is hand-rolled binary PPM (P6) — the simplest
//! format every image viewer understands — plus an ASCII art
//! renderer for terminal-only smoke checks. The image is flipped
//! vertically relative to the grid: grid row 0 (smallest y) is the
//! *bottom* scanline, matching geographic orientation.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use kdv_core::grid::DensityGrid;

use crate::colormap::ColorMap;
use crate::normalize::Scale;

/// An 8-bit RGB raster image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    /// Row-major RGB bytes, top scanline first.
    pixels: Vec<u8>,
}

impl Image {
    /// RGB triple at image coordinates (x, y), y = 0 at the *top*.
    pub fn pixel(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let i = (y * self.width + x) * 3;
        (self.pixels[i], self.pixels[i + 1], self.pixels[i + 2])
    }

    /// Raw RGB byte buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Writes the image as a binary PPM (P6).
    pub fn write_ppm<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = BufWriter::new(writer);
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        w.write_all(&self.pixels)?;
        w.flush()
    }

    /// Writes the image to a `.ppm` file.
    pub fn save_ppm(&self, path: &Path) -> io::Result<()> {
        self.write_ppm(std::fs::File::create(path)?)
    }
}

/// Renders a density grid to an RGB heat map, normalising against the
/// grid's own maximum.
pub fn render(grid: &DensityGrid, colormap: ColorMap, scale: Scale) -> Image {
    let (w, h) = (grid.res_x(), grid.res_y());
    let max = grid.max_value();
    let mut pixels = Vec::with_capacity(w * h * 3);
    for y in 0..h {
        let j = h - 1 - y; // flip: top scanline = largest y
        for i in 0..w {
            let t = scale.normalize(grid.get(i, j), max);
            let c = colormap.map(t);
            pixels.extend_from_slice(&[c.0, c.1, c.2]);
        }
    }
    Image { width: w, height: h, pixels }
}

/// Density ramp used by the ASCII renderer, light to heavy.
const ASCII_RAMP: &[u8] = b" .:-=+*#%@";

/// Renders the grid as ASCII art (one char per pixel, top row = largest y).
pub fn ascii_art(grid: &DensityGrid, scale: Scale) -> String {
    let max = grid.max_value();
    let mut out = String::with_capacity((grid.res_x() + 1) * grid.res_y());
    for y in 0..grid.res_y() {
        let j = grid.res_y() - 1 - y;
        for i in 0..grid.res_x() {
            let t = scale.normalize(grid.get(i, j), max);
            let idx =
                ((t * (ASCII_RAMP.len() - 1) as f64).round() as usize).min(ASCII_RAMP.len() - 1);
            out.push(ASCII_RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_grid() -> DensityGrid {
        // 4x3 grid with a single hot pixel at (3, 2) (top-right in geo)
        let mut g = DensityGrid::zeroed(4, 3);
        g.set(3, 2, 10.0);
        g.set(0, 0, 2.5);
        g
    }

    #[test]
    fn render_flips_vertically() {
        let img = render(&gradient_grid(), ColorMap::Grayscale, Scale::Linear);
        assert_eq!((img.width, img.height), (4, 3));
        // grid (3,2) — max — must be at image top-right (3,0), white
        assert_eq!(img.pixel(3, 0), (255, 255, 255));
        // grid (0,0) — 25% — at image bottom-left (0,2)
        assert_eq!(img.pixel(0, 2), (64, 64, 64));
        // an untouched pixel is black
        assert_eq!(img.pixel(1, 1), (0, 0, 0));
    }

    #[test]
    fn ppm_header_and_size() {
        let img = render(&gradient_grid(), ColorMap::Heat, Scale::Linear);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(buf.len(), "P6\n4 3\n255\n".len() + 4 * 3 * 3);
    }

    #[test]
    fn ascii_shape_and_extremes() {
        let art = ascii_art(&gradient_grid(), Scale::Linear);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == 4));
        assert_eq!(lines[0].as_bytes()[3], b'@', "hottest pixel heaviest glyph");
        assert_eq!(lines[1].as_bytes()[0], b' ', "zero density blank");
    }

    #[test]
    fn all_zero_grid_renders_black() {
        let g = DensityGrid::zeroed(2, 2);
        let img = render(&g, ColorMap::Grayscale, Scale::Log);
        assert!(img.bytes().iter().all(|&b| b == 0));
    }
}
