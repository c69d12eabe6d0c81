//! Seeded viewport walks over a tile pyramid: quarter-viewport pans in a
//! seeded direction, with zoom changes made by the caller on a fixed
//! schedule (so the share of requests per zoom, which sets the hit/miss
//! mix, does not depend on the seed).

use kdv_serve::{PyramidSpec, Viewport};

use crate::stats::SplitMix64;

#[derive(Debug, Clone)]
pub struct Walk {
    rng: SplitMix64,
    pyramid: PyramidSpec,
    width: usize,
    height: usize,
    zoom: u8,
    /// Viewport centre in level pixels.
    cx: f64,
    cy: f64,
}

impl Walk {
    /// A walk of `view`-sized viewports centred on `start` (fractions of
    /// the level) at zoom `zoom`.
    pub fn new(
        seed: u64,
        pyramid: PyramidSpec,
        view: (usize, usize),
        zoom: u8,
        start: (f64, f64),
    ) -> Self {
        let (rx, ry) = pyramid.level_res(zoom);
        let mut walk = Self {
            rng: SplitMix64::new(seed),
            pyramid,
            width: view.0,
            height: view.1,
            zoom,
            cx: start.0 * rx as f64,
            cy: start.1 * ry as f64,
        };
        walk.clamp();
        walk
    }

    /// Keeps the viewport inside the level (centred when the level is
    /// smaller than the viewport).
    fn clamp(&mut self) {
        let (rx, ry) = self.pyramid.level_res(self.zoom);
        let fit = |c: f64, size: usize, res: usize| {
            let half = size as f64 / 2.0;
            if size >= res {
                res as f64 / 2.0
            } else {
                c.clamp(half, res as f64 - half)
            }
        };
        self.cx = fit(self.cx, self.width, rx);
        self.cy = fit(self.cy, self.height, ry);
    }

    /// The current viewport.
    pub fn viewport(&self) -> Viewport {
        let px = (self.cx - self.width as f64 / 2.0).max(0.0) as usize;
        let py = (self.cy - self.height as f64 / 2.0).max(0.0) as usize;
        Viewport { zoom: self.zoom, px, py, width: self.width, height: self.height }
            .clamped(&self.pyramid)
            .expect("walk stays inside the pyramid")
    }

    /// Pans a quarter viewport in a seeded direction.
    pub fn pan(&mut self) -> Viewport {
        let (dx, dy) = (self.width as f64 / 4.0, self.height as f64 / 4.0);
        match self.rng.below(4) {
            0 => self.cx += dx,
            1 => self.cx -= dx,
            2 => self.cy += dy,
            _ => self.cy -= dy,
        }
        self.clamp();
        self.viewport()
    }

    /// Zooms to `zoom` about the current centre.
    pub fn zoom_to(&mut self, zoom: u8) -> Viewport {
        let scale = 2f64.powi(i32::from(zoom) - i32::from(self.zoom));
        self.cx *= scale;
        self.cy *= scale;
        self.zoom = zoom;
        self.clamp();
        self.viewport()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::Rect;

    fn pyramid() -> PyramidSpec {
        PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 256, 320, 240, 3).unwrap()
    }

    fn walk(seed: u64) -> Vec<Viewport> {
        let mut w = Walk::new(seed, pyramid(), (1024, 768), 2, (0.5, 0.5));
        (0..200)
            .map(|i| if i % 10 == 9 { w.zoom_to(3 - (i / 10 % 2) as u8) } else { w.pan() })
            .collect()
    }

    #[test]
    fn walks_are_deterministic_per_seed_differ_across_seeds_and_stay_inside() {
        assert_eq!(walk(5), walk(5));
        assert_ne!(walk(5), walk(6));
        for vp in walk(7) {
            let (rx, ry) = pyramid().level_res(vp.zoom);
            assert!(vp.px + vp.width <= rx && vp.py + vp.height <= ry, "{vp:?}");
        }
        assert!(walk(7).iter().any(|v| v.zoom == 3), "the walk changes zoom");
    }
}
