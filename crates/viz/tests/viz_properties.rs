//! Integration tests for the viz crate: colormap monotonicity and
//! continuity, normalisation round-trips, and raster orientation. These
//! pin the rendering contracts end-to-end (density grid → normalised
//! value → colour → image) rather than per-module internals, which the
//! inline unit tests already cover.

use kdv_core::grid::DensityGrid;
use kdv_viz::{ascii_art, render, ColorMap, Rgb, Scale};

const MAPS: [ColorMap; 3] = [ColorMap::Heat, ColorMap::Grayscale, ColorMap::Viridis];
const SCALES: [Scale; 3] = [Scale::Linear, Scale::Sqrt, Scale::Log];

/// Rec. 709 luminance of an 8-bit colour, the standard perceptual proxy.
fn luminance(c: Rgb) -> f64 {
    0.2126 * c.0 as f64 + 0.7152 * c.1 as f64 + 0.0722 * c.2 as f64
}

#[test]
fn grayscale_is_strictly_monotone_and_achromatic() {
    let mut prev = -1.0;
    for k in 0..=512 {
        let t = k as f64 / 512.0;
        let c = ColorMap::Grayscale.map(t);
        assert_eq!(c.0, c.1, "grayscale must be achromatic at t={t}");
        assert_eq!(c.1, c.2, "grayscale must be achromatic at t={t}");
        let l = luminance(c);
        assert!(l >= prev, "grayscale luminance decreased at t={t}: {l} < {prev}");
        prev = l;
    }
    // strict over any span wide enough to move one 8-bit step
    assert!(luminance(ColorMap::Grayscale.map(0.9)) > luminance(ColorMap::Grayscale.map(0.1)));
}

#[test]
fn viridis_luminance_is_monotone_nondecreasing() {
    // the point of a perceptually ordered map: brighter always means denser
    let mut prev = -1.0;
    for k in 0..=1000 {
        let t = k as f64 / 1000.0;
        let l = luminance(ColorMap::Viridis.map(t));
        assert!(
            l >= prev - 0.5, // one 8-bit rounding step of slack
            "viridis luminance decreased at t={t}: {l} < {prev}"
        );
        prev = l;
    }
}

#[test]
fn heat_channels_are_monotone_between_control_points() {
    // Heat is not luminance-monotone (yellow → red dims), but within each
    // piecewise-linear segment every channel must move monotonically
    // toward the next control point — a reordered or duplicated control
    // point would break this.
    let knots = [0.0, 0.25, 0.5, 0.75, 1.0];
    let channels = |c: Rgb| [c.0 as i16, c.1 as i16, c.2 as i16];
    for seg in knots.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        let first = channels(ColorMap::Heat.map(a));
        let last = channels(ColorMap::Heat.map(b));
        let mut prev = first;
        for k in 1..=64 {
            let t = a + (b - a) * k as f64 / 64.0;
            let c = channels(ColorMap::Heat.map(t));
            for ch in 0..3 {
                let rising = last[ch] >= first[ch];
                // 1-count slack for 8-bit rounding of the linear ramp
                let ok = if rising { c[ch] >= prev[ch] - 1 } else { c[ch] <= prev[ch] + 1 };
                assert!(
                    ok,
                    "channel {ch} reversed direction inside segment [{a},{b}] at t={t}: \
                     {prev:?} -> {c:?}"
                );
            }
            prev = c;
        }
    }
}

#[test]
fn all_maps_are_continuous_clamped_and_nan_safe() {
    for map in MAPS {
        // continuity: a 1e-3 step in t moves each channel by at most a few
        // 8-bit counts (max control-point slope is 3.6/unit ≈ 0.92/step)
        let mut prev = map.map(0.0);
        for k in 1..=1000 {
            let t = k as f64 / 1000.0;
            let c = map.map(t);
            for (a, b) in [(prev.0, c.0), (prev.1, c.1), (prev.2, c.2)] {
                assert!(
                    (a as i16 - b as i16).abs() <= 3,
                    "{map:?} jumps by {} at t={t}",
                    (a as i16 - b as i16).abs()
                );
            }
            prev = c;
        }
        // clamping and NaN: out-of-domain inputs collapse to the endpoints
        assert_eq!(map.map(-5.0), map.map(0.0));
        assert_eq!(map.map(7.0), map.map(1.0));
        assert_eq!(map.map(f64::NAN), map.map(0.0));
    }
}

#[test]
fn normalize_hits_both_endpoints_and_stays_in_unit_range() {
    for scale in SCALES {
        for max in [1e-12, 1.0, 3.7e9] {
            assert_eq!(scale.normalize(0.0, max), 0.0, "{scale:?}: zero must map to 0");
            let top = scale.normalize(max, max);
            assert!((top - 1.0).abs() < 1e-12, "{scale:?}: max must map to 1, got {top}");
            for k in 0..=100 {
                let v = max * k as f64 / 100.0;
                let t = scale.normalize(v, max);
                assert!((0.0..=1.0).contains(&t), "{scale:?}: {t} out of [0,1]");
            }
            // values above max clamp to 1 rather than overflowing the ramp
            assert_eq!(scale.normalize(2.0 * max, max), 1.0);
        }
    }
}

#[test]
fn normalize_is_monotone_and_expands_the_low_end() {
    for scale in SCALES {
        let mut prev = 0.0;
        for k in 0..=1000 {
            let v = k as f64 / 1000.0;
            let t = scale.normalize(v, 1.0);
            assert!(t >= prev, "{scale:?} not monotone at v={v}");
            prev = t;
        }
    }
    // the documented reason Sqrt/Log exist: they lift low densities
    for v in [0.01, 0.1, 0.3] {
        let lin = Scale::Linear.normalize(v, 1.0);
        let sqrt = Scale::Sqrt.normalize(v, 1.0);
        let log = Scale::Log.normalize(v, 1.0);
        assert!(sqrt > lin, "sqrt must expand the low end at v={v}");
        assert!(log > sqrt, "log must expand harder than sqrt at v={v}");
    }
}

#[test]
fn normalize_round_trips_through_the_analytic_inverse() {
    // each scale is a bijection on [0, max]; applying the closed-form
    // inverse must recover the input to float precision
    let max = 42.5;
    for k in 0..=200 {
        let v = max * k as f64 / 200.0;
        let lin = Scale::Linear.normalize(v, max);
        assert!((lin * max - v).abs() <= 1e-12 * max);
        let sqrt = Scale::Sqrt.normalize(v, max);
        assert!((sqrt * sqrt * max - v).abs() <= 1e-11 * max);
        let log = Scale::Log.normalize(v, max);
        let inv = (1000.0_f64.powf(log) - 1.0) / 999.0 * max;
        assert!((inv - v).abs() <= 1e-9 * max, "log round-trip: {inv} vs {v}");
    }
}

#[test]
fn normalize_degenerate_rasters_are_all_zero() {
    for scale in SCALES {
        // all-zero raster: max = 0 ⇒ everything maps to 0, never NaN
        assert_eq!(scale.normalize(0.0, 0.0), 0.0);
        assert_eq!(scale.normalize(1.0, 0.0), 0.0);
        assert_eq!(scale.normalize(1.0, -3.0), 0.0);
        assert_eq!(scale.normalize(1.0, f64::NAN), 0.0);
    }
    // a live raster hits 1.0 exactly at its peak
    let ts: Vec<f64> = [0.0, 2.0, 8.0, 4.0].map(|v| Scale::Sqrt.normalize(v, 8.0)).to_vec();
    assert_eq!(ts[2], 1.0);
    assert!(ts.iter().all(|t| (0.0..=1.0).contains(t)));
}

/// Small grid with a known peak at (res_x-1, res_y-1) (top-right in geo).
fn peaked_grid(res_x: usize, res_y: usize) -> DensityGrid {
    let mut g = DensityGrid::zeroed(res_x, res_y);
    for j in 0..res_y {
        for i in 0..res_x {
            g.set(i, j, (i + j) as f64);
        }
    }
    g
}

#[test]
fn render_dimensions_and_orientation() {
    let grid = peaked_grid(7, 5);
    for map in MAPS {
        for scale in SCALES {
            let img = render(&grid, map, scale);
            let mut ppm = Vec::new();
            img.write_ppm(&mut ppm).unwrap();
            assert!(ppm.starts_with(b"P6\n7 5\n255\n"), "a 7x5 PPM header");
            assert_eq!(img.bytes().len(), 7 * 5 * 3);
            // grid row 0 (smallest y) is the bottom scanline, so the peak
            // pixel (6, 4) lands at image (6, 0) with the t=1 colour
            let hot = map.map(1.0);
            assert_eq!(img.pixel(6, 0), (hot.0, hot.1, hot.2));
            let cold = map.map(0.0);
            assert_eq!(img.pixel(0, 4), (cold.0, cold.1, cold.2));
        }
    }
}

#[test]
fn render_all_zero_grid_is_uniformly_cold() {
    let grid = DensityGrid::zeroed(6, 4);
    let img = render(&grid, ColorMap::Heat, Scale::Log);
    let cold = ColorMap::Heat.map(0.0);
    for y in 0..4 {
        for x in 0..6 {
            assert_eq!(img.pixel(x, y), (cold.0, cold.1, cold.2));
        }
    }
}

#[test]
fn ascii_art_shape_matches_the_grid() {
    let grid = peaked_grid(11, 3);
    let art = ascii_art(&grid, Scale::Sqrt);
    let lines: Vec<&str> = art.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines.iter().all(|l| l.len() == 11));
    // heaviest glyph at the peak (top-right), lightest at the bottom-left
    assert_eq!(lines[0].as_bytes()[10], b'@');
    assert_eq!(lines[2].as_bytes()[0], b' ');
}
