//! Integration tests for the analysis crate on hand-built synthetic grids
//! whose hotspots are known in closed form.

use kdv_analysis::{extract_hotspots, hotspots_by_peak_fraction};
use kdv_core::{DensityGrid, GridSpec, Rect};

/// Unit-pixel spec: pixel (i, j) is centred at (i + 0.5, j + 0.5).
fn unit_spec(w: usize, h: usize) -> GridSpec {
    GridSpec::new(Rect::new(0.0, 0.0, w as f64, h as f64), w, h).unwrap()
}

/// 10×8 grid with two well-separated rectangular blobs:
///   A: 2×2 block at (1..=2, 1..=2), value 4.0 except peak 6.0 at (2, 2)
///   B: 3×1 row   at (6..=8, 5),     value 3.0 each
/// Mass A = 3·4 + 6 = 18, mass B = 9; A outranks B.
fn two_blob_grid() -> (DensityGrid, GridSpec) {
    let mut g = DensityGrid::zeroed(10, 8);
    for (i, j) in [(1, 1), (2, 1), (1, 2)] {
        g.set(i, j, 4.0);
    }
    g.set(2, 2, 6.0);
    for i in 6..=8 {
        g.set(i, 5, 3.0);
    }
    (g, unit_spec(10, 8))
}

#[test]
fn hotspots_on_the_known_grid_have_exact_count_rank_and_mass() {
    let (grid, spec) = two_blob_grid();
    let hs = extract_hotspots(&grid, &spec, 1.0);
    assert_eq!(hs.len(), 2, "two separated blobs → two components");
    // ranked by descending mass
    assert_eq!(hs[0].mass, 18.0);
    assert_eq!(hs[1].mass, 9.0);
    assert_eq!(hs[0].pixels, 4);
    assert_eq!(hs[1].pixels, 3);
    // unit pixels → area equals pixel count
    assert_eq!(hs[0].area, 4.0);
    assert_eq!(hs[1].area, 3.0);
    assert_eq!(hs[0].peak, 6.0);
    assert_eq!(hs[0].peak_pixel, (2, 2));
    assert_eq!(hs[1].peak, 3.0);
    // blob B is symmetric around pixel (7, 5) → centroid at its centre
    assert!((hs[1].centroid.x - 7.5).abs() < 1e-12);
    assert!((hs[1].centroid.y - 5.5).abs() < 1e-12);
    // blob A centroid is the density-weighted mean of the four pixels
    let cx = (4.0 * 1.5 + 4.0 * 2.5 + 4.0 * 1.5 + 6.0 * 2.5) / 18.0;
    let cy = (4.0 * 1.5 + 4.0 * 1.5 + 4.0 * 2.5 + 6.0 * 2.5) / 18.0;
    assert!((hs[0].centroid.x - cx).abs() < 1e-12);
    assert!((hs[0].centroid.y - cy).abs() < 1e-12);
}

#[test]
fn hotspot_threshold_is_inclusive_and_connectivity_is_4_not_8() {
    let spec = unit_spec(6, 6);
    let mut g = DensityGrid::zeroed(6, 6);
    // two pixels touching only diagonally: 8-connectivity would merge them
    g.set(1, 1, 2.0);
    g.set(2, 2, 2.0);
    let hs = extract_hotspots(&g, &spec, 2.0);
    assert_eq!(hs.len(), 2, "diagonal neighbours must stay separate (4-connected)");
    // threshold is inclusive: a pixel exactly at the threshold belongs
    assert!(extract_hotspots(&g, &spec, 2.0 + 1e-9).is_empty());
    // an orthogonal bridge merges them into one component
    g.set(2, 1, 2.0);
    assert_eq!(extract_hotspots(&g, &spec, 2.0).len(), 1);
}

#[test]
fn peak_fraction_thresholding_tracks_the_global_peak() {
    let (grid, spec) = two_blob_grid();
    // 60% of peak 6.0 = 3.6 → only blob A qualifies (blob B tops at 3.0)
    let hs = hotspots_by_peak_fraction(&grid, &spec, 0.6);
    assert_eq!(hs.len(), 1);
    assert_eq!(hs[0].peak, 6.0);
    // 50% of peak = 3.0, inclusive → both blobs
    assert_eq!(hotspots_by_peak_fraction(&grid, &spec, 0.5).len(), 2);
    // all-zero raster: no spurious hotspot at threshold 0
    let zero = DensityGrid::zeroed(10, 8);
    assert!(hotspots_by_peak_fraction(&zero, &spec, 0.5).is_empty());
}
