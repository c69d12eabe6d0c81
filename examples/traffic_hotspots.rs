//! Traffic-accident hotspot detection (the paper's Figure-1 scenario).
//!
//! ```text
//! cargo run --release --example traffic_hotspots
//! ```
//!
//! Uses the synthetic New York traffic-accident feed, renders the
//! city-wide KDV, then zooms into the two densest regions (the paper shows
//! Upper and Lower Manhattan) and renders each at full resolution —
//! exactly the "generate many KDVs per dataset" workload SLAM targets.

use slam_kdv::core::driver::KdvParams;
use slam_kdv::viz::{render, ColorMap, Scale};
use slam_kdv::{City, GridSpec, KernelType, Method, Rect};

/// Finds the hottest pixel of a density grid and returns the surrounding
/// window (a crude but effective hotspot-region proposer).
fn hotspot_window(
    grid: &slam_kdv::DensityGrid,
    spec: &GridSpec,
    half_extent_m: f64,
    exclude: Option<Rect>,
) -> Rect {
    let mut best = (0usize, 0usize, f64::MIN);
    for j in 0..grid.res_y() {
        for i in 0..grid.res_x() {
            let c = spec.pixel_center(i, j);
            if let Some(ex) = exclude {
                if ex.contains(&c) {
                    continue;
                }
            }
            if grid.get(i, j) > best.2 {
                best = (i, j, grid.get(i, j));
            }
        }
    }
    let c = spec.pixel_center(best.0, best.1);
    Rect::new(c.x - half_extent_m, c.y - half_extent_m, c.x + half_extent_m, c.y + half_extent_m)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = City::NewYork.dataset(0.01);
    let points = dataset.points();
    let bandwidth = slam_kdv::data::scott_bandwidth(&points);
    let method = Method::SlamBucketRao;
    let weight = 1.0 / points.len() as f64;
    println!("New York traffic accidents (synthetic): n={}, b={:.0} m", points.len(), bandwidth);

    // city-wide overview
    let overview_spec = GridSpec::new(dataset.mbr(), 640, 480)?;
    let overview_params =
        KdvParams::new(overview_spec, KernelType::Epanechnikov, bandwidth).with_weight(weight);
    let t0 = std::time::Instant::now();
    let overview = method.compute(&overview_params, &points, 1)?;
    println!("overview 640x480 in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    render(&overview, ColorMap::Heat, Scale::Sqrt)
        .save_ppm(std::path::Path::new("ny_overview.ppm"))?;

    // zoom into the two hottest regions (paper: Upper/Lower Manhattan)
    let first = hotspot_window(&overview, &overview_spec, 3_000.0, None);
    let second = hotspot_window(&overview, &overview_spec, 3_000.0, Some(first));
    for (idx, region) in [first, second].into_iter().enumerate() {
        let spec = GridSpec::new(region, 640, 480)?;
        // tighter bandwidth for the zoomed view, like re-running Scott on
        // the visible subset
        let visible: Vec<_> = points.iter().filter(|p| region.contains(p)).copied().collect();
        let b = slam_kdv::data::scott_bandwidth(&visible).max(bandwidth / 8.0);
        let params = KdvParams::new(spec, KernelType::Epanechnikov, b)
            .with_weight(1.0 / visible.len().max(1) as f64);
        let t0 = std::time::Instant::now();
        let zoom = method.compute(&params, &points, 1)?;
        let file = format!("ny_hotspot_{}.ppm", idx + 1);
        println!(
            "hotspot {} around ({:.0}, {:.0}): {} visible events, {:.1} ms -> {file}",
            idx + 1,
            region.center().x,
            region.center().y,
            visible.len(),
            t0.elapsed().as_secs_f64() * 1e3,
        );
        render(&zoom, ColorMap::Heat, Scale::Sqrt).save_ppm(std::path::Path::new(&file))?;
    }
    Ok(())
}
