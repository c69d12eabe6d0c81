//! Quickstart: compute a kernel density visualization with SLAM.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a small synthetic city, computes the exact KDV with the
//! paper's best method (SLAM_BUCKET^(RAO)), cross-checks it against the
//! naive SCAN baseline, and writes a heat-map image.

use slam_kdv::baselines::AnyMethod;
use slam_kdv::core::driver::KdvParams;
use slam_kdv::viz::{ascii_art, render, ColorMap, Scale};
use slam_kdv::{City, GridSpec, KernelType, Method};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A dataset: synthetic Seattle at 0.5% of the paper's size.
    let dataset = City::Seattle.dataset(0.005);
    let points = dataset.points();
    println!("dataset: {} with {} events", dataset.name, points.len());

    // 2. A query: the dataset MBR rasterised at 320x240, Epanechnikov
    //    kernel, Scott's-rule bandwidth.
    let bandwidth = slam_kdv::data::scott_bandwidth(&points);
    let grid = GridSpec::new(dataset.mbr(), 320, 240)?;
    let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth)
        .with_weight(1.0 / points.len() as f64);
    println!("bandwidth (Scott's rule): {bandwidth:.1} m");

    // 3. Compute the exact KDV with the paper's best method.
    let t0 = std::time::Instant::now();
    let density = Method::SlamBucketRao.compute(&params, &points, 1)?;
    println!("SLAM_BUCKET^(RAO): {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    // 4. Cross-check exactness against the naive O(XYn) scan.
    let t0 = std::time::Instant::now();
    let reference = AnyMethod::Scan.compute(&params, &points)?.grid;
    println!("SCAN:              {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    let err = slam_kdv::core::stats::max_rel_error(density.values(), reference.values());
    println!("max relative difference vs SCAN: {err:.2e} (exact up to rounding)");

    // 5. Render a heat map.
    let image = render(&density, ColorMap::Heat, Scale::Sqrt);
    image.save_ppm(std::path::Path::new("quickstart.ppm"))?;
    println!("wrote quickstart.ppm ({}x{})", density.res_x(), density.res_y());

    // 6. Tiny ASCII preview (coarser grid so it fits a terminal).
    let preview_grid = GridSpec::new(dataset.mbr(), 64, 24)?;
    let preview_params = KdvParams::new(preview_grid, KernelType::Epanechnikov, bandwidth)
        .with_weight(1.0 / points.len() as f64);
    let preview = Method::SlamBucketRao.compute(&preview_params, &points, 1)?;
    println!("\n{}", ascii_art(&preview, Scale::Sqrt));
    Ok(())
}
