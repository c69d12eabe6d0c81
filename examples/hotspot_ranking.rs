//! Hotspot detection and ranking — the full KDV-to-decision pipeline.
//!
//! ```text
//! cargo run --release --example hotspot_ranking
//! ```
//!
//! Computes the exact KDV of the synthetic San Francisco 311-call feed,
//! extracts the hotspot regions at 30% of peak density, ranks them by
//! density mass, cross-checks the ranking against the generator's planted
//! hotspot mixture — exercising `kdv-core`, `kdv-data` and `kdv-analysis`
//! together.

use slam_kdv::analysis::hotspots_by_peak_fraction;
use slam_kdv::core::driver::KdvParams;
use slam_kdv::{City, GridSpec, KdvEngine, KernelType, Method};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = City::SanFrancisco.dataset(0.002);
    let points = dataset.points();
    let mbr = dataset.mbr();
    let bandwidth = slam_kdv::data::scott_bandwidth(&points);
    println!("San Francisco 311 calls (synthetic): n={}, b={bandwidth:.0} m", points.len());

    // 1. exact KDV with the best SLAM variant
    let spec = GridSpec::new(mbr, 480, 480)?;
    let params =
        KdvParams::new(spec, KernelType::Quartic, bandwidth).with_weight(1.0 / points.len() as f64);
    let t0 = std::time::Instant::now();
    let grid = KdvEngine::new(Method::SlamBucketRao).compute(&params, &points)?;
    println!("KDV 480x480 in {:.1} ms\n", t0.elapsed().as_secs_f64() * 1e3);

    // 2. hotspot extraction + ranking
    let hotspots = hotspots_by_peak_fraction(&grid, &spec, 0.3);
    println!("{} hotspot region(s) at >= 30% of peak:", hotspots.len());
    println!(
        "{:<3} {:>8} {:>13} {:>10} {:>22}",
        "#", "pixels", "area (km^2)", "share", "centroid (m)"
    );
    let total_mass: f64 = hotspots.iter().map(|h| h.mass).sum();
    for (i, h) in hotspots.iter().take(8).enumerate() {
        println!(
            "{:<3} {:>8} {:>13.3} {:>9.1}% ({:>8.0}, {:>8.0})",
            i + 1,
            h.pixels,
            h.area / 1e6,
            100.0 * h.mass / total_mass,
            h.centroid.x,
            h.centroid.y
        );
    }

    // 3. compare with the planted mixture: the top hotspot should sit near
    //    one of the generator's configured centres
    let config = City::SanFrancisco.synth_config();
    if let Some(top) = hotspots.first() {
        let nearest = config
            .hotspots
            .iter()
            .map(|h| top.centroid.dist(&h.center))
            .fold(f64::INFINITY, f64::min);
        println!("\ntop hotspot centroid is {:.0} m from the nearest planted centre", nearest);
    }

    Ok(())
}
