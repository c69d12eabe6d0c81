//! Integration tests spanning the workspace crates: data generation →
//! SLAM engines → baselines → visualisation.

use slam_kdv::baselines::AnyMethod;
use slam_kdv::core::driver::KdvParams;
use slam_kdv::core::stats::max_rel_error;
use slam_kdv::data::csvio;
use slam_kdv::viz::{ascii_art, render, ColorMap, Scale};
use slam_kdv::{City, GridSpec, KdvEngine, KernelType, Method};

/// Full happy path: synthesise a city, render a KDV with every SLAM
/// variant, check exactness against SCAN and produce an image.
#[test]
fn city_to_image_pipeline() {
    let dataset = City::SanFrancisco.dataset(0.0005);
    let points = dataset.points();
    assert!(points.len() > 1000);
    let bandwidth = slam_kdv::data::scott_bandwidth(&points);
    let grid = GridSpec::new(dataset.mbr(), 96, 72).unwrap();
    let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth)
        .with_weight(1.0 / points.len() as f64);

    let reference = AnyMethod::Scan.compute(&params, &points).unwrap().grid;
    for m in Method::ALL {
        let got = KdvEngine::new(m).compute(&params, &points).unwrap();
        let err = max_rel_error(got.values(), reference.values());
        assert!(err < 1e-9, "{m}: err {err}");
    }

    let img = render(&reference, ColorMap::Heat, Scale::Sqrt);
    let mut ppm = Vec::new();
    img.write_ppm(&mut ppm).unwrap();
    assert!(ppm.starts_with(b"P6\n96 72\n255\n"), "a 96x72 PPM header");
    // hotspots exist: some pixel is hot (red channel dominant)
    let has_hot = (0..72).any(|y| (0..96).any(|x| img.pixel(x, y).0 > 150));
    assert!(has_hot, "expected at least one hot pixel");
}

/// CSV round trip feeds the engines identically to the in-memory path.
#[test]
fn csv_round_trip_preserves_density() {
    let dataset = City::Seattle.dataset(0.0005);
    let dir = std::env::temp_dir().join("kdv_it_csv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seattle.csv");
    csvio::write_csv_file(&path, &dataset).unwrap();
    let reloaded = csvio::read_csv_file(&path).unwrap();
    assert_eq!(reloaded.len(), dataset.len());

    let grid = GridSpec::new(dataset.mbr(), 40, 30).unwrap();
    let params = KdvParams::new(grid, KernelType::Quartic, 1500.0);
    let a = KdvEngine::new(Method::SlamBucketRao).compute(&params, &dataset.points()).unwrap();
    let b = KdvEngine::new(Method::SlamBucketRao).compute(&params, &reloaded.points()).unwrap();
    assert_eq!(a, b, "CSV round trip must be lossless for the engines");
    std::fs::remove_dir_all(&dir).ok();
}

/// Z-order sampling stays within a loose error band on a real-shaped
/// dataset and is consistent with its configured reduction.
#[test]
fn zorder_sampling_quality_on_city_data() {
    let dataset = City::SanFrancisco.dataset(0.001);
    let points = dataset.points();
    let grid = GridSpec::new(dataset.mbr(), 48, 36).unwrap();
    let b = slam_kdv::data::scott_bandwidth(&points);
    let params =
        KdvParams::new(grid, KernelType::Epanechnikov, b).with_weight(1.0 / points.len() as f64);
    let exact = AnyMethod::Scan.compute(&params, &points).unwrap().grid;
    let approx = AnyMethod::ZOrder { sample_fraction: 0.1 }.compute(&params, &points).unwrap().grid;
    let mass_err = (approx.total() - exact.total()).abs() / exact.total();
    assert!(mass_err < 0.1, "sampled mass error {mass_err}");
}

/// The viz stack renders paper-style artifacts from real engine output.
#[test]
fn viz_outputs_from_engine_grid() {
    let dataset = City::Seattle.dataset(0.0002);
    let points = dataset.points();
    let grid = GridSpec::new(dataset.mbr(), 32, 24).unwrap();
    let params = KdvParams::new(grid, KernelType::Epanechnikov, 2500.0);
    let density = KdvEngine::new(Method::SlamBucketRao).compute(&params, &points).unwrap();

    let art = ascii_art(&density, Scale::Log);
    assert_eq!(art.lines().count(), 24);

    let img = render(&density, ColorMap::Viridis, Scale::Sqrt);
    let mut ppm = Vec::new();
    img.write_ppm(&mut ppm).unwrap();
    assert_eq!(ppm.len(), "P6\n32 24\n255\n".len() + 32 * 24 * 3);
}
