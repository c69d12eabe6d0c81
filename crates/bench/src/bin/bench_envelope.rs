//! Bandwidth sweep of envelope extraction: full-scan vs banded index.
//!
//! For each bandwidth, times (a) extraction alone over every raster row
//! — `O(Y·n)` for the scan vs `O(Y·(log n + |E(k)|))` for the banded
//! index — and (b) the end-to-end SLAM_BUCKET raster through both
//! extraction paths, asserting the two rasters are bitwise identical.
//! Emits `BENCH_envelope.json` into the output directory (`--out`,
//! default `target/bench-results/`; `--out results` records the run in
//! the committed history).
//!
//! Expected shape: banded wins by orders of magnitude at small bandwidth
//! (almost every point is out of band) and converges to parity as the
//! bandwidth approaches the region size (every point is in band, so both
//! paths do the same interval fills).

use std::time::Instant;

use kdv_bench::HarnessConfig;
use kdv_core::driver::{sweep_grid, sweep_grid_scan, KdvParams, SweepContext};
use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::KernelType;
use kdv_data::synth::{generate, SynthConfig};

/// Median-of-5 timing in seconds.
fn median_secs(mut run: impl FnMut()) -> f64 {
    let mut samples = [0.0_f64; 5];
    for s in &mut samples {
        let t0 = Instant::now();
        run();
        *s = t0.elapsed().as_secs_f64();
    }
    kdv_obs::stats::median_f64(&samples).expect("five samples")
}

struct Row {
    bandwidth: f64,
    mean_band: f64,
    extract_scan_s: f64,
    extract_banded_s: f64,
    total_scan_s: f64,
    total_banded_s: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let extent = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let n = (5_000_000.0 * cfg.scale).round().max(1_000.0) as usize;
    let points: Vec<Point> =
        generate(&SynthConfig::simple(extent), n, 11).into_iter().map(|r| r.point).collect();
    let grid = GridSpec::new(extent, cfg.resolution.0, cfg.resolution.1).unwrap();

    println!(
        "envelope extraction bench: n={} raster={}x{} region=10000x10000",
        points.len(),
        grid.res_x,
        grid.res_y
    );
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "bandwidth", "mean|E(k)|", "extract scan", "extract band", "total scan", "total band"
    );

    let mut rows: Vec<Row> = Vec::new();
    for bandwidth in [25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 10_000.0] {
        let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth)
            .with_weight(1.0 / points.len() as f64);
        let ctx = SweepContext::new(&params, &points).unwrap();
        let mut envelope = EnvelopeBuffer::for_points(points.len());

        let mut total_intervals = 0usize;
        let extract_scan_s = median_secs(|| {
            total_intervals = 0;
            for &k in &ctx.ks {
                total_intervals += envelope.fill(&ctx.points, bandwidth, k).len();
            }
        });
        let extract_banded_s = median_secs(|| {
            for &k in &ctx.ks {
                let band = ctx.index.band(bandwidth, k);
                if band.is_empty() {
                    continue;
                }
                envelope.fill_band(&ctx.index, band, bandwidth, k);
            }
        });

        let mut reference = None;
        let total_scan_s = median_secs(|| {
            let mut engine = BucketSweep::new(params.kernel, bandwidth, params.weight);
            reference = Some(sweep_grid_scan(&params, &points, &mut engine).unwrap());
        });
        let mut banded_grid = None;
        let total_banded_s = median_secs(|| {
            let make = || BucketSweep::new(params.kernel, bandwidth, params.weight);
            banded_grid = Some(sweep_grid(&params, &points, 1, make).unwrap());
        });
        assert_eq!(banded_grid, reference, "banded output must be bitwise identical");

        let mean_band = total_intervals as f64 / grid.res_y as f64;
        println!(
            "{:>10.0} {:>12.1} {:>13.2}ms {:>13.2}ms {:>11.2}ms {:>11.2}ms",
            bandwidth,
            mean_band,
            extract_scan_s * 1e3,
            extract_banded_s * 1e3,
            total_scan_s * 1e3,
            total_banded_s * 1e3
        );
        rows.push(Row {
            bandwidth,
            mean_band,
            extract_scan_s,
            extract_banded_s,
            total_scan_s,
            total_banded_s,
        });
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"n\": {},\n  \"res_x\": {},\n  \"res_y\": {},\n  \"region\": [0, 0, 10000, 10000],\n  \"kernel\": \"epanechnikov\",\n  \"rows\": [\n",
        points.len(),
        grid.res_x,
        grid.res_y
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bandwidth\": {}, \"mean_band\": {:.2}, \"extract_scan_s\": {:.6}, \"extract_banded_s\": {:.6}, \"total_scan_s\": {:.6}, \"total_banded_s\": {:.6}}}{}\n",
            r.bandwidth,
            r.mean_band,
            r.extract_scan_s,
            r.extract_banded_s,
            r.total_scan_s,
            r.total_banded_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_envelope.json");
    std::fs::write(&path, json).expect("write BENCH_envelope.json");
    println!("wrote {}", path.display());
}
