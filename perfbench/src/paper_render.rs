//! `paper_render`: the paper's default setting (Table 7) — the four city
//! datasets, a 1280×960 raster, the Epanechnikov kernel with Scott's-rule
//! bandwidth, SLAM_BUCKET^(RAO) — scaled for a steady median on a small
//! shared machine: each city at 1/[`SIZE_DIVISOR`] of its paper size, so
//! that a run holds dozens of passes (a paper-size pass takes 10–15 s on
//! two vCPUs), rendered on [`THREADS`] thread. One pass renders all four
//! cities; an operation is one city render.
//!
//! Almost all work is in `kdv-core`; `kdv-serve` and `kdv-stream` are
//! never touched, so a serving-only change predicts no change here.

use std::time::Instant;

use kdv_core::digest::grid_checksum;
use kdv_core::parallel::{compute_parallel_rao, default_threads, ParallelEngine};
use kdv_core::{DensityGrid, GridSpec, KdvParams, KernelType, Point};
use kdv_data::catalog::City;
use kdv_data::synth::generate;

use crate::layers::{self, CoreLayers};
use crate::report::{Outcome, RunArgs};
use crate::stats::{self, SplitMix64};

const RES: (usize, usize) = (1280, 960);
/// Each city has `City::paper_size() / SIZE_DIVISOR` points.
const SIZE_DIVISOR: usize = 32;
/// Render threads of the measured passes. One thread needs one core: its
/// time does not depend on whether the host lends the process a second
/// one. The traced run measures the speed-up on every core.
const THREADS: usize = 1;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;
/// Unmeasured passes before timing starts.
const WARMUP_PASSES: usize = 2;
/// Sampled pixels per city checked against the naive density scan.
const PIXEL_CHECKS: usize = 12;
/// Largest relative error a sampled pixel may have (the floor keeps
/// near-zero pixels from dividing by ~0: errors are relative to at
/// least 1e-6 of the raster's peak).
const MAX_REL_ERR: f64 = 1e-9;
/// The Figure 13 resolution ladder (traced runs, Seattle).
const LADDER: [(usize, usize); 4] = [(320, 240), (640, 480), (1280, 960), (2560, 1920)];

struct CityInput {
    city: City,
    points: Vec<Point>,
    params: KdvParams,
}

/// `n` points of city number `index` (Table 7 order), seeded.
fn city_points(index: usize, n: usize, seed: u64) -> Vec<Point> {
    let config = City::ALL[index].synth_config();
    generate(&config, n, stats::derive_seed(seed, index as u64))
        .into_iter()
        .map(|r| r.point)
        .collect()
}

/// Generates the four datasets from the workload seed and derives their
/// Scott's-rule parameters; returns them with the generation time.
fn generate_cities(seed: u64) -> (Vec<CityInput>, f64) {
    let mut generate_s = 0.0;
    let cities = City::ALL
        .iter()
        .enumerate()
        .map(|(i, &city)| {
            let t = Instant::now();
            let points = city_points(i, city.paper_size() / SIZE_DIVISOR, seed);
            generate_s += t.elapsed().as_secs_f64();
            let bandwidth = kdv_data::scott_bandwidth(&points);
            let grid =
                GridSpec::new(city.synth_config().extent, RES.0, RES.1).expect("valid raster");
            let params = KdvParams::new(grid, KernelType::Epanechnikov, bandwidth)
                .with_weight(1.0 / points.len() as f64);
            CityInput { city, points, params }
        })
        .collect();
    (cities, generate_s)
}

fn render(input: &CityInput, threads: usize) -> DensityGrid {
    compute_parallel_rao(&input.params, &input.points, ParallelEngine::Bucket, threads)
        .expect("valid render parameters")
}

/// One timed pass over the four cities: per-city seconds and checksums.
fn pass(cities: &[CityInput], threads: usize) -> (Vec<f64>, Vec<u64>, Vec<DensityGrid>) {
    let mut times = Vec::new();
    let mut sums = Vec::new();
    let mut grids = Vec::new();
    for input in cities {
        let t = Instant::now();
        let grid = render(input, threads);
        times.push(t.elapsed().as_secs_f64());
        sums.push(grid_checksum(&grid));
        grids.push(grid);
    }
    (times, sums, grids)
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    // Set-up: data generation and bandwidths, repeated for a steady
    // median.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut cities = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (c, g) = generate_cities(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(g);
        cities = c;
    }
    out.metric("setup_s", stats::median(&setup_s));
    out.metric("data.generate_s", stats::median(&generate_s));
    for c in &cities {
        eprintln!(
            "paper_render: {:<13} n={:>9} b={:.2} m",
            c.city.name(),
            c.points.len(),
            c.params.bandwidth
        );
    }

    // Unmeasured passes: the first render of each city pays the page
    // faults of its allocations, later passes reuse the memory.
    for _ in 0..WARMUP_PASSES {
        pass(&cities, THREADS);
    }

    // Measured passes.
    let mut pass_s = Vec::new();
    let mut op_ms = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (times, sums, grids) = pass(&cities, THREADS);
        pass_s.push(times.iter().sum::<f64>());
        op_ms.extend(times.iter().map(|s| s * 1e3));
        digests.push(sums);
        last = grids;
    }
    let render_s = stats::median(&pass_s);
    out.metric("render_s", render_s);
    out.metric("latency_p50_ms", stats::percentile(&op_ms, 0.5));
    out.metric("latency_p99_ms", stats::percentile(&op_ms, 0.99));
    out.metric("throughput_rps", op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3));
    eprintln!(
        "paper_render: {} passes, median {render_s:.3} s, fastest {:.3} s, slowest {:.3} s",
        pass_s.len(),
        stats::percentile(&pass_s, 0.0),
        stats::percentile(&pass_s, 1.0)
    );

    // Correctness, outside every timed window: every pass renders the
    // same bits, and sampled pixels match the naive O(n) density scan.
    let mut wrong = vec![false; cities.len()];
    for (i, input) in cities.iter().enumerate() {
        if digests.iter().any(|d| d[i] != digests[0][i]) {
            wrong[i] = true;
            out.failures.push(format!("{}: passes rendered different bits", input.city.name()));
        }
        let worst = max_pixel_error(input, &last[i], stats::derive_seed(args.seed, 100 + i as u64));
        if worst.is_nan() || worst > MAX_REL_ERR {
            wrong[i] = true;
            out.failures.push(format!("{}: sampled pixel rel. error {worst:e}", input.city.name()));
        }
        eprintln!(
            "paper_render: {:<13} checksum {:016x}, max sampled rel. error {worst:.2e}",
            input.city.name(),
            digests[0][i]
        );
    }
    let failed_per_pass = wrong.iter().filter(|&&w| w).count() as u64;
    out.ops(op_ms.len() as u64, failed_per_pass * pass_s.len() as u64);

    if args.trace {
        traced(&cities, render_s, &digests[0], out);
    }
}

/// Largest relative error over seeded sample pixels of `grid` against
/// `KernelType::density_scan`.
fn max_pixel_error(input: &CityInput, grid: &DensityGrid, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let floor = grid.max_value() * 1e-6;
    let p = &input.params;
    (0..PIXEL_CHECKS)
        .map(|_| {
            let (i, j) =
                (rng.below(p.grid.res_x as u64) as usize, rng.below(p.grid.res_y as u64) as usize);
            let exact = p.kernel.density_scan(
                &p.grid.pixel_center(i, j),
                &input.points,
                p.bandwidth,
                p.weight,
            );
            (grid.get(i, j) - exact).abs() / exact.abs().max(floor).max(f64::MIN_POSITIVE)
        })
        .fold(0.0, f64::max)
}

/// The traced run's extras: a pass with the in-program `kdv-obs` spans
/// on (trace overhead), a single-thread pass through the benchmark's own
/// per-layer timers (layer split), a pass on every core (parallel
/// speed-up), and the Figure 13 resolution ladder on Seattle.
fn traced(cities: &[CityInput], render_s: f64, digests: &[u64], out: &mut Outcome) {
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let (times, sums, _) = pass(cities, THREADS);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    eprintln!(
        "paper_render: kdv-obs phases of the traced pass\n{}",
        kdv_obs::phase_summary(&trace)
    );
    drop(trace);
    out.check(sums == digests, || "traced pass rendered different bits".to_string());
    out.metric("obs.trace_overhead", times.iter().sum::<f64>() / render_s);

    let mut core = CoreLayers::default();
    for (input, &digest) in cities.iter().zip(digests) {
        let grid = layers::render(&input.params, &input.points, &mut core).expect("valid render");
        out.check(grid_checksum(&grid) == digest, || {
            format!("{}: instrumented render differs from the parallel render", input.city.name())
        });
    }
    if let Some(problem) = core.reconcile("paper_render core layers") {
        out.failures.push(problem);
    }
    core.report(out);
    let (times, sums, _) = pass(cities, default_threads());
    out.check(sums == digests, || "pass on every core rendered different bits".to_string());
    out.metric("core.parallel_speedup", render_s / times.iter().sum::<f64>());

    // Figure 13: how each layer scales with the pixel count. Paper
    // Table 1 predicts the bucket sweep at O(Y·(X + |E(k)|)) — slope 1
    // when the X term dominates, 0.5 when |E(k)| does — and the banded
    // envelope fill at O(Y·(log n + |E(k)|)), slope 0.5.
    let seattle = &cities[0];
    let mut sweep_pts = Vec::new();
    let mut fill_pts = Vec::new();
    for (rx, ry) in LADDER {
        let mut params = seattle.params;
        params.grid = GridSpec::new(params.grid.region, rx, ry).expect("valid raster");
        let mut rung = CoreLayers::default();
        layers::render(&params, &seattle.points, &mut rung).expect("valid render");
        let pixels = (rx * ry) as f64;
        sweep_pts.push((pixels, rung.sweep_ns as f64));
        fill_pts.push((pixels, rung.fill_ns as f64));
        eprintln!(
            "paper_render: ladder {rx}x{ry}: row sweep {:.3} s, envelope fill {:.3} s, band search {:.4} s",
            stats::ns_to_s(rung.sweep_ns),
            stats::ns_to_s(rung.fill_ns),
            stats::ns_to_s(rung.band_ns)
        );
    }
    let (sweep_slope, fill_slope) =
        (stats::loglog_slope(&sweep_pts), stats::loglog_slope(&fill_pts));
    eprintln!(
        "paper_render: res slopes vs pixels: row sweep {sweep_slope:.3} (Table 1: 0.5..1.0), \
         envelope fill {fill_slope:.3} (Table 1: 0.5)"
    );
    out.metric("core.row_sweep.res_slope", sweep_slope);
    out.metric("core.envelope_fill.res_slope", fill_slope);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_generation_is_deterministic_per_seed_and_differs_across_seeds() {
        for index in 0..City::ALL.len() {
            assert_eq!(city_points(index, 2000, 1), city_points(index, 2000, 1));
            assert_ne!(city_points(index, 2000, 1), city_points(index, 2000, 2));
        }
        assert_ne!(city_points(0, 2000, 1), city_points(1, 2000, 1));
    }
}
