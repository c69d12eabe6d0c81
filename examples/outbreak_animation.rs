//! Spatial-temporal KDV animation (the paper's future-work scenario:
//! "visualizing the distribution of COVID-19 cases").
//!
//! ```text
//! cargo run --release --example outbreak_animation
//! ```
//!
//! Synthesises an outbreak that ignites downtown and migrates outward
//! over twelve weeks, then renders a weekly STKDV animation with an
//! Epanechnikov temporal kernel. Each frame is one weighted SLAM sweep;
//! frames are written as `outbreak_NN.ppm` plus a terminal strip chart of
//! total intensity over time.

use slam_kdv::core::driver::KdvParams;
use slam_kdv::core::geom::{Point, Rect};
use slam_kdv::core::{GridSpec, KernelType};
use slam_kdv::data::record::EventRecord;
use slam_kdv::temporal::{compute_stkdv, FrameSpec, StKdvConfig, TemporalKernel};
use slam_kdv::viz::{render, ColorMap, Scale};

const DAY: i64 = 86_400;

/// A moving outbreak: cases start near the centre and drift north-east
/// while the case rate rises then falls (a classic epidemic curve).
fn synthesize_outbreak() -> Vec<EventRecord> {
    let mut records = Vec::new();
    let mut state = 0xC0F1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let total_days = 84; // twelve weeks
    for day in 0..total_days {
        let t = day as f64 / total_days as f64;
        // epidemic curve: rises to a peak at ~40% then decays
        let rate = (120.0 * (-((t - 0.4) * (t - 0.4)) / 0.03).exp()) as usize + 2;
        // epicentre drifts north-east over time
        let cx = 4_000.0 + 3_000.0 * t;
        let cy = 4_000.0 + 2_500.0 * t;
        let spread = 500.0 + 800.0 * t; // widening
        for _ in 0..rate {
            // Box–Muller
            let u1: f64 = 1.0 - next();
            let u2 = next();
            let r = (-2.0 * u1.ln()).sqrt();
            let (dx, dy) =
                (r * (std::f64::consts::TAU * u2).cos(), r * (std::f64::consts::TAU * u2).sin());
            records.push(EventRecord {
                point: Point::new(cx + spread * dx, cy + spread * dy),
                timestamp: day as i64 * DAY + (next() * DAY as f64) as i64,
                category: 0,
            });
        }
    }
    records
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let records = synthesize_outbreak();
    println!("synthetic outbreak: {} cases over 12 weeks", records.len());

    let region = Rect::new(0.0, 0.0, 10_000.0, 9_000.0);
    let grid = GridSpec::new(region, 320, 288)?;
    let config = StKdvConfig {
        params: KdvParams::new(grid, KernelType::Epanechnikov, 900.0).with_weight(1e-3),
        frames: FrameSpec::new(0, 7 * DAY, 12), // weekly frames
        temporal_bandwidth: 10 * DAY,
        temporal_kernel: TemporalKernel::Epanechnikov,
    };

    let t0 = std::time::Instant::now();
    let frames = compute_stkdv(&config, &records, 1)?;
    println!(
        "computed {} frames ({}x{}) in {:.1} ms\n",
        frames.len(),
        grid.res_x,
        grid.res_y,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // strip chart of total intensity + per-frame hotspot location
    let max_total = frames.iter().map(|f| f.grid.total()).fold(0.0_f64, f64::max);
    for (i, frame) in frames.iter().enumerate() {
        let total = frame.grid.total();
        let bars = ((total / max_total) * 40.0).round() as usize;
        // hotspot centre
        let mut hot = (0usize, 0usize, f64::MIN);
        for j in 0..frame.grid.res_y() {
            for x in 0..frame.grid.res_x() {
                if frame.grid.get(x, j) > hot.2 {
                    hot = (x, j, frame.grid.get(x, j));
                }
            }
        }
        let c = grid.pixel_center(hot.0, hot.1);
        println!(
            "week {:>2}  {:>5} cases in window  |{:<40}|  hotspot ({:>5.0}, {:>5.0})",
            i + 1,
            frame.events,
            "#".repeat(bars),
            c.x,
            c.y
        );
        let file = format!("outbreak_{:02}.ppm", i + 1);
        render(&frame.grid, ColorMap::Heat, Scale::Sqrt).save_ppm(std::path::Path::new(&file))?;
    }
    println!("\nwrote outbreak_01.ppm .. outbreak_12.ppm");
    Ok(())
}
