//! E5 — paper Figure 16: exploratory operations (zooming and panning) on
//! Seattle and Los Angeles, events restricted to calendar year 2019.
//!
//! Zooming: the dataset MBR scaled by {0.25, 0.5, 0.75, 1}. Panning: five
//! random `0.5H × 0.5W` windows inside the MBR. Resolution fixed (like the
//! paper's 1280×960); the bandwidth is the year-filtered Scott value.

use kdv_baselines::AnyMethod;
use kdv_bench::{banner, time_method, CityData, HarnessConfig, Table};
use kdv_core::driver::KdvParams;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::{KernelType, Method};
use kdv_data::catalog::City;
use kdv_data::record::year_start;

/// The zoom regions of the paper's Figure-16 zoom experiment: the MBR
/// scaled about its centre by each ratio (0.25 / 0.5 / 0.75 / 1).
pub fn zoom_regions(mbr: Rect, ratios: &[f64]) -> Vec<Rect> {
    ratios.iter().map(|&r| mbr.scaled_about_center(r, r)).collect()
}

/// The pan regions of the paper's Figure-16 pan experiment: `count`
/// randomly placed windows of size `0.5H × 0.5W` inside the MBR, seeded.
pub fn pan_regions(mbr: Rect, count: usize, seed: u64) -> Vec<Rect> {
    let (w, h) = (mbr.width() * 0.5, mbr.height() * 0.5);
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: deterministic, dependency-free
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| {
            let x0 = mbr.min_x + next() * (mbr.width() - w);
            let y0 = mbr.min_y + next() * (mbr.height() - h);
            Rect::new(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

fn figure_lineup() -> Vec<AnyMethod> {
    vec![
        AnyMethod::Scan,
        AnyMethod::RqsKd,
        AnyMethod::RqsBall,
        AnyMethod::ZOrder { sample_fraction: 0.05 },
        AnyMethod::Akde { epsilon: 1e-6 },
        AnyMethod::Quad,
        AnyMethod::Slam(Method::SlamBucketRao),
    ]
}

fn main() {
    let cfg = HarnessConfig::from_args();
    banner("Figure 16: zooming and panning (events from year 2019)", &cfg);
    let methods = figure_lineup();

    for city in [City::Seattle, City::LosAngeles] {
        let cd = CityData::load(city, cfg.scale);
        // time-based filter: 1 Jan 2019 .. 31 Dec 2019
        let year_points: Vec<Point> = cd
            .dataset
            .filter_time(year_start(2019), year_start(2020))
            .iter()
            .map(|r| r.point)
            .collect();
        let bandwidth = kdv_data::scott_bandwidth(&year_points);
        let weight = 1.0 / year_points.len().max(1) as f64;
        eprintln!("{}: {} events in 2019, b={:.1} m", city.name(), year_points.len(), bandwidth);

        // (a, b): zooming
        let mut headers = vec!["Zoom ratio".to_string()];
        headers.extend(methods.iter().map(|m| m.name()));
        let href: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut zoom_table = Table::new(format!("Figure 16 zoom — {}", city.name()), &href);
        let ratios = [0.25, 0.5, 0.75, 1.0];
        for (region, ratio) in zoom_regions(cd.mbr, &ratios).into_iter().zip(ratios) {
            let grid = GridSpec::new(region, cfg.resolution.0, cfg.resolution.1).unwrap();
            let params =
                KdvParams::new(grid, KernelType::Epanechnikov, bandwidth).with_weight(weight);
            let mut row = vec![format!("{ratio}")];
            for m in &methods {
                let t = time_method(m, &params, &year_points, cfg.cap);
                row.push(t.cell(cfg.cap_secs()));
                eprintln!("  zoom {:<5} {:<18} {}", ratio, m.name(), row.last().unwrap());
            }
            zoom_table.push_row(row);
        }
        let stem = format!("fig16_zoom_{}", city.name().to_lowercase().replace(' ', "_"));
        zoom_table.emit(&cfg.out_dir, &stem);

        // (c, d): panning
        let mut headers = vec!["Pan #".to_string()];
        headers.extend(methods.iter().map(|m| m.name()));
        let href: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut pan_table = Table::new(format!("Figure 16 pan — {}", city.name()), &href);
        for (i, region) in pan_regions(cd.mbr, 5, 0xF16).into_iter().enumerate() {
            let grid = GridSpec::new(region, cfg.resolution.0, cfg.resolution.1).unwrap();
            let params =
                KdvParams::new(grid, KernelType::Epanechnikov, bandwidth).with_weight(weight);
            let mut row = vec![format!("{}", i + 1)];
            for m in &methods {
                let t = time_method(m, &params, &year_points, cfg.cap);
                row.push(t.cell(cfg.cap_secs()));
                eprintln!("  pan {:<3} {:<18} {}", i + 1, m.name(), row.last().unwrap());
            }
            pan_table.push_row(row);
        }
        let stem = format!("fig16_pan_{}", city.name().to_lowercase().replace(' ', "_"));
        pan_table.emit(&cfg.out_dir, &stem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoom_regions_match_paper_ratios() {
        let mbr = Rect::new(0.0, 0.0, 40.0, 40.0);
        let regions = zoom_regions(mbr, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(regions.len(), 4);
        assert!((regions[0].width() - 10.0).abs() < 1e-12);
        assert_eq!(regions[3], mbr);
        for r in &regions {
            assert_eq!(r.center(), mbr.center());
        }
    }

    #[test]
    fn pan_regions_are_half_size_and_inside() {
        let mbr = Rect::new(10.0, 20.0, 110.0, 80.0);
        let regions = pan_regions(mbr, 5, 99);
        assert_eq!(regions.len(), 5);
        for r in &regions {
            assert!((r.width() - 50.0).abs() < 1e-9);
            assert!((r.height() - 30.0).abs() < 1e-9);
            assert!(r.min_x >= mbr.min_x - 1e-9 && r.max_x <= mbr.max_x + 1e-9);
            assert!(r.min_y >= mbr.min_y - 1e-9 && r.max_y <= mbr.max_y + 1e-9);
        }
        // deterministic
        assert_eq!(regions, pan_regions(mbr, 5, 99));
    }
}
