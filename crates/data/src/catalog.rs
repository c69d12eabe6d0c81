//! Synthetic stand-ins for the paper's four evaluation datasets (Table 5).
//!
//! The originals are city open-data feeds (Seattle crime, Los Angeles
//! crime, New York traffic collisions, San Francisco 311 calls) that are
//! not redistributable here. Each catalog entry synthesises a feed with
//! matching *shape*: city-scale metric extent, multi-hotspot mixture,
//! street-grid alignment, category mix and the paper's relative dataset
//! sizes (SF ≈ 5× Seattle). The `scale` parameter shrinks `n` uniformly so
//! the full experiment grid finishes on a laptop; `scale = 1.0` reproduces
//! the paper's row counts.

use kdv_core::geom::{Point, Rect};

use crate::record::Dataset;
use crate::scott::scott_bandwidth;
use crate::synth::{generate, Hotspot, SynthConfig};

/// The four cities of the paper's Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum City {
    /// Seattle crime events (paper: n = 862,873, b = 671.39 m).
    Seattle,
    /// Los Angeles crime events (paper: n = 1,255,668, b = 1588.47 m).
    LosAngeles,
    /// New York traffic accidents (paper: n = 1,499,928, b = 1062.53 m).
    NewYork,
    /// San Francisco 311 calls (paper: n = 4,333,098, b = 279.27 m).
    SanFrancisco,
}

impl City {
    /// All four cities in Table-5 order.
    pub const ALL: [City; 4] = [City::Seattle, City::LosAngeles, City::NewYork, City::SanFrancisco];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            City::Seattle => "Seattle",
            City::LosAngeles => "Los Angeles",
            City::NewYork => "New York",
            City::SanFrancisco => "San Francisco",
        }
    }

    /// Paper's full dataset size `n`.
    pub fn paper_size(&self) -> usize {
        match self {
            City::Seattle => 862_873,
            City::LosAngeles => 1_255_668,
            City::NewYork => 1_499_928,
            City::SanFrancisco => 4_333_098,
        }
    }

    /// Event-category label set (used by attribute filtering demos).
    pub fn category_names(&self) -> &'static [&'static str] {
        match self {
            City::Seattle | City::LosAngeles => {
                &["burglary", "robbery", "assault", "theft", "vandalism"]
            }
            City::NewYork => &["rear-end", "sideswipe", "pedestrian", "cyclist"],
            City::SanFrancisco => {
                &["graffiti", "street-cleaning", "encampment", "noise", "pothole", "tree"]
            }
        }
    }

    /// Synthetic generator configuration emulating the city's shape.
    pub fn synth_config(&self) -> SynthConfig {
        /// One hotspot as `(cx, cy, sigma_x, sigma_y, weight)`.
        type Spot = (f64, f64, f64, f64, f64);
        // extents are rough metric spans of each city's projected MBR
        let (extent, grid, spots): (Rect, f64, Vec<Spot>) = match self {
            City::Seattle => (
                Rect::new(0.0, 0.0, 22_000.0, 38_000.0),
                120.0,
                vec![
                    // (cx, cy, sx, sy, w) — downtown, Capitol Hill, U-district
                    (9_500.0, 20_000.0, 900.0, 1_400.0, 3.0),
                    (11_000.0, 23_000.0, 700.0, 900.0, 2.0),
                    (11_500.0, 28_000.0, 800.0, 800.0, 1.5),
                    (8_000.0, 9_000.0, 1_500.0, 1_800.0, 1.0),
                ],
            ),
            City::LosAngeles => (
                Rect::new(0.0, 0.0, 70_000.0, 50_000.0),
                150.0,
                vec![
                    (35_000.0, 25_000.0, 2_500.0, 2_500.0, 3.0), // downtown
                    (20_000.0, 30_000.0, 2_000.0, 1_500.0, 2.0), // Hollywood
                    (15_000.0, 15_000.0, 2_500.0, 2_000.0, 1.5), // south bay
                    (55_000.0, 35_000.0, 3_000.0, 2_500.0, 1.0), // valley
                ],
            ),
            City::NewYork => (
                Rect::new(0.0, 0.0, 40_000.0, 45_000.0),
                100.0,
                vec![
                    (18_000.0, 25_000.0, 1_200.0, 3_500.0, 3.0), // Manhattan spine
                    (24_000.0, 18_000.0, 2_500.0, 2_000.0, 2.5), // Brooklyn
                    (26_000.0, 30_000.0, 2_500.0, 2_000.0, 2.0), // Queens
                    (14_000.0, 35_000.0, 1_800.0, 1_500.0, 1.0), // Bronx
                ],
            ),
            City::SanFrancisco => (
                Rect::new(0.0, 0.0, 12_000.0, 12_000.0),
                90.0,
                vec![
                    (6_500.0, 7_500.0, 500.0, 500.0, 3.0),   // Tenderloin/SoMa
                    (7_500.0, 8_200.0, 400.0, 400.0, 2.0),   // downtown
                    (5_000.0, 5_000.0, 900.0, 900.0, 1.5),   // Mission
                    (3_000.0, 8_000.0, 1_000.0, 800.0, 1.0), // Richmond
                ],
            ),
        };
        SynthConfig {
            extent,
            hotspots: spots
                .into_iter()
                .map(|(cx, cy, sx, sy, w)| Hotspot {
                    center: Point::new(cx, cy),
                    sigma_x: sx,
                    sigma_y: sy,
                    weight: w,
                })
                .collect(),
            background_fraction: 0.25,
            street_grid: Some(grid),
            categories: self.category_names().len() as u16,
            years: (2008, 2021),
        }
    }

    /// Generates the synthetic dataset at `scale` × the paper's size,
    /// deterministically (seeded per city).
    pub fn dataset(&self, scale: f64) -> Dataset {
        let n = ((self.paper_size() as f64 * scale).round() as usize).max(1);
        // arbitrary fixed per-city seeds
        let seed: u64 = match self {
            City::Seattle => 0x5EA7_71E5,
            City::LosAngeles => 0x1057_00A5,
            City::NewYork => 0x00E7_0B1D,
            City::SanFrancisco => 0x5F5F_5F5F,
        };
        let records = generate(&self.synth_config(), n, seed);
        Dataset::new(self.name(), records)
    }
}

/// Scott's-rule bandwidth of a generated dataset (what the experiments use
/// as the default `b`, mirroring the paper's methodology).
pub fn default_bandwidth(dataset: &Dataset) -> f64 {
    scott_bandwidth(&dataset.points())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cities_generate_within_extent() {
        for city in City::ALL {
            let d = city.dataset(0.001);
            assert!(!d.is_empty());
            let cfg = city.synth_config();
            for r in &d.records {
                assert!(cfg.extent.contains(&r.point), "{}: {:?}", city.name(), r.point);
            }
        }
    }

    #[test]
    fn scale_controls_size() {
        let d = City::Seattle.dataset(0.01);
        assert_eq!(d.len(), (862_873.0_f64 * 0.01).round() as usize);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = City::NewYork.dataset(0.001);
        let b = City::NewYork.dataset(0.001);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn scott_bandwidth_is_city_scaled() {
        // bandwidth must be a small fraction of the extent, like Table 5
        for city in City::ALL {
            let d = city.dataset(0.005);
            let b = default_bandwidth(&d);
            let extent = city.synth_config().extent;
            let span = extent.width().max(extent.height());
            assert!(b > 0.0, "{}", city.name());
            assert!(b < span / 4.0, "{}: b={b} too large for span {span}", city.name());
        }
    }

    #[test]
    fn paper_metadata() {
        assert_eq!(City::SanFrancisco.paper_size(), 4_333_098);
        assert_eq!(City::Seattle.name(), "Seattle");
        assert!(City::NewYork.category_names().contains(&"pedestrian"));
    }
}
