//! # kdv-analysis — analysis on top of KDV rasters
//!
//! The paper's motivation is hotspot *detection*; this crate provides the
//! downstream step a KDV consumer runs once the raster exists:
//!
//! * [`hotspot`] — threshold + connected-component hotspot extraction
//!   with per-region summaries (mass, peak, centroid, area).

pub mod hotspot;

pub use hotspot::{extract_hotspots, hotspots_by_peak_fraction, Hotspot};
