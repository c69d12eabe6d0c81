//! # kdv-viz — heat-map rendering for KDV
//!
//! Turns the density rasters produced by the engines into the hotspot
//! imagery of the paper's Figure 1:
//!
//! * [`normalize`] — linear / sqrt / log density scales.
//! * [`colormap`] — heat, grayscale and viridis-like gradients.
//! * [`image`] — RGB rendering plus PPM/ASCII output (hand-rolled; the
//!   formats are trivial and the dependency budget is spent on
//!   algorithmic crates).

pub mod colormap;
pub mod image;
pub mod normalize;

pub use colormap::{ColorMap, Rgb};
pub use image::{ascii_art, render, Image};
pub use normalize::Scale;
