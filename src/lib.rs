//! # slam-kdv — exact Kernel Density Visualization with sweep lines
//!
//! Facade crate for the SLAM-KDV workspace, a from-scratch Rust
//! reproduction of *SLAM: Efficient Sweep Line Algorithms for Kernel
//! Density Visualization* (Chan, U, Choi, Xu — SIGMOD 2022). It re-exports
//! the member crates under one roof:
//!
//! * [`core`] (`kdv-core`) — the SLAM engines and the resolution-aware
//!   optimization; the paper's contribution.
//! * [`index`] (`kdv-index`) — kd-tree, ball-tree, aggregate quadtree and
//!   Z-order substrates.
//! * [`baselines`] (`kdv-baselines`) — SCAN, RQS, Z-order sampling, aKDE
//!   and QUAD comparators.
//! * [`data`] (`kdv-data`) — synthetic city datasets, Scott's rule,
//!   sampling, CSV I/O.
//! * [`temporal`] (`kdv-temporal`) — spatial-temporal KDV animations.
//! * [`analysis`] (`kdv-analysis`) — hotspot extraction.
//! * [`viz`] (`kdv-viz`) — heat-map rendering.
//!
//! Zoom and pan over a dataset (the paper's Figures 2 and 16) are served
//! by `kdv-serve`'s tile pyramid (`Viewport`, `PyramidSpec`, `Frontend`),
//! which the `kdv serve` command drives.
//!
//! The most common entry points are lifted to the top level; see
//! `examples/quickstart.rs` for a tour.

pub use kdv_analysis as analysis;
pub use kdv_baselines as baselines;
pub use kdv_core as core;
pub use kdv_data as data;
pub use kdv_index as index;
pub use kdv_temporal as temporal;
pub use kdv_viz as viz;

pub use kdv_baselines::AnyMethod;
pub use kdv_core::{DensityGrid, GridSpec, KdvError, KdvParams, KernelType, Method, Point, Rect};
pub use kdv_data::{City, Dataset};
