//! # kdv-explore — exploratory operations over KDV
//!
//! The paper motivates SLAM with exploratory visual analytics: a domain
//! expert generates *many* KDVs per dataset via zooming, panning, bandwidth
//! selection, attribute-based filtering and time-based filtering
//! (Figure 2). This crate models that workload:
//!
//! * [`viewport`] — the geographic window + raster resolution, with the
//!   zoom/pan algebra and the paper's Figure-16 region protocols.
//! * [`session`] — a stateful [`session::ExploreSession`] that applies
//!   operations and re-renders through a SLAM engine, reporting per-render
//!   workload statistics.

pub mod session;
pub mod viewport;

pub use session::{Bandwidth, ExploreSession, RenderResult};
pub use viewport::{pan_regions, zoom_regions, Viewport};
