//! # kdv-temporal — spatial-temporal KDV on top of SLAM
//!
//! The paper lists spatial-temporal KDV (STKDV) as future work. This crate
//! builds it from the pieces already in the workspace: the density of a
//! pixel `q` at a frame time `t` is
//!
//! ```text
//! F(q, t) = Σ_i  K_time(t, t_i) · K_space(q, p_i)
//! ```
//!
//! with a finite-support temporal kernel. For each frame, the temporal
//! kernel fixes a per-event weight, so the spatial part reduces to a
//! *weighted* KDV — exactly what `kdv_core::weighted` computes in
//! `O(min(X,Y)·(max(X,Y) + n_t))` for the `n_t` events inside the frame's
//! temporal support. Records are sorted by time once; each frame's support
//! window is then located by binary search, so a whole animation costs
//! `O(n log n + Σ_t frame_cost)`.

pub mod frames;
pub mod stkdv;

pub use frames::FrameSpec;
pub use stkdv::{compute_stkdv, Frame, StKdvConfig, TemporalKernel};
