//! # kdv-conformance — cross-engine differential conformance harness
//!
//! SLAM's value proposition is *exactness*: every engine in the workspace
//! must agree with a naive oracle up to floating-point conditioning. This
//! crate checks that systematically instead of ad hoc:
//!
//! * [`oracle`] — the registry pairing every density-producing engine
//!   (core sweeps, parallel drivers, weighted, baselines, STKDV, tiles,
//!   coreset and streaming serving) with its ground-truth reference.
//! * [`tolerance`] — the single ULP/relative-error policy replacing the
//!   per-test magic constants.
//! * [`case`] — deterministic seeded generation of adversarial
//!   configurations, serialized losslessly (floats as bit patterns).
//! * [`corpus`] — the committed, replayed regression corpus and the
//!   shrinker that minimises new failures before they are recorded.
//! * [`report`] — JSON report of max observed error per
//!   engine×kernel×config.
//!
//! The `kdv-conformance` bin runs the matrix: `--quick` in CI, `--soak N`
//! for long fuzz runs. See `TESTING.md` at the workspace root for the
//! policy rationale and triage guide.

pub mod case;
pub mod corpus;
pub mod oracle;
pub mod report;
pub mod tolerance;

pub use case::CaseSpec;
pub use oracle::{run_case, PairResult, PAIR_NAMES};
pub use report::Report;
pub use tolerance::{compare, Comparison, Policy};
