//! # kdv-obs — observability runtime for the SLAM-KDV workspace
//!
//! A dependency-free (no tokio, no `tracing`, std only) observability
//! layer shared by the sweep engines, the parallel runtime, the tile
//! server and the bench harness. The paper's cost model makes concrete
//! per-phase predictions — envelope extraction vs. interval sort vs. row
//! sweep — and this crate is how the repo observes them empirically:
//!
//! * [`span`](mod@span) — a per-thread **span recorder**: `begin`/`end` events with
//!   static names and `u64` arguments, recorded into thread-local buffers
//!   that drain into a global sink when a thread exits (or on an explicit
//!   [`span::flush_thread`]). Spans are RAII guards ([`span::span`]), so
//!   every begin has a matching end by construction; a **disabled**
//!   recorder costs one relaxed atomic load and a branch per span.
//! * [`metrics`] — a **registry** of named counters, gauges and
//!   fixed-bucket log2 histograms with cheap atomic recording. Counters
//!   are *saturating* (they stick at `u64::MAX` instead of wrapping),
//!   matching the tile-cache counter semantics. Point-in-time
//!   [`metrics::Snapshot`]s can be diffed and serialized.
//! * [`export`] — exporters: Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), a flat JSON metrics snapshot, and a
//!   human-readable per-phase summary table.
//! * [`stats`] — the percentile / median / latency-formatting helpers
//!   previously copy-pasted between `kdv-core` telemetry, the CLI and
//!   the bench binaries.
//!
//! On top of the post-hoc layer sits the *operational* layer for
//! long-lived `kdv serve` processes:
//!
//! * [`ring`] — the always-on **flight recorder**: bounded per-thread
//!   rings of completed spans (overwrite-oldest, losses counted in
//!   `obs.dropped_events`) with trigger-based **incident dumps** — a
//!   shed, a duplicate band compute, an SLO breach or a leader panic
//!   snapshots the last N seconds of spans, the metrics registry and
//!   the slow-request [`ring::Exemplar`]s into a Perfetto-loadable file.
//! * [`window`] — rotating time-windowed histograms/counters beside the
//!   cumulative ones ("p99 over the last 10 s", qps).
//! * [`slo`] — [`slo::SloTracker`]: windowed p50/p99 per request class
//!   (exact / coreset / live) against explicit targets, with
//!   edge-triggered breach detection feeding the incident triggers.
//! * [`prometheus`] — dependency-free Prometheus text-exposition writer
//!   over metrics [`metrics::Snapshot`]s, plus the minimal parser the
//!   golden tests use.
//!
//! The recorder state is process-global (one trace per process), which is
//! what a CLI invocation or a server wants. Tests that enable it must
//! serialize through [`span::exclusive`] and live in their own
//! integration-test binary so concurrent unit tests cannot interleave
//! foreign events into the window under assertion. The same rule covers
//! the flight recorder's [`ring::set_recording`] / [`ring::arm_incidents`].

pub mod export;
pub mod metrics;
pub mod prometheus;
pub mod ring;
pub mod slo;
pub mod span;
pub mod stats;
pub mod window;

pub use export::{chrome_trace_json, metrics_json, phase_summary, validate_json};
pub use metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
pub use prometheus::prometheus_text;
pub use ring::{arm_incidents, disarm_incidents, trigger, Exemplar, IncidentConfig};
pub use slo::{RequestClass, SloObservation, SloTargets, SloTracker};
pub use span::{enabled, set_enabled, span, span1, span2, SpanArgs, SpanGuard, Trace, TraceEvent};
pub use window::{WindowedCounter, WindowedHistogram};
