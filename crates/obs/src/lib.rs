//! # kdv-obs — observability runtime for the SLAM-KDV workspace
//!
//! A dependency-free (no tokio, no `tracing`, std only) observability
//! layer shared by the sweep engines, the parallel runtime, the tile
//! server and the bench harness. The paper's cost model makes concrete
//! per-phase predictions — envelope extraction vs. interval sort vs. row
//! sweep — and this crate is how the repo observes them empirically:
//!
//! * [`span`](mod@span) — the **span log**: one per-thread log of
//!   completed spans with static names and `u64` arguments, registered in
//!   one global registry. Spans are RAII guards ([`span::span`]), so each
//!   thread's spans nest by construction; a span records once, when its
//!   guard drops. With both consumers off a span costs two relaxed atomic
//!   loads and a branch. Whole-run export ([`span::take_trace`]) drains
//!   every log, running threads' included.
//! * [`metrics`] — a **registry** of named counters, gauges and
//!   fixed-bucket log2 histograms with cheap atomic recording. Counters
//!   are *saturating* (they stick at `u64::MAX` instead of wrapping),
//!   matching the tile-cache counter semantics. Point-in-time
//!   [`metrics::Snapshot`]s can be diffed and serialized.
//! * [`export`] — exporters: Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), a flat JSON metrics snapshot, and a
//!   human-readable per-phase summary table.
//! * [`stats`] — the percentile / median / latency-formatting helpers
//!   previously copy-pasted between the CLI and the bench binaries.
//! * [`telemetry`] — the sweep statistics read back from a trace's row
//!   spans: what `kdv --stats` prints and the `sweep.*` metrics export.
//!
//! On top of the post-hoc layer sits the *operational* layer for
//! long-lived `kdv serve` processes:
//!
//! * [`ring`] — the always-on **flight recorder**, the span log's second
//!   consumer: outside a whole-run trace each log overwrites its oldest
//!   span at [`ring::RING_CAPACITY`], and exited threads share one
//!   retired log, so it stays bounded. Trigger-based **incident dumps** —
//!   a shed, a duplicate band compute, an SLO breach or a leader panic —
//!   snapshot the last N seconds of the logs, the metrics registry and
//!   the slow-request [`ring::Exemplar`]s into a Perfetto-loadable file.
//!   `obs.dropped_events` counts span writes lost to a log a consumer
//!   was reading.
//! * [`window`] — rotating time-windowed histograms beside the
//!   cumulative ones ("p99 over the last 10 s").
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
pub mod telemetry;
pub mod window;

pub use export::{chrome_trace_json, metrics_json, phase_summary, validate_json};
pub use metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
pub use prometheus::prometheus_text;
pub use ring::{arm_incidents, disarm_incidents, trigger, Exemplar, IncidentConfig};
pub use slo::{RequestClass, SloObservation, SloTargets, SloTracker};
pub use span::{enabled, set_enabled, span, span1, span2, SpanArgs, SpanGuard, Trace, TraceEvent};
pub use window::WindowedHistogram;
