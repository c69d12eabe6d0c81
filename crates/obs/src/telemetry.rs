//! Sweep telemetry read from the span stream: what the row sweeps of a
//! run did, derived from the spans the sweep engines record (there is
//! no second, hand-assembled report beside them).
//!
//! The raster driver wraps a raster in a `sweep.parallel` span carrying
//! `threads`, `peak_bytes` and `aux_bytes`; each swept row records
//! `band.search`, then, unless its band is empty, `envelope.fill` (with
//! the row's envelope size `|E(k)|` as its `size` argument) and
//! `row.sweep`, all on the worker's own thread track. [`SweepStats`]
//! folds those into the `kdv --stats` summary and [`record_metrics`]
//! publishes them as the `sweep.*` metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{Trace, TraceEvent};

/// One worker thread's share of the row spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerRows {
    /// Rows the thread swept (one `band.search` each).
    pub rows: usize,
    /// Band search plus envelope extraction time, nanoseconds.
    pub fill_ns: u64,
    /// Row sweep time, nanoseconds.
    pub sweep_ns: u64,
}

/// What the row sweeps of a run did, read from its trace.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Raster rows swept.
    pub rows: usize,
    /// Rows whose band was empty (no `envelope.fill`).
    pub skipped: usize,
    /// `|E(k)|` per non-empty row, in trace order.
    pub sizes: Vec<u64>,
    /// Per recording thread, in thread-id order.
    pub workers: BTreeMap<u64, WorkerRows>,
    /// Workers the raster driver ran (idle ones record no row span).
    pub threads: usize,
    /// Duration of the longest `sweep.parallel` span.
    pub wall_ns: u64,
    /// Largest auxiliary heap of one worker, bytes.
    pub peak_bytes: u64,
    /// Auxiliary heap of the whole raster, bytes.
    pub aux_bytes: u64,
}

impl SweepStats {
    /// Folds the sweep spans of `trace`; other spans are ignored.
    pub fn from_trace(trace: &Trace) -> Self {
        fn arg(e: &TraceEvent, key: &str) -> u64 {
            e.args.as_slice().iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
        }
        let mut s = Self::default();
        for e in &trace.events {
            match e.name {
                "sweep.parallel" if e.dur_ns >= s.wall_ns => {
                    s.wall_ns = e.dur_ns;
                    s.threads = arg(e, "threads") as usize;
                    s.peak_bytes = arg(e, "peak_bytes");
                    s.aux_bytes = arg(e, "aux_bytes");
                }
                "band.search" | "envelope.fill" | "row.sweep" => {
                    let w = s.workers.entry(e.tid).or_default();
                    match e.name {
                        "band.search" => {
                            s.rows += 1;
                            w.rows += 1;
                            w.fill_ns += e.dur_ns;
                        }
                        "envelope.fill" => {
                            s.sizes.push(arg(e, "size"));
                            w.fill_ns += e.dur_ns;
                        }
                        _ => w.sweep_ns += e.dur_ns,
                    }
                }
                _ => {}
            }
        }
        s.skipped = s.rows.saturating_sub(s.sizes.len());
        s
    }

    /// `|E(k)|` of every row, an empty (skipped) row counting as 0.
    pub fn row_sizes(&self) -> Vec<u64> {
        let mut sizes = self.sizes.clone();
        sizes.resize(self.rows, 0);
        sizes
    }

    /// Nearest-rank percentile of [`SweepStats::row_sizes`], 0 when no
    /// row was swept.
    pub fn envelope_percentile(&self, q: f64) -> u64 {
        crate::stats::percentile_u64(&self.row_sizes(), q).unwrap_or(0)
    }

    /// Rows per worker in thread-id order, padded with zeros up to the
    /// driver's worker count.
    pub fn rows_per_worker(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.workers.values().map(|w| w.rows).collect();
        rows.resize(rows.len().max(self.threads), 0);
        rows
    }

    /// Busiest worker's rows over the even share (1.0 is perfect
    /// balance, and the value when nothing was swept).
    pub fn imbalance(&self) -> f64 {
        let per_worker = self.rows_per_worker();
        let ideal = self.rows as f64 / per_worker.len().max(1) as f64;
        let busiest = per_worker.iter().copied().max().unwrap_or(0);
        if ideal == 0.0 {
            1.0
        } else {
            busiest as f64 / ideal
        }
    }

    /// The `kdv --stats` summary.
    pub fn summary(&self) -> String {
        let total: u64 = self.sizes.iter().sum();
        let pct = |q| self.envelope_percentile(q);
        let ms = |ns: u64| ns as f64 / 1e6;
        let (fill_ns, sweep_ns) =
            self.workers.values().fold((0, 0), |(f, s), w| (f + w.fill_ns, s + w.sweep_ns));
        let per_worker = self.rows_per_worker();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep stats: {} rows on {} workers, wall {:.3} ms",
            self.rows,
            per_worker.len(),
            ms(self.wall_ns)
        );
        let _ = writeln!(
            out,
            "  phases: envelope extraction {:.3} ms, sweep {:.3} ms (cpu totals)",
            ms(fill_ns),
            ms(sweep_ns)
        );
        let _ = writeln!(
            out,
            "  envelopes: total {total} intervals, max/row {}, mean/row {:.1}",
            pct(1.0),
            total as f64 / self.rows.max(1) as f64
        );
        let _ = writeln!(
            out,
            "  band sizes: p10 {} / p50 {} / p90 {} / p99 {}, {} empty rows skipped",
            pct(0.10),
            pct(0.50),
            pct(0.90),
            pct(0.99),
            self.skipped
        );
        let _ = writeln!(out, "  rows/worker: {per_worker:?} (imbalance {:.2})", self.imbalance());
        let _ = writeln!(
            out,
            "  aux space: peak worker {} B, total {} B",
            self.peak_bytes, self.aux_bytes
        );
        out
    }
}

/// Publishes the run's `sweep.*` metrics, read from its trace, and the
/// tile cache's `cache.*` counters `[hits, misses, evictions, rejected,
/// patched]` (zero for a plain render) into the global registry:
/// counters `sweep.rows` / `sweep.rows_skipped`, histograms
/// `sweep.fill_ns` / `sweep.sweep_ns` per worker and
/// `sweep.envelope_size` per row.
pub fn record_metrics(trace: &Trace, cache: [u64; 5]) {
    let stats = SweepStats::from_trace(trace);
    let reg = crate::metrics::global();
    reg.counter("sweep.rows").add(stats.rows as u64);
    reg.counter("sweep.rows_skipped").add(stats.skipped as u64);
    let (fill, sweep) = (reg.histogram("sweep.fill_ns"), reg.histogram("sweep.sweep_ns"));
    for w in stats.workers.values() {
        fill.record(w.fill_ns);
        sweep.record(w.sweep_ns);
    }
    let env = reg.histogram("sweep.envelope_size");
    for size in stats.row_sizes() {
        env.record(size);
    }
    let names =
        ["cache.hits", "cache.misses", "cache.evictions", "cache.rejected", "cache.patched"];
    for (name, n) in names.into_iter().zip(cache) {
        reg.counter(name).add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanArgs;

    fn ev(
        name: &'static str,
        tid: u64,
        ts: u64,
        dur: u64,
        a: &[(&'static str, u64)],
    ) -> TraceEvent {
        let mut args = SpanArgs::default();
        for &(k, v) in a {
            args.push(k, v);
        }
        TraceEvent { name, tid, ts_ns: ts, dur_ns: dur, args }
    }

    /// The row spans of one swept (`Some(size)`) or skipped (`None`) row.
    fn row(tid: u64, row: u64, size: Option<u64>, fill: u64, sweep: u64) -> Vec<TraceEvent> {
        let mut spans = vec![ev("band.search", tid, 0, 0, &[("row", row)])];
        if let Some(size) = size {
            spans.push(ev("envelope.fill", tid, 0, fill, &[("row", row), ("size", size)]));
            spans.push(ev("row.sweep", tid, 0, sweep, &[("row", row)]));
        }
        spans
    }

    /// Worker 1 sweeps rows 0 (size 4) and 2 (empty band, skipped);
    /// worker 2 sweeps row 1 (size 6); the calling thread holds the wall
    /// span of a three-worker raster (one worker claimed nothing).
    fn three_row_trace() -> Trace {
        Trace {
            events: vec![
                ev(
                    "sweep.parallel",
                    0,
                    0,
                    10_000,
                    &[("rows", 3), ("threads", 3), ("peak_bytes", 64), ("aux_bytes", 1_000)],
                ),
                ev("band.search", 1, 100, 50, &[("row", 0)]),
                ev("envelope.fill", 1, 160, 200, &[("row", 0), ("size", 4)]),
                ev("row.sweep", 1, 400, 700, &[("row", 0)]),
                ev("band.search", 1, 1200, 40, &[("row", 2)]),
                ev("band.search", 2, 150, 60, &[("row", 1)]),
                ev("envelope.fill", 2, 220, 300, &[("row", 1), ("size", 6)]),
                ev("row.sweep", 2, 600, 900, &[("row", 1)]),
            ],
        }
    }

    #[test]
    fn from_trace_derives_the_compat_view() {
        let stats = SweepStats::from_trace(&three_row_trace());
        assert_eq!((stats.rows, stats.skipped), (3, 1));
        assert_eq!(stats.row_sizes(), [4, 6, 0]);
        assert_eq!((stats.threads, stats.wall_ns), (3, 10_000));
        assert_eq!((stats.peak_bytes, stats.aux_bytes), (64, 1_000));
        assert_eq!(stats.rows_per_worker(), [2, 1, 0]);
        let per_worker: Vec<(usize, u64, u64)> =
            stats.workers.values().map(|w| (w.rows, w.fill_ns, w.sweep_ns)).collect();
        assert_eq!(per_worker, [(2, 50 + 200 + 40, 700), (1, 60 + 300, 900)]);
    }

    #[test]
    fn merges_worker_records() {
        // two workers interleave rows 0..4 in the trace; row 3 is empty
        let mut events = vec![ev("sweep.parallel", 0, 0, 1_000, &[("threads", 2)])];
        events.extend(row(1, 0, Some(5), 100, 300));
        events.extend(row(2, 1, Some(1), 50, 150));
        events.extend(row(1, 2, Some(7), 20, 30));
        events.extend(row(2, 3, None, 0, 0));
        // spans of other layers are not sweep rows
        events.push(ev("serve.viewport", 1, 0, 9_999, &[]));
        let stats = SweepStats::from_trace(&Trace { events });
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.row_sizes(), [5, 1, 7, 0]);
        assert_eq!(stats.rows_per_worker(), [2, 2]);
        assert_eq!(stats.workers[&1], WorkerRows { rows: 2, fill_ns: 120, sweep_ns: 330 });
        assert_eq!(stats.workers[&2], WorkerRows { rows: 2, fill_ns: 50, sweep_ns: 150 });
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.envelope_percentile(1.0), 7);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_band_sizes() {
        let mut events = Vec::new();
        for (r, size) in [1, 2, 3, 4, 100].into_iter().enumerate() {
            events.extend(row(1, r as u64, Some(size), 0, 0));
        }
        let stats = SweepStats::from_trace(&Trace { events });
        assert_eq!(stats.envelope_percentile(0.0), 1);
        assert_eq!(stats.envelope_percentile(0.5), 3);
        assert_eq!(stats.envelope_percentile(1.0), 100);
        // skipped rows count as size 0
        let mut events = row(1, 0, Some(9), 0, 0);
        events.extend(row(1, 1, None, 0, 0));
        events.extend(row(1, 2, None, 0, 0));
        assert_eq!(SweepStats::from_trace(&Trace { events }).envelope_percentile(0.5), 0);
        assert_eq!(SweepStats::from_trace(&Trace::default()).envelope_percentile(0.5), 0);
    }

    #[test]
    fn imbalance_reflects_skew() {
        let mut events = Vec::new();
        for r in 0..3 {
            events.extend(row(1, r, Some(1), 0, 0));
        }
        events.extend(row(2, 3, Some(1), 0, 0));
        let stats = SweepStats::from_trace(&Trace { events });
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
        // a worker that claimed no row still counts towards the even share
        let stats = SweepStats::from_trace(&three_row_trace());
        assert!((stats.imbalance() - 2.0).abs() < 1e-12);
        assert!(stats.summary().contains("rows/worker: [2, 1, 0] (imbalance 2.00)"));
    }

    #[test]
    fn summary_mentions_key_figures() {
        let summary = SweepStats::from_trace(&three_row_trace()).summary();
        for figure in [
            "3 rows on 3 workers, wall 0.010 ms",
            "envelope extraction 0.001 ms, sweep 0.002 ms",
            "total 10 intervals, max/row 6",
            "1 empty rows skipped",
            "(imbalance 2.00)",
            "peak worker 64 B, total 1000 B",
        ] {
            assert!(summary.contains(figure), "{figure:?} missing from\n{summary}");
        }
    }

    #[test]
    fn record_metrics_publishes_aggregates() {
        let registry = crate::metrics::global();
        let before = registry.snapshot();
        record_metrics(&three_row_trace(), [3, 2, 1, 0, 5]);
        let delta = registry.snapshot().diff(&before);
        // counters are cumulative across tests sharing the global registry,
        // so only the window delta is asserted
        assert_eq!(delta.counter("sweep.rows"), Some(3));
        assert_eq!(delta.counter("sweep.rows_skipped"), Some(1));
        assert_eq!(delta.counter("cache.hits"), Some(3));
        assert_eq!(delta.counter("cache.misses"), Some(2));
        assert_eq!(delta.counter("cache.evictions"), Some(1));
        assert_eq!(delta.counter("cache.patched"), Some(5));
        for (name, count) in
            [("sweep.envelope_size", 3), ("sweep.fill_ns", 2), ("sweep.sweep_ns", 2)]
        {
            match delta.get(name) {
                Some(crate::metrics::MetricValue::Histogram(h)) => assert_eq!(h.count, count),
                other => panic!("{name}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_report_is_safe() {
        let stats = SweepStats::from_trace(&Trace::default());
        assert_eq!(stats.envelope_percentile(1.0), 0);
        assert_eq!(stats.imbalance(), 1.0);
        let summary = stats.summary();
        assert!(summary.contains("0 rows on 0 workers") && summary.contains("imbalance 1.00"));
    }
}
