//! Execution telemetry for the parallel sweep runtime.
//!
//! The work-stealing scheduler in [`crate::parallel`] optionally records
//! what each worker did: which rows it claimed, how long it spent building
//! envelopes versus sweeping, how large the per-row envelope sets were, and
//! how much auxiliary heap it held. A [`SweepReport`] aggregates those
//! per-worker records so callers (the CLI's `--stats` flag, the bench
//! binaries) can inspect load balance and the envelope-size distribution —
//! the quantities that decide whether dynamic row scheduling pays off on
//! clustered data.
//!
//! Since the `kdv-obs` observability layer landed, the same quantities are
//! also emitted as structured spans (`band.search`, `envelope.fill`,
//! `row.sweep`, …) whenever the recorder is enabled. [`SweepReport`] is
//! kept as the stable *compatibility view*: [`SweepReport::from_trace`]
//! derives one from the span stream, and [`SweepReport::record_metrics`]
//! publishes its aggregates into the global metrics registry.

/// What one worker thread did during a parallel sweep.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Rows this worker claimed and swept.
    pub rows: usize,
    /// Nanoseconds spent building envelope sets (the `O(n)` per-row scan).
    pub fill_nanos: u64,
    /// Nanoseconds spent in the sweep phase proper.
    pub sweep_nanos: u64,
    /// Auxiliary heap bytes held at the end of the run (envelope buffer
    /// plus engine scratch — the parallel extension of
    /// [`crate::driver::RowEngine::space_bytes`]).
    pub aux_bytes: usize,
    /// Rows this worker claimed whose band was empty (skipped outright —
    /// no interval fill, no engine pass; the output row stays zero).
    pub rows_skipped: usize,
    /// `(row index, |E(k)|)` for every row this worker processed.
    pub envelope_sizes: Vec<(usize, usize)>,
}

/// Aggregated telemetry of one parallel sweep execution.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Worker threads the scheduler actually spawned.
    pub threads: usize,
    /// Total raster rows processed.
    pub rows: usize,
    /// Wall-clock nanoseconds of the whole parallel section.
    pub wall_nanos: u64,
    /// `|E(k)|` per row, indexed by row.
    pub envelope_sizes: Vec<usize>,
    /// Rows claimed per worker — unequal on clustered data, which is the
    /// point of dynamic scheduling.
    pub rows_per_worker: Vec<usize>,
    /// Envelope-fill nanoseconds per worker.
    pub fill_nanos: Vec<u64>,
    /// Sweep-phase nanoseconds per worker.
    pub sweep_nanos: Vec<u64>,
    /// Peak auxiliary heap bytes over all workers (their buffers coexist,
    /// so the parallel footprint is the *sum*; both are reported).
    pub peak_worker_bytes: usize,
    /// Total auxiliary heap bytes across workers plus shared context
    /// (including the banded index of the [`crate::driver::SweepContext`]).
    pub total_aux_bytes: usize,
    /// Rows skipped because their band was empty (densities exactly zero).
    pub rows_skipped: usize,
    /// Tile-cache hits observed while serving this computation (zero for
    /// plain sweeps; populated by the `kdv-serve` tile cache). All cache
    /// counters are **saturating**: a counter that reaches `u64::MAX`
    /// stays there instead of wrapping, so reported counters are monotone
    /// over the lifetime of a cache however long it runs.
    pub cache_hits: u64,
    /// Tile-cache misses (each miss triggered a band computation).
    pub cache_misses: u64,
    /// Tiles evicted to keep the cache inside its byte budget.
    pub cache_evictions: u64,
    /// Tiles the cache refused outright (oversized — computed, never
    /// cached, immediately dropped). Distinct from `cache_evictions`,
    /// which means an entry was cached and later displaced.
    pub cache_rejected: u64,
    /// Cached tiles updated *in place* by a streaming delta patch (the
    /// tile's bits were advanced to a newer delta generation without a
    /// fresh band sweep). A patch is neither a hit (the cached bits were
    /// not served as-is) nor a miss+insert (no full recompute happened) —
    /// conflating it with either would make the patch path invisible or
    /// look like churn.
    pub cache_patched: u64,
}

impl SweepReport {
    /// Builds a report from per-worker records.
    ///
    /// `shared_bytes` is the heap held by row-independent shared state
    /// (recentred points, pixel coordinates).
    pub fn from_workers(workers: Vec<WorkerStats>, rows: usize, shared_bytes: usize) -> Self {
        let mut envelope_sizes = vec![0usize; rows];
        let mut rows_per_worker = Vec::with_capacity(workers.len());
        let mut fill_nanos = Vec::with_capacity(workers.len());
        let mut sweep_nanos = Vec::with_capacity(workers.len());
        let mut peak_worker_bytes = 0usize;
        let mut total_aux_bytes = shared_bytes;
        let mut rows_skipped = 0usize;
        for w in &workers {
            rows_per_worker.push(w.rows);
            fill_nanos.push(w.fill_nanos);
            sweep_nanos.push(w.sweep_nanos);
            peak_worker_bytes = peak_worker_bytes.max(w.aux_bytes);
            total_aux_bytes += w.aux_bytes;
            rows_skipped += w.rows_skipped;
            for &(row, size) in &w.envelope_sizes {
                // A worker can only legitimately record rows it was handed;
                // an out-of-range index is a scheduler bug, but telemetry
                // must not panic a release sweep over it — drop the record.
                debug_assert!(row < rows, "worker recorded out-of-range row {row} of {rows}");
                if let Some(slot) = envelope_sizes.get_mut(row) {
                    *slot = size;
                }
            }
        }
        Self {
            threads: workers.len(),
            rows,
            wall_nanos: 0,
            envelope_sizes,
            rows_per_worker,
            fill_nanos,
            sweep_nanos,
            peak_worker_bytes,
            total_aux_bytes,
            rows_skipped,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_rejected: 0,
            cache_patched: 0,
        }
    }

    /// Attaches tile-cache counters (saturating, see the field docs).
    pub fn with_cache_counters(mut self, hits: u64, misses: u64, evictions: u64) -> Self {
        self.cache_hits = hits;
        self.cache_misses = misses;
        self.cache_evictions = evictions;
        self
    }

    /// Attaches the count of cache-refused (oversized) tiles.
    pub fn with_cache_rejected(mut self, rejected: u64) -> Self {
        self.cache_rejected = rejected;
        self
    }

    /// Attaches the count of tiles advanced by an in-place delta patch.
    pub fn with_cache_patched(mut self, patched: u64) -> Self {
        self.cache_patched = patched;
        self
    }

    /// Accumulates tile-cache counters from another observation window,
    /// saturating at `u64::MAX` like the counters themselves — merging two
    /// near-full windows must stay monotone, not wrap.
    pub fn merge_cache_counters(&mut self, hits: u64, misses: u64, evictions: u64) {
        self.cache_hits = self.cache_hits.saturating_add(hits);
        self.cache_misses = self.cache_misses.saturating_add(misses);
        self.cache_evictions = self.cache_evictions.saturating_add(evictions);
    }

    /// Derives the compatibility view from a recorded span stream: rows
    /// and skips from `band.search`/`envelope.fill` counts, per-row
    /// envelope sizes from the `envelope.fill` `row`/`size` arguments,
    /// phase nanoseconds from span durations, and the wall clock from the
    /// enclosing `sweep.parallel`/`sweep.sequential` span. One worker per
    /// recorder thread id, in thread-id order.
    ///
    /// Heap accounting (`aux_bytes`) is not part of the span stream, so
    /// the byte fields of the derived report are zero — callers that need
    /// them use the report returned by the `*_with_report` entry points.
    pub fn from_trace(trace: &kdv_obs::Trace, rows: usize) -> Self {
        fn arg(e: &kdv_obs::TraceEvent, key: &str) -> Option<u64> {
            e.args.as_slice().iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
        }
        // events are sorted by (tid, ts), so each worker's rows replay in
        // the order it swept them: a `band.search` not followed by its
        // row's `envelope.fill` is a skipped (empty-band) row
        let mut workers: Vec<(u64, WorkerStats)> = Vec::new();
        let mut pending: Option<u64> = None;
        let mut wall_nanos = 0u64;
        let mut last_tid = None;
        for e in &trace.events {
            if last_tid != Some(e.tid) {
                if let (Some(row), Some((_, w))) = (pending.take(), workers.last_mut()) {
                    w.rows_skipped += 1;
                    w.envelope_sizes.push((row as usize, 0));
                }
                last_tid = Some(e.tid);
            }
            match e.name {
                "sweep.parallel" | "sweep.sequential" => wall_nanos = wall_nanos.max(e.dur_ns),
                "band.search" | "envelope.fill" | "row.sweep" => {
                    let w = match workers.last_mut() {
                        Some((tid, w)) if *tid == e.tid => w,
                        _ => {
                            workers.push((e.tid, WorkerStats::default()));
                            &mut workers.last_mut().expect("just pushed").1
                        }
                    };
                    match e.name {
                        "band.search" => {
                            if let Some(row) = pending.take() {
                                w.rows_skipped += 1;
                                w.envelope_sizes.push((row as usize, 0));
                            }
                            pending = arg(e, "row");
                            w.rows += 1;
                            w.fill_nanos += e.dur_ns;
                        }
                        "envelope.fill" => {
                            let row = arg(e, "row").or_else(|| pending.take());
                            pending = None;
                            w.fill_nanos += e.dur_ns;
                            if let (Some(row), Some(size)) = (row, arg(e, "size")) {
                                w.envelope_sizes.push((row as usize, size as usize));
                            }
                        }
                        _ => w.sweep_nanos += e.dur_ns,
                    }
                }
                _ => {}
            }
        }
        if let (Some(row), Some((_, w))) = (pending.take(), workers.last_mut()) {
            w.rows_skipped += 1;
            w.envelope_sizes.push((row as usize, 0));
        }
        let mut report = Self::from_workers(workers.into_iter().map(|(_, w)| w).collect(), rows, 0);
        report.wall_nanos = wall_nanos;
        report
    }

    /// Publishes the report's aggregates into the global `kdv-obs` metrics
    /// registry (counters `sweep.rows` / `sweep.rows_skipped`, histograms
    /// `sweep.fill_ns` / `sweep.sweep_ns` per worker and
    /// `sweep.envelope_size` per row). Called once per run by the CLI when
    /// a metrics export is requested — never from the per-row hot path.
    pub fn record_metrics(&self) {
        let reg = kdv_obs::metrics::global();
        reg.counter("sweep.rows").add(self.rows as u64);
        reg.counter("sweep.rows_skipped").add(self.rows_skipped as u64);
        let fill = reg.histogram("sweep.fill_ns");
        for &ns in &self.fill_nanos {
            fill.record(ns);
        }
        let sweep = reg.histogram("sweep.sweep_ns");
        for &ns in &self.sweep_nanos {
            sweep.record(ns);
        }
        let env = reg.histogram("sweep.envelope_size");
        for &size in &self.envelope_sizes {
            env.record(size as u64);
        }
        reg.counter("cache.hits").add(self.cache_hits);
        reg.counter("cache.misses").add(self.cache_misses);
        reg.counter("cache.evictions").add(self.cache_evictions);
        reg.counter("cache.rejected").add(self.cache_rejected);
        reg.counter("cache.patched").add(self.cache_patched);
    }

    /// Largest per-row envelope set.
    pub fn max_envelope(&self) -> usize {
        self.envelope_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all per-row envelope sizes (total interval insertions).
    pub fn total_envelope(&self) -> usize {
        self.envelope_sizes.iter().sum()
    }

    /// The `q`-th percentile (0.0–1.0, nearest-rank) of the per-row band
    /// sizes — the distribution that decides whether banded extraction
    /// beats a full scan on this dataset.
    pub fn envelope_percentile(&self, q: f64) -> usize {
        let sizes: Vec<u64> = self.envelope_sizes.iter().map(|&s| s as u64).collect();
        kdv_obs::stats::percentile_u64(&sizes, q).unwrap_or(0) as usize
    }

    /// Total envelope-fill time across workers, in nanoseconds.
    pub fn total_fill_nanos(&self) -> u64 {
        self.fill_nanos.iter().sum()
    }

    /// Total sweep-phase time across workers, in nanoseconds.
    pub fn total_sweep_nanos(&self) -> u64 {
        self.sweep_nanos.iter().sum()
    }

    /// Ratio of the busiest worker's row count to the ideal equal share —
    /// 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let max = self.rows_per_worker.iter().copied().max().unwrap_or(0);
        if self.rows == 0 || self.rows_per_worker.is_empty() {
            return 1.0;
        }
        let ideal = self.rows as f64 / self.rows_per_worker.len() as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max as f64 / ideal
        }
    }

    /// Multi-line human-readable summary (what `--stats` prints).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sweep stats: {} rows on {} workers, wall {:.3} ms",
            self.rows,
            self.threads,
            self.wall_nanos as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  phases: envelope extraction {:.3} ms, sweep {:.3} ms (cpu totals)",
            self.total_fill_nanos() as f64 / 1e6,
            self.total_sweep_nanos() as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  envelopes: total {} intervals, max/row {}, mean/row {:.1}",
            self.total_envelope(),
            self.max_envelope(),
            if self.rows == 0 { 0.0 } else { self.total_envelope() as f64 / self.rows as f64 }
        );
        let _ = writeln!(
            s,
            "  band sizes: p10 {} / p50 {} / p90 {}, {} empty rows skipped",
            self.envelope_percentile(0.10),
            self.envelope_percentile(0.50),
            self.envelope_percentile(0.90),
            self.rows_skipped
        );
        let _ = writeln!(
            s,
            "  rows/worker: {:?} (imbalance {:.2})",
            self.rows_per_worker,
            self.imbalance()
        );
        if self.cache_hits > 0
            || self.cache_misses > 0
            || self.cache_evictions > 0
            || self.cache_rejected > 0
            || self.cache_patched > 0
        {
            let _ = writeln!(
                s,
                "  tile cache: {} hit(s), {} miss(es), {} eviction(s), {} rejected, {} patched",
                self.cache_hits,
                self.cache_misses,
                self.cache_evictions,
                self.cache_rejected,
                self.cache_patched
            );
        }
        let _ = write!(
            s,
            "  aux space: peak worker {} B, total {} B",
            self.peak_worker_bytes, self.total_aux_bytes
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(rows: &[(usize, usize)], fill: u64, sweep: u64, bytes: usize) -> WorkerStats {
        WorkerStats {
            rows: rows.len(),
            fill_nanos: fill,
            sweep_nanos: sweep,
            aux_bytes: bytes,
            rows_skipped: rows.iter().filter(|&&(_, size)| size == 0).count(),
            envelope_sizes: rows.to_vec(),
        }
    }

    #[test]
    fn merges_worker_records() {
        let report = SweepReport::from_workers(
            vec![worker(&[(0, 5), (2, 7)], 100, 300, 64), worker(&[(1, 1), (3, 0)], 50, 150, 128)],
            4,
            1000,
        );
        assert_eq!(report.threads, 2);
        assert_eq!(report.envelope_sizes, vec![5, 1, 7, 0]);
        assert_eq!(report.rows_per_worker, vec![2, 2]);
        assert_eq!(report.max_envelope(), 7);
        assert_eq!(report.total_envelope(), 13);
        assert_eq!(report.total_fill_nanos(), 150);
        assert_eq!(report.total_sweep_nanos(), 450);
        assert_eq!(report.peak_worker_bytes, 128);
        assert_eq!(report.total_aux_bytes, 1000 + 64 + 128);
        assert_eq!(report.rows_skipped, 1);
        assert!((report.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_band_sizes() {
        let report = SweepReport::from_workers(
            vec![worker(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 100)], 0, 0, 0)],
            5,
            0,
        );
        assert_eq!(report.envelope_percentile(0.0), 1);
        assert_eq!(report.envelope_percentile(0.5), 3);
        assert_eq!(report.envelope_percentile(1.0), 100);
        let empty = SweepReport::from_workers(Vec::new(), 0, 0);
        assert_eq!(empty.envelope_percentile(0.5), 0);
    }

    #[test]
    fn imbalance_reflects_skew() {
        let report = SweepReport::from_workers(
            vec![worker(&[(0, 1), (1, 1), (2, 1)], 0, 0, 0), worker(&[(3, 1)], 0, 0, 0)],
            4,
            0,
        );
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_key_figures() {
        let mut report =
            SweepReport::from_workers(vec![worker(&[(0, 9)], 1_000_000, 2_000_000, 42)], 1, 0);
        report.wall_nanos = 3_000_000;
        let s = report.summary();
        assert!(s.contains("1 workers"));
        assert!(s.contains("max/row 9"));
        assert!(s.contains("imbalance"));
    }

    #[test]
    fn cache_counters_appear_only_when_used() {
        let plain = SweepReport::from_workers(vec![worker(&[(0, 1)], 0, 0, 0)], 1, 0);
        assert!(!plain.summary().contains("tile cache"));
        let served = plain.clone().with_cache_counters(7, 2, 1);
        assert_eq!(served.cache_hits, 7);
        let s = served.summary();
        assert!(s.contains("7 hit(s)") && s.contains("2 miss(es)") && s.contains("1 eviction(s)"));
    }

    #[test]
    fn out_of_range_row_is_clamped_in_release_and_asserts_in_debug() {
        let bad = worker(&[(0, 3), (9, 5)], 0, 0, 0); // row 9 of a 2-row raster
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(|| SweepReport::from_workers(vec![bad], 2, 0));
            assert!(result.is_err(), "debug build must flag the scheduler bug");
        } else {
            let report = SweepReport::from_workers(vec![bad], 2, 0);
            assert_eq!(report.envelope_sizes, vec![3, 0], "bad record dropped, not panicked");
            assert_eq!(report.rows_per_worker, vec![2]);
        }
    }

    #[test]
    fn merge_cache_counters_saturates() {
        let mut report = SweepReport::from_workers(Vec::new(), 0, 0).with_cache_counters(
            u64::MAX - 1,
            10,
            u64::MAX,
        );
        report.merge_cache_counters(5, 3, 1);
        assert_eq!(report.cache_hits, u64::MAX, "near-full counter saturates");
        assert_eq!(report.cache_misses, 13, "ordinary counters add");
        assert_eq!(report.cache_evictions, u64::MAX, "full counter stays pinned");
        report.merge_cache_counters(0, 0, 0);
        assert_eq!((report.cache_hits, report.cache_misses), (u64::MAX, 13));
    }

    #[test]
    fn from_trace_derives_the_compat_view() {
        use kdv_obs::{SpanArgs, Trace, TraceEvent};
        fn args(pairs: &[(&'static str, u64)]) -> SpanArgs {
            let mut a = SpanArgs::default();
            for &(k, v) in pairs {
                a.push(k, v);
            }
            a
        }
        fn ev(
            name: &'static str,
            tid: u64,
            ts: u64,
            dur: u64,
            a: &[(&'static str, u64)],
        ) -> TraceEvent {
            TraceEvent { name, tid, ts_ns: ts, dur_ns: dur, args: args(a) }
        }
        // worker 1 sweeps rows 0 (size 4) and 2 (empty band, skipped);
        // worker 2 sweeps row 1 (size 6); main thread holds the wall span
        let trace = Trace {
            events: vec![
                ev("sweep.parallel", 0, 0, 10_000, &[("rows", 3), ("threads", 2)]),
                ev("band.search", 1, 100, 50, &[("row", 0)]),
                ev("envelope.fill", 1, 160, 200, &[("row", 0), ("size", 4)]),
                ev("row.sweep", 1, 400, 700, &[("row", 0)]),
                ev("band.search", 1, 1200, 40, &[("row", 2)]),
                ev("band.search", 2, 150, 60, &[("row", 1)]),
                ev("envelope.fill", 2, 220, 300, &[("row", 1), ("size", 6)]),
                ev("row.sweep", 2, 600, 900, &[("row", 1)]),
            ],
        };
        let report = SweepReport::from_trace(&trace, 3);
        assert_eq!(report.threads, 2);
        assert_eq!(report.rows, 3);
        assert_eq!(report.wall_nanos, 10_000);
        assert_eq!(report.envelope_sizes, vec![4, 6, 0]);
        assert_eq!(report.rows_per_worker, vec![2, 1]);
        assert_eq!(report.rows_skipped, 1);
        assert_eq!(report.fill_nanos, vec![50 + 200 + 40, 60 + 300]);
        assert_eq!(report.sweep_nanos, vec![700, 900]);
    }

    #[test]
    fn record_metrics_publishes_aggregates() {
        let registry = kdv_obs::metrics::global();
        let before = registry.snapshot();
        let mut report =
            SweepReport::from_workers(vec![worker(&[(0, 5), (1, 0)], 120, 340, 0)], 2, 0);
        report.merge_cache_counters(3, 2, 1);
        report.record_metrics();
        let delta = registry.snapshot().diff(&before);
        // counters are cumulative across tests sharing the global registry,
        // so only the window delta is asserted
        assert_eq!(delta.counter("sweep.rows"), Some(2));
        assert_eq!(delta.counter("sweep.rows_skipped"), Some(1));
        assert_eq!(delta.counter("cache.hits"), Some(3));
        assert_eq!(delta.counter("cache.misses"), Some(2));
        assert_eq!(delta.counter("cache.evictions"), Some(1));
        match delta.get("sweep.envelope_size") {
            Some(kdv_obs::metrics::MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_report_is_safe() {
        let report = SweepReport::from_workers(Vec::new(), 0, 0);
        assert_eq!(report.max_envelope(), 0);
        assert_eq!(report.imbalance(), 1.0);
        assert!(!report.summary().is_empty());
    }
}
