//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`),
//! a flat metrics-snapshot JSON, a human-readable per-phase summary
//! table, and the hand-rolled JSON well-formedness validator the smoke
//! tests share (no JSON dependency in the budget).

use crate::metrics::{bucket_upper_bound, MetricValue, Snapshot};
use crate::span::Trace;
use std::fmt::Write as _;

pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_args(out: &mut String, args: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, out);
        let _ = write!(out, "\":{v}");
    }
    out.push('}');
}

/// Serializes a [`Trace`] as Chrome trace-event JSON: one
/// complete (`"ph":"X"`) event per span with microsecond `ts`/`dur`,
/// plus a `thread_name` metadata event per recorder thread so Perfetto
/// labels the tracks. Thread id 0 is the recorder's first thread (the
/// main thread in the CLI).
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    push_trace_events(&mut out, trace);
    out.push_str("]}\n");
    out
}

/// Appends the comma-separated `traceEvents` array body (thread-name
/// metadata + `"ph":"X"` complete events, no brackets) — shared by
/// [`chrome_trace_json`] and the flight recorder's incident dumps.
pub(crate) fn push_trace_events(out: &mut String, trace: &Trace) {
    let mut first = true;
    let mut tids: Vec<u64> = trace.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if tid == 0 { "main".to_string() } else { format!("worker-{tid}") };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for e in &trace.events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        escape_json(e.name, out);
        let ts_us = e.ts_ns as f64 / 1000.0;
        let dur_us = e.dur_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "\",\"cat\":\"kdv\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
             \"pid\":1,\"tid\":{}",
            e.tid
        );
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(out, e.args.as_slice());
        }
        out.push('}');
    }
}

/// Serializes a metrics [`Snapshot`] as flat JSON: counters and gauges
/// as integers, histograms as objects with exact `count`/`sum`/`min`/
/// `max`/`mean` plus the non-empty log2 buckets as `[upper_bound,
/// count]` pairs.
pub fn metrics_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in snapshot.values.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  \"");
        escape_json(name, &mut out);
        out.push_str("\": ");
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {:.3}, \"p50_le\": {}, \"p95_le\": {}, \"buckets\": [",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.quantile_upper_bound(0.5),
                    h.quantile_upper_bound(0.95)
                );
                let mut first = true;
                for (b, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "[{}, {c}]", bucket_upper_bound(b));
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

struct PhaseRow {
    name: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
    durations: Vec<u64>,
    threads: Vec<u64>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the per-phase summary table: one row per span name with
/// count, total/mean/p95/max duration and the number of distinct
/// threads that recorded it. Rows are ordered by total time descending
/// — the profile reads top-down.
pub fn phase_summary(trace: &Trace) -> String {
    let mut rows: Vec<PhaseRow> = Vec::new();
    for e in &trace.events {
        let row = match rows.iter_mut().find(|r| r.name == e.name) {
            Some(r) => r,
            None => {
                rows.push(PhaseRow {
                    name: e.name,
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                    durations: Vec::new(),
                    threads: Vec::new(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_ns = row.total_ns.saturating_add(e.dur_ns);
        row.max_ns = row.max_ns.max(e.dur_ns);
        row.durations.push(e.dur_ns);
        if !row.threads.contains(&e.tid) {
            row.threads.push(e.tid);
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "phase", "count", "total", "mean", "p95", "max", "threads"
    );
    for r in &rows {
        let mean = r.total_ns / r.count.max(1);
        let p95 = crate::stats::percentile_u64(&r.durations, 0.95).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8}",
            r.name,
            r.count,
            fmt_ns(r.total_ns),
            fmt_ns(mean),
            fmt_ns(p95),
            fmt_ns(r.max_ns),
            r.threads.len()
        );
    }
    let dropped = crate::span::dropped_events();
    if dropped > 0 {
        let _ = writeln!(
            out,
            "warning: {dropped} event(s) dropped by the recorder (obs.dropped_events)"
        );
    }
    out
}

/// Minimal recursive-descent JSON well-formedness check (objects,
/// arrays, strings with escapes, numbers, true/false/null). Returns the
/// byte offset that failed, if any. Shared by the CI smoke tests over
/// committed `results/*.json` and the trace/metrics golden tests.
pub fn validate_json(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<(), usize> {
        if depth > 64 {
            return Err(*i);
        }
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    ws(b, i);
                    string(b, i)?;
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(*i);
                    }
                    *i += 1;
                    value(b, i, depth + 1)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(*i),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i, depth + 1)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(*i),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                // lenient number scan: digits, sign, dot, exponent
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                if *i == start {
                    Err(start)
                } else {
                    Ok(())
                }
            }
            _ => Err(*i),
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
        if b.get(*i) != Some(&b'"') {
            return Err(*i);
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'\\' => *i += 2,
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err(*i)
    }
    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
        if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            Ok(())
        } else {
            Err(*i)
        }
    }
    value(b, &mut i, 0)?;
    ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanArgs, Trace, TraceEvent};

    fn sample_trace() -> Trace {
        let mut args = SpanArgs::default();
        args.push("row", 3);
        Trace {
            events: vec![
                TraceEvent { name: "row.sweep", tid: 0, ts_ns: 1_000, dur_ns: 2_500, args },
                TraceEvent {
                    name: "row.sweep",
                    tid: 1,
                    ts_ns: 1_200,
                    dur_ns: 1_500,
                    args: SpanArgs::default(),
                },
                TraceEvent {
                    name: "envelope.fill",
                    tid: 1,
                    ts_ns: 900,
                    dur_ns: 200,
                    args: SpanArgs::default(),
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_schema_fields() {
        let json = chrome_trace_json(&sample_trace());
        validate_json(&json).unwrap_or_else(|off| panic!("invalid JSON at byte {off}: {json}"));
        for key in ["\"traceEvents\"", "\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"tid\":1"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // metadata track names for both threads
        assert!(json.contains("\"name\":\"main\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        // args serialized as integers
        assert!(json.contains("\"args\":{\"row\":3}"));
    }

    #[test]
    fn empty_trace_serializes_cleanly() {
        let json = chrome_trace_json(&Trace::default());
        validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn metrics_json_is_valid_and_flat() {
        let r = crate::metrics::Registry::new();
        r.counter("cache.hits").add(12);
        r.gauge("cache.bytes").set(4096);
        let h = r.histogram("sweep.fill_ns");
        h.record(500);
        h.record(3_000);
        let json = metrics_json(&r.snapshot());
        validate_json(&json).unwrap_or_else(|off| panic!("invalid JSON at byte {off}: {json}"));
        assert!(json.contains("\"cache.hits\": 12"));
        assert!(json.contains("\"cache.bytes\": 4096"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"sum\": 3500"));
        assert!(json.contains("\"buckets\": [[511, 1], [4095, 1]]"));
    }

    #[test]
    fn phase_summary_orders_by_total_time() {
        let table = phase_summary(&sample_trace());
        let sweep_pos = table.find("row.sweep").unwrap();
        let fill_pos = table.find("envelope.fill").unwrap();
        assert!(sweep_pos < fill_pos, "largest total first:\n{table}");
        // 2 threads recorded row.sweep
        let sweep_line = table.lines().find(|l| l.starts_with("row.sweep")).unwrap();
        assert!(sweep_line.trim_end().ends_with('2'), "{sweep_line}");
        assert!(!table.contains("warning"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json(r#"{"a": [1, 2.5e-3, "x\"y", true, null]}"#).is_ok());
        assert!(validate_json("{\n  \"runs\": []\n}\n").is_ok());
        assert!(validate_json(r#"{"a": }"#).is_err());
        assert!(validate_json(r#"{"a": 1} trailing"#).is_err());
        assert!(validate_json(r#"["unterminated]"#).is_err());
    }
}
