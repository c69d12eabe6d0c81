//! Flight recorder: always-on bounded per-thread rings of *completed*
//! spans with trigger-based incident dumps.
//!
//! The span recorder in [`crate::span`](mod@crate::span) answers "what happened over the
//! whole run" — it grows without bound while enabled and is drained once
//! at exit. A long-lived server needs the opposite: a recorder that is
//! always on, costs near-nothing in steady state, never grows, and can
//! answer "what were the last few seconds doing" the moment something
//! goes wrong. That is this module:
//!
//! * Each thread owns a fixed-capacity ring ([`RING_CAPACITY`] completed
//!   spans, overwrite-oldest). A [`crate::span::SpanGuard`] whose scope
//!   closes while [`recording`] is on writes one entry into its thread's
//!   ring; the write path is a `try_lock` that **never blocks** — a
//!   contended ring drops the event and counts it in
//!   `obs.dropped_events` instead of stalling the serving path.
//!   Overwritten-oldest entries are normal ring operation and are
//!   counted separately (reported per incident dump as `overwritten`).
//! * [`trigger`] snapshots the last `window_ns` of spans from every ring
//!   plus a full metrics snapshot and the recent [`Exemplar`]s into a
//!   Perfetto-loadable incident file (`incident-NNNN-<kind>.json`).
//!   Triggers are armed with [`arm_incidents`]; a disarmed trigger is a
//!   single relaxed atomic load. Per-kind cooldowns and a dump cap keep
//!   a misbehaving server from writing incident files in a loop.
//! * [`note_exemplar`] links a slow request's id and class to the
//!   captured span tree: the `serve.request` span carries the same id in
//!   its `req` argument, so the incident file ties the exemplar row to
//!   the exact spans of the offending request.
//!
//! Tests that toggle the process-global recording flag must hold
//! [`crate::span::exclusive`], exactly like span-recorder tests.

use crate::span::{self, SpanArgs, Trace, TraceEvent};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Completed spans each thread ring retains (overwrite-oldest beyond
/// this). 4096 spans at ~10 spans/request covers hundreds of requests —
/// several seconds of history at interactive rates.
pub const RING_CAPACITY: usize = 4096;

/// Exemplars retained (newest-kept); each links a slow request id to the
/// span tree captured in the next incident dump.
pub const MAX_EXEMPLARS: usize = 16;

static RECORDING: AtomicBool = AtomicBool::new(false);
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_RING_TID: AtomicU64 = AtomicU64::new(0);
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
static EXEMPLARS: Mutex<VecDeque<Exemplar>> = Mutex::new(VecDeque::new());
static INCIDENTS: Mutex<Option<IncidentState>> = Mutex::new(None);

/// A slow request above its class SLO: the link between a request id in
/// the serving log and the span tree in the incident dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Frontend-assigned request id (the `req` argument of the request's
    /// `serve.request` span).
    pub request_id: u64,
    /// Request class name (`exact` / `coreset` / `live`).
    pub class: &'static str,
    /// Observed latency.
    pub latency_ns: u64,
    /// When the request finished, on the recorder timeline.
    pub ts_ns: u64,
}

struct RingState {
    buf: Vec<TraceEvent>,
    next: usize,
    overwritten: u64,
}

impl RingState {
    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % RING_CAPACITY;
            self.overwritten += 1;
        }
    }
}

struct ThreadRing {
    tid: u64,
    state: Mutex<RingState>,
}

fn lock_rings() -> MutexGuard<'static, Vec<Arc<ThreadRing>>> {
    RINGS.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_exemplars() -> MutexGuard<'static, VecDeque<Exemplar>> {
    EXEMPLARS.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_incidents() -> MutexGuard<'static, Option<IncidentState>> {
    INCIDENTS.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    // Registered globally on first record so dumps see every thread's
    // ring; the Arc keeps a ring readable after its thread exits (the
    // spans age out of the dump window naturally).
    static RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_RING_TID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(RingState { buf: Vec::new(), next: 0, overwritten: 0 }),
        });
        lock_rings().push(Arc::clone(&ring));
        ring
    };
}

/// Turns the flight recorder on or off process-wide. While off, the
/// per-span cost is one relaxed load.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether completed spans are currently being written into the rings.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Writes one completed span into the calling thread's ring. Called from
/// `SpanGuard::drop`; never blocks — TLS teardown or a contended ring
/// drops the event into `obs.dropped_events` instead.
pub(crate) fn record_completed(name: &'static str, ts_ns: u64, dur_ns: u64, args: SpanArgs) {
    let recorded = RING
        .try_with(|r| match r.state.try_lock() {
            Ok(mut s) => {
                s.push(TraceEvent { name, tid: r.tid, ts_ns, dur_ns, args });
                true
            }
            Err(_) => false,
        })
        .unwrap_or(false);
    if !recorded {
        span::note_dropped(1);
    }
}

/// The last `window_ns` of completed spans across every thread ring
/// (sorted by thread then start time), plus the total overwritten-oldest
/// count. A span is in the window if it *ended* within it.
pub fn snapshot(window_ns: u64) -> (Trace, u64) {
    snapshot_at(span::now_ns(), window_ns)
}

/// [`snapshot`] against an explicit "now" on the recorder timeline
/// (deterministic tests).
pub fn snapshot_at(now_ns: u64, window_ns: u64) -> (Trace, u64) {
    let cutoff = now_ns.saturating_sub(window_ns);
    let rings: Vec<Arc<ThreadRing>> = lock_rings().clone();
    let mut trace = Trace::default();
    let mut overwritten = 0u64;
    for ring in rings {
        let s = ring.state.lock().unwrap_or_else(|e| e.into_inner());
        overwritten += s.overwritten;
        trace.events.extend(s.buf.iter().filter(|e| e.ts_ns.saturating_add(e.dur_ns) >= cutoff));
    }
    trace.events.sort_by_key(|e| (e.tid, e.ts_ns));
    (trace, overwritten)
}

/// Records a slow-request exemplar (kept newest-[`MAX_EXEMPLARS`]); the
/// next incident dump embeds it beside the span tree.
pub fn note_exemplar(request_id: u64, class: &'static str, latency_ns: u64) {
    let mut ex = lock_exemplars();
    if ex.len() == MAX_EXEMPLARS {
        ex.pop_front();
    }
    ex.push_back(Exemplar { request_id, class, latency_ns, ts_ns: span::now_ns() });
}

/// The retained exemplars, oldest first.
pub fn exemplars() -> Vec<Exemplar> {
    lock_exemplars().iter().copied().collect()
}

/// Empties every ring, the exemplar store and the incident sequence
/// (does not change the recording/armed flags). Benches call this
/// between arms; hold [`crate::span::exclusive`].
pub fn clear() {
    for ring in lock_rings().iter() {
        let mut s = ring.state.lock().unwrap_or_else(|e| e.into_inner());
        s.buf = Vec::new();
        s.next = 0;
        s.overwritten = 0;
    }
    lock_exemplars().clear();
    if let Some(st) = lock_incidents().as_mut() {
        st.seq = 0;
        st.last_fire.clear();
    }
}

/// Incident-dump policy: where dumps go and how eagerly triggers fire.
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Directory incident files are written into (created on demand).
    pub dir: PathBuf,
    /// How far back each dump reaches (default 5 s).
    pub window_ns: u64,
    /// Minimum spacing between dumps of the *same* trigger kind
    /// (default 1 s); repeats inside the cooldown are suppressed.
    pub cooldown_ns: u64,
    /// Hard cap on dumps per arming (default 32) — a wedged server must
    /// not fill the disk with incident files.
    pub max_dumps: u64,
}

impl IncidentConfig {
    /// Default policy writing into `dir`: 5 s window, 1 s per-kind
    /// cooldown, 32 dumps.
    pub fn new(dir: PathBuf) -> Self {
        IncidentConfig { dir, window_ns: 5_000_000_000, cooldown_ns: 1_000_000_000, max_dumps: 32 }
    }
}

struct IncidentState {
    config: IncidentConfig,
    seq: u64,
    last_fire: Vec<(&'static str, u64)>,
}

/// Arms incident dumps (and turns ring recording on — a dump without
/// ring content answers nothing). Re-arming replaces the config and
/// resets the dump sequence.
pub fn arm_incidents(config: IncidentConfig) {
    set_recording(true);
    *lock_incidents() = Some(IncidentState { config, seq: 0, last_fire: Vec::new() });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms incident dumps and turns ring recording back off.
pub fn disarm_incidents() {
    ARMED.store(false, Ordering::SeqCst);
    *lock_incidents() = None;
    set_recording(false);
}

/// Whether [`trigger`] currently writes dumps. Disarmed, a trigger call
/// is this one relaxed load.
#[inline]
pub fn incidents_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn kind_file_stem(kind: &str) -> String {
    kind.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// Fires an incident trigger: if armed and outside `kind`'s cooldown,
/// snapshots the last `window_ns` of spans plus metrics and exemplars to
/// `incident-NNNN-<kind>.json` in the configured directory and returns
/// the path. Returns `None` when disarmed, cooling down, over the dump
/// cap, or if the write failed (observability never panics the server).
pub fn trigger(kind: &'static str, request_id: Option<u64>) -> Option<PathBuf> {
    if !incidents_armed() {
        return None;
    }
    let now = span::now_ns();
    let (path, window_ns) = {
        let mut guard = lock_incidents();
        let st = guard.as_mut()?;
        if st.seq >= st.config.max_dumps {
            return None;
        }
        if let Some(&(_, last)) = st.last_fire.iter().find(|(k, _)| *k == kind) {
            if now.saturating_sub(last) < st.config.cooldown_ns {
                return None;
            }
        }
        match st.last_fire.iter_mut().find(|(k, _)| *k == kind) {
            Some(entry) => entry.1 = now,
            None => st.last_fire.push((kind, now)),
        }
        let seq = st.seq;
        st.seq += 1;
        let file = st.config.dir.join(format!("incident-{seq:04}-{}.json", kind_file_stem(kind)));
        (file, st.config.window_ns)
    };
    let json = incident_json(kind, request_id, now, window_ns);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, json) {
        Ok(()) => {
            crate::metrics::global().counter("obs.incidents").bump();
            Some(path)
        }
        Err(_) => None,
    }
}

/// The incident-dump document: Chrome-trace JSON (`traceEvents` +
/// `displayTimeUnit`) with the trigger context, exemplars and a full
/// metrics snapshot under `otherData` (which Perfetto ignores).
fn incident_json(kind: &str, request_id: Option<u64>, now_ns: u64, window_ns: u64) -> String {
    let (trace, overwritten) = snapshot_at(now_ns, window_ns);
    let metrics = crate::export::metrics_json(&crate::metrics::global().snapshot());
    let mut out = String::with_capacity(1024 + trace.events.len() * 96 + metrics.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"trigger\":\"");
    crate::export::escape_json(kind, &mut out);
    let _ = write!(out, "\",\"ts_ns\":{now_ns}");
    if let Some(id) = request_id {
        let _ = write!(out, ",\"request_id\":{id}");
    }
    let _ = write!(
        out,
        ",\"window_ns\":{window_ns},\"captured_spans\":{},\"overwritten\":{overwritten},\
         \"dropped_events\":{}",
        trace.events.len(),
        span::dropped_events()
    );
    out.push_str(",\"exemplars\":[");
    for (i, e) in exemplars().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"request_id\":{},\"class\":\"{}\",\"latency_ns\":{},\"ts_ns\":{}}}",
            e.request_id, e.class, e.latency_ns, e.ts_ns
        );
    }
    out.push_str("],\"metrics\":");
    out.push_str(metrics.trim_end());
    out.push_str("},\"traceEvents\":[");
    crate::export::push_trace_events(&mut out, &trace);
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kdv-ring-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let _x = span::exclusive();
        set_recording(false);
        clear();
        {
            let _g = span::span("ring.off");
        }
        let (trace, overwritten) = snapshot(u64::MAX);
        assert!(trace.events.iter().all(|e| e.name != "ring.off"), "{trace:?}");
        assert_eq!(overwritten, 0);
    }

    #[test]
    fn completed_spans_land_in_the_ring_with_merged_args() {
        let _x = span::exclusive();
        set_recording(true);
        clear();
        {
            let mut g = span::span1("ring.span", "a", 1);
            g.arg("b", 2);
        }
        set_recording(false);
        let (trace, _) = snapshot(u64::MAX);
        let e = trace.events.iter().find(|e| e.name == "ring.span").expect("recorded");
        assert_eq!(e.args.as_slice(), &[("a", 1), ("b", 2)]);
        clear();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let _x = span::exclusive();
        clear();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            record_completed("ring.fill", i, 1, SpanArgs::default());
        }
        let (trace, overwritten) = snapshot_at(RING_CAPACITY as u64 + 10, u64::MAX);
        let fills: Vec<&TraceEvent> =
            trace.events.iter().filter(|e| e.name == "ring.fill").collect();
        assert_eq!(fills.len(), RING_CAPACITY);
        assert_eq!(overwritten, 10);
        // the 10 oldest were overwritten, so the earliest survivor is ts 10
        assert_eq!(fills.iter().map(|e| e.ts_ns).min(), Some(10));
        clear();
    }

    #[test]
    fn snapshot_window_filters_by_end_time() {
        let _x = span::exclusive();
        clear();
        record_completed("ring.old", 100, 50, SpanArgs::default());
        record_completed("ring.new", 900, 50, SpanArgs::default());
        let (trace, _) = snapshot_at(1000, 200);
        assert!(trace.events.iter().any(|e| e.name == "ring.new"));
        assert!(!trace.events.iter().any(|e| e.name == "ring.old"));
        clear();
    }

    #[test]
    fn trigger_writes_one_valid_incident_and_cools_down() {
        let _x = span::exclusive();
        let dir = temp_dir("trigger");
        clear();
        arm_incidents(IncidentConfig::new(dir.clone()));
        {
            let _g = span::span1("ring.incident", "req", 42);
        }
        note_exemplar(42, "exact", 7_000_000);
        let path = trigger("test.kind", Some(42)).expect("armed trigger writes a dump");
        assert!(path.file_name().unwrap().to_str().unwrap().contains("test-kind"));
        let body = std::fs::read_to_string(&path).unwrap();
        validate_json(&body).unwrap_or_else(|off| panic!("invalid JSON at {off}: {body}"));
        for key in [
            "\"trigger\":\"test.kind\"",
            "\"request_id\":42",
            "\"ring.incident\"",
            "\"req\":42",
            "\"exemplars\":[{\"request_id\":42,\"class\":\"exact\"",
            "\"metrics\":",
            "\"traceEvents\":",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        // same kind inside the cooldown is suppressed
        assert_eq!(trigger("test.kind", None), None);
        // a different kind fires independently
        assert!(trigger("other.kind", None).is_some());
        disarm_incidents();
        assert_eq!(trigger("test.kind", None), None, "disarmed trigger is inert");
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_cap_limits_incident_files() {
        let _x = span::exclusive();
        let dir = temp_dir("cap");
        clear();
        let mut config = IncidentConfig::new(dir.clone());
        config.cooldown_ns = 0;
        config.max_dumps = 2;
        arm_incidents(config);
        assert!(trigger("cap.kind", None).is_some());
        assert!(trigger("cap.kind", None).is_some());
        assert_eq!(trigger("cap.kind", None), None, "third dump is over the cap");
        disarm_incidents();
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exemplar_store_keeps_newest() {
        let _x = span::exclusive();
        clear();
        for i in 0..(MAX_EXEMPLARS as u64 + 5) {
            note_exemplar(i, "live", i);
        }
        let ex = exemplars();
        assert_eq!(ex.len(), MAX_EXEMPLARS);
        assert_eq!(ex.first().map(|e| e.request_id), Some(5));
        assert_eq!(ex.last().map(|e| e.request_id), Some(MAX_EXEMPLARS as u64 + 4));
        clear();
    }
}
