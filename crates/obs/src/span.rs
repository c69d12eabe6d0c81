//! The span log: one per-thread log of completed spans, read by two
//! consumers.
//!
//! Recording path: [`span`] checks two global flags, whole-run tracing
//! ([`set_enabled`]) and the flight recorder
//! ([`crate::ring::set_recording`]). With both off those two relaxed
//! loads are the *entire* cost, plus an inert guard whose `Drop` takes
//! one branch. Otherwise the guard reads the clock when it opens and, when
//! it drops, appends one completed [`TraceEvent`] to its thread's log: an
//! uncontended `try_lock` and a push, no cross-thread traffic. A write
//! that finds its log held by a consumer is dropped and counted in
//! `obs.dropped_events`; the recording thread never blocks.
//!
//! Storage: a thread's log joins one global registry at its first span.
//! From [`set_enabled`]`(true)` until the trace is taken or cleared, every
//! log keeps every span; otherwise a log overwrites its oldest span at
//! [`RING_CAPACITY`]. When a thread exits, its spans move into the
//! registry's one *retired* log under the same rule and the thread's log
//! leaves the registry, so outside a whole-run trace the recorder holds
//! at most one bounded log per live thread plus one.
//!
//! Consumers: [`take_trace`] and [`clear`] drain every log, including
//! those of threads that are still running; nothing waits for a thread to
//! exit. [`crate::ring::snapshot`] copies a time window of the same logs
//! into incident dumps, so a span carries one tid in both.
//!
//! Timestamps are nanoseconds since the process-wide epoch (the first
//! time any recorder API observes the clock), so spans from different
//! threads share one timeline.

use crate::ring::RING_CAPACITY;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Maximum arguments one span carries, open-side and close-side together.
pub const MAX_SPAN_ARGS: usize = 4;

/// A small inline `(&'static str, u64)` argument set (no allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanArgs {
    len: u8,
    items: [(&'static str, u64); MAX_SPAN_ARGS],
}

impl SpanArgs {
    /// Adds an argument; silently drops arguments past the inline
    /// capacity (observability must never panic the observed code).
    pub fn push(&mut self, key: &'static str, value: u64) {
        if (self.len as usize) < self.items.len() {
            self.items[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// The recorded `(key, value)` pairs.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }

    /// Whether no arguments were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Static span name.
    pub name: &'static str,
    /// Recording thread id (dense, starts at 0, stable for the thread's
    /// lifetime).
    pub tid: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Open-side then close-side arguments.
    pub args: SpanArgs,
}

impl TraceEvent {
    pub(crate) fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

/// Completed spans, ordered by thread then start time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The spans.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Two spans of one thread that partly overlap (the second starts
    /// inside the first and ends after it), or `None` when each thread's
    /// spans nest. RAII guards nest by construction, so tests assert
    /// `None`.
    pub fn partial_overlap(&self) -> Option<(TraceEvent, TraceEvent)> {
        let mut spans: Vec<&TraceEvent> = self.events.iter().collect();
        spans.sort_by_key(|e| (e.tid, e.ts_ns, Reverse(e.dur_ns)));
        let mut open: Vec<&TraceEvent> = Vec::new();
        for e in spans {
            while open.last().is_some_and(|top| top.tid != e.tid || top.end_ns() <= e.ts_ns) {
                open.pop();
            }
            if let Some(top) = open.last().filter(|top| e.end_ns() > top.end_ns()) {
                return Some((**top, *e));
            }
            open.push(e);
        }
        None
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Set by [`set_enabled`]`(true)`, reset by [`take_trace`]: while set,
/// logs keep every span so the whole-run trace loses none, even to a
/// straddling span or a worker exiting after tracing was switched off.
static KEEP_ALL: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry { live: Vec::new(), retired: Log::new() });
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EXCLUSIVE: Mutex<()> = Mutex::new(());
static DROPPED: crate::metrics::Counter = crate::metrics::Counter::new();

/// Nanoseconds since the process-wide recorder epoch (the first time any
/// recorder API observed the clock). The shared timeline of the span
/// logs and the windowed metrics.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span writes lost because a consumer held the writer's log: the
/// `obs.dropped_events` counter. A span closed in a thread's exit
/// teardown, after its log retired, would count too; no thread-local
/// destructor in this workspace opens one. Zero in steady state; the
/// phase table surfaces it when not.
pub fn dropped_events() -> u64 {
    DROPPED.get()
}

/// Completed spans, oldest first, plus how many were overwritten to keep
/// the log within [`RING_CAPACITY`].
pub(crate) struct Log {
    pub(crate) events: VecDeque<TraceEvent>,
    pub(crate) overwritten: u64,
}

impl Log {
    const fn new() -> Self {
        Log { events: VecDeque::new(), overwritten: 0 }
    }

    fn push(&mut self, e: TraceEvent) {
        if !KEEP_ALL.load(Ordering::Relaxed) && self.events.len() >= RING_CAPACITY {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(e);
    }
}

struct ThreadLog {
    tid: u64,
    log: Mutex<Log>,
}

/// Lock order: the registry, then a thread's log. Writers take only
/// their own log, and only with `try_lock`.
struct Registry {
    live: Vec<Arc<ThreadLog>>,
    retired: Log,
}

/// A panic while holding a log only interrupts collection, never the
/// observed computation, and every update leaves a log valid: recover
/// the data instead of poisoning every later export.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The calling thread's registered log; dropping it at thread exit
/// retires the log.
struct LogHandle(Arc<ThreadLog>);

impl Drop for LogHandle {
    fn drop(&mut self) {
        let mut registry = lock(&REGISTRY);
        registry.live.retain(|l| !Arc::ptr_eq(l, &self.0));
        let mut log = lock(&self.0.log);
        for e in log.events.drain(..) {
            registry.retired.push(e);
        }
        registry.retired.overwritten += log.overwritten;
    }
}

thread_local! {
    static LOG: LogHandle = {
        let log = Arc::new(ThreadLog {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            log: Mutex::new(Log::new()),
        });
        lock(&REGISTRY).live.push(Arc::clone(&log));
        LogHandle(log)
    };
}

/// Appends one completed span to the calling thread's log; never blocks.
pub(crate) fn record(name: &'static str, ts_ns: u64, dur_ns: u64, args: SpanArgs) {
    let recorded = LOG
        .try_with(|h| match h.0.log.try_lock() {
            Ok(mut log) => {
                log.push(TraceEvent { name, tid: h.0.tid, ts_ns, dur_ns, args });
                true
            }
            Err(_) => false,
        })
        .unwrap_or(false);
    if !recorded {
        DROPPED.add(1);
        crate::metrics::global().counter("obs.dropped_events").add(1);
    }
}

/// Calls `f` on the retired log and on each live thread's log, holding
/// the registry so no thread retires in between.
pub(crate) fn for_each_log(mut f: impl FnMut(&mut Log)) {
    let mut registry = lock(&REGISTRY);
    let Registry { live, retired } = &mut *registry;
    f(retired);
    for l in live.iter() {
        f(&mut lock(&l.log));
    }
}

/// Turns whole-run tracing on or off process-wide. Spans opened while
/// enabled still record after disabling (the guard captured its active
/// state at open), and the logs keep every span until [`take_trace`].
pub fn set_enabled(on: bool) {
    if on {
        KEEP_ALL.store(true, Ordering::SeqCst);
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether whole-run tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII span guard: reads the clock at creation and records one
/// completed span at drop, when whole-run tracing or the flight recorder
/// was on at creation. With both off, the cost is two relaxed loads at
/// creation and one branch at drop.
#[must_use = "a span guard measures the scope it lives in"]
pub struct SpanGuard {
    name: &'static str,
    args: SpanArgs,
    /// Open timestamp; `None` when the guard is inert.
    ts_ns: Option<u64>,
}

impl SpanGuard {
    /// Attaches an argument when the span closes — for quantities only
    /// known at scope exit (an envelope size, an eviction count).
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.ts_ns.is_some() {
            self.args.push(key, value);
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(ts_ns) = self.ts_ns {
            record(self.name, ts_ns, now_ns().saturating_sub(ts_ns), self.args);
        }
    }
}

#[inline]
fn open(name: &'static str, args: SpanArgs) -> SpanGuard {
    let active = enabled() || crate::ring::recording();
    SpanGuard { name, args, ts_ns: active.then(now_ns) }
}

/// Opens a span. `name` must be `'static` (the stable span registry —
/// see the README's Observability section).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, SpanArgs::default())
}

/// Opens a span with one argument.
#[inline]
pub fn span1(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    let mut args = SpanArgs::default();
    args.push(key, value);
    open(name, args)
}

/// Opens a span with two arguments.
#[inline]
pub fn span2(
    name: &'static str,
    k1: &'static str,
    v1: u64,
    k2: &'static str,
    v2: u64,
) -> SpanGuard {
    let mut args = SpanArgs::default();
    args.push(k1, v1);
    args.push(k2, v2);
    open(name, args)
}

/// Drains every thread's log, the logs of running threads included, into
/// one trace ordered by thread then start time, and ends the keep-all
/// period of the last [`set_enabled`]`(true)` unless tracing is still on.
pub fn take_trace() -> Trace {
    let mut events = Vec::new();
    for_each_log(|log| {
        events.extend(log.events.drain(..));
        log.overwritten = 0;
    });
    KEEP_ALL.store(enabled(), Ordering::SeqCst);
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    Trace { events }
}

/// Discards everything recorded so far (does not change the enabled
/// flag). Long-running hosts that only sample occasionally call this
/// between windows so the logs cannot grow without bound.
pub fn clear() {
    let _ = take_trace();
}

/// Serializes tests that toggle the process-global recorder. Every test
/// that calls [`set_enabled`] must hold this guard for its whole body;
/// the mutex recovers from poisoning so one failing test cannot wedge
/// the rest of the suite.
pub fn exclusive() -> MutexGuard<'static, ()> {
    lock(&EXCLUSIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        clear();
        {
            let mut g = span1("test.disabled", "k", 1);
            g.arg("v", 2);
        }
        assert!(take_trace().events.is_empty());
    }

    #[test]
    fn spans_pair_with_args_merged() {
        let _x = exclusive();
        set_enabled(true);
        clear();
        {
            let mut g = span2("test.outer", "a", 1, "b", 2);
            {
                let _inner = span("test.inner");
            }
            g.arg("c", 3);
        }
        set_enabled(false);
        let trace = take_trace();
        assert_eq!(trace.events.len(), 2);
        let outer = trace.events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = trace.events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(outer.args.as_slice(), &[("a", 1), ("b", 2), ("c", 3)]);
        assert!(inner.args.is_empty());
        // inner nests within outer on the shared timeline
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        assert!(trace.partial_overlap().is_none(), "{trace:?}");
    }

    #[test]
    fn worker_threads_drain_on_exit() {
        let _x = exclusive();
        set_enabled(true);
        clear();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _g = span("test.worker");
                });
            }
        });
        {
            let _g = span("test.main");
        }
        set_enabled(false);
        let trace = take_trace();
        assert_eq!(trace.events.iter().filter(|e| e.name == "test.worker").count(), 3);
        let worker_tids: std::collections::BTreeSet<u64> =
            trace.events.iter().filter(|e| e.name == "test.worker").map(|e| e.tid).collect();
        assert_eq!(worker_tids.len(), 3, "each worker thread gets its own tid");
    }

    #[test]
    fn a_running_threads_spans_are_taken_without_it_exiting() {
        let _x = exclusive();
        set_enabled(true);
        clear();
        let (recorded_tx, recorded_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                {
                    let _g = span("test.parked");
                }
                recorded_tx.send(()).expect("test thread waits for the span");
                // parked on the channel until the trace has been taken
                let _ = release_rx.recv();
            });
            recorded_rx.recv().expect("worker recorded its span");
            set_enabled(false);
            let trace = take_trace();
            release_tx.send(()).expect("worker is still parked");
            assert_eq!(trace.events.iter().filter(|e| e.name == "test.parked").count(), 1);
        });
    }

    #[test]
    fn span_opened_before_disable_still_closes() {
        let _x = exclusive();
        set_enabled(true);
        clear();
        let g = span("test.straddle");
        set_enabled(false);
        drop(g);
        let trace = take_trace();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "test.straddle");
    }

    #[test]
    fn args_overflow_is_dropped_not_panicked() {
        let mut args = SpanArgs::default();
        for i in 0..10 {
            args.push("k", i);
        }
        assert_eq!(args.as_slice().len(), MAX_SPAN_ARGS);
    }

    #[test]
    fn clear_discards_pending_events() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _g = span("test.discarded");
        }
        clear();
        set_enabled(false);
        assert!(take_trace().events.is_empty());
    }

    #[test]
    fn partial_overlap_flags_crossing_spans_only() {
        let ev = |tid, ts_ns, dur_ns| TraceEvent {
            name: "s",
            tid,
            ts_ns,
            dur_ns,
            args: SpanArgs::default(),
        };
        // nested, back to back, same start, and crossing only across threads
        let nested = Trace {
            events: vec![ev(0, 0, 10), ev(0, 2, 3), ev(0, 5, 5), ev(0, 10, 4), ev(1, 1, 20)],
        };
        assert!(nested.partial_overlap().is_none());
        let crossing = Trace { events: vec![ev(0, 0, 10), ev(0, 1, 2), ev(0, 5, 10)] };
        let (a, b) = crossing.partial_overlap().expect("spans 0..10 and 5..15 cross");
        assert_eq!((a.ts_ns, b.ts_ns), (0, 5));
    }
}
