//! Windowed SLO tracking per request class: exact tier, coreset tier,
//! patched live.
//!
//! The serving stack's latency promise is per *class* — an exact
//! high-zoom tile, a coreset overview, a patched live viewport have
//! different budgets (PAPER.md §6: overview tails dominate, which is why
//! the coreset tier exists). An [`SloTracker`] keeps one
//! [`WindowedHistogram`] per class, compares the windowed p99 against
//! the class target after every observation, and **edge-triggers**: the
//! breach is reported once on the transition into breach, not on every
//! request while breached — a sustained breach produces one incident
//! dump, not a dump per request. Individual requests over the p99 target
//! are *slow* (they become flight-recorder [exemplars](crate::ring));
//! the SLO *breach* is a property of the windowed distribution.
//!
//! Breach transitions also bump the global counters
//! `slo.breach.{exact,coreset,live}`.

use crate::metrics::{Counter, HistogramSnapshot};
use crate::window::WindowedHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The serving request classes with distinct latency budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Detail-zoom request served by the exact sweep tier.
    Exact,
    /// Overview request served by the coreset tier.
    Coreset,
    /// Request against a streaming (patched) live server.
    Live,
}

impl RequestClass {
    /// Every class, in display order.
    pub const ALL: [RequestClass; 3] =
        [RequestClass::Exact, RequestClass::Coreset, RequestClass::Live];

    /// Stable lowercase name (`exact` / `coreset` / `live`).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Exact => "exact",
            RequestClass::Coreset => "coreset",
            RequestClass::Live => "live",
        }
    }

    /// Global breach-counter name for this class.
    pub fn breach_counter(self) -> &'static str {
        match self {
            RequestClass::Exact => "slo.breach.exact",
            RequestClass::Coreset => "slo.breach.coreset",
            RequestClass::Live => "slo.breach.live",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestClass::Exact => 0,
            RequestClass::Coreset => 1,
            RequestClass::Live => 2,
        }
    }
}

/// Latency targets for one request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTargets {
    /// Median target.
    pub p50_ns: u64,
    /// Tail target; requests above it are slow, a windowed p99 above it
    /// is a breach.
    pub p99_ns: u64,
}

impl SloTargets {
    /// Targets from milliseconds (the CLI flag unit).
    pub fn from_ms(p50_ms: f64, p99_ms: f64) -> Self {
        SloTargets { p50_ns: (p50_ms * 1e6) as u64, p99_ns: (p99_ms * 1e6) as u64 }
    }
}

/// What one recorded observation meant for the SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloObservation {
    /// This request exceeded its class p99 target (it was noted as a
    /// flight-recorder exemplar).
    pub slow: bool,
    /// This observation *transitioned* the class into breach — fire the
    /// incident trigger on this edge.
    pub breached: bool,
    /// The class's windowed p99 (log2-bucket upper bound) after this
    /// observation.
    pub windowed_p99_ns: u64,
}

struct ClassState {
    latency: WindowedHistogram,
    targets: SloTargets,
    breaches: Counter,
    in_breach: AtomicBool,
    last_slow_request: AtomicU64,
}

/// Per-class windowed latency tracking against p50/p99 targets with
/// edge-triggered breach detection.
pub struct SloTracker {
    classes: [ClassState; 3],
}

impl SloTracker {
    /// A tracker with per-class targets (indexed like
    /// [`RequestClass::ALL`]) over a `window_ns` sliding window.
    pub fn new(window_ns: u64, targets: [SloTargets; 3]) -> Self {
        let make = |t: SloTargets| ClassState {
            latency: WindowedHistogram::new(window_ns),
            targets: t,
            breaches: Counter::new(),
            in_breach: AtomicBool::new(false),
            last_slow_request: AtomicU64::new(0),
        };
        SloTracker { classes: [make(targets[0]), make(targets[1]), make(targets[2])] }
    }

    /// A tracker applying the same targets to every class.
    pub fn uniform(window_ns: u64, targets: SloTargets) -> Self {
        Self::new(window_ns, [targets; 3])
    }

    /// Records one request latency at the current recorder time.
    pub fn record(&self, class: RequestClass, latency_ns: u64, request_id: u64) -> SloObservation {
        self.record_at(crate::span::now_ns(), class, latency_ns, request_id)
    }

    /// [`SloTracker::record`] at an explicit time (deterministic tests).
    pub fn record_at(
        &self,
        now_ns: u64,
        class: RequestClass,
        latency_ns: u64,
        request_id: u64,
    ) -> SloObservation {
        let st = &self.classes[class.index()];
        st.latency.record_at(now_ns, latency_ns);
        let slow = latency_ns > st.targets.p99_ns;
        if slow {
            st.last_slow_request.store(request_id, Ordering::Relaxed);
            crate::ring::note_exemplar(request_id, class.name(), latency_ns);
        }
        let windowed_p99_ns = st.latency.snapshot_at(now_ns).quantile_upper_bound(0.99);
        let over = windowed_p99_ns > st.targets.p99_ns;
        let breached = if over {
            !st.in_breach.swap(true, Ordering::Relaxed)
        } else {
            st.in_breach.store(false, Ordering::Relaxed);
            false
        };
        if breached {
            st.breaches.bump();
            crate::metrics::global().counter(class.breach_counter()).bump();
        }
        SloObservation { slow, breached, windowed_p99_ns }
    }

    /// The sliding-window length the tracker was built with.
    pub fn window_ns(&self) -> u64 {
        self.classes[0].latency.window_ns()
    }

    /// The class targets.
    pub fn targets(&self, class: RequestClass) -> SloTargets {
        self.classes[class.index()].targets
    }

    /// Breach transitions seen for the class since construction.
    pub fn breaches(&self, class: RequestClass) -> u64 {
        self.classes[class.index()].breaches.get()
    }

    /// Whether the class is currently in breach.
    pub fn in_breach(&self, class: RequestClass) -> bool {
        self.classes[class.index()].in_breach.load(Ordering::Relaxed)
    }

    /// The most recent slow request's id for the class (0 if none yet).
    pub fn last_slow_request(&self, class: RequestClass) -> u64 {
        self.classes[class.index()].last_slow_request.load(Ordering::Relaxed)
    }

    /// The class's windowed latency distribution at the current time.
    pub fn windowed(&self, class: RequestClass) -> HistogramSnapshot {
        self.classes[class.index()].latency.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000_000_000; // 1 s window

    fn tracker(p99_ns: u64) -> SloTracker {
        SloTracker::uniform(W, SloTargets { p50_ns: p99_ns / 2, p99_ns })
    }

    #[test]
    fn fast_requests_never_breach() {
        let t = tracker(1 << 20);
        for i in 0..100 {
            let obs = t.record_at(i * 1_000, RequestClass::Exact, 1000, i);
            assert!(!obs.slow);
            assert!(!obs.breached);
        }
        assert_eq!(t.breaches(RequestClass::Exact), 0);
        assert!(!t.in_breach(RequestClass::Exact));
    }

    #[test]
    fn breach_fires_once_on_the_edge() {
        let _x = crate::span::exclusive(); // note_exemplar touches global state
        crate::ring::clear();
        let t = tracker(1000);
        // every request slow -> windowed p99 over target from the start
        let first = t.record_at(10, RequestClass::Live, 50_000, 7);
        assert!(first.slow);
        assert!(first.breached, "first over-target observation is the edge");
        for i in 1..50 {
            let obs = t.record_at(10 + i, RequestClass::Live, 50_000, 7 + i);
            assert!(obs.slow);
            assert!(!obs.breached, "sustained breach reports no further edges");
        }
        assert_eq!(t.breaches(RequestClass::Live), 1);
        assert!(t.in_breach(RequestClass::Live));
        assert_eq!(t.last_slow_request(RequestClass::Live), 7 + 49);
        // the slow requests left exemplars linking their ids
        let ex = crate::ring::exemplars();
        assert!(ex.iter().any(|e| e.class == "live" && e.request_id == 7 + 49));
        crate::ring::clear();
    }

    #[test]
    fn recovery_rearms_the_edge() {
        let _x = crate::span::exclusive();
        crate::ring::clear();
        let t = tracker(1000);
        assert!(t.record_at(10, RequestClass::Coreset, 9_000, 1).breached);
        // slow window expires; fast traffic brings p99 back under target
        // (few enough requests that one fresh outlier still owns p99)
        let later = 10 + 2 * W;
        for i in 0..40 {
            let obs = t.record_at(later + i, RequestClass::Coreset, 10, 100 + i);
            assert!(!obs.breached);
        }
        assert!(!t.in_breach(RequestClass::Coreset));
        // a fresh breach fires a second edge
        assert!(t.record_at(later + 200, RequestClass::Coreset, 9_000, 500).breached);
        assert_eq!(t.breaches(RequestClass::Coreset), 2);
        crate::ring::clear();
    }

    #[test]
    fn classes_track_independently() {
        let _x = crate::span::exclusive();
        crate::ring::clear();
        let t = tracker(1000);
        assert!(t.record_at(10, RequestClass::Exact, 5_000, 1).breached);
        let obs = t.record_at(10, RequestClass::Coreset, 10, 2);
        assert!(!obs.slow && !obs.breached);
        assert_eq!(t.breaches(RequestClass::Exact), 1);
        assert_eq!(t.breaches(RequestClass::Coreset), 0);
        crate::ring::clear();
    }

    #[test]
    fn targets_from_ms_convert() {
        let t = SloTargets::from_ms(5.0, 50.0);
        assert_eq!(t.p50_ns, 5_000_000);
        assert_eq!(t.p99_ns, 50_000_000);
    }
}
