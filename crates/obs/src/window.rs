//! Time-windowed metrics: rotating-slot histograms that answer "over the
//! last N seconds" beside the cumulative registry.
//!
//! A long-lived server's cumulative p99 converges to its lifetime
//! average and stops moving — useless for "is p99 degrading *right
//! now*". A [`WindowedHistogram`] keeps [`SLOTS`] rotating sub-window
//! slots on the recorder timeline ([`crate::span::now_ns`]); recording
//! stamps the observation into the slot for the current sub-window
//! (lazily recycling slots whose sub-window has passed), and a snapshot
//! merges every slot still inside the window. The result is a bounded,
//! allocation-free sliding approximation: observations expire in
//! whole-slot granules (window/[`SLOTS`]), never linger forever.
//!
//! Each method has an explicit `*_at(now_ns, ..)` variant so tests drive
//! a deterministic clock; the plain methods read the shared recorder
//! clock.

use crate::metrics::{bucket_index, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::span;
use std::sync::Mutex;

/// Rotating sub-window slots per windowed instrument. More slots means
/// smoother expiry and a bigger constant footprint; 8 keeps the stale
/// tail under 1/8 of the window.
pub const SLOTS: usize = 8;

#[derive(Clone, Copy)]
struct HistSlot {
    index: u64,
    hist: HistogramSnapshot,
}

const EMPTY_HIST: HistogramSnapshot =
    HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: 0, max: 0 };

fn observe(h: &mut HistogramSnapshot, v: u64) {
    h.buckets[bucket_index(v)] += 1;
    h.count += 1;
    h.sum = h.sum.saturating_add(v);
    h.min = if h.count == 1 { v } else { h.min.min(v) };
    h.max = h.max.max(v);
}

fn merge(into: &mut HistogramSnapshot, from: &HistogramSnapshot) {
    if from.count == 0 {
        return;
    }
    for (a, b) in into.buckets.iter_mut().zip(&from.buckets) {
        *a += b;
    }
    into.min = if into.count == 0 { from.min } else { into.min.min(from.min) };
    into.count += from.count;
    into.sum = into.sum.saturating_add(from.sum);
    into.max = into.max.max(from.max);
}

/// A log2 histogram over a sliding time window (slot-granular expiry).
pub struct WindowedHistogram {
    window_ns: u64,
    slot_ns: u64,
    slots: Mutex<[HistSlot; SLOTS]>,
}

impl WindowedHistogram {
    /// A windowed histogram covering roughly the last `window_ns`
    /// (expiry granularity `window_ns / SLOTS`, floored to 1 ns).
    pub fn new(window_ns: u64) -> Self {
        WindowedHistogram {
            window_ns,
            slot_ns: (window_ns / SLOTS as u64).max(1),
            slots: Mutex::new([HistSlot { index: 0, hist: EMPTY_HIST }; SLOTS]),
        }
    }

    /// The configured window span.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records one observation at the current recorder time.
    pub fn record(&self, v: u64) {
        self.record_at(span::now_ns(), v);
    }

    /// Records one observation at an explicit time.
    pub fn record_at(&self, now_ns: u64, v: u64) {
        let index = now_ns / self.slot_ns;
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut slots[(index % SLOTS as u64) as usize];
        if slot.index != index {
            *slot = HistSlot { index, hist: EMPTY_HIST };
        }
        observe(&mut slot.hist, v);
    }

    /// Merged distribution of every slot still inside the window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.snapshot_at(span::now_ns())
    }

    /// [`WindowedHistogram::snapshot`] at an explicit time.
    pub fn snapshot_at(&self, now_ns: u64) -> HistogramSnapshot {
        let now_index = now_ns / self.slot_ns;
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = EMPTY_HIST;
        for slot in slots.iter() {
            // the live slot plus the SLOTS-1 before it
            if slot.index + (SLOTS as u64) > now_index && slot.index <= now_index {
                merge(&mut out, &slot.hist);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 8_000; // window 8 µs -> slot 1 µs

    #[test]
    fn windowed_histogram_merges_live_slots() {
        let h = WindowedHistogram::new(W);
        h.record_at(1_000, 10);
        h.record_at(2_500, 100);
        h.record_at(2_600, 1_000);
        let s = h.snapshot_at(3_000);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1_110);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1_000);
    }

    #[test]
    fn observations_expire_after_the_window() {
        let h = WindowedHistogram::new(W);
        h.record_at(500, 42);
        assert_eq!(h.snapshot_at(1_000).count, 1);
        // slot 0 stays visible through slot index 7, gone at index 8
        assert_eq!(h.snapshot_at(7_999).count, 1);
        assert_eq!(h.snapshot_at(8_000).count, 0);
    }

    #[test]
    fn stale_slot_is_recycled_on_write() {
        let h = WindowedHistogram::new(W);
        h.record_at(500, 1); // slot index 0
        h.record_at(500 + W, 2); // slot index 8 -> same physical slot, recycled
        let s = h.snapshot_at(500 + W);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 2);
    }

    #[test]
    fn windowed_quantiles_track_the_recent_distribution() {
        let h = WindowedHistogram::new(W);
        for i in 0..100 {
            h.record_at(1_000, 8 + (i % 3)); // fast cluster
        }
        h.record_at(6_000, 1 << 20); // one recent outlier
        let s = h.snapshot_at(6_500);
        assert_eq!(s.quantile_upper_bound(0.5), 15);
        assert_eq!(s.quantile_upper_bound(0.999), 1 << 20);
        // after the fast cluster expires only the outlier remains
        let late = h.snapshot_at(1_000 + W);
        assert_eq!(late.count, 1);
        assert_eq!(late.quantile_upper_bound(0.5), 1 << 20);
    }

    #[test]
    fn tiny_windows_floor_slot_to_one_ns() {
        let h = WindowedHistogram::new(3);
        h.record_at(0, 1);
        assert_eq!(h.snapshot_at(0).count, 1);
    }
}
