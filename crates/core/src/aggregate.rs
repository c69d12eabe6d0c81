//! Range-set aggregates (paper Table 4) with compensated maintenance.
//!
//! A [`RangeAggregates`] value summarises a point multiset well enough to
//! evaluate any Table-2 kernel in O(1): count, coordinate sums `A`, the
//! squared-norm sum `S`, plus the quartic-only terms `C = Σ‖p‖²p`,
//! `Q = Σ‖p‖⁴` and the symmetric outer-product matrix `M = Σ p·pᵀ`
//! (stored as its three distinct entries).
//!
//! The sweep line maintains two such states (`L` and `U`, Eqs. 12–13) and
//! evaluates densities from their difference (Lemma 3 / Lemma 5). Every
//! scalar is held in a Kahan accumulator so the error after millions of
//! insertions stays at a few ulps.
//!
//! An insert is the sweep's per-event cost (Lemma 5's O(1) update), so
//! everything a row loop calls on a [`SweepAccumulator`] — `insert`,
//! `reset`, `shift_x`, `count`, `diff` — is inlined into it. That lets a
//! row engine keep its two accumulators in locals that stay in registers:
//! one out-of-line call taking `&mut self` makes the accumulator's address
//! escape, and every insert then loads and stores all of its fields.
//! Each compensated add inside an insert is [`Kahan::add`], which selects
//! the larger and smaller operand with Neumaier's own `|sum| ≥ |v|`
//! comparison and applies the same `(big − t) + small`, so every aggregate
//! is bitwise what the two-armed form produced (see the `stats` module docs
//! and its bitwise tests).

use crate::geom::Point;
use crate::stats::Kahan;

/// Aggregates of a point multiset sufficient for O(1) kernel evaluation.
///
/// Plain-`f64` snapshot form; produced from a [`SweepAccumulator`] or built
/// directly (e.g. per quadtree node in the QUAD baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RangeAggregates {
    /// `|R(q)|` — number of points.
    pub count: u64,
    /// `Σ p.x`.
    pub ax: f64,
    /// `Σ p.y`.
    pub ay: f64,
    /// `S = Σ ‖p‖²`.
    pub s: f64,
    /// `Σ ‖p‖²·p.x` (quartic only).
    pub cx: f64,
    /// `Σ ‖p‖²·p.y` (quartic only).
    pub cy: f64,
    /// `Q = Σ ‖p‖⁴` (quartic only).
    pub q4: f64,
    /// `M₁₁ = Σ p.x²` (quartic only).
    pub mxx: f64,
    /// `M₁₂ = M₂₁ = Σ p.x·p.y` (quartic only).
    pub mxy: f64,
    /// `M₂₂ = Σ p.y²` (quartic only).
    pub myy: f64,
}

impl RangeAggregates {
    /// Adds one point to every aggregate (simple uncompensated form for
    /// small sets such as index-node summaries).
    pub fn add(&mut self, p: &Point) {
        let n2 = p.norm_sq();
        self.count += 1;
        self.ax += p.x;
        self.ay += p.y;
        self.s += n2;
        self.cx += n2 * p.x;
        self.cy += n2 * p.y;
        self.q4 += n2 * n2;
        self.mxx += p.x * p.x;
        self.mxy += p.x * p.y;
        self.myy += p.y * p.y;
    }

    /// Merges another aggregate into this one (quadtree node roll-up).
    pub fn merge(&mut self, other: &RangeAggregates) {
        self.count += other.count;
        self.ax += other.ax;
        self.ay += other.ay;
        self.s += other.s;
        self.cx += other.cx;
        self.cy += other.cy;
        self.q4 += other.q4;
        self.mxx += other.mxx;
        self.mxy += other.mxy;
        self.myy += other.myy;
    }

    /// Builds aggregates over a point slice.
    pub fn from_points(points: &[Point]) -> Self {
        let mut a = RangeAggregates::default();
        for p in points {
            a.add(p);
        }
        a
    }
}

/// Compensated accumulator for one side of the sweep (the `L` or `U` set).
///
/// Tracks the same ten quantities as [`RangeAggregates`] but with
/// Kahan-compensated sums; `maintain_quartic` lets Epanechnikov/uniform runs
/// skip the six extra accumulators.
#[derive(Debug, Clone, Default)]
pub struct SweepAccumulator {
    count: u64,
    ax: Kahan,
    ay: Kahan,
    s: Kahan,
    cx: Kahan,
    cy: Kahan,
    q4: Kahan,
    mxx: Kahan,
    mxy: Kahan,
    myy: Kahan,
    maintain_quartic: bool,
}

impl SweepAccumulator {
    /// A fresh accumulator. `maintain_quartic` enables the `C`/`Q`/`M`
    /// terms (needed only by the quartic kernel).
    #[inline(always)]
    pub fn new(maintain_quartic: bool) -> Self {
        Self { maintain_quartic, ..Self::default() }
    }

    /// Inserts `p` (sweep case 1 or 2: an interval endpoint was passed).
    #[inline(always)]
    pub fn insert(&mut self, p: &Point) {
        self.count += 1;
        self.ax.add(p.x);
        self.ay.add(p.y);
        let n2 = p.norm_sq();
        self.s.add(n2);
        if self.maintain_quartic {
            self.cx.add(n2 * p.x);
            self.cy.add(n2 * p.y);
            self.q4.add(n2 * n2);
            self.mxx.add(p.x * p.x);
            self.mxy.add(p.x * p.y);
            self.myy.add(p.y * p.y);
        }
    }

    /// Number of points inserted so far.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Clears the accumulator for reuse on the next row (keeps the
    /// `maintain_quartic` flag).
    #[inline(always)]
    pub fn reset(&mut self) {
        let mq = self.maintain_quartic;
        *self = SweepAccumulator::new(mq);
    }

    /// Translates the accumulated coordinate frame along x by `delta`:
    /// afterwards the aggregates describe the same point multiset expressed
    /// in coordinates `x' = x − delta` (y unchanged).
    ///
    /// Exact in real arithmetic — each power sum is a polynomial in the
    /// coordinates, so a translation is a binomial re-expansion in terms of
    /// the pre-shift sums. The engines use this to keep every stored
    /// magnitude `O(b)` as the sweep advances (the rolling frame described
    /// in `sweep_sort`), which is what keeps the quartic decomposition
    /// conditioned at city-scale coordinates.
    #[inline(always)]
    pub fn shift_x(&mut self, delta: f64) {
        if self.count == 0 {
            return;
        }
        let n = self.count as f64;
        let d = delta;
        // Snapshot pre-shift values: every update below must see the old
        // frame, not a partially shifted one.
        let ax = self.ax.value();
        self.ax.add(-n * d);
        if self.maintain_quartic {
            let ay = self.ay.value();
            let s = self.s.value();
            let cx = self.cx.value();
            let mxx = self.mxx.value();
            let mxy = self.mxy.value();
            let d2 = d * d;
            self.s.add(-2.0 * d * ax + n * d2);
            self.q4.add(
                -4.0 * d * cx + 2.0 * d2 * s + 4.0 * d2 * mxx - 4.0 * d * d2 * ax + n * d2 * d2,
            );
            self.cx.add(-d * (s + 2.0 * mxx) + 3.0 * d2 * ax - n * d * d2);
            self.cy.add(-2.0 * d * mxy + d2 * ay);
            self.mxx.add(-2.0 * d * ax + n * d2);
            self.mxy.add(-d * ay);
            // myy is y-only: unchanged by an x-translation.
        } else {
            self.s.add(-2.0 * d * ax + n * d * d);
        }
    }

    /// Snapshot of the difference `self − other`, i.e. the aggregates of
    /// `L \ U` (valid because `U ⊆ L`, proven in Lemma 5).
    ///
    /// # Panics
    /// Debug-panics if `other.count > self.count`, which would violate the
    /// sweep invariant `U ⊆ L`.
    #[inline(always)]
    pub fn diff(&self, other: &SweepAccumulator) -> RangeAggregates {
        debug_assert!(other.count <= self.count, "sweep invariant U ⊆ L violated");
        RangeAggregates {
            count: self.count - other.count,
            ax: self.ax.value() - other.ax.value(),
            ay: self.ay.value() - other.ay.value(),
            s: self.s.value() - other.s.value(),
            cx: self.cx.value() - other.cx.value(),
            cy: self.cy.value() - other.cy.value(),
            q4: self.q4.value() - other.q4.value(),
            mxx: self.mxx.value() - other.mxx.value(),
            mxy: self.mxy.value() - other.mxy.value(),
            myy: self.myy.value() - other.myy.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(1.0, 2.0),
            Point::new(-0.5, 0.25),
            Point::new(3.0, -4.0),
            Point::new(0.0, 0.0),
        ]
    }

    #[test]
    fn from_points_matches_manual() {
        let pts = sample_points();
        let a = RangeAggregates::from_points(&pts);
        assert_eq!(a.count, 4);
        assert!((a.ax - 3.5).abs() < 1e-12);
        assert!((a.ay - (-1.75)).abs() < 1e-12);
        // S = 5 + 0.3125 + 25 + 0 = 30.3125
        assert!((a.s - 30.3125).abs() < 1e-12);
        // M entries
        assert!((a.mxx - (1.0 + 0.25 + 9.0)).abs() < 1e-12);
        assert!((a.myy - (4.0 + 0.0625 + 16.0)).abs() < 1e-12);
        assert!((a.mxy - (2.0 - 0.125 - 12.0)).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_concatenation() {
        let pts = sample_points();
        let (left, right) = pts.split_at(2);
        let mut a = RangeAggregates::from_points(left);
        a.merge(&RangeAggregates::from_points(right));
        let whole = RangeAggregates::from_points(&pts);
        assert_eq!(a.count, whole.count);
        assert!((a.s - whole.s).abs() < 1e-12);
        assert!((a.q4 - whole.q4).abs() < 1e-12);
    }

    #[test]
    fn sweep_diff_equals_set_difference() {
        let pts = sample_points();
        let mut l = SweepAccumulator::new(true);
        let mut u = SweepAccumulator::new(true);
        for p in &pts {
            l.insert(p);
        }
        // U gets the first two points (they have "left" the range)
        u.insert(&pts[0]);
        u.insert(&pts[1]);
        let diff = l.diff(&u);
        let expect = RangeAggregates::from_points(&pts[2..]);
        assert_eq!(diff.count, expect.count);
        assert!((diff.ax - expect.ax).abs() < 1e-12);
        assert!((diff.s - expect.s).abs() < 1e-12);
        assert!((diff.q4 - expect.q4).abs() < 1e-12);
        assert!((diff.mxy - expect.mxy).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_quartic_flag() {
        let mut acc = SweepAccumulator::new(true);
        acc.insert(&Point::new(1.0, 1.0));
        acc.reset();
        assert_eq!(acc.count(), 0);
        acc.insert(&Point::new(2.0, 0.0));
        let diff = acc.diff(&SweepAccumulator::new(true));
        assert!((diff.q4 - 16.0).abs() < 1e-12, "quartic terms still maintained");
    }

    #[test]
    fn shift_x_matches_rebuilding_in_new_frame() {
        let pts = sample_points();
        for quartic in [false, true] {
            let mut acc = SweepAccumulator::new(quartic);
            for p in &pts {
                acc.insert(p);
            }
            let delta = 3.75;
            acc.shift_x(delta);
            let shifted: Vec<Point> = pts.iter().map(|p| Point::new(p.x - delta, p.y)).collect();
            let mut expect = SweepAccumulator::new(quartic);
            for p in &shifted {
                expect.insert(p);
            }
            let got = acc.diff(&SweepAccumulator::new(quartic));
            let want = expect.diff(&SweepAccumulator::new(quartic));
            assert_eq!(got.count, want.count);
            for (g, w) in [
                (got.ax, want.ax),
                (got.ay, want.ay),
                (got.s, want.s),
                (got.cx, want.cx),
                (got.cy, want.cy),
                (got.q4, want.q4),
                (got.mxx, want.mxx),
                (got.mxy, want.mxy),
                (got.myy, want.myy),
            ] {
                assert!((g - w).abs() <= 1e-10 * w.abs().max(1.0), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn shift_x_on_empty_accumulator_is_a_noop() {
        let mut acc = SweepAccumulator::new(true);
        acc.shift_x(123.0);
        let d = acc.diff(&SweepAccumulator::new(true));
        assert_eq!(d.count, 0);
        assert_eq!(d.ax, 0.0);
        assert_eq!(d.q4, 0.0);
    }

    #[test]
    fn non_quartic_mode_skips_extras() {
        let mut acc = SweepAccumulator::new(false);
        acc.insert(&Point::new(2.0, 3.0));
        let d = acc.diff(&SweepAccumulator::new(false));
        assert_eq!(d.count, 1);
        assert_eq!(d.s, 13.0);
        assert_eq!(d.q4, 0.0, "quartic terms not maintained in cheap mode");
    }
}
