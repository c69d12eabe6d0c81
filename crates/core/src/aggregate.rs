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
/// skip the six quartic accumulators and `Σy`.
///
/// `Σy` can go because the sweeps evaluate every pixel at `q.y = 0`, where
/// Epanechnikov reads `A_y` only through `q.y·A_y`, a signed zero: in
/// `n − (n‖q‖² − 2qᵀA + S)/b²` that zero can flip only the sign of a zero
/// intermediate, `n‖q‖²` is `+0` unless `n < 0`, and a nonzero `n` absorbs
/// a signed-zero `u/b²`. A zero `n` is `+0`, never `−0`: a count is, and a
/// Neumaier weight sum started at `+0` never reaches `−0`. Uniform reads
/// only `n`. So the densities are bitwise those of an accumulator that
/// keeps `Σy`, and [`SweepAccumulator::diff`] reports it as zero.
///
/// `WEIGHTED` picks the weight source at compile time. Every Table 4
/// aggregate is a sum over points, so a weighted sweep is the same sweep
/// with each point's terms scaled by its weight and `n = Σ wᵢ` in place of
/// `|R(q)|`. With unit weights (`false`, the default) an insert multiplies
/// by nothing and `n` is the insertion count; with `f64` weights (`true`)
/// every term carries the weight as its leftmost factor (`w·n²·x` is
/// `(w·n²)·x`) and `n` is a compensated weight sum. `count` is kept either
/// way: weights may cancel, so only the count can tell when the active set
/// is empty.
#[derive(Debug, Clone, Default)]
pub struct SweepAccumulator<const WEIGHTED: bool = false> {
    count: u64,
    /// `Σ wᵢ` (weighted sweeps only).
    wsum: Kahan,
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

impl<const WEIGHTED: bool> SweepAccumulator<WEIGHTED> {
    /// A fresh accumulator. `maintain_quartic` enables the `C`/`Q`/`M`
    /// terms (needed only by the quartic kernel).
    #[inline(always)]
    pub fn new(maintain_quartic: bool) -> Self {
        Self { maintain_quartic, ..Self::default() }
    }

    /// Inserts `p` with weight `w` (sweep case 1 or 2: an interval endpoint
    /// was passed). A unit-weight accumulator ignores `w`.
    #[inline(always)]
    pub fn insert(&mut self, p: &Point, w: f64) {
        self.count += 1;
        let n2 = p.norm_sq();
        let (wx, wy, wn2) = if WEIGHTED {
            self.wsum.add(w);
            (w * p.x, w * p.y, w * n2)
        } else {
            (p.x, p.y, n2)
        };
        self.ax.add(wx);
        self.s.add(wn2);
        if self.maintain_quartic {
            self.ay.add(wy);
            self.cx.add(wn2 * p.x);
            self.cy.add(wn2 * p.y);
            self.q4.add(wn2 * n2);
            self.mxx.add(wx * p.x);
            self.mxy.add(wx * p.y);
            self.myy.add(wy * p.y);
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
        *self = Self::new(self.maintain_quartic);
    }

    /// Translates the accumulated coordinate frame along x by `delta`:
    /// afterwards the aggregates describe the same point multiset expressed
    /// in coordinates `x' = x − delta` (y unchanged).
    ///
    /// Exact in real arithmetic — each power sum is a polynomial in the
    /// coordinates, so a translation is a binomial re-expansion in terms of
    /// the pre-shift sums, with the zeroth moment `n` (count or `Σ wᵢ`)
    /// where a binomial term has no coordinate left. The engines use this
    /// to keep every stored magnitude `O(b)` as the sweep advances (the
    /// rolling frame described in `sweep_sort`), which is what keeps the
    /// quartic decomposition conditioned at city-scale coordinates.
    #[inline(always)]
    pub fn shift_x(&mut self, delta: f64) {
        if self.count == 0 {
            return;
        }
        let n = if WEIGHTED { self.wsum.value() } else { self.count as f64 };
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

    /// Number of `u64` words [`SweepAccumulator::save`] writes: the count,
    /// then a sum and a compensation per maintained aggregate (`Σ wᵢ`
    /// when weighted, `Σx` and `S`, and `Σy` with the six quartic terms
    /// when `maintain_quartic`). Fields the accumulator never touches stay
    /// zero, so they need no words.
    pub const fn state_words(maintain_quartic: bool) -> usize {
        1 + 2 * (2 + WEIGHTED as usize + if maintain_quartic { 7 } else { 0 })
    }

    /// Writes the accumulator's whole state into the first
    /// [`SweepAccumulator::state_words`] words of `out`, bit for bit.
    #[inline(always)]
    pub fn save(&self, out: &mut [u64]) {
        out[0] = self.count;
        let mut at = 1;
        for k in self.maintained() {
            out[at..at + 2].copy_from_slice(&k.to_bits());
            at += 2;
        }
    }

    /// The accumulator [`SweepAccumulator::save`] wrote into `words`:
    /// bitwise the one that was saved.
    #[inline(always)]
    pub fn restore(words: &[u64], maintain_quartic: bool) -> Self {
        let mut acc = Self::new(maintain_quartic);
        acc.count = words[0];
        let mut at = 1;
        for k in acc.maintained_mut() {
            *k = Kahan::from_bits([words[at], words[at + 1]]);
            at += 2;
        }
        acc
    }

    /// The maintained sums, in [`SweepAccumulator::save`] order.
    #[inline(always)]
    fn maintained(&self) -> impl Iterator<Item = &Kahan> {
        let quartic = [&self.ay, &self.cx, &self.cy, &self.q4, &self.mxx, &self.mxy, &self.myy];
        WEIGHTED
            .then_some(&self.wsum)
            .into_iter()
            .chain([&self.ax, &self.s])
            .chain(quartic.into_iter().take(if self.maintain_quartic { 7 } else { 0 }))
    }

    /// [`SweepAccumulator::maintained`], mutably.
    #[inline(always)]
    fn maintained_mut(&mut self) -> impl Iterator<Item = &mut Kahan> {
        let n = if self.maintain_quartic { 7 } else { 0 };
        let quartic = [
            &mut self.ay,
            &mut self.cx,
            &mut self.cy,
            &mut self.q4,
            &mut self.mxx,
            &mut self.mxy,
            &mut self.myy,
        ];
        WEIGHTED
            .then_some(&mut self.wsum)
            .into_iter()
            .chain([&mut self.ax, &mut self.s])
            .chain(quartic.into_iter().take(n))
    }

    /// Snapshot of the difference `self − other`, i.e. the aggregates of
    /// `L \ U` (valid because `U ⊆ L`, proven in Lemma 5), together with
    /// the density polynomial's zeroth moment `n` of that set: its point
    /// count for unit weights, its weight sum otherwise (the aggregates'
    /// own `count` is always the number of points).
    ///
    /// # Panics
    /// Debug-panics if `other.count > self.count`, which would violate the
    /// sweep invariant `U ⊆ L`.
    #[inline(always)]
    pub fn diff(&self, other: &Self) -> (f64, RangeAggregates) {
        debug_assert!(other.count <= self.count, "sweep invariant U ⊆ L violated");
        let agg = RangeAggregates {
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
        };
        let n = if WEIGHTED { self.wsum.value() - other.wsum.value() } else { agg.count as f64 };
        (n, agg)
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

    /// A unit-weight accumulator.
    fn unit(quartic: bool) -> SweepAccumulator {
        SweepAccumulator::new(quartic)
    }

    #[test]
    fn sweep_diff_equals_set_difference() {
        let pts = sample_points();
        let mut l = unit(true);
        let mut u = unit(true);
        for p in &pts {
            l.insert(p, 1.0);
        }
        // U gets the first two points (they have "left" the range)
        u.insert(&pts[0], 1.0);
        u.insert(&pts[1], 1.0);
        let (n, diff) = l.diff(&u);
        let expect = RangeAggregates::from_points(&pts[2..]);
        assert_eq!(n, 2.0);
        assert_eq!(diff.count, expect.count);
        assert!((diff.ax - expect.ax).abs() < 1e-12);
        assert!((diff.s - expect.s).abs() < 1e-12);
        assert!((diff.q4 - expect.q4).abs() < 1e-12);
        assert!((diff.mxy - expect.mxy).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_quartic_flag() {
        let mut acc = unit(true);
        acc.insert(&Point::new(1.0, 1.0), 1.0);
        acc.reset();
        assert_eq!(acc.count(), 0);
        acc.insert(&Point::new(2.0, 0.0), 1.0);
        let (_, diff) = acc.diff(&unit(true));
        assert!((diff.q4 - 16.0).abs() < 1e-12, "quartic terms still maintained");
    }

    /// `(n, aggregates)` of `pts` inserted with `weights` (ignored by a
    /// unit-weight accumulator), after an x-shift by `delta`.
    fn moments<const WEIGHTED: bool>(
        pts: &[Point],
        weights: &[f64],
        quartic: bool,
        delta: f64,
    ) -> (f64, RangeAggregates) {
        let mut acc = SweepAccumulator::<WEIGHTED>::new(quartic);
        for (p, &w) in pts.iter().zip(weights) {
            acc.insert(p, w);
        }
        acc.shift_x(delta);
        acc.diff(&SweepAccumulator::new(quartic))
    }

    #[test]
    fn shift_x_matches_rebuilding_in_new_frame() {
        let pts = sample_points();
        let delta = 3.75;
        let shifted: Vec<Point> = pts.iter().map(|p| Point::new(p.x - delta, p.y)).collect();
        // Real weights of both signs: their sum stands in for the count.
        let weights = [0.5, -2.0, 3.0, 1.25];
        for quartic in [false, true] {
            for ((n_got, got), (n_want, want)) in [
                (
                    moments::<false>(&pts, &weights, quartic, delta),
                    moments::<false>(&shifted, &weights, quartic, 0.0),
                ),
                (
                    moments::<true>(&pts, &weights, quartic, delta),
                    moments::<true>(&shifted, &weights, quartic, 0.0),
                ),
            ] {
                assert_eq!((got.count, n_got), (want.count, n_want));
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
    }

    #[test]
    fn weight_sum_not_count_is_the_zeroth_moment() {
        let pts = [Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
        let (n, agg) = moments::<true>(&pts, &[2.5, -1.0], false, 0.0);
        assert_eq!((n, agg.count, agg.ax), (1.5, 2, 3.5));
    }

    #[test]
    fn shift_x_on_empty_accumulator_is_a_noop() {
        let mut acc = unit(true);
        acc.shift_x(123.0);
        let (n, d) = acc.diff(&unit(true));
        assert_eq!(n, 0.0);
        assert_eq!(d.count, 0);
        assert_eq!(d.ax, 0.0);
        assert_eq!(d.q4, 0.0);
    }

    /// Sweeps `events` (a point, its weight and whether it enters `L` or
    /// leaves into `U`) through non-quartic accumulators in a frame that
    /// shifts by `step` after every event, and checks each density at
    /// `q = (qx, 0)` bitwise against the same evaluation with `Σy`
    /// carried alongside, as the accumulator kept it before.
    fn check_sigma_y_free<const WEIGHTED: bool>(events: &[(Point, f64, bool)], step: f64) {
        let (mut l, mut u) =
            (SweepAccumulator::<WEIGHTED>::new(false), SweepAccumulator::new(false));
        let (mut ay_l, mut ay_u) = (Kahan::new(), Kahan::new());
        for &(p, w, enters) in events {
            let wy = if WEIGHTED { w * p.y } else { p.y };
            if enters {
                l.insert(&p, w);
                ay_l.add(wy);
            } else {
                u.insert(&p, w);
                ay_u.add(wy);
            }
            let (n, agg) = l.diff(&u);
            assert_eq!(agg.ay.to_bits(), 0, "Σy is not maintained");
            let kept = RangeAggregates { ay: ay_l.value() - ay_u.value(), ..agg };
            for kernel in [crate::KernelType::Epanechnikov, crate::KernelType::Uniform] {
                // qx = 0 is a pixel exactly at `frame_x`
                for qx in [0.0, -0.0, 0.5, -1.75, 3.0] {
                    let q = Point::new(qx, 0.0);
                    let got = kernel.density_from_moments(&q, n, &agg, 2.5, 0.3);
                    let want = kernel.density_from_moments(&q, n, &kept, 2.5, 0.3);
                    assert_eq!(got.to_bits(), want.to_bits(), "{kernel:?} n={n} q={qx}");
                }
            }
            l.shift_x(step);
            u.shift_x(step);
        }
    }

    #[test]
    fn dropping_sigma_y_keeps_non_quartic_densities_bitwise() {
        // points on the row line (y = ±0), negative and cancelling
        // weights, and a set that empties to n = 0 with nonzero sums left
        let pts = [(1.0, 0.0), (-0.5, -0.0), (2.0, 1.5), (0.0, -2.25), (-1.5, 0.0), (0.75, 0.5)]
            .map(|(x, y)| Point::new(x, y));
        let weights = [1.0, -2.5, 2.5, -1.0, 0.75, -0.75];
        let mut events: Vec<_> = pts.iter().zip(weights).map(|(&p, w)| (p, w, true)).collect();
        events.extend(pts.iter().zip(weights).map(|(&p, w)| (p, w, false)));
        for step in [0.0, 0.25, -1.0] {
            check_sigma_y_free::<true>(&events, step);
            check_sigma_y_free::<false>(&events, step);
            let unit: Vec<_> = events.iter().map(|&(p, _, e)| (p, 1.0, e)).collect();
            check_sigma_y_free::<true>(&unit, step);
        }
    }

    #[test]
    fn non_quartic_mode_skips_extras() {
        let mut acc = unit(false);
        acc.insert(&Point::new(2.0, 3.0), 1.0);
        let (_, d) = acc.diff(&unit(false));
        assert_eq!(d.count, 1);
        assert_eq!(d.s, 13.0);
        assert_eq!(d.q4, 0.0, "quartic terms not maintained in cheap mode");
    }
}
