//! SLAM_BUCKET — the bucket-based sweep line algorithm (paper Section 3.5,
//! Algorithm 2).
//!
//! The sorting step of SLAM_SORT is replaced by pixel-gap bucketing: because
//! the pixel x-coordinates are evenly spaced, the pixel index at which an
//! interval endpoint takes effect can be computed in O(1) (Eqs. 19–20). Each
//! envelope point is dropped into one lower-bound bucket and one upper-bound
//! bucket; the sweep then visits pixels left to right, folding each pixel's
//! buckets into the `L`/`U` accumulators before evaluating (Lemma 5).
//!
//! Buckets are materialised as intrusive singly linked lists over the
//! interval array (`head[bucket] → next[point] → …`), so a row needs exactly
//! two `O(X)` head resets and two `O(|E(k)|)` scatter passes — no nested
//! allocations. Row cost `O(X + |E(k)|)`; whole raster `O(Y(X + n))`
//! (Theorem 2).
//!
//! At Scott's-rule bandwidths a row holds a few thousand intervals but only
//! ~1,000 pixels, so the row cost is the `|E(k)|` term: per interval one
//! bucket computation at scatter time and one accumulator insert per side.
//! Both are kept cheap without changing a bit of the float program:
//! bucket indices start from a truncating guess, with no libm
//! `ceil`/`floor` call, and are then corrected exactly (see
//! `lower_bucket_index`); the accumulators are row-local values whose
//! quartic terms are a compile-time choice (see `BucketSweep::sweep`), so
//! an insert is a few register adds rather than loads and stores of the
//! whole accumulator.
//!
//! The same row loop sweeps weighted KDV (`F(q) = w·Σ wᵢ·K(q, pᵢ)`): every
//! Table 4 aggregate is a sum over points, so the weighted sweep is this
//! one with each insert scaled by its point's weight and `n = Σ wᵢ`
//! (`SweepAccumulator<true>`). Whether a row is weighted is a compile-time
//! parameter of the loop, chosen once per row.
//!
//! Accumulation uses the same rolling recentred frame as SLAM_SORT (see the
//! `sweep_sort` module docs): intervals containing no pixel centre are
//! dropped at scatter time (`bl == bu` — they would activate and deactivate
//! at the same pixel), deactivation is processed at the last pixel an
//! interval contains, and the accumulators are periodically translated so
//! every stored coordinate stays within `5b` of the frame origin.

use std::ops::Range;

use crate::aggregate::SweepAccumulator;
use crate::driver::{sweep_grid, KdvParams, RowEngine, RowSpan};
use crate::envelope::SweepInterval;
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::kernel::KernelType;

/// End-of-list marker of the bucket lists.
const NIL: u32 = u32::MAX;

/// The row's buckets for the swept pixels `s..e`: intrusive singly
/// linked lists over the interval array, one lower-bound list per pixel
/// and one upper-bound list per pixel boundary.
#[derive(Debug, Default)]
struct Buckets {
    /// `head_l[i − s]` — first interval whose lower bound activates at
    /// pixel `i`.
    head_l: Vec<u32>,
    /// `head_u[i − s]` — first interval whose upper bound deactivates
    /// after pixel `i` (its upper bucket is `i + 1`).
    head_u: Vec<u32>,
    next_l: Vec<u32>,
    next_u: Vec<u32>,
}

impl Buckets {
    /// Scatter pass (lines 6–9 of Algorithm 2): drops every interval into
    /// its lower-bound and upper-bound bucket, O(1) per interval.
    /// `bl == bu` means the interval contains no pixel centre: it would
    /// activate and deactivate at the same pixel, contributing nothing, so
    /// it is dropped here (saving work *and* rounding noise).
    ///
    /// Buckets are computed against the whole row `xs`, whatever the
    /// swept pixels `cols`, so an interval's buckets never depend on where
    /// a sweep stops; only the events inside the sweep are linked: lower
    /// buckets in `s..e`, upper buckets in `s + 1..=e`. Each list keeps
    /// the interval order it has in a whole-row scatter.
    fn scatter(&mut self, xs: &[f64], cols: Range<usize>, intervals: &[SweepInterval]) {
        let (s, n) = (cols.start, cols.len());
        self.head_l.clear();
        self.head_l.resize(n, NIL);
        self.head_u.clear();
        self.head_u.resize(n, NIL);
        self.next_l.clear();
        self.next_l.resize(intervals.len(), NIL);
        self.next_u.clear();
        self.next_u.resize(intervals.len(), NIL);

        let index = BucketIndex::new(xs);
        for (idx, iv) in intervals.iter().enumerate() {
            let (bl, bu) = index.of(iv);
            if bl == bu {
                continue;
            }
            // `wrapping_sub` folds both range checks into one compare.
            let l = bl.wrapping_sub(s);
            if l < n {
                self.next_l[idx] = self.head_l[l];
                self.head_l[l] = idx as u32;
            }
            let u = bu.wrapping_sub(s + 1);
            if u < n {
                self.next_u[idx] = self.head_u[u];
                self.head_u[u] = idx as u32;
            }
        }
    }

    /// Heap bytes held by the lists.
    fn space_bytes(&self) -> usize {
        (self.head_l.capacity()
            + self.head_u.capacity()
            + self.next_l.capacity()
            + self.next_u.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Bucket computation against a whole row of pixel centres `xs`.
struct BucketIndex<'a> {
    xs: &'a [f64],
    x0: f64,
    inv_gap: f64,
    hi: f64,
}

impl<'a> BucketIndex<'a> {
    fn new(xs: &'a [f64]) -> Self {
        let x_count = xs.len();
        let x0 = xs[0];
        let inv_gap = if x_count > 1 { (x_count - 1) as f64 / (xs[x_count - 1] - x0) } else { 0.0 };
        Self { xs, x0, inv_gap, hi: x_count.min(i32::MAX as usize) as f64 }
    }

    /// The interval's lower and upper buckets `(bl, bu)`: it contains the
    /// pixel centres `bl..bu`.
    #[inline(always)]
    fn of(&self, iv: &SweepInterval) -> (usize, usize) {
        let Self { xs, x0, inv_gap, hi } = *self;
        let bl = lower_bucket_index(xs, iv.lb, bucket_guess(iv.lb, x0, inv_gap, hi));
        let bu = upper_bucket_index(xs, iv.ub, bucket_guess(iv.ub, x0, inv_gap, hi));
        (bl, bu)
    }
}

/// The last pixel at or left of `s` where the whole-row sweep of
/// `intervals` over `xs` restarts clean: no interval is active there, so
/// [`BucketSweep`] resets its state to a fresh one, whatever came before.
/// A sweep started fresh at that pixel therefore runs the whole-row
/// sweep's float program from it on.
///
/// An interval covering pixels `bl..bu` is active at the top of pixel
/// `p` iff `bl < p < bu`. The pixels where some interval is active form
/// runs of the merged ranges `bl + 1..bu`; the answer is `s` outside them
/// and the pixel before the run holding `s` inside one. Pixel 0 is in no
/// run.
pub(crate) fn clean_start(xs: &[f64], intervals: &[SweepInterval], s: usize) -> usize {
    if s == 0 {
        return 0;
    }
    let index = BucketIndex::new(xs);
    // only ranges starting at or left of `s` can hold it
    let mut active: Vec<(usize, usize)> = intervals
        .iter()
        .filter_map(|iv| {
            let (bl, bu) = index.of(iv);
            (bl < s && bl + 1 < bu).then_some((bl + 1, bu))
        })
        .collect();
    active.sort_unstable();
    // every range starts at or left of `s`, so only the last run can hold it
    let mut run = 0..0;
    for (start, end) in active {
        if start > run.end {
            run = start..end;
        } else {
            run.end = run.end.max(end);
        }
    }
    if run.contains(&s) {
        run.start - 1
    } else {
        s
    }
}

/// Starting guess for both bucket helpers (Eqs. 19–20 rewritten 0-based):
/// `⌊(x − x0)·inv_gap⌋ + 1` by truncation, clamped to `[0, hi]`, and 0 for
/// NaN. For a lower bound this is Eq. 19's `⌈·⌉` except on exact pixel
/// centres; for an upper bound it is Eq. 20's `⌊·⌋ + 1`. Either way it is
/// only a guess: the helpers correct it exactly from any start, so neither
/// rounding here nor in `inv_gap` can change a bucket. Truncation is one
/// conversion instruction, whereas baseline x86-64 has no rounding
/// instruction, so `ceil`/`floor` would be two out-of-line libm calls per
/// interval.
#[inline(always)]
fn bucket_guess(x: f64, x0: f64, inv_gap: f64, hi: f64) -> usize {
    // `max` maps NaN to 0; after the clamp the cast cannot saturate.
    ((x - x0) * inv_gap + 1.0).max(0.0).min(hi) as i32 as usize
}

/// First pixel index `i` with `xs[i] ≥ lb`, clamped to `[0, X]` — i.e.
/// `xs.partition_point(|&x| x < lb)` for the ascending pixel centres — found
/// by walking from `guess` (any value; past `X` counts as `X`). With the
/// O(1) [`bucket_guess`] the walk is at most a couple of comparisons,
/// keeping the bucket invariant *exact* rather than approximately right.
/// A NaN bound compares false everywhere and stays at the guess.
#[inline(always)]
pub(crate) fn lower_bucket_index(xs: &[f64], lb: f64, guess: usize) -> usize {
    let mut i = guess.min(xs.len());
    while i > 0 && xs[i - 1] >= lb {
        i -= 1;
    }
    while i < xs.len() && xs[i] < lb {
        i += 1;
    }
    i
}

/// First pixel index `i` with `xs[i] > ub` *strictly*, clamped to `[0, X]`
/// — `xs.partition_point(|&x| x <= ub)` — walking from `guess` (Eq. 20,
/// with the closed-boundary convention: a pixel lying exactly on `UB` still
/// counts the point).
#[inline(always)]
pub(crate) fn upper_bucket_index(xs: &[f64], ub: f64, guess: usize) -> usize {
    let mut i = guess.min(xs.len());
    while i > 0 && xs[i - 1] > ub {
        i -= 1;
    }
    while i < xs.len() && xs[i] <= ub {
        i += 1;
    }
    i
}

/// Reusable row engine implementing SLAM_BUCKET.
pub struct BucketSweep {
    kernel: KernelType,
    bandwidth: f64,
    weight: f64,
    buckets: Buckets,
    /// Densities of a sweep that starts clean left of its first output
    /// pixel (see [`clean_start`]), lead-in pixels included.
    spill: Vec<f64>,
}

impl BucketSweep {
    /// Creates an engine for the given kernel/bandwidth/weight.
    pub fn new(kernel: KernelType, bandwidth: f64, weight: f64) -> Self {
        Self { kernel, bandwidth, weight, buckets: Buckets::default(), spill: Vec::new() }
    }

    /// Scatters the row's intervals, then runs the sweep pass with the
    /// kernel's quartic choice; arguments as in [`RowEngine::sweep_span`].
    /// A sweep with no `resume` starts fresh at the row's [`clean_start`]
    /// of `row.cols.start`, sweeping the pixels between the two into
    /// `spill`.
    fn run<const WEIGHTED: bool>(
        &mut self,
        row: &RowSpan<'_>,
        resume: Option<&[u64]>,
        marks: &[usize],
        captured: &mut [u64],
        out: &mut [f64],
    ) {
        assert!(
            row.cols.start < row.cols.end && row.cols.end <= row.xs.len(),
            "swept pixels must be a non-empty range of the row"
        );
        assert_eq!(out.len(), row.cols.len(), "output/swept-pixel mismatch");
        let start = match resume {
            Some(_) => row.cols.start,
            None => clean_start(row.xs, row.intervals, row.cols.start),
        };
        let row = &RowSpan { cols: start..row.cols.end, ..row.clone() };
        let lead_in = row.cols.len() - out.len();
        let mut spill = std::mem::take(&mut self.spill);
        let dest = if lead_in == 0 {
            &mut *out
        } else {
            spill.resize(row.cols.len(), 0.0);
            &mut spill[..]
        };
        {
            let _s = kdv_obs::span1("bucket.scatter", "intervals", row.intervals.len() as u64);
            self.buckets.scatter(row.xs, row.cols.clone(), row.intervals);
        }
        let weights = row.weights.unwrap_or(&[]);
        if self.kernel.needs_quartic_terms() {
            self.sweep::<true, WEIGHTED>(row, weights, resume, marks, captured, dest);
        } else {
            self.sweep::<false, WEIGHTED>(row, weights, resume, marks, captured, dest);
        }
        if lead_in > 0 {
            out.copy_from_slice(&spill[lead_in..]);
        }
        self.spill = spill;
    }

    /// Sweep pass (lines 13–20 of Algorithm 2) over the scattered buckets
    /// of pixels `row.cols`.
    ///
    /// `QUARTIC` is `kernel.needs_quartic_terms()` as a compile-time
    /// constant, and the `L`/`U` accumulators are locals of this call.
    /// Together with the accumulator methods being inlined, that lets the
    /// compiler drop the six quartic sums from Epanechnikov/uniform rows
    /// and keep the live sums in registers across the bucket drains.
    /// `WEIGHTED` is the accumulators' weight source: `weights[i]` is the
    /// weight of `row.intervals[i]` when it is set, and `weights` is not
    /// read otherwise.
    ///
    /// The sweep's whole state between two pixels is `(L, U, frame_x)`
    /// (Lemma 5): a pixel's density depends on the events at or left of
    /// it only through that state. So a sweep resumed from the state a
    /// whole-row sweep had at pixel `s` runs the same float program over
    /// `s..e` as the whole-row sweep does, provided it sees the same
    /// events there, which the whole-row buckets of [`Buckets::scatter`]
    /// guarantee. A sweep with no `resume` starts from fresh accumulators
    /// at `s`, which [`BucketSweep::run`] picks where the whole-row sweep
    /// resets to that same fresh state ([`clean_start`]). The state is
    /// captured at each of `marks` by an out-of-loop save, so a sweep with
    /// no marks runs the plain pixel loop.
    fn sweep<const QUARTIC: bool, const WEIGHTED: bool>(
        &self,
        row: &RowSpan<'_>,
        weights: &[f64],
        resume: Option<&[u64]>,
        marks: &[usize],
        captured: &mut [u64],
        out: &mut [f64],
    ) {
        let RowSpan { xs, k, intervals, .. } = *row;
        let s = row.cols.start;
        debug_assert!(!WEIGHTED || weights.len() == intervals.len());
        // Each interval is visited at most once per side across the whole
        // row, so O(X + |E(k)|) total. Accumulation runs in the rolling
        // frame `(frame_x, k)` — see the module docs of `sweep_sort` for the
        // conditioning argument.
        let Buckets { head_l, head_u, next_l, next_u } = &self.buckets;
        let side = SweepAccumulator::<WEIGHTED>::state_words(QUARTIC);
        let (mut l_acc, mut u_acc, mut frame_x) = match resume {
            Some(state) => (
                SweepAccumulator::<WEIGHTED>::restore(&state[1..], QUARTIC),
                SweepAccumulator::<WEIGHTED>::restore(&state[1 + side..], QUARTIC),
                f64::from_bits(state[0]),
            ),
            None => (
                SweepAccumulator::<WEIGHTED>::new(QUARTIC),
                SweepAccumulator::<WEIGHTED>::new(QUARTIC),
                xs[s],
            ),
        };
        let weight = |idx: usize| if WEIGHTED { weights[idx] } else { 1.0 };
        let shift_limit = 4.0 * self.bandwidth;
        let _span = kdv_obs::span("row.emit");
        let mut i = s;
        let mut saved = captured.chunks_exact_mut(1 + 2 * side);
        for stop in marks.iter().copied().chain(std::iter::once(row.cols.end)) {
            debug_assert!(i <= stop && stop <= row.cols.end, "marks must ascend inside the sweep");
            let local = i - s..stop - s;
            let pixels = xs[i..stop]
                .iter()
                .zip(&mut out[local.clone()])
                .zip(&head_l[local.clone()])
                .zip(&head_u[local]);
            for (((&x, out), &first_l), &first_u) in pixels {
                if l_acc.count() == u_acc.count() {
                    // Active set is empty: restart clean at the pixel.
                    l_acc.reset();
                    u_acc.reset();
                    frame_x = x;
                } else if x - frame_x > shift_limit {
                    let delta = x - frame_x;
                    l_acc.shift_x(delta);
                    u_acc.shift_x(delta);
                    frame_x = x;
                }
                let mut cur = first_l;
                while cur != NIL {
                    let idx = cur as usize;
                    let p = &intervals[idx].point;
                    l_acc.insert(&Point::new(p.x - frame_x, p.y - k), weight(idx));
                    cur = next_l[idx];
                }
                let (n, agg) = l_acc.diff(&u_acc);
                let q = Point::new(x - frame_x, 0.0);
                *out = self.kernel.density_from_moments(&q, n, &agg, self.bandwidth, self.weight);
                // Deactivate intervals whose bucket is the next pixel — i.e.
                // whose last contained pixel is the current one — while their
                // coordinates are still within `b` of the sweep position.
                let mut cur = first_u;
                while cur != NIL {
                    let idx = cur as usize;
                    let p = &intervals[idx].point;
                    u_acc.insert(&Point::new(p.x - frame_x, p.y - k), weight(idx));
                    cur = next_u[idx];
                }
            }
            i = stop;
            // The trailing stop is the sweep's end, not a mark.
            if let Some(state) = saved.next() {
                state[0] = frame_x.to_bits();
                l_acc.save(&mut state[1..]);
                u_acc.save(&mut state[1 + side..]);
            }
        }
    }
}

impl RowEngine for BucketSweep {
    fn process_row(&mut self, xs: &[f64], k: f64, intervals: &[SweepInterval], out: &mut [f64]) {
        let row = RowSpan { xs, cols: 0..xs.len(), k, intervals, weights: None };
        self.run::<false>(&row, None, &[], &mut [], out);
    }

    fn process_weighted_row(
        &mut self,
        xs: &[f64],
        k: f64,
        intervals: &[SweepInterval],
        weights: &[f64],
        out: &mut [f64],
    ) {
        let row = RowSpan { xs, cols: 0..xs.len(), k, intervals, weights: Some(weights) };
        self.run::<true>(&row, None, &[], &mut [], out);
    }

    fn sweep_span(
        &mut self,
        row: &RowSpan<'_>,
        resume: Option<&[u64]>,
        marks: &[usize],
        captured: &mut [u64],
        out: &mut [f64],
    ) {
        assert!(
            captured.len() == marks.len() * self.state_words(row.weights.is_some()),
            "captured states/marks mismatch"
        );
        match row.weights {
            Some(_) => self.run::<true>(row, resume, marks, captured, out),
            None => self.run::<false>(row, resume, marks, captured, out),
        }
    }

    /// `frame_x` plus both accumulators' maintained sums: 11 words (88 B)
    /// for a unit Epanechnikov or uniform row, 15 weighted; 39 and 43 for
    /// quartic, which also keeps `Σy` and the quartic terms.
    fn state_words(&self, weighted: bool) -> usize {
        let quartic = self.kernel.needs_quartic_terms();
        let side = if weighted {
            SweepAccumulator::<true>::state_words(quartic)
        } else {
            SweepAccumulator::<false>::state_words(quartic)
        };
        1 + 2 * side
    }

    fn space_bytes(&self) -> usize {
        self.buckets.space_bytes() + self.spill.capacity() * std::mem::size_of::<f64>()
    }
}

/// Computes the full KDV raster with SLAM_BUCKET
/// (`O(Y(X + n))`, Theorem 2) on the calling thread.
pub fn compute(params: &KdvParams, points: &[Point]) -> Result<DensityGrid> {
    sweep_grid(params, points, 1, || {
        BucketSweep::new(params.kernel, params.bandwidth, params.weight)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::grid::GridSpec;
    use crate::sweep_sort;

    fn params(kernel: KernelType, b: f64) -> KdvParams {
        let grid = GridSpec::new(Rect::new(-20.0, 0.0, 80.0, 50.0), 25, 19).unwrap();
        KdvParams::new(grid, kernel, b).with_weight(1.0 / 500.0)
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(-30.0 + next() * 120.0, -10.0 + next() * 70.0)).collect()
    }

    #[test]
    fn clean_start_is_the_last_pixel_with_no_active_interval() {
        // pixel centres 0, 1, …, 9; an interval `lb..ub` covers the
        // centres inside it and is active strictly inside those
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let iv = |lb: f64, ub: f64| SweepInterval { point: Point::new(0.0, 0.0), lb, ub };
        let intervals = [
            iv(-0.5, 1.5), // covers 0..2: active at 1
            iv(1.5, 4.5),  // covers 2..5: active at 3, 4
            iv(3.5, 7.5),  // covers 4..8: active at 5, 6, 7 (a run 3..8 with the above)
            iv(8.5, 8.7),  // covers no centre
            iv(8.7, 9.5),  // covers 9 alone: active nowhere
        ];
        let starts: Vec<usize> = (0..10).map(|s| clean_start(&xs, &intervals, s)).collect();
        assert_eq!(starts, [0, 0, 2, 2, 2, 2, 2, 2, 8, 9]);
        assert_eq!(clean_start(&xs, &[], 6), 6, "no interval, nothing active");
    }

    #[test]
    fn state_words_per_row_are_pinned() {
        for (kernel, unit, weighted) in [
            (KernelType::Uniform, 11, 15),
            (KernelType::Epanechnikov, 11, 15),
            (KernelType::Quartic, 39, 43),
        ] {
            let engine = BucketSweep::new(kernel, 2.0, 1.0);
            assert_eq!((engine.state_words(false), engine.state_words(true)), (unit, weighted));
        }
    }

    #[test]
    fn bucket_matches_sort_exactly_for_all_kernels() {
        let pts = pseudo_random_points(600, 42);
        for kernel in KernelType::ALL {
            for &b in &[1.0, 7.3, 40.0, 200.0] {
                let p = params(kernel, b);
                let bucket = compute(&p, &pts).unwrap();
                let sort = sweep_sort::compute(&p, &pts).unwrap();
                let err = crate::stats::max_rel_error(bucket.values(), sort.values());
                assert!(err < 1e-12, "{kernel} b={b}: max rel err {err}");
            }
        }
    }

    /// Both bucket helpers as the scatter pass runs them: the truncating
    /// guess, then the exact correction.
    fn bucket_pair(xs: &[f64], lb: f64, ub: f64) -> (usize, usize) {
        let x_count = xs.len();
        let x0 = xs[0];
        let inv_gap = if x_count > 1 { (x_count - 1) as f64 / (xs[x_count - 1] - x0) } else { 0.0 };
        let hi = x_count as f64;
        (
            lower_bucket_index(xs, lb, bucket_guess(lb, x0, inv_gap, hi)),
            upper_bucket_index(xs, ub, bucket_guess(ub, x0, inv_gap, hi)),
        )
    }

    /// Checks both helpers against their specs, from the scatter pass's
    /// guess and from starting guesses below, at, above and far from the
    /// answer (including past the end of the row).
    fn assert_buckets_match_spec(xs: &[f64], bound: f64) {
        let want_l = xs.partition_point(|&x| x < bound);
        let want_u = xs.partition_point(|&x| x <= bound);
        assert_eq!(bucket_pair(xs, bound, bound), (want_l, want_u), "bound {bound:e} on {xs:?}");
        let n = xs.len();
        let mut guesses = vec![0, 1, n / 2, n, n + 1, usize::MAX];
        for want in [want_l, want_u] {
            guesses.extend([
                want.saturating_sub(2),
                want.saturating_sub(1),
                want,
                want + 1,
                want + 2,
            ]);
        }
        for guess in guesses {
            assert_eq!(lower_bucket_index(xs, bound, guess), want_l, "lb {bound:e} from {guess}");
            assert_eq!(upper_bucket_index(xs, bound, guess), want_u, "ub {bound:e} from {guess}");
        }
    }

    /// Recentred pixel centres of an `x_count`-pixel row, as `SweepContext`
    /// builds them.
    fn row_xs(min_x: f64, max_x: f64, x_count: usize) -> Vec<f64> {
        let grid = GridSpec::new(Rect::new(min_x, 0.0, max_x, 1.0), x_count, 1).unwrap();
        let center = 0.5 * (min_x + max_x);
        (0..x_count).map(|i| grid.pixel_x(i) - center).collect()
    }

    #[test]
    fn bucket_index_helpers_honor_invariants() {
        // Centres 1, 3, .., 19. Lower: first xs[i] >= lb; upper: first
        // xs[i] > ub strictly.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 2.0 + 1.0).collect();
        assert_eq!(bucket_pair(&xs, -5.0, 0.0), (0, 0));
        assert_eq!(bucket_pair(&xs, 1.0, 1.0), (0, 1)); // xs[0] == lb; pixel 0 keeps ub
        assert_eq!(bucket_pair(&xs, 1.0001, 18.99), (1, 9));
        assert_eq!(bucket_pair(&xs, 19.0, 19.0), (9, 10));
        assert_eq!(bucket_pair(&xs, 19.1, 25.0), (10, 10)); // never
    }

    #[test]
    fn bucket_index_helpers_equal_partition_point_specs() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = vec![
            row_xs(-20.0, 80.0, 25),
            row_xs(0.0, 2.0, 1),
            row_xs(-1.0, 1.0, 2),
            row_xs(-1e7, 3e7, 2),
            row_xs(0.0, 1.0, 1280),
            row_xs(-3.7e5, 1.2e5, 1280),
            // Integer-spaced centres, where bounds on a centre make the
            // guess's product land exactly on an integer.
            (0..10).map(|i| i as f64 * 2.0 + 1.0).collect(),
        ];
        for _ in 0..40 {
            let x_count = 1 + (next() * 300.0) as usize;
            let min_x = (next() - 0.5) * 1e6;
            let width = 1e-3 + next() * 1e5;
            rows.push(row_xs(min_x, min_x + width, x_count));
        }
        for xs in &rows {
            let (first, last) = (xs[0], xs[xs.len() - 1]);
            let span = (last - first).max(1.0);
            let mut bounds = vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                first - 1e3 * span,
                last + 1e3 * span,
                first - 1e30,
                last + 1e30,
            ];
            // Exactly on every pixel centre and one ulp either side.
            for &x in xs {
                bounds.push(x);
                if x == 0.0 {
                    bounds.extend([f64::from_bits(1), -f64::from_bits(1)]);
                } else {
                    bounds
                        .extend([f64::from_bits(x.to_bits() + 1), f64::from_bits(x.to_bits() - 1)]);
                }
            }
            for _ in 0..200 {
                bounds.push(first + (next() * 1.4 - 0.2) * span);
            }
            for &bound in &bounds {
                assert_buckets_match_spec(xs, bound);
            }
            // A NaN bound compares false everywhere, so it stays at its
            // guess, 0 (where the `ceil`/`floor` guess put it too).
            assert_eq!(bucket_pair(xs, f64::NAN, f64::NAN), (0, 0));
        }
    }

    #[test]
    fn single_pixel_row_degenerate_grid() {
        // X = 1 exercises the inv_gap = 0 path.
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 2.0, 2.0), 1, 1).unwrap();
        let p = KdvParams::new(grid, KernelType::Epanechnikov, 5.0);
        let pts = [Point::new(1.0, 1.0), Point::new(0.0, 0.0)];
        let d = compute(&p, &pts).unwrap();
        let q = grid.pixel_center(0, 0);
        let expect = KernelType::Epanechnikov.density_scan(&q, &pts, 5.0, 1.0);
        assert!((d.get(0, 0) - expect).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_accumulate() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 5, 5).unwrap();
        let p = KdvParams::new(grid, KernelType::Uniform, 4.0);
        let pt = Point::new(5.0, 5.0);
        let one = compute(&p, &[pt]).unwrap();
        let three = compute(&p, &[pt, pt, pt]).unwrap();
        for j in 0..5 {
            for i in 0..5 {
                assert!((three.get(i, j) - 3.0 * one.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_points_far_right_of_region() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 8, 8).unwrap();
        let p = KdvParams::new(grid, KernelType::Quartic, 1.0);
        let pts = [Point::new(100.0, 5.0), Point::new(200.0, 5.0)];
        let d = compute(&p, &pts).unwrap();
        assert_eq!(d.max_value(), 0.0);
    }
}
