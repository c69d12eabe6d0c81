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

use crate::aggregate::SweepAccumulator;
use crate::driver::{sweep_grid, KdvParams, RowEngine};
use crate::envelope::SweepInterval;
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::kernel::KernelType;

/// End-of-list marker of the bucket lists.
const NIL: u32 = u32::MAX;

/// The row's buckets: intrusive singly linked lists over the interval
/// array, one lower-bound and one upper-bound list per pixel.
///
#[derive(Debug, Default)]
struct Buckets {
    /// `head_l[i]` — first interval whose lower bound activates at pixel `i`
    /// (index `X` = activates past the last pixel, i.e. never).
    head_l: Vec<u32>,
    /// `head_u[i]` — first interval whose upper bound deactivates at pixel `i`.
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
    fn scatter(&mut self, xs: &[f64], intervals: &[SweepInterval]) {
        let x_count = xs.len();
        // Reset bucket heads: X+1 buckets, index X meaning "never".
        self.head_l.clear();
        self.head_l.resize(x_count + 1, NIL);
        self.head_u.clear();
        self.head_u.resize(x_count + 1, NIL);
        self.next_l.clear();
        self.next_l.resize(intervals.len(), NIL);
        self.next_u.clear();
        self.next_u.resize(intervals.len(), NIL);

        let x0 = xs[0];
        let inv_gap = if x_count > 1 { (x_count - 1) as f64 / (xs[x_count - 1] - x0) } else { 0.0 };
        let hi = x_count.min(i32::MAX as usize) as f64;
        for (idx, iv) in intervals.iter().enumerate() {
            let bl = lower_bucket_index(xs, iv.lb, bucket_guess(iv.lb, x0, inv_gap, hi));
            let bu = upper_bucket_index(xs, iv.ub, bucket_guess(iv.ub, x0, inv_gap, hi));
            if bl == bu {
                continue;
            }
            self.next_l[idx] = self.head_l[bl];
            self.head_l[bl] = idx as u32;
            self.next_u[idx] = self.head_u[bu];
            self.head_u[bu] = idx as u32;
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
}

impl BucketSweep {
    /// Creates an engine for the given kernel/bandwidth/weight.
    pub fn new(kernel: KernelType, bandwidth: f64, weight: f64) -> Self {
        Self { kernel, bandwidth, weight, buckets: Buckets::default() }
    }

    /// Scatters the row's intervals, then runs the sweep pass with the
    /// kernel's quartic choice; `weights` as in [`BucketSweep::sweep`].
    fn run<const WEIGHTED: bool>(
        &mut self,
        xs: &[f64],
        k: f64,
        intervals: &[SweepInterval],
        weights: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), xs.len());
        {
            let _s = kdv_obs::span1("bucket.scatter", "intervals", intervals.len() as u64);
            self.buckets.scatter(xs, intervals);
        }
        if self.kernel.needs_quartic_terms() {
            self.sweep::<true, WEIGHTED>(xs, k, intervals, weights, out);
        } else {
            self.sweep::<false, WEIGHTED>(xs, k, intervals, weights, out);
        }
    }

    /// Sweep pass (lines 13–20 of Algorithm 2) over the scattered buckets.
    ///
    /// `QUARTIC` is `kernel.needs_quartic_terms()` as a compile-time
    /// constant, and the `L`/`U` accumulators are locals of this call
    /// (they are reset at every row start anyway). Together with the
    /// accumulator methods being inlined, that lets the compiler drop the
    /// six quartic sums from Epanechnikov/uniform rows and keep the live
    /// sums in registers across the bucket drains. `WEIGHTED` is the
    /// accumulators' weight source: `weights[i]` is the weight of
    /// `intervals[i]` when it is set, and `weights` is not read otherwise.
    fn sweep<const QUARTIC: bool, const WEIGHTED: bool>(
        &self,
        xs: &[f64],
        k: f64,
        intervals: &[SweepInterval],
        weights: &[f64],
        out: &mut [f64],
    ) {
        debug_assert!(!WEIGHTED || weights.len() == intervals.len());
        // Each interval is visited at most once per side across the whole
        // row, so O(X + |E(k)|) total. Accumulation runs in the rolling
        // frame `(frame_x, k)` — see the module docs of `sweep_sort` for the
        // conditioning argument.
        let Buckets { head_l, head_u, next_l, next_u } = &self.buckets;
        let mut l_acc = SweepAccumulator::<WEIGHTED>::new(QUARTIC);
        let mut u_acc = SweepAccumulator::<WEIGHTED>::new(QUARTIC);
        let weight = |idx: usize| if WEIGHTED { weights[idx] } else { 1.0 };
        let shift_limit = 4.0 * self.bandwidth;
        let mut frame_x = xs[0];
        let _span = kdv_obs::span("row.emit");
        for (i, &x) in xs.iter().enumerate() {
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
            let mut cur = head_l[i];
            while cur != NIL {
                let idx = cur as usize;
                let p = &intervals[idx].point;
                l_acc.insert(&Point::new(p.x - frame_x, p.y - k), weight(idx));
                cur = next_l[idx];
            }
            let (n, agg) = l_acc.diff(&u_acc);
            let q = Point::new(x - frame_x, 0.0);
            out[i] = self.kernel.density_from_moments(&q, n, &agg, self.bandwidth, self.weight);
            // Deactivate intervals whose bucket is the next pixel — i.e.
            // whose last contained pixel is the current one — while their
            // coordinates are still within `b` of the sweep position.
            let mut cur = head_u[i + 1];
            while cur != NIL {
                let idx = cur as usize;
                let p = &intervals[idx].point;
                u_acc.insert(&Point::new(p.x - frame_x, p.y - k), weight(idx));
                cur = next_u[idx];
            }
        }
    }
}

impl RowEngine for BucketSweep {
    fn process_row(&mut self, xs: &[f64], k: f64, intervals: &[SweepInterval], out: &mut [f64]) {
        self.run::<false>(xs, k, intervals, &[], out);
    }

    fn process_weighted_row(
        &mut self,
        xs: &[f64],
        k: f64,
        intervals: &[SweepInterval],
        weights: &[f64],
        out: &mut [f64],
    ) {
        self.run::<true>(xs, k, intervals, weights, out);
    }

    fn space_bytes(&self) -> usize {
        self.buckets.space_bytes()
    }
}

/// Computes the full KDV raster with SLAM_BUCKET
/// (`O(Y(X + n))`, Theorem 2).
pub fn compute(params: &KdvParams, points: &[Point]) -> Result<DensityGrid> {
    let mut engine = BucketSweep::new(params.kernel, params.bandwidth, params.weight);
    sweep_grid(params, points, &mut engine)
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
