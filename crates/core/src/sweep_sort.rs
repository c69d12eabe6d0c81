//! SLAM_SORT — the sorting-based sweep line algorithm (paper Section 3.4,
//! Algorithm 1).
//!
//! Per pixel row: sort the lower-bound values and the upper-bound values of
//! the envelope intervals, then move a sweep line left-to-right across the
//! (already sorted) pixel x-coordinates. Two merge pointers play the role of
//! the sorted list `𝓛`: before evaluating pixel `q_i`, every interval with
//! `LB ≤ q_i.x` has been inserted into the `L` accumulator and every
//! interval with `UB < q_i.x` into the `U` accumulator, so the aggregates of
//! `R(q_i) = L \ U` are available in O(1) (Lemma 3).
//!
//! Row cost: `O(|E(k)| log |E(k)| + X)`; whole raster `O(Y(n log n + X))`
//! (Theorem 1).
//!
//! # The rolling sweep frame
//!
//! The aggregate decomposition (Table 4) cancels terms up to `‖p‖⁴`, so its
//! rounding error grows like `ε·(c/b)⁴` where `c` is the magnitude of the
//! stored coordinates. Global recentring (`SweepContext`) bounds `c` by the
//! region half-extent, which is not enough when the region is much wider
//! than the bandwidth (the recorded quartic regression in
//! `tests/sweep_properties.proptest-regressions`). The engines therefore
//! evaluate in a *row-local rolling frame* `(frame_x, k)`:
//!
//! * points enter the accumulators as `(p.x − frame_x, p.y − k)`;
//! * a pixel is evaluated at `q = (x − frame_x, 0)`;
//! * when the sweep runs ahead of the frame by more than `4b`, the
//!   accumulators are translated with [`SweepAccumulator::shift_x`] (exact
//!   in real arithmetic) and the frame snaps to the current pixel;
//! * when the active set empties, both accumulators are reset outright,
//!   which also discards any accumulated rounding residue.
//!
//! Combined with two exactness-preserving event rules — intervals that
//! contain no pixel centre are never inserted (they would enter `L` and `U`
//! at the same pixel and cancel), and deactivation happens at the *last*
//! pixel an interval contains rather than the first one past it — every
//! coordinate handed to an accumulator is within `b` of its event pixel and
//! hence within `5b` of the frame. The decomposition error becomes
//! `O(ε·|E(k)|)` with a constant of a few hundred, independent of where on
//! Earth the data sits and of the raster/bandwidth ratio.

use crate::aggregate::SweepAccumulator;
use crate::driver::{sweep_grid, KdvParams, RowEngine};
use crate::envelope::SweepInterval;
use crate::error::Result;
use crate::geom::Point;
use crate::grid::DensityGrid;
use crate::kernel::KernelType;

/// Reusable row engine implementing SLAM_SORT.
pub struct SortSweep {
    kernel: KernelType,
    bandwidth: f64,
    weight: f64,
    /// Intervals sorted by lower bound: `(LB_k(p), UB_k(p), p)`.
    lbs: Vec<(f64, f64, Point)>,
    /// Intervals sorted by upper bound: `(UB_k(p), LB_k(p), p)`.
    ubs: Vec<(f64, f64, Point)>,
}

impl SortSweep {
    /// Creates an engine for the given kernel/bandwidth/weight.
    pub fn new(kernel: KernelType, bandwidth: f64, weight: f64) -> Self {
        Self { kernel, bandwidth, weight, lbs: Vec::new(), ubs: Vec::new() }
    }

    /// Sweep pass over the sorted endpoint lists. As in `BucketSweep`,
    /// `QUARTIC` is `kernel.needs_quartic_terms()` as a compile-time
    /// constant and the `L`/`U` accumulators are locals of the call, so
    /// they can live in registers.
    fn sweep<const QUARTIC: bool>(&self, xs: &[f64], k: f64, out: &mut [f64]) {
        let (lbs, ubs) = (&self.lbs, &self.ubs);
        let mut l_acc = SweepAccumulator::<false>::new(QUARTIC);
        let mut u_acc = SweepAccumulator::<false>::new(QUARTIC);
        let (mut li, mut ui) = (0usize, 0usize);
        // Rolling frame: see the module docs. `4b` keeps shifts rare (at
        // most every ~4 bandwidths of sweep progress) while bounding every
        // accumulator coordinate by `5b`.
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
            // Case 1: sweep passes lower bounds with LB ≤ x. Intervals that
            // contain no pixel centre (UB < x already) would cancel against
            // an immediate deactivation, so they are skipped on both sides.
            while li < lbs.len() && lbs[li].0 <= x {
                let (_, ub, p) = lbs[li];
                if ub >= x {
                    l_acc.insert(&Point::new(p.x - frame_x, p.y - k), 1.0);
                }
                li += 1;
            }
            // Case 3: evaluate the pixel from L − U aggregates (Lemma 3).
            let (n, agg) = l_acc.diff(&u_acc);
            let q = Point::new(x - frame_x, 0.0);
            out[i] = self.kernel.density_from_moments(&q, n, &agg, self.bandwidth, self.weight);
            // Case 2: deactivate intervals ending before the next pixel
            // (UB < xs[i+1]; strict, so a pixel exactly on an interval's
            // right endpoint still counts, keeping R(q) = {dist ≤ b}
            // inclusive). Doing this at the last pixel the interval
            // contains — instead of the first pixel past it — keeps the
            // deactivated coordinates within `b` of the current pixel.
            if i + 1 < xs.len() {
                let x_next = xs[i + 1];
                while ui < ubs.len() && ubs[ui].0 < x_next {
                    let (ub, lb, p) = ubs[ui];
                    // Mirror of the insertion skip: only intervals that
                    // contained the current pixel were ever inserted.
                    if lb <= x && ub >= x {
                        u_acc.insert(&Point::new(p.x - frame_x, p.y - k), 1.0);
                    }
                    ui += 1;
                }
            }
        }
    }
}

impl RowEngine for SortSweep {
    fn process_row(&mut self, xs: &[f64], k: f64, intervals: &[SweepInterval], out: &mut [f64]) {
        // Build and sort the two endpoint lists — the row's bottleneck
        // (O(|E(k)| log |E(k)|), line 3 of Algorithm 1).
        {
            let _s = kdv_obs::span1("interval.sort", "intervals", intervals.len() as u64);
            self.lbs.clear();
            self.ubs.clear();
            self.lbs.extend(intervals.iter().map(|iv| (iv.lb, iv.ub, iv.point)));
            self.ubs.extend(intervals.iter().map(|iv| (iv.ub, iv.lb, iv.point)));
            self.lbs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            self.ubs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
        if self.kernel.needs_quartic_terms() {
            self.sweep::<true>(xs, k, out);
        } else {
            self.sweep::<false>(xs, k, out);
        }
    }

    fn space_bytes(&self) -> usize {
        (self.lbs.capacity() + self.ubs.capacity()) * std::mem::size_of::<(f64, f64, Point)>()
    }
}

/// Computes the full KDV raster with SLAM_SORT
/// (`O(Y(n log n + X))`, Theorem 1) on the calling thread.
pub fn compute(params: &KdvParams, points: &[Point]) -> Result<DensityGrid> {
    sweep_grid(params, points, 1, || SortSweep::new(params.kernel, params.bandwidth, params.weight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::grid::GridSpec;

    /// Brute-force reference (SCAN) for comparison.
    fn scan(params: &KdvParams, points: &[Point]) -> DensityGrid {
        let g = &params.grid;
        let mut out = DensityGrid::zeroed(g.res_x, g.res_y);
        for j in 0..g.res_y {
            for i in 0..g.res_x {
                let q = g.pixel_center(i, j);
                out.set(
                    i,
                    j,
                    params.kernel.density_scan(&q, points, params.bandwidth, params.weight),
                );
            }
        }
        out
    }

    fn params(kernel: KernelType) -> KdvParams {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 50.0), 32, 16).unwrap();
        KdvParams::new(grid, kernel, 12.0).with_weight(0.125)
    }

    fn cluster_points() -> Vec<Point> {
        // deterministic pseudo-random cloud with clumps
        let mut pts = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..400 {
            pts.push(Point::new(next() * 100.0, next() * 50.0));
        }
        for _ in 0..100 {
            pts.push(Point::new(20.0 + next() * 5.0, 30.0 + next() * 5.0));
        }
        pts
    }

    #[test]
    fn matches_scan_for_all_kernels() {
        let pts = cluster_points();
        for kernel in KernelType::ALL {
            let p = params(kernel);
            let fast = compute(&p, &pts).unwrap();
            let slow = scan(&p, &pts);
            let err = crate::stats::max_rel_error(fast.values(), slow.values());
            assert!(err < 1e-9, "{kernel}: max rel err {err}");
        }
    }

    #[test]
    fn empty_dataset_gives_zero_grid() {
        let p = params(KernelType::Epanechnikov);
        let grid = compute(&p, &[]).unwrap();
        assert_eq!(grid.max_value(), 0.0);
    }

    #[test]
    fn single_point_peak_at_nearest_pixel() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 11, 11).unwrap();
        // 11 columns over width 10 → centres at ~0.45, 1.36, ...; put the
        // point exactly on the centre pixel (i=5 → x = 5.0)
        let p = KdvParams::new(grid, KernelType::Epanechnikov, 3.0);
        let pts = [Point::new(grid.pixel_x(5), grid.pixel_y(5))];
        let d = compute(&p, &pts).unwrap();
        assert!((d.get(5, 5) - 1.0).abs() < 1e-12);
        let mut max = 0.0;
        for j in 0..11 {
            for i in 0..11 {
                max = f64::max(max, d.get(i, j));
            }
        }
        assert_eq!(max, d.get(5, 5));
    }

    #[test]
    fn points_outside_region_still_contribute_within_bandwidth() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10).unwrap();
        let p = KdvParams::new(grid, KernelType::Epanechnikov, 5.0);
        // point left of the region but within b of the first column
        let pts = [Point::new(-2.0, 5.0)];
        let d = compute(&p, &pts).unwrap();
        assert!(d.get(0, 4) > 0.0, "out-of-region point must contribute");
        assert_eq!(d.get(9, 4), 0.0);
    }
}
