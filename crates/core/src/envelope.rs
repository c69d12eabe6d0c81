//! Envelope point sets and sweep intervals (paper Sections 3.2–3.3).
//!
//! For a pixel row at y-coordinate `k`, only points with `|k − p.y| ≤ b`
//! (Definition 1) can contribute to any pixel of the row. Each such point
//! induces an x-interval `[LB_k(p), UB_k(p)]` (Eqs. 8–9) outside of which it
//! contributes nothing; a pixel `q` on the row has `p ∈ R(q)` iff
//! `LB_k(p) ≤ q.x ≤ UB_k(p)` (Lemma 2).
//!
//! # Banded extraction
//!
//! The paper extracts `E(k)` with an O(n) scan per row, making envelope
//! extraction O(Yn) for the whole raster — the dominant cost at small
//! bandwidths where `|E(k)| ≪ n`. [`BandIndex`] removes it: the points are
//! sorted by y **once** per computation (O(n log n)), after which `E(k)` is
//! a *contiguous slice* of the sorted order, located by two binary searches
//! (O(log n)) and filled in O(|E(k)|). The index stores the coordinates as
//! structure-of-arrays (`xs`/`ys`) so the `lb/ub = x ∓ sqrt(b² − dy²)`
//! bound computation runs over dense `f64` slices and auto-vectorizes.
//! Lookups are random-access per row, so they compose with the
//! work-stealing scheduler's out-of-order row claims.
//!
//! The membership predicate is *bit-identical* to the full scan's
//! (`fl(b²) − fl(dy²) ≥ 0`): since `fl(dy²)` is monotone in `|dy|` (float
//! rounding preserves ≤), the in-band set really is one contiguous run of
//! the y-sorted order, including every boundary row with `|k − p.y| = b`.
//! [`EnvelopeBuffer::fill_band`] then performs exactly the same arithmetic
//! per point as [`EnvelopeBuffer::fill`], so banded extraction over the
//! sorted order returns bitwise-identical intervals to a full scan over the
//! same order.

use std::ops::Range;

use crate::geom::Point;

/// A data point restricted to one pixel row: the point itself plus its
/// lower/upper bound x-coordinates on that row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepInterval {
    /// The (recentred) data point, used to update the sweep aggregates.
    pub point: Point,
    /// `LB_k(p) = p.x − sqrt(b² − (k − p.y)²)`.
    pub lb: f64,
    /// `UB_k(p) = p.x + sqrt(b² − (k − p.y)²)`.
    pub ub: f64,
}

/// Y-sorted structure-of-arrays point index for banded envelope extraction.
///
/// Built once per computation (see `SweepContext`); per row it locates the
/// envelope band `{p : |k − p.y| ≤ b}` as a contiguous range of the sorted
/// order with two `partition_point` binary searches. See the module docs
/// for the exactness argument.
#[derive(Debug, Clone, Default)]
pub struct BandIndex {
    /// Point x-coordinates, in ascending-y order.
    xs: Vec<f64>,
    /// Point y-coordinates, ascending.
    ys: Vec<f64>,
    /// Sorted position → index of the point in the builder's input slice
    /// (aligns per-point payloads such as weights with the sorted order).
    perm: Vec<u32>,
}

impl BandIndex {
    /// Sorts `points` by y (stable, so duplicate-y points keep their input
    /// order and every run is deterministic) and stores the coordinates as
    /// structure-of-arrays. O(n log n) time, [`BandIndex::bytes_for`]`(n)`
    /// heap bytes.
    pub fn build(points: &[Point]) -> Self {
        assert!(points.len() <= u32::MAX as usize, "BandIndex holds at most 2^32 points");
        let mut perm: Vec<u32> = (0..points.len() as u32).collect();
        perm.sort_by(|&a, &b| points[a as usize].y.total_cmp(&points[b as usize].y));
        let xs = perm.iter().map(|&i| points[i as usize].x).collect();
        let ys = perm.iter().map(|&i| points[i as usize].y).collect();
        Self { xs, ys, perm }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The `i`-th point of the y-sorted order.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Index of the `i`-th sorted point in the original input slice.
    #[inline]
    pub fn original_index(&self, i: usize) -> usize {
        self.perm[i] as usize
    }

    /// The contiguous sorted-order range holding the envelope set `E(k)`
    /// for bandwidth `bandwidth`: O(log n).
    #[inline]
    pub fn band(&self, bandwidth: f64, k: f64) -> Range<usize> {
        let b2 = bandwidth * bandwidth;
        let ys = &self.ys;
        // Both predicates evaluate membership with exactly the full scan's
        // arithmetic (`b2 - dy*dy >= 0.0`) and are monotone over ascending
        // y: out-of-band-below → in-band → out-of-band-above.
        let lo = ys.partition_point(|&y| {
            let dy = k - y;
            y < k && b2 - dy * dy < 0.0
        });
        let hi = ys.partition_point(|&y| {
            let dy = k - y;
            y < k || b2 - dy * dy >= 0.0
        });
        lo..hi
    }

    /// Rebuilds `out` as the points of the sorted positions `range` whose
    /// x-coordinate `keep` accepts, in their sorted order, so the bands of
    /// `out` are subsequences of the bands of `self`. `out`'s
    /// [`BandIndex::original_index`] is a point's sorted position in
    /// `self`. Reuses `out`'s allocations.
    pub fn select_into(
        &self,
        range: Range<usize>,
        keep: impl Fn(f64) -> bool,
        out: &mut BandIndex,
    ) {
        out.xs.clear();
        out.ys.clear();
        out.perm.clear();
        for i in range {
            if keep(self.xs[i]) {
                out.xs.push(self.xs[i]);
                out.ys.push(self.ys[i]);
                out.perm.push(i as u32);
            }
        }
    }

    /// Heap bytes an index over `n` points occupies: two `f64` coordinate
    /// arrays plus the `u32` permutation.
    pub const fn bytes_for(n: usize) -> usize {
        n * (2 * std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
    }

    /// Heap bytes currently held (space-consumption accounting).
    pub fn space_bytes(&self) -> usize {
        (self.xs.capacity() + self.ys.capacity()) * std::mem::size_of::<f64>()
            + self.perm.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reusable buffer for envelope extraction; one allocation reused across
/// all `Y` rows (the paper's O(n) extra space).
///
/// It also holds a *window*: the points of a band of rows that can reach
/// a range of pixel columns, selected once per band by
/// [`EnvelopeBuffer::set_window`] and filled per row by
/// [`EnvelopeBuffer::fill_window`].
#[derive(Debug, Default)]
pub struct EnvelopeBuffer {
    intervals: Vec<SweepInterval>,
    window: BandIndex,
    window_weights: Vec<f64>,
}

impl EnvelopeBuffer {
    /// Upper bound on pre-allocated capacity (1 Mi intervals ≈ 32 MiB):
    /// beyond this, [`EnvelopeBuffer::for_points`] lets the buffer grow on
    /// demand instead of reserving the worst case up front.
    pub const MAX_PREALLOC: usize = 1 << 20;

    /// An empty buffer; capacity grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffer for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        Self { intervals: Vec::with_capacity(n), ..Self::default() }
    }

    /// The buffer every sweep driver should use for a dataset of `n`
    /// points: pre-sized for `n`, capped at [`EnvelopeBuffer::MAX_PREALLOC`]
    /// so huge datasets don't commit worst-case memory before the first row
    /// shows how large envelopes really get.
    pub fn for_points(n: usize) -> Self {
        Self::with_capacity(n.min(Self::MAX_PREALLOC))
    }

    /// Extracts the envelope point set `E(k)` for the row at y-coordinate
    /// `k` and fills the per-point sweep intervals; O(n) time (Lemma 1).
    ///
    /// Returns the freshly filled intervals, unsorted (SLAM_BUCKET consumes
    /// them directly; SLAM_SORT sorts endpoint arrays afterwards).
    pub fn fill(&mut self, points: &[Point], bandwidth: f64, k: f64) -> &[SweepInterval] {
        self.intervals.clear();
        let b2 = bandwidth * bandwidth;
        for p in points {
            let dy = k - p.y;
            let rem = b2 - dy * dy;
            if rem >= 0.0 {
                // |k − p.y| ≤ b  ⟹  p ∈ E(k)
                let half = rem.sqrt();
                self.intervals.push(SweepInterval { point: *p, lb: p.x - half, ub: p.x + half });
            }
        }
        &self.intervals
    }

    /// Banded counterpart of [`EnvelopeBuffer::fill`]: locates the row's
    /// band in `index` (O(log n)) and fills intervals from just that slice
    /// (O(|E(k)|)). The intervals are bitwise identical — same values, same
    /// order — to a full scan over the index's y-sorted point order.
    pub fn fill_banded(&mut self, index: &BandIndex, bandwidth: f64, k: f64) -> &[SweepInterval] {
        let band = index.band(bandwidth, k);
        self.fill_band(index, band, bandwidth, k)
    }

    /// Fills intervals for an already-located `band` (normally every point
    /// of the range satisfies `|k − p.y| ≤ b`, which [`BandIndex::band`]
    /// guarantees; a caller-built band may graze the support boundary, in
    /// which case the underflowed `b² − dy²` is clamped to `+0.0` before
    /// the square root).
    pub fn fill_band(
        &mut self,
        index: &BandIndex,
        band: Range<usize>,
        bandwidth: f64,
        k: f64,
    ) -> &[SweepInterval] {
        Self::fill_into(&mut self.intervals, index, band, bandwidth, k);
        &self.intervals
    }

    /// Selects the window of a band sweep over pixel columns
    /// `x_lo..=x_hi` (recentred pixel centres): the points of the sorted
    /// positions `range` of `index` that may have an interval endpoint
    /// event at one of those pixels, with their weights when `weights`
    /// (canonical order, like `index`) is given.
    ///
    /// A point is kept iff `x − r ≤ x_hi` and `x + r ≥ x_lo`, with
    /// `r = sqrt(b²)` evaluated like the fill's `sqrt(b² − dy²)` at
    /// `dy = 0`. Every interval's half-width `h` satisfies `h ≤ r`
    /// (rounding is monotone), so `fl(x − h) ≥ fl(x − r)`: a dropped point
    /// right of the window has `lb > x_hi` and activates right of it, and
    /// one left of the window has `ub < x_lo` and deactivates before it.
    /// Neither has an event inside the window, which is all a resumed or
    /// prefix sweep of it reads (see [`crate::driver::RowSpan`]).
    pub fn set_window(
        &mut self,
        index: &BandIndex,
        weights: Option<&[f64]>,
        range: Range<usize>,
        bandwidth: f64,
        x_lo: f64,
        x_hi: f64,
    ) {
        let r = (bandwidth * bandwidth).sqrt();
        index.select_into(range, |x| x - r <= x_hi && x + r >= x_lo, &mut self.window);
        self.window_weights.clear();
        if let Some(weights) = weights {
            let sorted = &self.window.perm;
            self.window_weights.extend(sorted.iter().map(|&i| weights[i as usize]));
        }
    }

    /// [`EnvelopeBuffer::fill_banded`] over the window of the last
    /// [`EnvelopeBuffer::set_window`]: the row's intervals whose points
    /// are in the window, in canonical order, with their weights (empty
    /// for a unit-weight window).
    pub fn fill_window(&mut self, bandwidth: f64, k: f64) -> (&[SweepInterval], &[f64]) {
        let band = self.window.band(bandwidth, k);
        Self::fill_into(&mut self.intervals, &self.window, band.clone(), bandwidth, k);
        let weights =
            if self.window_weights.is_empty() { &[][..] } else { &self.window_weights[band] };
        (&self.intervals, weights)
    }

    /// The fill shared by [`EnvelopeBuffer::fill_band`] and
    /// [`EnvelopeBuffer::fill_window`].
    fn fill_into(
        intervals: &mut Vec<SweepInterval>,
        index: &BandIndex,
        band: Range<usize>,
        bandwidth: f64,
        k: f64,
    ) {
        intervals.clear();
        let b2 = bandwidth * bandwidth;
        let xs = &index.xs[band.clone()];
        let ys = &index.ys[band];
        // A zip of two slices has an exact length, so `extend` reserves
        // once and writes without a per-push capacity check.
        intervals.extend(xs.iter().zip(ys).map(|(&x, &y)| {
            let dy = k - y;
            // Clamp with an explicit compare, never `f64::max`, whose `-0.0`
            // choice is representation-defined. For `BandIndex` bands the
            // membership predicate used the identical arithmetic, so
            // `rem ≥ +0.0` and the clamp is a bitwise no-op.
            let rem = b2 - dy * dy;
            let rem = if rem < 0.0 { 0.0 } else { rem };
            let half = rem.sqrt();
            SweepInterval { point: Point::new(x, y), lb: x - half, ub: x + half }
        }));
    }

    /// The intervals from the most recent [`EnvelopeBuffer::fill`].
    pub fn intervals(&self) -> &[SweepInterval] {
        &self.intervals
    }

    /// Number of points in the current envelope set `|E(k)|`.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the current envelope set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Heap bytes currently held (space-consumption accounting).
    pub fn space_bytes(&self) -> usize {
        self.intervals.capacity() * std::mem::size_of::<SweepInterval>()
            + self.window.space_bytes()
            + self.window_weights.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_filters_by_row_distance() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 5.0), // too far from row
            Point::new(3.0, -2.0),
        ];
        let mut buf = EnvelopeBuffer::new();
        let e = buf.fill(&pts, 2.0, 0.0);
        // rows at k=0 with b=2: |p.y| ≤ 2 keeps y∈{0,2,-2}
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].point, pts[0]);
        assert_eq!(e[1].point, pts[1]);
        assert_eq!(e[2].point, pts[3]);
    }

    #[test]
    fn interval_width_shrinks_with_row_distance() {
        let pts = vec![Point::new(10.0, 0.0)];
        let mut buf = EnvelopeBuffer::new();
        // on the row: full width 2b
        let e = buf.fill(&pts, 3.0, 0.0);
        assert!((e[0].lb - 7.0).abs() < 1e-12);
        assert!((e[0].ub - 13.0).abs() < 1e-12);
        // at |dy| = b: width collapses to a single x
        let e = buf.fill(&pts, 3.0, 3.0);
        assert_eq!(e.len(), 1);
        assert!((e[0].lb - 10.0).abs() < 1e-12);
        assert!((e[0].ub - 10.0).abs() < 1e-12);
        // beyond: excluded
        let e = buf.fill(&pts, 3.0, 3.0001);
        assert!(e.is_empty());
    }

    #[test]
    fn interval_membership_matches_distance_predicate() {
        // p ∈ R(q) ⟺ LB ≤ q.x ≤ UB (Lemma 2), sampled on a grid of q.x.
        let p = Point::new(2.5, 1.5);
        let b = 2.0;
        let k = 0.25;
        let mut buf = EnvelopeBuffer::new();
        let e = buf.fill(std::slice::from_ref(&p), b, k);
        assert_eq!(e.len(), 1);
        let iv = e[0];
        for step in -40..=40 {
            let qx = 2.5 + step as f64 * 0.1;
            let q = Point::new(qx, k);
            let in_range = q.dist(&p) <= b;
            let in_interval = iv.lb <= qx && qx <= iv.ub;
            assert_eq!(in_range, in_interval, "q.x = {qx}");
        }
    }

    #[test]
    fn for_points_caps_preallocation() {
        let small = EnvelopeBuffer::for_points(100);
        assert_eq!(small.space_bytes(), 100 * std::mem::size_of::<SweepInterval>());
        let huge = EnvelopeBuffer::for_points(usize::MAX / 64);
        assert_eq!(
            huge.space_bytes(),
            EnvelopeBuffer::MAX_PREALLOC * std::mem::size_of::<SweepInterval>()
        );
    }

    #[test]
    fn band_index_matches_full_scan_bitwise() {
        // includes duplicate y values and points exactly b away from rows
        let pts = vec![
            Point::new(4.0, 2.0),
            Point::new(1.0, -3.0),
            Point::new(9.0, 2.0),
            Point::new(5.0, 0.5),
            Point::new(-2.0, 7.0),
            Point::new(3.0, 2.0),
        ];
        let index = BandIndex::build(&pts);
        let sorted: Vec<Point> = (0..index.len()).map(|i| index.point(i)).collect();
        let mut scan = EnvelopeBuffer::new();
        let mut banded = EnvelopeBuffer::new();
        for b in [0.25, 2.0, 3.5, 100.0] {
            for k in [-3.0 - b, -1.0, 0.5, 2.0 - b, 2.0 + b, 6.0, 50.0] {
                let reference = scan.fill(&sorted, b, k).to_vec();
                let got = banded.fill_banded(&index, b, k);
                assert_eq!(got, &reference[..], "b={b} k={k}");
            }
        }
    }

    #[test]
    fn band_index_keeps_duplicate_y_in_input_order() {
        let pts = vec![Point::new(2.0, 1.0), Point::new(0.0, 1.0), Point::new(1.0, 1.0)];
        let index = BandIndex::build(&pts);
        // stable sort: equal y values stay in input order
        assert_eq!(index.point(0), pts[0]);
        assert_eq!(index.point(1), pts[1]);
        assert_eq!(index.point(2), pts[2]);
        assert_eq!(index.original_index(1), 1);
        let band = index.band(3.0, 0.0);
        assert_eq!(band, 0..3);
    }

    #[test]
    fn empty_band_and_empty_index() {
        let index = BandIndex::build(&[]);
        assert!(index.is_empty());
        assert_eq!(index.band(5.0, 0.0), 0..0);
        let pts = vec![Point::new(0.0, 10.0)];
        let index = BandIndex::build(&pts);
        assert!(index.band(2.0, 0.0).is_empty());
        assert!(index.band(2.0, 20.0).is_empty());
        assert_eq!(index.band(2.0, 9.0), 0..1);
        assert!(index.space_bytes() >= BandIndex::bytes_for(1));
    }

    /// Recorded regression: rows grazing the support boundary. When `dy`
    /// is 1 ulp past `b`, `b² − dy²` rounds to a tiny negative value; the
    /// fill must clamp it to zero *before* the sqrt (a NaN here poisons the
    /// interval bounds) and produce the degenerate `lb == ub == x`
    /// interval.
    #[test]
    fn fill_clamps_support_boundary_rows_bitwise() {
        let b = 5.0_f64;
        let k = 10.0;
        let up = f64::from_bits(b.to_bits() + 1); // next_up(b)
        let down = f64::from_bits(b.to_bits() - 1); // next_down(b)
        assert!(b * b - up * up < 0.0, "1 ulp past b must underflow negative");
        // dy = k − y hits exactly b, 1 ulp past it, 1 ulp inside it, and
        // comfortable interior values.
        let dys = [b, up, down, 0.5 * b, up, b, down, 1e-9, up];
        let pts: Vec<Point> = dys
            .iter()
            .enumerate()
            .map(|(i, dy)| Point::new(i as f64 * 3.25 - 7.0, k - dy))
            .collect();
        let index = BandIndex::build(&pts);
        // A caller-built band over every point, past-the-boundary ones too.
        let mut buf = EnvelopeBuffer::new();
        let intervals = buf.fill_band(&index, 0..index.len(), b, k);
        assert_eq!(intervals.len(), pts.len());
        for (i, iv) in intervals.iter().enumerate() {
            let p = index.point(i);
            assert_eq!(iv.point, p, "point {i}");
            assert!(iv.lb.is_finite() && iv.ub.is_finite(), "point {i} must not be NaN");
            if k - p.y >= b {
                // at or past the boundary: degenerate interval at x
                assert_eq!(iv.lb.to_bits(), p.x.to_bits(), "point {i}");
                assert_eq!(iv.ub.to_bits(), p.x.to_bits(), "point {i}");
            } else {
                assert!(iv.lb < iv.ub, "point {i} strictly inside the support");
            }
        }
    }

    #[test]
    fn buffer_is_reused_across_rows() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut buf = EnvelopeBuffer::with_capacity(pts.len());
        buf.fill(&pts, 1.0, 0.0);
        let cap_before = buf.space_bytes();
        buf.fill(&pts, 1.0, 0.5);
        assert_eq!(buf.space_bytes(), cap_before, "no reallocation between rows");
        assert_eq!(buf.len(), 100);
    }
}
