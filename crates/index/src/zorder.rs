//! Z-order (Morton) curve utilities — substrate for the Z-order sampling
//! baseline (Zheng et al., SIGMOD 2013).
//!
//! The baseline sorts the dataset along the Z-order space-filling curve and
//! takes an evenly strided sample; because the curve preserves spatial
//! locality, the sample is a spatially stratified subset that yields a
//! probabilistic error guarantee for the density estimate. This module
//! provides the curve encoding, sorting, and strided sampling.

use kdv_core::geom::{Point, Rect};

/// Interleaves the lower 32 bits of `v` with zeros (Morton "part 1 by 1").
#[inline]
fn part1by1(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Morton code of a pair of 32-bit cell coordinates (x in even bits).
#[inline]
pub fn morton_encode(cx: u32, cy: u32) -> u64 {
    part1by1(cx) | (part1by1(cy) << 1)
}

/// Quantisation of continuous coordinates onto a `2^bits × 2^bits` cell
/// grid covering `bounds`, for Morton encoding.
#[derive(Debug, Clone, Copy)]
pub struct ZQuantizer {
    bounds: Rect,
    scale: f64,
    max_cell: u32,
}

impl ZQuantizer {
    /// A quantiser with `bits` bits per dimension (max 31).
    pub fn new(bounds: Rect, bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        let cells = (1u64 << bits) as f64;
        let extent = bounds.width().max(bounds.height()).max(f64::MIN_POSITIVE);
        Self { bounds, scale: cells / extent, max_cell: (1u32 << bits) - 1 }
    }

    /// Cell coordinates of `p` (clamped to the grid).
    #[inline]
    pub fn cell(&self, p: &Point) -> (u32, u32) {
        let cx = ((p.x - self.bounds.min_x) * self.scale).floor();
        let cy = ((p.y - self.bounds.min_y) * self.scale).floor();
        (
            (cx.max(0.0) as u64).min(self.max_cell as u64) as u32,
            (cy.max(0.0) as u64).min(self.max_cell as u64) as u32,
        )
    }

    /// Morton key of `p`.
    #[inline]
    pub fn key(&self, p: &Point) -> u64 {
        let (cx, cy) = self.cell(p);
        morton_encode(cx, cy)
    }
}

/// Returns `points` sorted by Z-order key (ties keep input order — the
/// sort is stable so results are deterministic across runs).
pub fn sort_by_zorder(points: &[Point], bits: u32) -> Vec<Point> {
    let bounds = Rect::mbr(points);
    if points.is_empty() {
        return Vec::new();
    }
    let q = ZQuantizer::new(bounds, bits);
    let mut keyed: Vec<(u64, Point)> = points.iter().map(|p| (q.key(p), *p)).collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// Evenly strided sample of `sample_size` points from a Z-ordered list.
///
/// Stride-sampling a space-filling-curve ordering yields a spatially
/// stratified subset; each sampled point represents `n / m` originals, so
/// density estimates over the sample are scaled by that factor.
pub fn strided_sample(zsorted: &[Point], sample_size: usize) -> Vec<Point> {
    let n = zsorted.len();
    if sample_size == 0 || n == 0 {
        return Vec::new();
    }
    if sample_size >= n {
        return zsorted.to_vec();
    }
    let stride = n as f64 / sample_size as f64;
    (0..sample_size).map(|i| zsorted[((i as f64 + 0.5) * stride) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_encode_interleaves_bits() {
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(0b101, 0b011), 0b01_10_11);
        assert_eq!(morton_encode(u32::MAX, 0), 0x5555_5555_5555_5555);
        assert_eq!(morton_encode(0, u32::MAX), 0xAAAA_AAAA_AAAA_AAAA);
    }

    #[test]
    fn morton_orders_quadrants() {
        // the four unit cells follow the Z pattern: (0,0) < (1,0) < (0,1) < (1,1)
        let codes =
            [morton_encode(0, 0), morton_encode(1, 0), morton_encode(0, 1), morton_encode(1, 1)];
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantizer_clamps_and_covers() {
        let q = ZQuantizer::new(Rect::new(0.0, 0.0, 10.0, 10.0), 4);
        assert_eq!(q.cell(&Point::new(-5.0, -5.0)), (0, 0));
        assert_eq!(q.cell(&Point::new(100.0, 100.0)), (15, 15));
        let (cx, cy) = q.cell(&Point::new(5.0, 5.0));
        assert_eq!((cx, cy), (8, 8));
    }

    #[test]
    fn zsort_groups_nearby_points() {
        // two spatial clusters must be contiguous after z-sorting
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(Point::new(i as f64 * 0.01, i as f64 * 0.01)); // cluster A near origin
            pts.push(Point::new(100.0 + i as f64 * 0.01, 100.0)); // cluster B far away
        }
        let sorted = sort_by_zorder(&pts, 16);
        let first_b = sorted.iter().position(|p| p.x > 50.0).unwrap();
        assert!(sorted[first_b..].iter().all(|p| p.x > 50.0), "clusters must not interleave");
    }

    #[test]
    fn strided_sample_sizes() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(strided_sample(&pts, 10).len(), 10);
        assert_eq!(strided_sample(&pts, 0).len(), 0);
        assert_eq!(strided_sample(&pts, 1000).len(), 100);
        assert_eq!(strided_sample(&[], 5).len(), 0);
    }

    #[test]
    fn strided_sample_spreads_across_input() {
        let pts: Vec<Point> = (0..1000).map(|i| Point::new(i as f64, 0.0)).collect();
        let s = strided_sample(&pts, 4);
        // samples land near the 12.5%, 37.5%, 62.5%, 87.5% quantiles
        assert_eq!(s.len(), 4);
        assert!((s[0].x - 125.0).abs() <= 1.0);
        assert!((s[3].x - 875.0).abs() <= 1.0);
    }
}
