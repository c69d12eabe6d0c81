//! Property tests for banded envelope extraction: the y-sorted
//! [`BandIndex`] must return exactly the interval set of the full-scan
//! `fill`, including boundary rows at `|k − p.y| = b` and duplicate
//! y-coordinates (the regimes where a naive binary-search predicate could
//! disagree with the scan predicate by one ulp).

use kdv_core::envelope::{BandIndex, EnvelopeBuffer, SweepInterval};
use kdv_core::geom::Point;
use proptest::prelude::*;

/// Bit-exact fingerprint of one interval (membership *and* bounds).
fn bits(intervals: &[SweepInterval]) -> Vec<[u64; 4]> {
    intervals
        .iter()
        .map(|iv| [iv.point.x.to_bits(), iv.point.y.to_bits(), iv.lb.to_bits(), iv.ub.to_bits()])
        .collect()
}

/// Points with heavily duplicated y-coordinates: y lives on a coarse
/// lattice so ties in the sort and exact boundary hits are common.
fn lattice_points() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..100.0, 0u32..64), 1..120).prop_map(|raw| {
        raw.into_iter().map(|(x, yi)| Point::new(x, yi as f64 * 0.78125)).collect::<Vec<Point>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `fill_banded` equals full-scan `fill` over the same canonical
    /// (y-sorted) order bit for bit — same membership, same sequence,
    /// same bounds — and as a multiset equals a scan of the unsorted
    /// input. Each case probes a generic row plus an exact boundary row
    /// `k = p.y ± b` for a sampled point.
    #[test]
    fn banded_matches_full_scan(
        pts in lattice_points(),
        b in 0.25f64..60.0,
        kraw in -10.0f64..60.0,
        sel in 0usize..120,
        above in 0u8..2,
    ) {
        let index = BandIndex::build(&pts);
        let sorted: Vec<Point> = (0..index.len()).map(|i| index.point(i)).collect();
        let p = pts[sel % pts.len()];
        let boundary = if above == 1 { p.y + b } else { p.y - b };
        for k in [kraw, boundary] {
            let mut banded = EnvelopeBuffer::for_points(pts.len());
            let mut scan_sorted = EnvelopeBuffer::for_points(pts.len());
            let mut scan_orig = EnvelopeBuffer::for_points(pts.len());
            let got = bits(banded.fill_banded(&index, b, k));
            let want = bits(scan_sorted.fill(&sorted, b, k));
            prop_assert_eq!(&got, &want, "sequence mismatch at k={}", k);
            let mut got_sorted = got;
            let mut orig = bits(scan_orig.fill(&pts, b, k));
            got_sorted.sort_unstable();
            orig.sort_unstable();
            prop_assert_eq!(got_sorted, orig, "multiset mismatch at k={}", k);
        }
    }

    /// Duplicate-y points appear in input order within the band (the sort
    /// is stable), so per-point payloads stored in the canonical order
    /// (the weights of `SweepContext::weighted`) align exactly.
    #[test]
    fn band_preserves_input_order_of_ties(
        pts in lattice_points(),
        b in 0.25f64..60.0,
        kraw in 0.0f64..50.0,
    ) {
        let index = BandIndex::build(&pts);
        let band = index.band(b, kraw);
        let mut last_seen: std::collections::HashMap<u64, usize> = Default::default();
        for i in band {
            let orig = index.original_index(i);
            let y = index.point(i).y.to_bits();
            if let Some(&prev) = last_seen.get(&y) {
                prop_assert!(prev < orig, "ties must keep input order");
            }
            last_seen.insert(y, orig);
        }
    }

    /// Bounding the search by any superset band (a larger bandwidth's
    /// band) returns exactly the unbounded result — the multi-bandwidth
    /// fast path.
    #[test]
    fn band_in_superset_equals_direct(
        pts in lattice_points(),
        b1 in 0.25f64..60.0,
        b2 in 0.25f64..60.0,
        kraw in -10.0f64..60.0,
    ) {
        let (small, big) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let index = BandIndex::build(&pts);
        let superset = index.band(big, kraw);
        prop_assert_eq!(
            index.band_in(superset, small, kraw),
            index.band(small, kraw)
        );
    }
}
