//! Property-based tests for the data machinery: CSV round trips, the
//! sampler's invariants, and Scott's-rule scaling.

use kdv_core::geom::Point;
use kdv_data::csvio;
use kdv_data::record::{Dataset, EventRecord};
use kdv_data::sample::{sample_fraction, sample_without_replacement};
use kdv_data::scott::scott_bandwidth;
use proptest::prelude::*;

fn records_strategy() -> impl Strategy<Value = Vec<EventRecord>> {
    prop::collection::vec(
        (-1e7f64..1e7, -1e7f64..1e7, 0i64..2_000_000_000, 0u16..32).prop_map(
            |(x, y, timestamp, category)| EventRecord {
                point: Point::new(x, y),
                timestamp,
                category,
            },
        ),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CSV write → read reproduces the records exactly (coordinates use
    /// Rust's shortest-round-trip float formatting).
    #[test]
    fn csv_round_trip_exact(records in records_strategy()) {
        let dataset = Dataset::new("fuzz", records);
        let mut buf = Vec::new();
        csvio::write_csv(&mut buf, &dataset).unwrap();
        let parsed = csvio::read_csv(std::io::BufReader::new(buf.as_slice()), "fuzz").unwrap();
        prop_assert_eq!(parsed.records, dataset.records);
    }

    /// Sampling without replacement: size, membership, and no duplicates.
    #[test]
    fn sampler_invariants(records in records_strategy(), k in 0usize..250, seed in 0u64..) {
        let sample = sample_without_replacement(&records, k, seed);
        prop_assert_eq!(sample.len(), k.min(records.len()));
        // each sampled record exists in the source...
        for s in &sample {
            prop_assert!(records.contains(s));
        }
        // ...and indices are distinct (timestamps may repeat, so compare
        // by full record count: sampling k distinct slots of a multiset
        // can pick equal records, so uniqueness is only checkable when
        // all source records are distinct)
        let mut src = records.clone();
        src.sort_by(|a, b| {
            (a.timestamp, a.category, a.point.x.to_bits(), a.point.y.to_bits()).cmp(&(
                b.timestamp,
                b.category,
                b.point.x.to_bits(),
                b.point.y.to_bits(),
            ))
        });
        src.dedup();
        if src.len() == records.len() {
            let mut s = sample.clone();
            s.sort_by(|a, b| {
                (a.timestamp, a.category, a.point.x.to_bits(), a.point.y.to_bits()).cmp(&(
                    b.timestamp,
                    b.category,
                    b.point.x.to_bits(),
                    b.point.y.to_bits(),
                ))
            });
            s.dedup();
            prop_assert_eq!(s.len(), sample.len(), "duplicate pick detected");
        }
    }

    /// Fractional sampling is consistent with k-sampling.
    #[test]
    fn fraction_matches_rounded_k(records in records_strategy(), seed in 0u64..) {
        let half = sample_fraction(&records, 0.5, seed);
        let k = ((records.len() as f64) * 0.5).round() as usize;
        prop_assert_eq!(half.len(), k);
    }

    /// Scott's rule is translation invariant and scales linearly with a
    /// uniform coordinate dilation.
    #[test]
    fn scott_affine_behaviour(
        records in records_strategy(),
        dx in -1e6f64..1e6,
        s in 0.1f64..10.0,
    ) {
        let pts: Vec<Point> = records.iter().map(|r| r.point).collect();
        prop_assume!(pts.len() >= 2);
        let b0 = scott_bandwidth(&pts);
        prop_assume!(b0 > 1e-9);

        let shifted: Vec<Point> = pts.iter().map(|p| Point::new(p.x + dx, p.y + dx)).collect();
        let b_shift = scott_bandwidth(&shifted);
        prop_assert!((b_shift - b0).abs() <= 1e-6 * b0.max(1.0), "shift: {b_shift} vs {b0}");

        let scaled: Vec<Point> = pts.iter().map(|p| Point::new(p.x * s, p.y * s)).collect();
        let b_scaled = scott_bandwidth(&scaled);
        prop_assert!(
            (b_scaled - s * b0).abs() <= 1e-6 * (s * b0).max(1.0),
            "scale: {b_scaled} vs {}",
            s * b0
        );
    }
}
