//! Small numeric helpers shared by the CLI's `--stats` output and the
//! bench binaries (previously copy-pasted nearest-rank percentile and
//! median implementations).

/// Nearest-rank percentile of `values` at quantile `q in [0,1]`
/// (`rank = round(q * (len-1))`), or `None` when empty: the band-size
/// percentiles `kdv --stats` prints.
pub fn percentile_u64(values: &[u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Nearest-rank percentile for floating-point samples (total order via
/// `f64::total_cmp`, so NaN sorts last instead of poisoning the sort).
pub fn percentile_f64(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Median of floating-point samples (nearest-rank, `None` when empty) —
/// the helper the bench binaries each reimplemented inline.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    percentile_f64(values, 0.5)
}

/// Nanoseconds to milliseconds — the conversion every latency printer
/// in the CLI and bench binaries open-coded as `ns as f64 / 1e6`.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The canonical `p50 X ms, p99 Y ms` fragment the CLI front-end
/// summary, the serve bench and the flight bench all print.
pub fn fmt_p50_p99_ms(p50_ns: u64, p99_ns: u64) -> String {
    format!("p50 {:.3} ms, p99 {:.3} ms", ns_to_ms(p50_ns), ns_to_ms(p99_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_u64_nearest_rank() {
        let v = [5u64, 1, 9, 3, 7];
        assert_eq!(percentile_u64(&v, 0.0), Some(1));
        assert_eq!(percentile_u64(&v, 0.5), Some(5));
        assert_eq!(percentile_u64(&v, 1.0), Some(9));
        // q = 0.9 -> rank round(3.6) = 4
        assert_eq!(percentile_u64(&v, 0.9), Some(9));
        // q = 0.6 -> rank round(2.4) = 2
        assert_eq!(percentile_u64(&v, 0.6), Some(5));
        assert_eq!(percentile_u64(&[], 0.5), None);
        // out-of-range q clamps
        assert_eq!(percentile_u64(&v, -1.0), Some(1));
        assert_eq!(percentile_u64(&v, 2.0), Some(9));
    }

    /// Recorded regression: percentiles are permutation-invariant, ties
    /// included. `kdv --stats` feeds per-row band sizes in the order the
    /// rows were swept (which the parallel driver permutes), so a rank
    /// picked from an unsorted or unstably-tied slice would make its
    /// output depend on thread scheduling.
    #[test]
    fn percentile_invariant_under_permutation_and_ties() {
        let base = [4u64, 7, 7, 1, 7, 2, 9, 1, 7, 3];
        // a handful of distinct permutations, including reversed and
        // tie-adjacent swaps
        let mut perms: Vec<Vec<u64>> = vec![base.to_vec()];
        let mut rev = base.to_vec();
        rev.reverse();
        perms.push(rev);
        let mut rot = base.to_vec();
        rot.rotate_left(3);
        perms.push(rot);
        let mut swapped = base.to_vec();
        swapped.swap(1, 4); // swaps two equal values across a distinct one
        swapped.swap(0, 9);
        perms.push(swapped);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let want = percentile_u64(&base, q);
            for p in &perms {
                assert_eq!(percentile_u64(p, q), want, "q={q} perm={p:?}");
            }
        }
        // same property for the float variant, with tied samples
        let fbase = [2.5, 1.0, 2.5, 0.5, 2.5, 9.0];
        let mut frev = fbase.to_vec();
        frev.reverse();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile_f64(&fbase, q), percentile_f64(&frev, q), "q={q}");
        }
    }

    #[test]
    fn median_f64_matches_sorted_middle() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        // even length: nearest-rank rounds half up, so the upper middle
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(median_f64(&[]), None);
        assert_eq!(median_f64(&[7.5]), Some(7.5));
    }

    #[test]
    fn percentile_f64_tolerates_nan() {
        let v = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile_f64(&v, 0.0), Some(1.0));
        assert_eq!(percentile_f64(&v, 0.5), Some(2.0));
    }
}
