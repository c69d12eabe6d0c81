//! Sample statistics, seeded randomness and process measurements shared
//! by the workloads.

/// Median with the two middle samples averaged (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile, the repository's own definition
/// ([`kdv_obs::stats::percentile_f64`]); NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    kdv_obs::stats::percentile_f64(values, q).unwrap_or(f64::NAN)
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// SplitMix64: the benchmark's seeded generator for walks, schedules and
/// sample choices (independent of the data generator's RNG).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A sub-seed for stream `salt` of workload seed `seed`, so every input
/// (each city, the base set, the arrivals, each session) draws from its
/// own seeded stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Peak resident set of this process in MiB (`VmHWM`), NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_percentile_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        let pts: Vec<(f64, f64)> =
            [1.0, 4.0, 16.0].iter().map(|&x: &f64| (x, 3.0 * x.sqrt())).collect();
        assert!((loglog_slope(&pts) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
