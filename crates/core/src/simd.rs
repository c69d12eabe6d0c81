//! Vector-lane label of the running machine, kept for the benchmark
//! fingerprint.
//!
//! `kdv-core` has no vector code path: every engine evaluates its row in one
//! scalar loop (README §"Row loop" gives the measurements behind that). The
//! repository benchmark still prints whether the CPU has four-lane `f64`
//! arithmetic in its provenance line and folds [`mode`] into its machine
//! fingerprint. Both functions depend on the hardware alone, so two records
//! taken on one machine carry the same fingerprint.

/// The machine's `f64` lane class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// No four-lane `f64` arithmetic detected.
    Scalar,
    /// AVX2 on x86-64, or NEON (baseline) on aarch64.
    Vector,
}

impl SimdMode {
    /// Human-readable name (`"scalar"` / `"f64x4"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Vector => "f64x4",
        }
    }
}

/// Whether the running CPU has four-lane `f64` arithmetic.
pub fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // NEON is part of the aarch64 baseline.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// The machine's lane class: [`SimdMode::Vector`] iff [`detected`].
pub fn mode() -> SimdMode {
    if detected() {
        SimdMode::Vector
    } else {
        SimdMode::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_follows_detection() {
        assert_eq!(mode() == SimdMode::Vector, detected());
        assert_eq!(mode().name(), if detected() { "f64x4" } else { "scalar" });
    }
}
