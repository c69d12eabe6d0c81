//! The single tolerance policy shared by every conformance check.
//!
//! Before this module existed every test picked its own magic constant
//! (`1e-9` for sweeps, `1e-9 + 1e-12·(160/b)⁴` for the tree baselines,
//! …). Those numbers were all rediscovering the same two facts, so the
//! policy states them once:
//!
//! 1. **Exact engines drift by reassociation only.** An exact engine
//!    computes the same sum as the oracle with the terms reassociated
//!    (sweep aggregates, tree partial sums, transposes). Each
//!    reassociation is worth a few ULPs of the *peak* density, so the
//!    budget is expressed in scaled ULPs:
//!    `|got − ref| ≤ ulps · ε · max|ref|` with `ε = f64::EPSILON`.
//! 2. **Conditioning multiplies the budget.** Engines that evaluate far
//!    from the data centroid (the tree baselines work in one global
//!    recentred frame) lose up to `(c/b)⁴` of precision for the quartic
//!    kernel, where `c` is the coordinate magnitude and `b` the bandwidth
//!    — the very cancellation the PR 1 regression pinned. Their budget
//!    carries that factor explicitly instead of hiding it in a constant.
//!
//! 3. **The error scale is the summed term magnitude, not the output.**
//!    Every engine sums terms of magnitude up to `|wᵢ|·K(0)`; rounding is
//!    proportional to that *term scale* `Σ|wᵢ|·K(0)` even when the output
//!    itself is tiny. A pixel grazing the kernel support boundary
//!    (`dist ≈ b`) has a true density near zero, but both engine and
//!    oracle evaluate a cancelling expression whose absolute error is
//!    `O(ε · term scale)` — no evaluation order can do better. Scaled
//!    budgets therefore floor the reference peak at the term scale
//!    (found by the soak fuzzer at seed 30121, corpus case
//!    `seed-30121-support-grazing`).
//!
//! Engines that run the *identical* floating-point program as their
//! reference (parallel vs sequential, banded vs full-scan extraction,
//! band tiles vs the monolithic sweep) get no budget at all:
//! [`Policy::Bitwise`].
//! Approximate engines (aKDE) are checked against their *proven* absolute
//! error bound, not against a similarity heuristic.

use kdv_core::KernelType;

/// Relative budget of an exact sweep engine vs the scan oracle, in ULPs of
/// the peak density: `2²² · ε ≈ 9.3e-10` — the old flat `1e-9`, now with
/// its derivation attached (a few thousand reassociated terms, each worth
/// a handful of ULPs, against the peak).
pub const SWEEP_ULPS: f64 = (1u64 << 22) as f64;

/// Extra ULP budget per unit of quartic conditioning `(c/b)⁴` for engines
/// evaluating in one global recentred frame (tree baselines). `2¹⁴ · ε ≈
/// 3.6e-12` per unit — covers the old `1e-12·(160/b)⁴` with ~4× headroom
/// for regions whose half-diagonal exceeds the old tests' 160-unit span.
pub const TREE_COND_ULPS: f64 = (1u64 << 14) as f64;

/// The unnormalized kernel's peak value `K(0)` (see
/// [`KernelType::eval`] at distance zero): the magnitude of a single
/// summed term per unit weight, used as the term-scale floor of the
/// scaled policies.
pub fn unit_kernel_peak(kernel: KernelType, bandwidth: f64) -> f64 {
    match kernel {
        KernelType::Uniform => 1.0 / bandwidth,
        KernelType::Epanechnikov | KernelType::Quartic => 1.0,
    }
}

/// How closely an engine's output must match its oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The engine runs the identical floating-point program as the
    /// reference; any differing bit is a bug.
    Bitwise,
    /// Exact up to reassociation:
    /// `|got − ref| ≤ ulps · ε · max(max|ref|, floor)`.
    ScaledUlps {
        /// Budget in ULPs of the reference peak magnitude.
        ulps: f64,
        /// Term-scale floor `Σ|wᵢ|·K(0)` — the magnitude of the summed
        /// terms, below which the reference peak understates the
        /// unavoidable rounding (support-boundary grazing).
        floor: f64,
    },
    /// Approximate with a proven bound: `|got − ref| ≤ bound` everywhere.
    AbsoluteBound {
        /// The engine's proven absolute error bound.
        bound: f64,
    },
    /// Approximate with a **certified advertised bound**: the engine
    /// itself published `ε` alongside its output (a coreset's achieved
    /// sup-error certificate) and the oracle holds it to its own
    /// advertisement: `|got − ref| ≤ ε` everywhere.
    ///
    /// The contract differs from the exact policies in kind, not just in
    /// magnitude. `Bitwise`/`ScaledUlps` bound *rounding* of the same
    /// sum — their budgets derive from `f64::EPSILON` and the term scale,
    /// and shrink as precision grows. `ErrorBound` bounds *approximation*
    /// of a different (smaller) sum — the budget is whatever the engine
    /// claimed when it built the approximation, so a pass means the
    /// advertisement is honest, not that the bits are close. Unlike
    /// `AbsoluteBound` (a bound the *oracle* derives from the engine's
    /// parameters), the `ErrorBound` budget is produced by the system
    /// under test, which is exactly why it needs an oracle.
    ErrorBound {
        /// The sup-error bound the engine advertised with its output.
        epsilon: f64,
    },
}

impl Policy {
    /// Policy for exact sweep engines (SLAM variants, weighted sweep,
    /// STKDV frames) against a direct-summation oracle. `term_scale` is
    /// the summed term magnitude `Σ|wᵢ|·K(0)` (see
    /// [`unit_kernel_peak`]) flooring the error scale.
    pub fn sweep_exact(term_scale: f64) -> Self {
        Policy::ScaledUlps { ulps: SWEEP_ULPS, floor: term_scale }
    }

    /// Policy for tree-based exact baselines (RQS, QUAD, full-fraction
    /// Z-order) that evaluate in one globally recentred frame: the base
    /// sweep budget plus the quartic conditioning term `(c/b)⁴`, where
    /// `c` is the region half-diagonal (the farthest a query point sits
    /// from the shared frame origin).
    pub fn tree_exact(region_half_diagonal: f64, bandwidth: f64, term_scale: f64) -> Self {
        let cond = (region_half_diagonal / bandwidth).powi(4);
        Policy::ScaledUlps { ulps: SWEEP_ULPS + TREE_COND_ULPS * cond.max(1.0), floor: term_scale }
    }

    /// Policy for aKDE: per-point kernel tolerance `ε_k` admits an
    /// absolute density error of `w · n · ε_k / 2` (see
    /// `kdv_baselines::akde`), plus one sweep budget of slack for the
    /// summation itself (floored at the term scale, like every scaled
    /// policy).
    pub fn akde_bound(
        weight: f64,
        n_points: usize,
        epsilon: f64,
        ref_peak: f64,
        term_scale: f64,
    ) -> Self {
        let bound = weight.abs() * n_points as f64 * epsilon / 2.0;
        let slack = SWEEP_ULPS * f64::EPSILON * ref_peak.abs().max(term_scale).max(1e-300);
        Policy::AbsoluteBound { bound: bound + slack }
    }

    /// The admitted absolute error for a reference with the given peak
    /// magnitude (`∞` never happens: every policy is finite).
    pub fn admitted_error(&self, ref_peak: f64) -> f64 {
        match self {
            Policy::Bitwise => 0.0,
            Policy::ScaledUlps { ulps, floor } => {
                ulps * f64::EPSILON * ref_peak.abs().max(*floor).max(1e-300)
            }
            Policy::AbsoluteBound { bound } => *bound,
            Policy::ErrorBound { epsilon } => *epsilon,
        }
    }
}

/// Outcome of comparing an engine's output against its oracle.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Largest absolute elementwise difference.
    pub max_abs_err: f64,
    /// `max_abs_err` divided by the reference peak magnitude (floored at
    /// `1e-300` so all-zero oracles don't divide by zero).
    pub max_scaled_err: f64,
    /// The absolute error the policy admits for this reference.
    pub admitted: f64,
    /// Whether every element matched bit-for-bit.
    pub bitwise: bool,
    /// Whether the comparison satisfied the policy.
    pub pass: bool,
}

/// Compares `got` against `reference` under `policy`.
///
/// Length mismatches and non-finite values in `got` always fail — a NaN
/// grid is never conformant, whatever the policy.
pub fn compare(policy: Policy, got: &[f64], reference: &[f64]) -> Comparison {
    if got.len() != reference.len() || got.iter().any(|v| !v.is_finite()) {
        return Comparison {
            max_abs_err: f64::INFINITY,
            max_scaled_err: f64::INFINITY,
            admitted: 0.0,
            bitwise: false,
            pass: false,
        };
    }
    let ref_peak = reference.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let scale = ref_peak.max(1e-300);
    let mut max_abs = 0.0_f64;
    let mut bitwise = true;
    for (a, b) in got.iter().zip(reference) {
        if a.to_bits() != b.to_bits() {
            bitwise = false;
        }
        max_abs = max_abs.max((a - b).abs());
    }
    let admitted = policy.admitted_error(ref_peak);
    let pass = match policy {
        Policy::Bitwise => bitwise,
        _ => max_abs <= admitted,
    };
    Comparison { max_abs_err: max_abs, max_scaled_err: max_abs / scale, admitted, bitwise, pass }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_rejects_one_ulp() {
        let a = [1.0, 2.0, 3.0];
        let mut b = a;
        assert!(compare(Policy::Bitwise, &a, &b).pass);
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        let c = compare(Policy::Bitwise, &a, &b);
        assert!(!c.pass && !c.bitwise);
        // ...but the sweep policy accepts it
        assert!(compare(Policy::sweep_exact(0.0), &a, &b).pass);
    }

    #[test]
    fn sweep_budget_matches_the_old_flat_constant() {
        // the historic flat tolerance was max_scaled_err < 1e-9
        let admitted = Policy::sweep_exact(0.0).admitted_error(1.0);
        assert!(admitted > 5e-10 && admitted < 1e-9, "budget {admitted}");
    }

    #[test]
    fn tree_budget_grows_with_conditioning() {
        let tight = Policy::tree_exact(80.0, 80.0, 0.0).admitted_error(1.0);
        let loose = Policy::tree_exact(80.0, 1.0, 0.0).admitted_error(1.0);
        assert!(loose > tight * 1e4, "conditioning must dominate: {tight} vs {loose}");
    }

    #[test]
    fn term_scale_floor_admits_grazing_noise() {
        // the seed-30121 shape: reference peak ~1e-15 (every pixel grazes
        // the support boundary), term scale ~1.7 (one weight-1.7 point,
        // K(0) = 1), observed engine disagreement ~3.5e-19 — far above a
        // peak-scaled budget but far below ε·(term scale)
        let peak_scaled = Policy::ScaledUlps { ulps: SWEEP_ULPS, floor: 0.0 };
        assert!(peak_scaled.admitted_error(1e-15) < 3.5e-19);
        let floored = Policy::sweep_exact(1.7);
        assert!(floored.admitted_error(1e-15) > 3.5e-19);
        // a healthy peak is unaffected by a smaller floor
        assert_eq!(
            Policy::sweep_exact(0.5).admitted_error(2.0),
            Policy::sweep_exact(0.0).admitted_error(2.0)
        );
    }

    #[test]
    fn unit_kernel_peak_matches_eval_at_distance_zero() {
        use kdv_core::Point;
        let p = Point::new(3.0, 4.0);
        for kernel in KernelType::ALL {
            for b in [0.5, 7.0, 300.0] {
                assert_eq!(unit_kernel_peak(kernel, b), kernel.eval(&p, &p, b));
            }
        }
    }

    #[test]
    fn nan_output_never_passes() {
        let r = [0.0, 0.0];
        let g = [0.0, f64::NAN];
        for p in
            [Policy::Bitwise, Policy::sweep_exact(0.0), Policy::AbsoluteBound { bound: f64::MAX }]
        {
            assert!(!compare(p, &g, &r).pass);
        }
        // length mismatch likewise
        assert!(!compare(Policy::sweep_exact(0.0), &[0.0], &r).pass);
    }

    #[test]
    fn absolute_bound_is_independent_of_peak() {
        let r = [100.0, 0.0];
        let g = [100.5, 0.4];
        assert!(compare(Policy::AbsoluteBound { bound: 0.5 }, &g, &r).pass);
        assert!(!compare(Policy::AbsoluteBound { bound: 0.3 }, &g, &r).pass);
    }

    #[test]
    fn error_bound_holds_the_engine_to_its_advertisement() {
        let r = [10.0, 0.0, -3.0];
        let g = [10.2, -0.1, -2.9];
        // the advertised ε admits the deviation...
        assert!(compare(Policy::ErrorBound { epsilon: 0.25 }, &g, &r).pass);
        // ...a dishonest (too small) advertisement fails
        let c = compare(Policy::ErrorBound { epsilon: 0.1 }, &g, &r);
        assert!(!c.pass);
        assert!((c.max_abs_err - 0.2).abs() < 1e-12);
        // ε = 0 degenerates to an absolute-equality check (not bitwise:
        // +0.0 vs -0.0 still passes)
        assert!(compare(Policy::ErrorBound { epsilon: 0.0 }, &[0.0], &[-0.0]).pass);
        // NaN output never conforms, whatever ε says
        assert!(!compare(Policy::ErrorBound { epsilon: f64::MAX }, &[f64::NAN], &[0.0]).pass);
    }

    #[test]
    fn all_zero_reference_is_handled() {
        let r = [0.0; 4];
        let g = [0.0; 4];
        let c = compare(Policy::sweep_exact(0.0), &g, &r);
        assert!(c.pass && c.bitwise && c.max_scaled_err == 0.0);
    }
}
