//! Numeric helpers: compensated summation and tolerant float comparison.
//!
//! The sweep-line algorithms accumulate and cancel aggregate sums over long
//! runs of insertions; Kahan–Babuška (Neumaier) compensation keeps the
//! accumulated error independent of the number of operations, which is what
//! lets the test suite hold SLAM to a tight exactness tolerance against the
//! naive SCAN evaluation.
//!
//! # One compensated step on selected operands
//!
//! Neumaier's step compares `|sum| ≥ |v|` to find the operand whose low
//! bits the rounded sum `t` lost, then adds `(big − t) + small` to the
//! compensation. [`Kahan::add`] selects `big` and `small` with that one
//! comparison and applies the one expression, leaving the compiler free to
//! lower the selection as a blend or a branch. It is bitwise the textbook
//! two-armed form of the step for every input, ±0, subnormals, ±inf and
//! NaN included: the comparison is the same, so the same operand lands in
//! the same slot, and the float operations after the selection are the
//! same ones in the same order. The unit tests keep the two-armed form as
//! a reference and compare `to_bits()` of both fields.
//!
//! Two cheaper-looking forms are deliberately not used. A selection forced
//! through a bit mask (no branch at all) costs about four more
//! instructions per step; on the sweep's event streams `|sum| ≥ |v|` holds
//! almost always once an accumulator holds a few points, so the branch
//! predicts well and the mask made the paper-default render slower. TwoSum
//! drops the comparison altogether but equals Neumaier's correction only
//! while the sum is finite and does not overflow.

/// Kahan–Babuška (Neumaier variant) compensated accumulator.
///
/// Subtraction is adding `-v` under the same compensation, which the sweep
/// line needs when aggregates are maintained as `L − U` differences.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    /// A fresh accumulator holding 0.
    #[inline]
    pub const fn new() -> Self {
        Self { sum: 0.0, comp: 0.0 }
    }

    /// Adds `v` with error compensation (see the module docs for why this
    /// is bitwise Neumaier's two-armed step).
    #[inline(always)]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        let (big, small) = if self.sum.abs() >= v.abs() { (self.sum, v) } else { (v, self.sum) };
        self.comp += (big - t) + small;
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// The running sum and its compensation as raw bits, in that order:
    /// the whole state, for a sweep checkpoint.
    #[inline(always)]
    pub fn to_bits(&self) -> [u64; 2] {
        [self.sum.to_bits(), self.comp.to_bits()]
    }

    /// The accumulator whose state [`Kahan::to_bits`] returned.
    #[inline(always)]
    pub fn from_bits([sum, comp]: [u64; 2]) -> Self {
        Self { sum: f64::from_bits(sum), comp: f64::from_bits(comp) }
    }

    /// Resets to zero without reallocating.
    #[inline]
    pub fn reset(&mut self) {
        self.sum = 0.0;
        self.comp = 0.0;
    }
}

/// Sums a slice with compensation; reference implementation for tests.
pub fn kahan_sum(values: &[f64]) -> f64 {
    let mut acc = Kahan::new();
    for &v in values {
        acc.add(v);
    }
    acc.value()
}

/// Maximum relative error between two equally long slices
/// (∞ if lengths differ), used to report grid agreement in experiments.
pub fn max_rel_error(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let scale = x.abs().max(y.abs()).max(1e-300);
        worst = worst.max((x - y).abs() / scale);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Neumaier's step written as two branch arms: the reference the
    /// bitwise tests compare [`Kahan::add`] against.
    fn reference_add(sum: &mut f64, comp: &mut f64, v: f64) {
        let t = *sum + v;
        if sum.abs() >= v.abs() {
            *comp += (*sum - t) + v;
        } else {
            *comp += (v - t) + *sum;
        }
        *sum = t;
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Feeds `values` to both steps and checks `sum` and `comp` after every
    /// addition: bitwise, or both NaN.
    fn assert_matches_reference(start: (f64, f64), values: &[f64]) {
        let mut k = Kahan { sum: start.0, comp: start.1 };
        let (mut sum, mut comp) = start;
        for (i, &v) in values.iter().enumerate() {
            k.add(v);
            reference_add(&mut sum, &mut comp, v);
            assert!(
                same_bits(k.sum, sum) && same_bits(k.comp, comp),
                "step {i} (+{v:e}) from {start:?}: got ({:e}, {:e}), reference ({sum:e}, {comp:e})",
                k.sum,
                k.comp
            );
        }
    }

    #[test]
    fn selected_add_is_bitwise_neumaier_on_adversarial_values() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let specials = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            1e-16,
            -1e-16,
            3.0,
            -3.0,
            1e300,
            -1e300,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every pair of start state and addend, then every ordered pair of
        // addends from each start: covers ±0, subnormals, equal
        // magnitudes, exact cancellation, overflow to ±inf, inf − inf and
        // NaN propagation.
        for &s in &specials {
            for &c in &[0.0, -0.0, 1e-17, -tiny] {
                for &a in &specials {
                    for &b in &specials {
                        assert_matches_reference((s, c), &[a, b]);
                    }
                }
            }
        }
        // Long runs that overflow and then cancel.
        assert_matches_reference((0.0, 0.0), &[f64::MAX, f64::MAX, -f64::MAX, -f64::MAX]);
        assert_matches_reference((0.0, 0.0), &[1.0, 1e100, 1.0, -1e100]);
        assert_matches_reference((-0.0, -0.0), &[-0.0, 0.0, -0.0, tiny, -tiny]);
    }

    #[test]
    fn selected_add_is_bitwise_neumaier_on_random_sequences() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let values: Vec<f64> = (0..500)
                .map(|_| {
                    let r = next();
                    match r % 4 {
                        // Arbitrary bit patterns: every exponent, subnormals,
                        // infinities and NaNs.
                        0 => f64::from_bits(next()),
                        // Sweep-like values of mixed sign and scale.
                        1 => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e4,
                        2 => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-3,
                        // Small integers: many exact ties and cancellations.
                        _ => (r >> 60) as f64 - 8.0,
                    }
                })
                .collect();
            assert_matches_reference((0.0, 0.0), &values);
        }
    }

    #[test]
    fn kahan_beats_naive_on_cancellation() {
        // 1 + 1e-16 added 10^6 times then subtracting 1: naive f64 loses the
        // small parts entirely; Kahan keeps them.
        let mut k = Kahan::new();
        k.add(1.0);
        for _ in 0..1_000_000 {
            k.add(1e-16);
        }
        k.add(-1.0);
        let got = k.value();
        assert!((got - 1e-10).abs() <= 1e-6 * got.max(1e-10), "kahan total {got} should be ~1e-10");
    }

    #[test]
    fn kahan_sum_matches_exact_for_integers() {
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(kahan_sum(&vals), 500_500.0);
    }

    #[test]
    fn kahan_reset() {
        let mut k = Kahan::new();
        k.add(5.0);
        k.add(1.0);
        k.reset();
        assert_eq!(k.value(), 0.0);
    }

    #[test]
    fn max_rel_error_basics() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_rel_error(&[1.0], &[1.0, 2.0]).is_infinite());
        let e = max_rel_error(&[100.0], &[101.0]);
        assert!((e - 1.0 / 101.0).abs() <= 1e-12 / 101.0, "{e}");
    }
}
