//! The representative kernel functions of the paper (Table 2) and their
//! aggregate decompositions (Section 3.7, Table 4).
//!
//! All three kernels have finite support `dist(q, p) ≤ b` and decompose the
//! density `F_P(q) = Σ w·K(q, p)` into a closed form of a handful of
//! aggregate sums over the range set `R(q)`:
//!
//! * **Uniform** — needs only the count `|R(q)|`.
//! * **Epanechnikov** — needs `|R(q)|`, `A = Σ p`, `S = Σ‖p‖²` (Eq. 5).
//! * **Quartic** — additionally needs `C = Σ‖p‖²·p`, `Q = Σ‖p‖⁴` and the
//!   outer-product sum `M = Σ p·pᵀ`.
//!
//! The Gaussian kernel has no such decomposition (and infinite support), so —
//! exactly as the paper notes — it is out of scope for SLAM.

use crate::aggregate::RangeAggregates;
use crate::geom::Point;

/// Which kernel function to use; see Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelType {
    /// `K = 1/b` inside the bandwidth, 0 outside.
    Uniform,
    /// `K = 1 − dist²/b²` inside the bandwidth (the paper's default).
    #[default]
    Epanechnikov,
    /// `K = (1 − dist²/b²)²` inside the bandwidth (QGIS/ArcGIS default).
    Quartic,
}

impl KernelType {
    /// All supported kernels, in Table-2 order.
    pub const ALL: [KernelType; 3] =
        [KernelType::Uniform, KernelType::Epanechnikov, KernelType::Quartic];

    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            KernelType::Uniform => "uniform",
            KernelType::Epanechnikov => "epanechnikov",
            KernelType::Quartic => "quartic",
        }
    }

    /// Direct kernel evaluation `K(q, p)` (without the weight `w`).
    ///
    /// The support is closed: `dist(q, p) = b` is *inside* (contributing 0
    /// for Epanechnikov/quartic and `1/b` for uniform), matching Eq. 2.
    #[inline]
    pub fn eval(&self, q: &Point, p: &Point, bandwidth: f64) -> f64 {
        let d2 = q.dist_sq(p);
        let b2 = bandwidth * bandwidth;
        if d2 > b2 {
            return 0.0;
        }
        match self {
            KernelType::Uniform => 1.0 / bandwidth,
            KernelType::Epanechnikov => 1.0 - d2 / b2,
            KernelType::Quartic => {
                let t = 1.0 - d2 / b2;
                t * t
            }
        }
    }

    /// Density at `q` by direct summation — the reference `O(n)` evaluation
    /// used by the SCAN baseline and by the exactness tests.
    pub fn density_scan(&self, q: &Point, points: &[Point], bandwidth: f64, weight: f64) -> f64 {
        let mut acc = crate::stats::Kahan::new();
        for p in points {
            acc.add(self.eval(q, p, bandwidth));
        }
        weight * acc.value()
    }

    /// Density at `q` from pre-maintained range aggregates (the O(1)
    /// sweep-line evaluation of Lemma 3 / Section 3.7).
    ///
    /// `agg` must aggregate exactly the range set
    /// `R(q) = {p : dist(q,p) ≤ b}`.
    #[inline]
    pub fn density_from_aggregates(
        &self,
        q: &Point,
        agg: &RangeAggregates,
        bandwidth: f64,
        weight: f64,
    ) -> f64 {
        self.density_from_moments(q, agg.count as f64, agg, bandwidth, weight)
    }

    /// The density polynomial: the kernel's closed form over the moments of
    /// `agg`, with the zeroth moment `n` passed as an `f64`. `n` is
    /// `|R(q)|` for the unweighted sweeps and `Σ wᵢ` for the weighted
    /// sweep, whose other moments carry the weights term for term; the
    /// count field of `agg` is not read. This is the only copy of the
    /// polynomial in the crate, so every engine evaluates the same float
    /// program.
    #[inline(always)]
    pub(crate) fn density_from_moments(
        &self,
        q: &Point,
        n: f64,
        agg: &RangeAggregates,
        bandwidth: f64,
        weight: f64,
    ) -> f64 {
        let b2 = bandwidth * bandwidth;
        match self {
            KernelType::Uniform => weight / bandwidth * n,
            KernelType::Epanechnikov => {
                // F = w|R| − w/b² (|R|·‖q‖² − 2 qᵀA + S)      (Eq. 5)
                let qn = q.norm_sq();
                let qta = q.x * agg.ax + q.y * agg.ay;
                weight * (n - (n * qn - 2.0 * qta + agg.s) / b2)
            }
            KernelType::Quartic => {
                // Expand Σ (1 − dist²/b²)² = Σ (1 − u/b²)² with
                // u = ‖q‖² − 2qᵀp + ‖p‖²:
                //   Σ 1 − (2/b²) Σ u + (1/b⁴) Σ u².
                // Σ u   = |R|‖q‖² − 2 qᵀA + S
                // Σ u²  = |R|‖q‖⁴ + 4 qᵀM q + Q
                //         − 4‖q‖² qᵀA + 2‖q‖² S − 4 qᵀC
                let qn = q.norm_sq();
                let qta = q.x * agg.ax + q.y * agg.ay;
                let qtc = q.x * agg.cx + q.y * agg.cy;
                let qmq = q.x * q.x * agg.mxx + 2.0 * q.x * q.y * agg.mxy + q.y * q.y * agg.myy;
                let sum_u = n * qn - 2.0 * qta + agg.s;
                let sum_u2 = n * qn * qn + 4.0 * qmq + agg.q4 - 4.0 * qn * qta + 2.0 * qn * agg.s
                    - 4.0 * qtc;
                weight * (n - 2.0 / b2 * sum_u + sum_u2 / (b2 * b2))
            }
        }
    }

    /// Whether the kernel needs the quartic-only aggregate terms
    /// (`C`, `Q`, `M`); lets hot loops skip maintaining them.
    #[inline]
    pub fn needs_quartic_terms(&self) -> bool {
        matches!(self, KernelType::Quartic)
    }
}

impl std::fmt::Display for KernelType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(KernelType::Uniform),
            "epanechnikov" | "epan" => Ok(KernelType::Epanechnikov),
            "quartic" => Ok(KernelType::Quartic),
            other => Err(format!("unknown kernel '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::RangeAggregates;

    #[test]
    fn eval_inside_outside_boundary() {
        let q = Point::new(0.0, 0.0);
        let b = 2.0;
        // centre
        assert_eq!(KernelType::Uniform.eval(&q, &q, b), 0.5);
        assert_eq!(KernelType::Epanechnikov.eval(&q, &q, b), 1.0);
        assert_eq!(KernelType::Quartic.eval(&q, &q, b), 1.0);
        // boundary dist == b: inside, value 0 for epan/quartic, 1/b uniform
        let p = Point::new(2.0, 0.0);
        assert_eq!(KernelType::Uniform.eval(&q, &p, b), 0.5);
        assert_eq!(KernelType::Epanechnikov.eval(&q, &p, b), 0.0);
        assert_eq!(KernelType::Quartic.eval(&q, &p, b), 0.0);
        // outside
        let far = Point::new(2.0001, 0.0);
        for k in KernelType::ALL {
            assert_eq!(k.eval(&q, &far, b), 0.0);
        }
    }

    #[test]
    fn halfway_values() {
        let q = Point::new(0.0, 0.0);
        let p = Point::new(1.0, 0.0);
        let b = 2.0;
        // dist²/b² = 1/4
        assert!((KernelType::Epanechnikov.eval(&q, &p, b) - 0.75).abs() < 1e-15);
        assert!((KernelType::Quartic.eval(&q, &p, b) - 0.5625).abs() < 1e-15);
    }

    /// The aggregate-based evaluation must agree with direct summation for
    /// every kernel when the aggregates cover exactly the in-range points.
    #[test]
    fn aggregate_evaluation_matches_direct() {
        let q = Point::new(0.3, -0.2);
        let b = 1.5;
        let w = 0.01;
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.5),
            Point::new(-0.7, 0.4),
            Point::new(5.0, 5.0),  // out of range
            Point::new(0.3, -1.7), // exactly at dist 1.5
        ];
        for kernel in KernelType::ALL {
            let direct = kernel.density_scan(&q, &pts, b, w);
            let mut agg = RangeAggregates::default();
            for p in &pts {
                if q.dist(p) <= b {
                    agg.add(p);
                }
            }
            let via_agg = kernel.density_from_aggregates(&q, &agg, b, w);
            assert!(
                (direct - via_agg).abs() <= 1e-12 * direct.abs().max(1.0),
                "{kernel}: direct {direct} vs aggregate {via_agg}"
            );
        }
    }

    #[test]
    fn parse_round_trip() {
        for k in KernelType::ALL {
            assert_eq!(k.name().parse::<KernelType>().unwrap(), k);
        }
        assert!("gaussian".parse::<KernelType>().is_err());
    }
}
