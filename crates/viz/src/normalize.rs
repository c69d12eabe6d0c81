//! Density normalisation: map raw kernel densities to `[0, 1]` before
//! colouring.
//!
//! Hotspot rasters are heavy-tailed — a linear scale shows one red dot in
//! a sea of blue — so GIS tools offer square-root and logarithmic scales
//! that expand the low end. All scales here are monotone and map
//! `[0, max]` onto `[0, 1]`.

/// Normalisation scale applied before the colour map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// `t = v / max`.
    #[default]
    Linear,
    /// `t = sqrt(v / max)` — expands the low end.
    Sqrt,
    /// `t = log(1 + s·v/max) / log(1 + s)` with boost `s = 999` — strongly
    /// expands the low end.
    Log,
}

impl Scale {
    /// Normalises `v` against `max` (both ≥ 0). Returns 0 for a
    /// non-positive `max` (all-zero raster).
    #[inline]
    pub fn normalize(&self, v: f64, max: f64) -> f64 {
        if max.is_nan() || max <= 0.0 {
            return 0.0;
        }
        let t = (v / max).clamp(0.0, 1.0);
        match self {
            Scale::Linear => t,
            Scale::Sqrt => t.sqrt(),
            Scale::Log => {
                const BOOST: f64 = 999.0;
                (1.0 + BOOST * t).ln() / (1.0 + BOOST).ln()
            }
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "linear" => Ok(Scale::Linear),
            "sqrt" => Ok(Scale::Sqrt),
            "log" => Ok(Scale::Log),
            other => Err(format!("unknown scale '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scales_fix_endpoints() {
        for s in [Scale::Linear, Scale::Sqrt, Scale::Log] {
            assert_eq!(s.normalize(0.0, 10.0), 0.0, "{s:?}");
            assert!((s.normalize(10.0, 10.0) - 1.0).abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn monotonicity() {
        for s in [Scale::Linear, Scale::Sqrt, Scale::Log] {
            let mut last = -1.0;
            for i in 0..=100 {
                let t = s.normalize(i as f64, 100.0);
                assert!(t >= last, "{s:?} not monotone at {i}");
                last = t;
            }
        }
    }

    #[test]
    fn nonlinear_scales_expand_low_end() {
        let lin = Scale::Linear.normalize(1.0, 100.0);
        let sqrt = Scale::Sqrt.normalize(1.0, 100.0);
        let log = Scale::Log.normalize(1.0, 100.0);
        assert!(sqrt > lin);
        assert!(log > sqrt);
    }

    #[test]
    fn zero_max_is_safe() {
        for s in [Scale::Linear, Scale::Sqrt, Scale::Log] {
            assert_eq!(s.normalize(5.0, 0.0), 0.0);
        }
    }
}
