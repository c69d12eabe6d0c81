//! Deterministic adversarial case generation and lossless (de)serialization.
//!
//! A [`CaseSpec`] is one fully concrete KDV configuration: kernel, raster,
//! region, bandwidth, weight and point set. [`CaseSpec::generate`] maps a
//! `u64` seed to a case, deliberately skewed toward the configurations that
//! have historically broken engines: clustered and duplicated points,
//! collinear rows, points sitting *exactly* on the envelope boundary
//! `|k − p.y| = b`, far-from-origin regions (the PR 1 quartic
//! cancellation), tiny and region-sized bandwidths, degenerate `1×Y` /
//! `X×1` / `1×1` rasters and empty inputs.
//!
//! Serialization stores every `f64` as its 16-hex-digit bit pattern, so a
//! corpus case replays the *identical* floating-point inputs — a printed
//! decimal would round-trip through the parser and can land on a different
//! bit pattern, silently changing the computation being pinned.

use kdv_core::driver::KdvParams;
use kdv_core::{GridSpec, KernelType, Point, Rect, Result};

/// SplitMix64 — the tiny deterministic generator used for all case
/// synthesis (no external RNG dependency, stable across platforms).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One fully concrete conformance case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Stable identifier (seed provenance or corpus name); no whitespace.
    pub label: String,
    /// Spatial kernel under test.
    pub kernel: KernelType,
    /// Raster width in pixels.
    pub res_x: usize,
    /// Raster height in pixels.
    pub res_y: usize,
    /// Query region.
    pub region: Rect,
    /// Spatial bandwidth.
    pub bandwidth: f64,
    /// Global normalisation weight.
    pub weight: f64,
    /// The dataset.
    pub points: Vec<Point>,
}

impl CaseSpec {
    /// The raster specification (all generated cases are valid).
    pub fn grid(&self) -> Result<GridSpec> {
        GridSpec::new(self.region, self.res_x, self.res_y)
    }

    /// The planar KDV parameters of this case.
    pub fn params(&self) -> Result<KdvParams> {
        Ok(KdvParams::new(self.grid()?, self.kernel, self.bandwidth).with_weight(self.weight))
    }

    /// Half-diagonal of the region — the conditioning length fed to
    /// [`crate::tolerance::Policy::tree_exact`].
    pub fn region_half_diagonal(&self) -> f64 {
        let w = self.region.max_x - self.region.min_x;
        let h = self.region.max_y - self.region.min_y;
        (w * w + h * h).sqrt() / 2.0
    }

    /// A deterministic seed derived from the case *content* (not the
    /// label), used to synthesise auxiliary inputs — per-point weights,
    /// event timestamps — so a corpus case is fully self-contained.
    pub fn aux_seed(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a offset basis
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.res_x as u64);
        eat(self.res_y as u64);
        eat(self.bandwidth.to_bits());
        eat(self.weight.to_bits());
        eat(self.region.min_x.to_bits());
        eat(self.region.min_y.to_bits());
        for p in &self.points {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
        }
        h
    }

    /// The tile side length the tiled-sweep pair decomposes this case
    /// with, derived from [`CaseSpec::aux_seed`] (not a corpus key — the
    /// v1 line format is closed, and deriving from the case content keeps
    /// every corpus line self-contained). The ladder deliberately spans
    /// degenerate single-pixel tiles, tiles misaligned with everything
    /// (7), a mid-size that clips most rasters (64) and the serving
    /// default (256, usually one tile covering the whole case raster).
    pub fn tile_size(&self) -> usize {
        [1, 7, 64, 256][(self.aux_seed() >> 17) as usize % 4]
    }

    /// The coreset construction method the approximate-overview pairs
    /// build with, derived from [`CaseSpec::aux_seed`] like
    /// [`CaseSpec::tile_size`] (the v1 line format is closed). Returned
    /// by name so this layer stays decoupled from `kdv-coreset`;
    /// [`crate::oracle`] parses it back into a `CoresetMethod`.
    pub fn coreset_method(&self) -> &'static str {
        ["grid", "sort", "sample"][(self.aux_seed() >> 29) as usize % 3]
    }

    /// Relative ε target of the coreset pairs, as a fraction of the
    /// density scale `|w|·n·K(0)`. The ladder spans near-lossless (the
    /// builder usually has to keep most points) to aggressively
    /// compressed (a handful of representatives must still certify).
    pub fn coreset_epsilon_rel(&self) -> f64 {
        [0.002, 0.01, 0.05, 0.2][(self.aux_seed() >> 23) as usize % 4]
    }

    /// How many points the streaming pairs append before re-serving,
    /// derived from [`CaseSpec::aux_seed`] like [`CaseSpec::tile_size`]
    /// (the v1 line format is closed). The ladder spans a single-point
    /// patch, a typical ingest batch, and a delta large enough to rival
    /// the base set — each must still serve bitwise-equal to a cold
    /// rebuild.
    pub fn append_batch(&self) -> usize {
        [1, 16, 1024][(self.aux_seed() >> 35) as usize % 3]
    }

    /// Maps `seed` to an adversarial case; `seed % 3` fixes the kernel so
    /// a contiguous seed range covers all three kernels evenly.
    pub fn generate(seed: u64) -> CaseSpec {
        let mut rng = SplitMix64(seed.wrapping_mul(0x9E6D).wrapping_add(1));
        let kernel = match seed % 3 {
            0 => KernelType::Uniform,
            1 => KernelType::Epanechnikov,
            _ => KernelType::Quartic,
        };

        let (res_x, res_y) = match rng.below(10) {
            0 => (1, 1 + rng.below(31) as usize),
            1 => (1 + rng.below(31) as usize, 1),
            2 => (1, 1),
            _ => (2 + rng.below(28) as usize, 2 + rng.below(28) as usize),
        };

        let span_x = 20.0 + rng.f64() * 180.0;
        let span_y = 20.0 + rng.f64() * 180.0;
        let offset = match rng.below(4) {
            0 => 0.0,
            1 => 5e5,
            2 => -3e6,
            _ => 4e6,
        };
        let region = Rect::new(offset, offset * 0.5, offset + span_x, offset * 0.5 + span_y);

        let span = span_x.max(span_y);
        let bandwidth = match rng.below(4) {
            0 => span * (1e-3 + rng.f64() * 5e-3), // tiny: few pixels covered
            1 => span * (0.03 + rng.f64() * 0.3),  // typical
            2 => span * (0.8 + rng.f64() * 1.2),   // region-sized
            _ => span * 4.0,                       // covers everything
        };

        let n = rng.below(160) as usize;
        let gap_y = span_y / res_y as f64;
        let mut points = Vec::new();
        match rng.below(8) {
            0 => {} // empty input
            1 => {
                points.push(Point::new(
                    region.min_x + rng.f64() * span_x,
                    region.min_y + rng.f64() * span_y,
                ));
            }
            2 => {
                // uniform, spilling one bandwidth beyond the region
                for _ in 0..n {
                    points.push(Point::new(
                        region.min_x - bandwidth + rng.f64() * (span_x + 2.0 * bandwidth),
                        region.min_y - bandwidth + rng.f64() * (span_y + 2.0 * bandwidth),
                    ));
                }
            }
            3 => {
                // 1–3 tight clusters
                let clusters = 1 + rng.below(3);
                for _ in 0..clusters {
                    let cx = region.min_x + rng.f64() * span_x;
                    let cy = region.min_y + rng.f64() * span_y;
                    let sigma = span * 1e-3;
                    for _ in 0..(n / clusters as usize).max(1) {
                        points.push(Point::new(
                            cx + (rng.f64() - 0.5) * sigma,
                            cy + (rng.f64() - 0.5) * sigma,
                        ));
                    }
                }
            }
            4 => {
                // heavy duplicates: few distinct locations, many copies
                let distinct = 1 + rng.below(4) as usize;
                let locs: Vec<Point> = (0..distinct)
                    .map(|_| {
                        Point::new(
                            region.min_x + rng.f64() * span_x,
                            region.min_y + rng.f64() * span_y,
                        )
                    })
                    .collect();
                for i in 0..n.max(distinct) {
                    points.push(locs[i % distinct]);
                }
            }
            5 => {
                // collinear horizontal, sitting exactly on a row of pixel
                // centres when possible
                let j = rng.below(res_y as u64) as f64;
                let y = region.min_y + (j + 0.5) * gap_y;
                for _ in 0..n {
                    points.push(Point::new(region.min_x + rng.f64() * span_x, y));
                }
            }
            6 => {
                // collinear vertical
                let x = region.min_x + rng.f64() * span_x;
                for _ in 0..n {
                    points.push(Point::new(x, region.min_y + rng.f64() * span_y));
                }
            }
            _ => {
                // boundary-aligned: |k − p.y| is exactly the bandwidth for
                // some pixel row k — the envelope's open/closed edge
                for _ in 0..n {
                    let j = rng.below(res_y as u64) as f64;
                    let k = region.min_y + (j + 0.5) * gap_y;
                    let side = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    points
                        .push(Point::new(region.min_x + rng.f64() * span_x, k + side * bandwidth));
                }
            }
        }

        let weight = match rng.below(3) {
            0 => 1.0,
            1 => 0.01,
            _ => 1.0 / points.len().max(1) as f64,
        };

        CaseSpec {
            label: format!("seed-{seed}"),
            kernel,
            res_x,
            res_y,
            region,
            bandwidth,
            weight,
            points,
        }
    }

    /// Serializes the case to one line of the corpus format (losslessly —
    /// every float as its bit pattern).
    pub fn to_line(&self) -> String {
        let mut pts = String::new();
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                pts.push(';');
            }
            pts.push_str(&format!("{:016x}:{:016x}", p.x.to_bits(), p.y.to_bits()));
        }
        if pts.is_empty() {
            pts.push('-');
        }
        format!(
            "v1 {} kernel={} res={}x{} region={:016x},{:016x},{:016x},{:016x} b={:016x} w={:016x} pts={} # {}",
            self.label,
            kernel_name(self.kernel),
            self.res_x,
            self.res_y,
            self.region.min_x.to_bits(),
            self.region.min_y.to_bits(),
            self.region.max_x.to_bits(),
            self.region.max_y.to_bits(),
            self.bandwidth.to_bits(),
            self.weight.to_bits(),
            pts,
            self.describe(),
        )
    }

    /// Parses one corpus line (the inverse of [`CaseSpec::to_line`]).
    pub fn from_line(line: &str) -> std::result::Result<CaseSpec, String> {
        let line = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("v1") {
            return Err("corpus line must start with 'v1'".into());
        }
        let label = tokens.next().ok_or("missing label")?.to_string();
        let mut kernel = None;
        let mut res = None;
        let mut region = None;
        let mut bandwidth = None;
        let mut weight = None;
        let mut points = None;
        for tok in tokens {
            let (key, value) = tok.split_once('=').ok_or_else(|| format!("bad token {tok}"))?;
            match key {
                "kernel" => kernel = Some(parse_kernel(value)?),
                "res" => {
                    let (x, y) = value.split_once('x').ok_or("res must be XxY")?;
                    res = Some((
                        x.parse::<usize>().map_err(|e| e.to_string())?,
                        y.parse::<usize>().map_err(|e| e.to_string())?,
                    ));
                }
                "region" => {
                    let mut it = value.split(',').map(parse_f64_bits);
                    let (a, b, c, d) = (
                        it.next().ok_or("region needs 4 floats")??,
                        it.next().ok_or("region needs 4 floats")??,
                        it.next().ok_or("region needs 4 floats")??,
                        it.next().ok_or("region needs 4 floats")??,
                    );
                    region = Some(Rect::new(a, b, c, d));
                }
                "b" => bandwidth = Some(parse_f64_bits(value)?),
                "w" => weight = Some(parse_f64_bits(value)?),
                "pts" => {
                    let mut v = Vec::new();
                    if value != "-" {
                        for pair in value.split(';') {
                            let (x, y) = pair.split_once(':').ok_or("point must be x:y")?;
                            v.push(Point::new(parse_f64_bits(x)?, parse_f64_bits(y)?));
                        }
                    }
                    points = Some(v);
                }
                other => return Err(format!("unknown key {other}")),
            }
        }
        let (res_x, res_y) = res.ok_or("missing res")?;
        Ok(CaseSpec {
            label,
            kernel: kernel.ok_or("missing kernel")?,
            res_x,
            res_y,
            region: region.ok_or("missing region")?,
            bandwidth: bandwidth.ok_or("missing b")?,
            weight: weight.ok_or("missing w")?,
            points: points.ok_or("missing pts")?,
        })
    }

    /// Short human-readable summary (placed in the corpus line comment).
    pub fn describe(&self) -> String {
        format!(
            "{} {}x{} b={:.6} n={} at ({:.0},{:.0})",
            kernel_name(self.kernel),
            self.res_x,
            self.res_y,
            self.bandwidth,
            self.points.len(),
            self.region.min_x,
            self.region.min_y,
        )
    }
}

fn kernel_name(k: KernelType) -> &'static str {
    match k {
        KernelType::Uniform => "uniform",
        KernelType::Epanechnikov => "epanechnikov",
        KernelType::Quartic => "quartic",
    }
}

fn parse_kernel(s: &str) -> std::result::Result<KernelType, String> {
    match s {
        "uniform" => Ok(KernelType::Uniform),
        "epanechnikov" => Ok(KernelType::Epanechnikov),
        "quartic" => Ok(KernelType::Quartic),
        other => Err(format!("unknown kernel {other}")),
    }
}

fn parse_f64_bits(s: &str) -> std::result::Result<f64, String> {
    u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|e| format!("bad f64 bits {s}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 17, 994] {
            assert_eq!(CaseSpec::generate(seed), CaseSpec::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_cases_are_valid() {
        for seed in 0..300 {
            let case = CaseSpec::generate(seed);
            let params = case.params().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            params.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(case.points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
        }
    }

    #[test]
    fn seed_range_covers_all_shapes() {
        let mut empties = 0;
        let mut degenerate = 0;
        let mut far = 0;
        let mut kernels = [0usize; 3];
        for seed in 0..120 {
            let c = CaseSpec::generate(seed);
            if c.points.is_empty() {
                empties += 1;
            }
            if c.res_x == 1 || c.res_y == 1 {
                degenerate += 1;
            }
            if c.region.min_x.abs() > 1e5 {
                far += 1;
            }
            kernels[match c.kernel {
                KernelType::Uniform => 0,
                KernelType::Epanechnikov => 1,
                KernelType::Quartic => 2,
            }] += 1;
        }
        assert!(empties > 0 && degenerate > 0 && far > 0, "{empties}/{degenerate}/{far}");
        assert!(kernels.iter().all(|&k| k >= 40), "{kernels:?}");
    }

    #[test]
    fn tile_size_dimension_is_covered_and_content_derived() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            let case = CaseSpec::generate(seed);
            let ts = case.tile_size();
            assert!([1, 7, 64, 256].contains(&ts), "seed {seed}: tile size {ts}");
            seen.insert(ts);
            // content-derived: a corpus round trip picks the same size
            let back = CaseSpec::from_line(&case.to_line()).unwrap();
            assert_eq!(back.tile_size(), ts, "seed {seed}");
        }
        assert_eq!(seen.len(), 4, "all ladder rungs exercised: {seen:?}");
    }

    #[test]
    fn coreset_dimension_is_covered_and_content_derived() {
        let mut methods = std::collections::HashSet::new();
        let mut rels = std::collections::HashSet::new();
        for seed in 0..200 {
            let case = CaseSpec::generate(seed);
            methods.insert(case.coreset_method());
            rels.insert(case.coreset_epsilon_rel().to_bits());
            // content-derived: a corpus round trip picks the same point
            // on both dimensions
            let back = CaseSpec::from_line(&case.to_line()).unwrap();
            assert_eq!(back.coreset_method(), case.coreset_method(), "seed {seed}");
            assert_eq!(
                back.coreset_epsilon_rel().to_bits(),
                case.coreset_epsilon_rel().to_bits(),
                "seed {seed}"
            );
        }
        assert_eq!(methods.len(), 3, "all methods exercised: {methods:?}");
        assert_eq!(rels.len(), 4, "all ε rungs exercised");
    }

    #[test]
    fn append_batch_dimension_is_covered_and_content_derived() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            let case = CaseSpec::generate(seed);
            let k = case.append_batch();
            assert!([1, 16, 1024].contains(&k), "seed {seed}: append batch {k}");
            seen.insert(k);
            // content-derived: a corpus round trip picks the same size
            let back = CaseSpec::from_line(&case.to_line()).unwrap();
            assert_eq!(back.append_batch(), k, "seed {seed}");
        }
        assert_eq!(seen.len(), 3, "all ladder rungs exercised: {seen:?}");
    }

    #[test]
    fn line_round_trip_is_lossless() {
        for seed in [3, 50, 77, 200] {
            let case = CaseSpec::generate(seed);
            let line = case.to_line();
            let back = CaseSpec::from_line(&line).unwrap();
            assert_eq!(case, back, "seed {seed}: {line}");
            // f64 equality in PartialEq is not bit equality for -0.0/NaN;
            // double-check the bits that matter
            assert_eq!(case.bandwidth.to_bits(), back.bandwidth.to_bits());
            for (a, b) in case.points.iter().zip(&back.points) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(CaseSpec::from_line("v0 x").is_err());
        assert!(CaseSpec::from_line("v1 l kernel=sinc res=2x2").is_err());
        assert!(CaseSpec::from_line("v1 l kernel=uniform res=2x2 b=zz").is_err());
    }
}
