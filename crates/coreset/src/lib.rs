//! # kdv-coreset — ε-coresets for KDV overview tiles
//!
//! An ε-coreset is a small weighted point set `Q` whose kernel density is
//! within `ε` of the full set's density: `sup_q |F_Q(q) − F_P(q)| ≤ ε`.
//! Coresets for KDE (Zheng et al.; Phillips & Tai) let a server answer
//! low-zoom overview tiles — where every tile aggregates the whole dataset —
//! from `O(√n)`-ish points instead of `n`, while deep zooms stay exact.
//!
//! ## Certification model
//!
//! The advertised `ε` is *measured, not analytic*: the builder evaluates the
//! coreset density and the exact density on every **registered evaluation
//! grid** (exactly the pixel grids the serving tier will answer on — one per
//! coreset-served pyramid level) and takes the sup of the absolute error,
//! then adds a float-noise slack of [`CERT_SLACK_REL`]` · scale`, where
//! `scale = |w|·n·K(0)` is the largest density any point set of this size
//! can produce. The slack covers the reassociation noise between the
//! different exact evaluators in the tree (bucket sweep, sort sweep, RAO
//! transpose, direct scan), whose mutual disagreement is bounded well below
//! `2⁻²⁴` relative by the conformance suite, so a downstream check of
//! coreset-vs-*any* exact engine on a registered grid stays within the
//! advertised bound. This measured contract is exact for all pixel centres
//! the server evaluates, works for every kernel including the discontinuous
//! Uniform kernel, and is deterministic: a fixed seed reproduces the same
//! coreset and the same certificate bit for bit.
//!
//! ## Sizing
//!
//! Each construction method exposes a coarse→fine ladder (grid cells per
//! axis doubling, sort-run length halving, sample size doubling) ending in
//! the identity coreset (the full set, unit multiplicities). The builder
//! walks the ladder from the coarsest rung and stops at the **first** rung
//! whose certified error is within the target; because the feasible set can
//! only grow as the target loosens and rung sizes are monotone along the
//! ladder, the returned coreset size is monotone non-increasing in the
//! target ε. If no rung meets the target (targets below the float-noise
//! slack are infeasible by construction) the identity rung is returned and
//! the *achieved* ε — which is what [`Coreset::epsilon`] always reports —
//! exceeds the request.

use std::collections::BTreeMap;
use std::str::FromStr;

use kdv_core::driver::KdvParams;
use kdv_core::geom::Point;
use kdv_core::grid::GridSpec;
use kdv_core::weighted::compute_weighted;
use kdv_core::{KdvError, KernelType, Result};

/// Relative float-noise slack (`2⁻²⁴`) folded into the certificate, in
/// units of the density scale `|w|·n·K(0)`. Roughly 30× the measured
/// cross-engine reassociation noise of the exact sweeps, so coreset output
/// may be compared against any exact engine, not just the builder's.
pub const CERT_SLACK_REL: f64 = 1.0 / 16_777_216.0;

/// Coreset construction method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoresetMethod {
    /// Nested dyadic grid over the point MBR; one weighted centroid per
    /// occupied cell. The grid/discrepancy construction of Zheng et al.
    Grid,
    /// Z-order (Morton) sort; consecutive runs of power-of-two length
    /// collapse to their weighted centroid. The sort-based construction.
    Sort,
    /// Seeded uniform sample of `m` points, each weighted `n/m`. The
    /// random-sampling baseline the discrepancy constructions improve on.
    Sample,
}

impl CoresetMethod {
    /// Stable lowercase name, e.g. for CLI flags and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CoresetMethod::Grid => "grid",
            CoresetMethod::Sort => "sort",
            CoresetMethod::Sample => "sample",
        }
    }
}

impl std::fmt::Display for CoresetMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CoresetMethod {
    type Err = KdvError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "grid" => Ok(CoresetMethod::Grid),
            "sort" => Ok(CoresetMethod::Sort),
            "sample" => Ok(CoresetMethod::Sample),
            _ => Err(KdvError::Internal("unknown coreset method (grid|sort|sample)")),
        }
    }
}

/// Everything the builder needs: the KDE the coreset must approximate and
/// the grids the certificate must hold on.
#[derive(Debug, Clone)]
pub struct CoresetSpec {
    /// Construction method.
    pub method: CoresetMethod,
    /// Target absolute sup-error, in density units. The builder stops at
    /// the coarsest ladder rung meeting it; see [`Coreset::epsilon`] for
    /// what was actually achieved.
    pub target_epsilon: f64,
    /// Kernel of the KDE being approximated.
    pub kernel: KernelType,
    /// Bandwidth of the KDE being approximated.
    pub bandwidth: f64,
    /// Global per-point weight `w` of the KDE being approximated.
    pub weight: f64,
    /// Seed for the `Sample` method (ignored, but still part of the
    /// certificate identity, for `Grid`/`Sort`).
    pub seed: u64,
    /// Evaluation grids the certificate is measured on — exactly the
    /// pyramid-level grids the serving tier will answer from the coreset.
    pub eval_grids: Vec<GridSpec>,
}

/// A built coreset with its certified error bound.
#[derive(Debug, Clone)]
pub struct Coreset {
    /// Representative points (weighted centroids or sampled originals).
    pub points: Vec<Point>,
    /// Multiplicity of each representative; `Σ weights[i] == n` up to
    /// rounding, so the same global weight `w` applies unchanged.
    pub weights: Vec<f64>,
    /// Certified sup-error bound on the registered evaluation grids:
    /// measured sup-error plus the [`CERT_SLACK_REL`] float slack. This is
    /// the *achieved* bound — it may exceed an infeasibly small target.
    pub epsilon: f64,
    /// Raw measured sup-error (before slack), for diagnostics.
    pub measured_sup_error: f64,
    /// Number of points in the source set.
    pub source_len: usize,
}

impl Coreset {
    /// Number of representatives.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the source set was empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The density scale `|w|·n·K(0)`: an upper bound on any pixel's density,
/// used to convert relative tolerances (CLI `--coreset-eps`, conformance
/// generator targets) into the absolute units of [`CoresetSpec`].
pub fn density_scale(kernel: KernelType, bandwidth: f64, weight: f64, n: usize) -> f64 {
    let origin = Point::new(0.0, 0.0);
    weight.abs() * n as f64 * kernel.eval(&origin, &origin, bandwidth)
}

/// One weighted-centroid accumulator (plain sums; the summation order is
/// deterministic, so so is the centroid).
#[derive(Debug, Clone, Copy, Default)]
struct CellAcc {
    sum_x: f64,
    sum_y: f64,
    count: u64,
}

impl CellAcc {
    fn push(&mut self, p: &Point) {
        self.sum_x += p.x;
        self.sum_y += p.y;
        self.count += 1;
    }

    fn centroid(&self) -> Point {
        let c = self.count as f64;
        Point::new(self.sum_x / c, self.sum_y / c)
    }
}

fn mbr(points: &[Point]) -> (Point, Point) {
    let mut min = Point::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        min.x = min.x.min(p.x);
        min.y = min.y.min(p.y);
        max.x = max.x.max(p.x);
        max.y = max.y.max(p.y);
    }
    (min, max)
}

/// Cell index of `x` on a `g`-cell axis over `[min, min+extent]`, clamped
/// so `x == min+extent` lands in the last cell. Dyadic refinement is
/// nested: the cell at `2g` is always a child of the cell at `g`, so the
/// occupied-cell count is monotone non-decreasing in `g`.
fn axis_cell(x: f64, min: f64, extent: f64, g: u32) -> u32 {
    if extent <= 0.0 {
        return 0;
    }
    let t = ((x - min) / extent * g as f64) as u32;
    t.min(g - 1)
}

/// Grid construction: weighted centroid of every occupied cell of a `g×g`
/// dyadic grid over the MBR. BTreeMap keeps the output order deterministic.
fn grid_coreset(points: &[Point], g: u32) -> (Vec<Point>, Vec<f64>) {
    let (min, max) = mbr(points);
    let (ext_x, ext_y) = (max.x - min.x, max.y - min.y);
    let mut cells: BTreeMap<(u32, u32), CellAcc> = BTreeMap::new();
    for p in points {
        let cx = axis_cell(p.x, min.x, ext_x, g);
        let cy = axis_cell(p.y, min.y, ext_y, g);
        cells.entry((cy, cx)).or_default().push(p);
    }
    cells.values().map(|acc| (acc.centroid(), acc.count as f64)).unzip()
}

/// 16-bit axis quantisation + bit interleave → 32-bit Morton key.
fn morton_key(p: &Point, min: &Point, ext_x: f64, ext_y: f64) -> u32 {
    let q = |x: f64, min: f64, ext: f64| -> u32 {
        if ext <= 0.0 {
            return 0;
        }
        (((x - min) / ext * 65_536.0) as u32).min(65_535)
    };
    let spread = |mut v: u32| -> u32 {
        v &= 0xffff;
        v = (v | (v << 8)) & 0x00ff_00ff;
        v = (v | (v << 4)) & 0x0f0f_0f0f;
        v = (v | (v << 2)) & 0x3333_3333;
        v = (v | (v << 1)) & 0x5555_5555;
        v
    };
    spread(q(p.x, min.x, ext_x)) | (spread(q(p.y, min.y, ext_y)) << 1)
}

/// Sort construction: z-order the points, then collapse consecutive runs
/// of length `s` to their weighted centroid.
fn sort_coreset(points: &[Point], run: usize) -> (Vec<Point>, Vec<f64>) {
    let (min, max) = mbr(points);
    let (ext_x, ext_y) = (max.x - min.x, max.y - min.y);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (&points[a], &points[b]);
        morton_key(pa, &min, ext_x, ext_y)
            .cmp(&morton_key(pb, &min, ext_x, ext_y))
            .then(pa.x.total_cmp(&pb.x))
            .then(pa.y.total_cmp(&pb.y))
            .then(a.cmp(&b))
    });
    let mut reps = Vec::with_capacity(points.len().div_ceil(run));
    let mut weights = Vec::with_capacity(reps.capacity());
    for chunk in order.chunks(run) {
        let mut acc = CellAcc::default();
        for &i in chunk {
            acc.push(&points[i]);
        }
        reps.push(acc.centroid());
        weights.push(acc.count as f64);
    }
    (reps, weights)
}

/// SplitMix64 — the same tiny deterministic generator the conformance
/// corpus uses for auxiliary inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Sample construction: the first `m` entries of a seeded Fisher–Yates
/// shuffle, each weighted `n/m`. Re-seeded per rung so a rung's output is
/// independent of how many rungs were tried before it.
fn sample_coreset(points: &[Point], m: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
    let n = points.len();
    let mut rng = SplitMix64(seed ^ 0x5eed_c0de_u64.rotate_left(m.trailing_zeros()));
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..m.min(n) {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx[..m.min(n)].to_vec();
    chosen.sort_unstable();
    let w = n as f64 / m as f64;
    (chosen.iter().map(|&i| points[i]).collect(), vec![w; m.min(n)])
}

/// The coarse→fine size ladder for a method: rung parameter values in the
/// order the builder tries them. `usize::MAX` marks the identity rung.
fn ladder(method: CoresetMethod, n: usize) -> Vec<usize> {
    let mut rungs = Vec::new();
    match method {
        CoresetMethod::Grid => {
            let mut g = 1usize;
            while g <= 8_192 {
                rungs.push(g);
                g *= 2;
            }
        }
        CoresetMethod::Sort => {
            let mut s = n.next_power_of_two().max(2);
            while s >= 2 {
                rungs.push(s);
                s /= 2;
            }
        }
        CoresetMethod::Sample => {
            let mut m = 1usize;
            while m < n {
                rungs.push(m);
                m *= 2;
            }
        }
    }
    rungs.push(usize::MAX);
    rungs
}

fn construct(
    method: CoresetMethod,
    points: &[Point],
    rung: usize,
    seed: u64,
) -> (Vec<Point>, Vec<f64>) {
    if rung == usize::MAX {
        return (points.to_vec(), vec![1.0; points.len()]);
    }
    match method {
        CoresetMethod::Grid => grid_coreset(points, rung as u32),
        CoresetMethod::Sort => sort_coreset(points, rung),
        CoresetMethod::Sample => sample_coreset(points, rung, seed),
    }
}

/// Builds an ε-coreset for `points` under `spec`, certifying the achieved
/// sup-error bound on the registered evaluation grids. See the crate docs
/// for the certification model and the monotone sizing guarantee.
pub fn build(spec: &CoresetSpec, points: &[Point]) -> Result<Coreset> {
    if spec.eval_grids.is_empty() {
        return Err(KdvError::Internal("coreset spec needs at least one evaluation grid"));
    }
    if !spec.target_epsilon.is_finite() || spec.target_epsilon < 0.0 {
        return Err(KdvError::Internal("coreset target epsilon must be finite and non-negative"));
    }
    let mut span = kdv_obs::span1("coreset.build", "n", points.len() as u64);
    kdv_obs::metrics::global().counter("coreset.build").bump();

    let slack =
        density_scale(spec.kernel, spec.bandwidth, spec.weight, points.len()) * CERT_SLACK_REL;
    if points.is_empty() {
        return Ok(Coreset {
            points: Vec::new(),
            weights: Vec::new(),
            epsilon: 0.0,
            measured_sup_error: 0.0,
            source_len: 0,
        });
    }

    // Exact references, once per registered grid — the expensive part,
    // amortised across every ladder rung.
    let mut references = Vec::with_capacity(spec.eval_grids.len());
    for grid in &spec.eval_grids {
        let params = KdvParams::new(*grid, spec.kernel, spec.bandwidth).with_weight(spec.weight);
        let exact = kdv_core::sweep_bucket::compute(&params, points)?;
        references.push((params, exact));
    }

    let mut best: Option<(Vec<Point>, Vec<f64>, f64)> = None;
    let mut last_size = usize::MAX;
    for rung in ladder(spec.method, points.len()) {
        let (reps, weights) = construct(spec.method, points, rung, spec.seed);
        // Nested dyadic refinement with an unchanged occupied-cell count
        // reproduces the identical coreset — skip the re-evaluation.
        if reps.len() == last_size && spec.method == CoresetMethod::Grid {
            continue;
        }
        last_size = reps.len();
        let mut measured = 0.0f64;
        for (params, reference) in &references {
            let approx = compute_weighted(params, &reps, &weights, 1)?;
            for (a, r) in approx.values().iter().zip(reference.values()) {
                measured = measured.max((a - r).abs());
            }
        }
        let achieved = measured + slack;
        best = Some((reps, weights, measured));
        if achieved <= spec.target_epsilon {
            break;
        }
    }
    let (reps, weights, measured) = best.expect("ladder always yields at least the identity rung");
    span.arg("size", reps.len() as u64);
    Ok(Coreset {
        points: reps,
        weights,
        epsilon: measured + slack,
        measured_sup_error: measured,
        source_len: points.len(),
    })
}
