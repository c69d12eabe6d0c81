//! The oracle registry: every density-producing engine in the workspace
//! paired with its ground-truth reference.
//!
//! [`run_case`] pushes one [`CaseSpec`] through all pairs and returns one
//! [`PairResult`] per pair. References are computed once per case and
//! shared (the SCAN oracle is `O(XYn)` — by far the most expensive part).
//!
//! Pair inventory (engine → oracle, policy):
//!
//! | pair | oracle | policy |
//! |------|--------|--------|
//! | 4 SLAM variants | SCAN | sweep ULPs |
//! | parallel bucket / parallel RAO sort | sequential twin | bitwise |
//! | weighted sweep | `weighted_scan` | sweep ULPs |
//! | parallel weighted | sequential weighted | bitwise |
//! | RQS_kd / RQS_ball / QUAD | SCAN | tree ULPs `(c/b)⁴` |
//! | Z-order (fraction 1) | SCAN | tree ULPs |
//! | aKDE | SCAN | absolute bound `w·n·ε/2` |
//! | STKDV frames | per-frame `weighted_scan` | sweep ULPs |
//! | parallel STKDV | sequential STKDV | bitwise |
//! | band tiles | monolithic SLAM_BUCKET | bitwise |
//! | instrumented bucket | same sweep, recorder off | bitwise |
//! | coreset grid / coreset sort | SCAN | error bound (advertised ε) |
//! | coreset overview serve | SCAN | error bound (advertised ε) |
//! | coreset deep zoom | monolithic SLAM_BUCKET | bitwise |
//! | streaming append serve | cold rebuild of the snapshot | bitwise |
//! | streaming expire serve | cold rebuild of the snapshot | bitwise |
//! | streaming overview (compacted) | SCAN over the live set | error bound (advertised ε) |
//!
//! Auxiliary inputs a pair needs beyond the case itself (per-point
//! weights, event timestamps) are synthesised from [`CaseSpec::aux_seed`],
//! so a corpus line alone reproduces the full computation.

use kdv_baselines::AnyMethod;
use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::parallel::{
    compute_parallel, compute_parallel_rao, compute_weighted_parallel, ParallelEngine,
};
use kdv_core::tile::{self, BandWorkspace, Tile, Tiling};
use kdv_core::weighted::{compute_weighted, weighted_scan};
use kdv_core::{rao, sweep_bucket, DensityGrid, KdvEngine, Method, Point};
use kdv_coreset::{CoresetMethod, CoresetSpec};
use kdv_data::record::EventRecord;
use kdv_serve::{
    LiveConfig, OverviewConfig, PyramidSpec, ServeConfig, TileServer, TileTier, Viewport,
};
use kdv_stream::rebuild_grid;
use kdv_temporal::{compute_stkdv, compute_stkdv_parallel, FrameSpec, StKdvConfig, TemporalKernel};

use crate::case::{CaseSpec, SplitMix64};
use crate::tolerance::{compare, unit_kernel_peak, Comparison, Policy};

/// Names of every pair in the registry, in execution order.
pub const PAIR_NAMES: [&str; 24] = [
    "SLAM_SORT vs SCAN",
    "SLAM_BUCKET vs SCAN",
    "SLAM_SORT^(RAO) vs SCAN",
    "SLAM_BUCKET^(RAO) vs SCAN",
    "parallel bucket vs sequential",
    "parallel RAO sort vs sequential",
    "weighted sweep vs weighted_scan",
    "parallel weighted vs sequential",
    "RQS_kd vs SCAN",
    "RQS_ball vs SCAN",
    "QUAD vs SCAN",
    "Z-order(f=1) vs SCAN",
    "aKDE bound vs SCAN",
    "STKDV vs weighted_scan",
    "parallel STKDV vs sequential",
    "band tiles vs monolithic",
    "instrumented bucket vs plain",
    "coreset grid vs SCAN (ε-bound)",
    "coreset sort vs SCAN (ε-bound)",
    "coreset overview serve vs SCAN (ε-bound)",
    "coreset deep zoom vs monolithic",
    "streaming append serve vs rebuild",
    "streaming expire serve vs rebuild",
    "streaming overview (compacted) vs SCAN (ε-bound)",
];

/// Outcome of one engine×oracle pair on one case.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Entry of [`PAIR_NAMES`].
    pub pair: &'static str,
    /// Numeric comparison, when both sides produced output.
    pub comparison: Option<Comparison>,
    /// Engine/oracle error text, when a side failed to produce output.
    pub error: Option<String>,
}

impl PairResult {
    /// Whether the pair conformed on this case. An engine error is a
    /// violation: the generator only emits valid configurations, so
    /// `Err(_)` means an engine rejected (or crashed on) input its oracle
    /// accepts.
    pub fn pass(&self) -> bool {
        self.error.is_none() && self.comparison.map(|c| c.pass).unwrap_or(false)
    }
}

fn ok(pair: &'static str, policy: Policy, got: &[f64], reference: &[f64]) -> PairResult {
    PairResult { pair, comparison: Some(compare(policy, got, reference)), error: None }
}

fn fail(pair: &'static str, error: String) -> PairResult {
    PairResult { pair, comparison: None, error: Some(error) }
}

/// Runs every registry pair on `case`.
pub fn run_case(case: &CaseSpec) -> Vec<PairResult> {
    let mut out = Vec::with_capacity(PAIR_NAMES.len());
    let params = match case.params() {
        Ok(p) => p,
        Err(e) => {
            return PAIR_NAMES.iter().map(|pair| fail(pair, format!("invalid case: {e}"))).collect()
        }
    };
    let pts = &case.points;

    // The shared SCAN oracle.
    let scan = match AnyMethod::Scan.compute(&params, pts) {
        Ok(o) => o.grid,
        Err(e) => {
            return PAIR_NAMES.iter().map(|pair| fail(pair, format!("SCAN oracle: {e}"))).collect()
        }
    };

    // --- SLAM variants vs SCAN -------------------------------------------
    // term scale Σ|wᵢ|·K(0) flooring every scaled budget (tolerance
    // policy, fact 3)
    let term = case.weight.abs() * pts.len() as f64 * unit_kernel_peak(case.kernel, case.bandwidth);
    let sweep = Policy::sweep_exact(term);
    for (name, method) in PAIR_NAMES.iter().zip(Method::ALL) {
        match KdvEngine::new(method).compute(&params, pts) {
            Ok(g) => out.push(ok(name, sweep, g.values(), scan.values())),
            Err(e) => out.push(fail(name, e.to_string())),
        }
    }

    // --- parallel drivers vs their sequential twins (bitwise) ------------
    out.push(
        match (
            compute_parallel(&params, pts, ParallelEngine::Bucket, 3),
            sweep_bucket::compute(&params, pts),
        ) {
            (Ok(p), Ok(s)) => ok(PAIR_NAMES[4], Policy::Bitwise, p.values(), s.values()),
            (p, s) => fail(PAIR_NAMES[4], two_errors(p.err(), s.err())),
        },
    );
    out.push(
        match (
            compute_parallel_rao(&params, pts, ParallelEngine::Sort, 2),
            rao::compute_sort(&params, pts),
        ) {
            (Ok(p), Ok(s)) => ok(PAIR_NAMES[5], Policy::Bitwise, p.values(), s.values()),
            (p, s) => fail(PAIR_NAMES[5], two_errors(p.err(), s.err())),
        },
    );

    // --- weighted sweep --------------------------------------------------
    let weights = derive_weights(case);
    let weighted_term = weights.iter().map(|w| w.abs()).sum::<f64>()
        * unit_kernel_peak(case.kernel, case.bandwidth);
    out.push(match compute_weighted(&params, pts, &weights) {
        Ok(g) => {
            let reference = weighted_scan(&params, pts, &weights);
            ok(PAIR_NAMES[6], Policy::sweep_exact(weighted_term), g.values(), reference.values())
        }
        Err(e) => fail(PAIR_NAMES[6], e.to_string()),
    });
    out.push(
        match (
            compute_weighted_parallel(&params, pts, &weights, 3),
            compute_weighted(&params, pts, &weights),
        ) {
            (Ok(p), Ok(s)) => ok(PAIR_NAMES[7], Policy::Bitwise, p.values(), s.values()),
            (p, s) => fail(PAIR_NAMES[7], two_errors(p.err(), s.err())),
        },
    );

    // --- tree baselines vs SCAN ------------------------------------------
    let tree = Policy::tree_exact(case.region_half_diagonal(), case.bandwidth, term);
    for (i, method) in
        [AnyMethod::RqsKd, AnyMethod::RqsBall, AnyMethod::Quad].into_iter().enumerate()
    {
        let name = PAIR_NAMES[8 + i];
        out.push(match method.compute(&params, pts) {
            Ok(o) => ok(name, tree, o.grid.values(), scan.values()),
            Err(e) => fail(name, e.to_string()),
        });
    }
    out.push(match (AnyMethod::ZOrder { sample_fraction: 1.0 }).compute(&params, pts) {
        Ok(o) => ok(PAIR_NAMES[11], tree, o.grid.values(), scan.values()),
        Err(e) => fail(PAIR_NAMES[11], e.to_string()),
    });

    // --- aKDE against its proven absolute bound --------------------------
    let mut aux = SplitMix64(case.aux_seed());
    let epsilon = match aux.below(3) {
        0 => 0.0,
        1 => 1e-6,
        _ => 1e-3,
    };
    out.push(match (AnyMethod::Akde { epsilon }).compute(&params, pts) {
        Ok(o) => {
            let peak = scan.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let policy = Policy::akde_bound(case.weight, pts.len(), epsilon, peak, term);
            ok(PAIR_NAMES[12], policy, o.grid.values(), scan.values())
        }
        Err(e) => fail(PAIR_NAMES[12], e.to_string()),
    });

    // --- STKDV ------------------------------------------------------------
    out.extend(run_stkdv(case, &params, &mut aux));

    // --- band tiles vs the monolithic sweep (bitwise) ----------------------
    // Tile decomposition must be pure memory movement: for every tile
    // size — including single-pixel tiles and tiles smaller than the
    // bandwidth — the path every `TileServer` miss runs (`compute_band`
    // per band, then `assemble`) is the identical float program.
    let tile_size = case.tile_size();
    out.push(match (band_tiles(&params, pts, tile_size), sweep_bucket::compute(&params, pts)) {
        (Ok(t), Ok(m)) => ok(PAIR_NAMES[15], Policy::Bitwise, t.values(), m.values()),
        (t, m) => {
            fail(PAIR_NAMES[15], format!("tile_size={tile_size}: {}", two_errors(t.err(), m.err())))
        }
    });

    // --- instrumented sweep vs plain (bitwise) -----------------------------
    // Observability must be observation-only: the same bucket sweep with
    // the span recorder live cannot change a single output bit. The spans
    // this case records are discarded — only the densities matter here.
    out.push({
        let plain = sweep_bucket::compute(&params, pts);
        let was_enabled = kdv_obs::enabled();
        kdv_obs::set_enabled(true);
        let traced = sweep_bucket::compute(&params, pts);
        kdv_obs::set_enabled(was_enabled);
        kdv_obs::span::clear();
        match (traced, plain) {
            (Ok(t), Ok(p)) => ok(PAIR_NAMES[16], Policy::Bitwise, t.values(), p.values()),
            (t, p) => fail(PAIR_NAMES[16], two_errors(t.err(), p.err())),
        }
    });

    // --- coreset overview tier vs its certified advertisement --------------
    out.extend(run_coreset(case, &params, &scan));

    // --- streaming ingestion vs rebuild-from-scratch -----------------------
    out.extend(run_streaming(case, &params));

    debug_assert_eq!(out.len(), PAIR_NAMES.len());
    out
}

/// The four approximate-overview pairs. The first two build a coreset
/// directly (grid and sort constructions, the case grid as the sole
/// registered evaluation grid) and hold the weighted sweep over it to the
/// *achieved* ε the builder certified — [`Policy::ErrorBound`] is the one
/// policy whose budget is produced by the system under test, so these
/// pairs are really checking that the certificate itself is honest
/// against an independent oracle (SCAN, not the bucket sweep the builder
/// measured with; the builder's `2⁻²⁴·scale` float slack is what absorbs
/// that engine swap). The last two stand up a two-level tile server whose
/// zoom 0 is coreset-served (method and ε target drawn from the case's
/// generator dimension) and whose zoom 1 is exact: the served overview
/// must respect the advertised ε end to end through tiling and caching,
/// and the deep zoom must remain bitwise-equal to the monolithic sweep —
/// the approximation must never bleed across the tier boundary.
fn run_coreset(
    case: &CaseSpec,
    params: &KdvParams,
    scan: &kdv_core::DensityGrid,
) -> Vec<PairResult> {
    let mut out = Vec::with_capacity(4);
    let rel = case.coreset_epsilon_rel();
    let scale =
        kdv_coreset::density_scale(case.kernel, case.bandwidth, case.weight, case.points.len());

    for (idx, method) in [(17usize, CoresetMethod::Grid), (18, CoresetMethod::Sort)] {
        let spec = CoresetSpec {
            method,
            target_epsilon: rel * scale,
            kernel: case.kernel,
            bandwidth: case.bandwidth,
            weight: case.weight,
            seed: case.aux_seed(),
            eval_grids: vec![params.grid],
        };
        out.push(match kdv_coreset::build(&spec, &case.points) {
            Ok(cs) => match compute_weighted(params, &cs.points, &cs.weights) {
                Ok(g) => ok(
                    PAIR_NAMES[idx],
                    Policy::ErrorBound { epsilon: cs.epsilon },
                    g.values(),
                    scan.values(),
                ),
                Err(e) => fail(PAIR_NAMES[idx], e.to_string()),
            },
            Err(e) => fail(PAIR_NAMES[idx], e.to_string()),
        });
    }

    // two-level server over the case raster: zoom 0 (the case grid) is
    // the coreset tier, zoom 1 the exact tier
    let method = match case.coreset_method().parse::<CoresetMethod>() {
        Ok(m) => m,
        Err(e) => {
            out.push(fail(PAIR_NAMES[19], e.to_string()));
            out.push(fail(PAIR_NAMES[20], e.to_string()));
            return out;
        }
    };
    let server = PyramidSpec::new(case.region, case.tile_size(), case.res_x, case.res_y, 1)
        .and_then(|pyramid| {
            TileServer::with_overview_coreset(
                pyramid,
                ServeConfig {
                    dataset: case.aux_seed(),
                    kernel: case.kernel,
                    bandwidth: case.bandwidth,
                    weight: case.weight,
                },
                LiveConfig::default(),
                case.points.clone(),
                1 << 20,
                2,
                OverviewConfig {
                    max_zoom: 0,
                    method,
                    target_rel_epsilon: rel,
                    seed: case.aux_seed(),
                },
            )
        });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            out.push(fail(PAIR_NAMES[19], format!("server: {e}")));
            out.push(fail(PAIR_NAMES[20], format!("server: {e}")));
            return out;
        }
    };

    let vp0 = Viewport { zoom: 0, px: 0, py: 0, width: case.res_x, height: case.res_y };
    out.push(match server.serve_viewport_tiered(&vp0, 2) {
        Ok((g, _, info)) if info.tier == TileTier::Coreset => ok(
            PAIR_NAMES[19],
            Policy::ErrorBound { epsilon: info.epsilon.unwrap_or(0.0) },
            g.values(),
            scan.values(),
        ),
        Ok((_, _, info)) => fail(PAIR_NAMES[19], format!("zoom 0 reported tier {:?}", info.tier)),
        Err(e) => fail(PAIR_NAMES[19], e.to_string()),
    });

    let vp1 = Viewport { zoom: 1, px: 0, py: 0, width: 2 * case.res_x, height: 2 * case.res_y };
    let deep = server.pyramid().level_params(1, case.kernel, case.bandwidth, case.weight);
    out.push(
        match (server.serve_viewport_tiered(&vp1, 2), sweep_bucket::compute(&deep, &case.points)) {
            (Ok((g, _, info)), Ok(mono)) if info.tier == TileTier::Exact => {
                ok(PAIR_NAMES[20], Policy::Bitwise, g.values(), mono.values())
            }
            (Ok((_, _, info)), Ok(_)) => {
                fail(PAIR_NAMES[20], format!("zoom 1 reported tier {:?}", info.tier))
            }
            (g, m) => fail(PAIR_NAMES[20], two_errors(g.err(), m.err())),
        },
    );
    out
}

/// The three streaming pairs: a live tile server ingests a case-derived
/// batch ladder (k ∈ {1, 16, 1024} appends, then an expiration wave) and
/// every post-mutation serve must be **bitwise-equal** to a cold
/// rebuild-from-scratch of the same snapshot — at every pyramid zoom,
/// through the cache's patch path (the server is warmed before each
/// mutation, so patching is what's actually on trial, not a disguised
/// recompute). The third pair compacts a coreset-backed overview mid
/// stream: the served zoom 0 must respect the advertised ε against an
/// independent SCAN of the then-live point set.
fn run_streaming(case: &CaseSpec, params: &KdvParams) -> Vec<PairResult> {
    let k = case.append_batch();
    let mut rng = SplitMix64(case.aux_seed() ^ 0x57AE);
    let appended: Vec<kdv_core::Point> = (0..k)
        .map(|_| {
            kdv_core::Point::new(
                case.region.min_x + rng.f64() * (case.region.max_x - case.region.min_x),
                case.region.min_y + rng.f64() * (case.region.max_y - case.region.min_y),
            )
        })
        .collect();
    let streaming_pairs = &PAIR_NAMES[21..24];

    let pyramid = match PyramidSpec::new(case.region, case.tile_size(), case.res_x, case.res_y, 1) {
        Ok(p) => p,
        Err(e) => {
            return streaming_pairs.iter().map(|pair| fail(pair, format!("pyramid: {e}"))).collect()
        }
    };
    let serve_config = ServeConfig {
        dataset: case.aux_seed(),
        kernel: case.kernel,
        bandwidth: case.bandwidth,
        weight: case.weight,
    };
    let server = TileServer::with_live(
        pyramid,
        serve_config,
        LiveConfig::default(),
        case.points.clone(),
        1 << 20,
        2,
    );
    let viewports = [
        Viewport { zoom: 0, px: 0, py: 0, width: case.res_x, height: case.res_y },
        Viewport { zoom: 1, px: 0, py: 0, width: 2 * case.res_x, height: 2 * case.res_y },
    ];

    // Serves every zoom of the live server and the cold rebuild of the
    // same snapshot, concatenated for one bitwise comparison.
    let serve_all_zooms = |pair: &'static str| -> PairResult {
        let snapshot = server.snapshot();
        let mut got = Vec::new();
        let mut reference = Vec::new();
        for vp in &viewports {
            let level = pyramid.level_params(vp.zoom, case.kernel, case.bandwidth, case.weight);
            match (server.serve_viewport(vp, 2), rebuild_grid(&level, &snapshot)) {
                (Ok((g, _)), Ok(r)) => {
                    got.extend_from_slice(g.values());
                    reference.extend_from_slice(r.values());
                }
                (g, r) => {
                    return fail(
                        pair,
                        format!("zoom {}: {}", vp.zoom, two_errors(g.err(), r.err())),
                    )
                }
            }
        }
        ok(pair, Policy::Bitwise, &got, &reference)
    };

    let mut out = Vec::with_capacity(3);
    // warm every band at generation 0, then append (two batches when the
    // ladder allows, so the patch folds a multi-batch suffix)
    let warm: Vec<_> = viewports.iter().map(|vp| server.serve_viewport(vp, 2)).collect();
    if let Some(Err(e)) = warm.into_iter().find(|r| r.is_err()) {
        return streaming_pairs.iter().map(|pair| fail(pair, format!("warm serve: {e}"))).collect();
    }
    if k > 1 {
        server.append(&appended[..k / 2]);
        server.append(&appended[k / 2..]);
    } else {
        server.append(&appended);
    }
    out.push(serve_all_zooms(PAIR_NAMES[21]));

    // expire a third of the live set (at least one point) and re-serve
    let expire = (server.live_len() / 3).max(1);
    server.expire_oldest(expire);
    out.push(serve_all_zooms(PAIR_NAMES[22]));

    // the compacted-overview pair: coreset zoom 0, exact zoom 1
    out.push(run_streaming_overview(case, params, &pyramid, serve_config, &appended));
    out
}

/// The compacted-overview pair: ingest the append ladder into a
/// coreset-backed live server, compact (epoch rebase + coreset rebuild
/// from the then-live set), and hold the served zoom 0 to its advertised
/// ε against an independent SCAN of the live points.
fn run_streaming_overview(
    case: &CaseSpec,
    params: &KdvParams,
    pyramid: &PyramidSpec,
    serve_config: ServeConfig,
    appended: &[kdv_core::Point],
) -> PairResult {
    let pair = PAIR_NAMES[23];
    let method = match case.coreset_method().parse::<CoresetMethod>() {
        Ok(m) => m,
        Err(e) => return fail(pair, e.to_string()),
    };
    let server = match TileServer::with_overview_coreset(
        *pyramid,
        serve_config,
        LiveConfig::default(),
        case.points.clone(),
        1 << 20,
        2,
        OverviewConfig {
            max_zoom: 0,
            method,
            target_rel_epsilon: case.coreset_epsilon_rel(),
            seed: case.aux_seed(),
        },
    ) {
        Ok(s) => s,
        Err(e) => return fail(pair, format!("server: {e}")),
    };
    server.append(appended);
    server.compact();
    let live = server.live_points();
    let vp0 = Viewport { zoom: 0, px: 0, py: 0, width: case.res_x, height: case.res_y };
    match server.serve_viewport_tiered(&vp0, 2) {
        Ok((g, _, info)) if info.tier == TileTier::Coreset => {
            match AnyMethod::Scan.compute(params, &live) {
                Ok(oracle) => ok(
                    pair,
                    Policy::ErrorBound { epsilon: info.epsilon.unwrap_or(0.0) },
                    g.values(),
                    oracle.grid.values(),
                ),
                Err(e) => fail(pair, format!("live SCAN oracle: {e}")),
            }
        }
        Ok((_, _, info)) => fail(pair, format!("zoom 0 reported tier {:?}", info.tier)),
        Err(e) => fail(pair, e.to_string()),
    }
}

/// The raster through the path a `TileServer` miss runs:
/// [`tile::compute_band`] for each band, then [`tile::assemble`] over the
/// whole raster.
fn band_tiles(
    params: &KdvParams,
    pts: &[Point],
    tile_size: usize,
) -> kdv_core::Result<DensityGrid> {
    let tiling = Tiling::new(params.grid.res_x, params.grid.res_y, tile_size)?;
    let ctx = SweepContext::new(params, pts)?;
    let BandWorkspace { mut engine, mut envelope, mut band, .. } = BandWorkspace::new(params);
    let tiles: Vec<Tile> = (0..tiling.tiles_y())
        .flat_map(|ty| {
            let b = params.bandwidth;
            tile::compute_band(&ctx, &tiling, b, ty, &mut engine, &mut envelope, &mut band)
        })
        .collect();
    let (res_x, res_y) = (tiling.res_x, tiling.res_y);
    Ok(tile::assemble(&tiling, 0, 0, res_x, res_y, |tx, ty| &tiles[ty * tiling.tiles_x() + tx]))
}

fn two_errors(a: Option<kdv_core::KdvError>, b: Option<kdv_core::KdvError>) -> String {
    match (a, b) {
        (Some(a), Some(b)) => format!("engine: {a}; oracle: {b}"),
        (Some(a), None) => format!("engine: {a}"),
        (None, Some(b)) => format!("oracle: {b}"),
        (None, None) => unreachable!("two_errors called with two successes"),
    }
}

/// Per-point weights in `[-1, 4)` — negative weights are legal (period
/// differencing) and must round-trip through the sweep.
fn derive_weights(case: &CaseSpec) -> Vec<f64> {
    let mut rng = SplitMix64(case.aux_seed() ^ 0x77ED);
    case.points.iter().map(|_| rng.f64() * 5.0 - 1.0).collect()
}

fn run_stkdv(case: &CaseSpec, params: &KdvParams, aux: &mut SplitMix64) -> Vec<PairResult> {
    let temporal_kernel = match aux.below(3) {
        0 => TemporalKernel::Uniform,
        1 => TemporalKernel::Triangular,
        _ => TemporalKernel::Epanechnikov,
    };
    let records: Vec<EventRecord> = case
        .points
        .iter()
        .map(|&point| EventRecord { point, timestamp: aux.below(1_000) as i64, category: 0 })
        .collect();
    let config = StKdvConfig {
        params: *params,
        frames: FrameSpec::new(0, 400, 3),
        temporal_bandwidth: 350,
        temporal_kernel,
    };

    let sequential = compute_stkdv(&config, &records);
    let scan_pair = match &sequential {
        Ok(frames) => {
            // oracle: per frame, weight every record by the temporal
            // kernel and evaluate by direct summation
            let mut got = Vec::new();
            let mut reference = Vec::new();
            let mut term = 0.0_f64;
            for frame in frames {
                let mut pts = Vec::new();
                let mut ws = Vec::new();
                for r in &records {
                    let u =
                        (r.timestamp - frame.time).abs() as f64 / config.temporal_bandwidth as f64;
                    let w = config.temporal_kernel.eval(u);
                    if w > 0.0 {
                        pts.push(r.point);
                        ws.push(w);
                    }
                }
                // worst per-frame term scale Σ|w_eff|·K(0)
                term = term
                    .max(ws.iter().sum::<f64>() * unit_kernel_peak(case.kernel, case.bandwidth));
                let direct = weighted_scan(params, &pts, &ws);
                got.extend_from_slice(frame.grid.values());
                reference.extend_from_slice(direct.values());
            }
            ok(PAIR_NAMES[13], Policy::sweep_exact(term), &got, &reference)
        }
        Err(e) => fail(PAIR_NAMES[13], e.to_string()),
    };

    let parallel_pair = match (&sequential, compute_stkdv_parallel(&config, &records, 3)) {
        (Ok(seq), Ok(par)) => {
            let got: Vec<f64> = par.iter().flat_map(|f| f.grid.values().iter().copied()).collect();
            let reference: Vec<f64> =
                seq.iter().flat_map(|f| f.grid.values().iter().copied()).collect();
            ok(PAIR_NAMES[14], Policy::Bitwise, &got, &reference)
        }
        (Err(e), _) => fail(PAIR_NAMES[14], format!("sequential: {e}")),
        (_, Err(e)) => fail(PAIR_NAMES[14], format!("parallel: {e}")),
    };
    vec![scan_pair, parallel_pair]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_reports_on_a_plain_case() {
        let case = CaseSpec::generate(4); // ordinary uniform cloud
        let results = run_case(&case);
        assert_eq!(results.len(), PAIR_NAMES.len());
        for r in &results {
            assert!(r.pass(), "{}: {:?} {:?}", r.pair, r.comparison, r.error);
        }
    }

    #[test]
    fn empty_input_conforms_everywhere() {
        let mut case = CaseSpec::generate(5);
        case.points.clear();
        for r in run_case(&case) {
            assert!(r.pass(), "{}: {:?} {:?}", r.pair, r.comparison, r.error);
        }
    }

    #[test]
    fn run_case_is_deterministic() {
        let case = CaseSpec::generate(11);
        let a = run_case(&case);
        let b = run_case(&case);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.pass(), y.pass());
            if let (Some(cx), Some(cy)) = (x.comparison, y.comparison) {
                assert_eq!(cx.max_abs_err.to_bits(), cy.max_abs_err.to_bits(), "{}", x.pair);
            }
        }
    }
}
