//! The live feed, measured per layer inside `pan_sessions`' traced run
//! (its end-to-end tail did not hold steady enough across seeds to be a
//! workload of its own): an open loop from one generator thread on a fixed
//! schedule over a `LiveTileServer`. Every tick seals one batch of seeded
//! New York arrivals and expires as many of the oldest points, so the
//! live set is a sliding window; compaction recurs during the run.
//! Viewport requests follow a fixed pan walk at zooms 2–3, plus zoom-0
//! requests answered from the overview coreset. Requests are served by a
//! small worker pool and timed from when they were due.
//!
//! Each request takes one of three paths: a patch by weighted delta fold
//! (the median), a cold recompute with sweep-context and coreset rebuild
//! after a compaction (the tail), or the coreset tier.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kdv_core::digest::grid_checksum;
use kdv_core::{DensityGrid, Point};
use kdv_coreset::{CoresetMethod, CoresetSpec};
use kdv_serve::{
    LiveConfig, LiveTileServer, OverviewConfig, PyramidSpec, ServeConfig, TileTier, Viewport,
};
use kdv_stream::StreamSnapshot;

use crate::layers::{self, CoreLayers};
use crate::report::{Outcome, RunArgs};
use crate::serving;
use crate::stats::{self, ns_to_ms, SplitMix64};
use crate::walk::Walk;

const WORKERS: usize = 2;
/// A batch is sealed (and as many points expired) every tick.
const TICK: Duration = Duration::from_millis(100);
const BATCH: usize = 20;
/// Compaction after this many sealed batches (two per tick).
const COMPACT_EVERY: u64 = 60;
/// One request is due every interval.
const REQUEST_INTERVAL: Duration = Duration::from_millis(50);
/// Client viewport size.
const VIEW: (usize, usize) = (512, 256);
/// Zoom of request `i` is `ZOOMS[i % 5]`: a fixed 20 / 20 / 60 % mix of
/// overview, zoom-2 and zoom-3 requests, so the seed moves only where
/// the walks go, never which path dominates the median.
const ZOOMS: [u8; 5] = [0, 3, 2, 3, 3];
/// Seed of the viewport walks (see `open_loop`).
const WALK_SEED: u64 = 0x11FE;
/// Relative target error of the overview coreset.
const CORESET_REL_EPS: f64 = 0.01;
/// One request in this many keeps what the correctness check needs.
const SAMPLE_EVERY: u64 = 8;
/// Compaction bases the traced run rebuilds contexts and coresets for.
const TRACED_BASES: usize = 3;
/// The traced loop records `kdv-obs` spans for this long only: the patch
/// path emits several spans per row per folded batch, millions a run.
const OBS_WINDOW: Duration = Duration::from_secs(5);
/// Distinct bands the traced run times directly.
const TRACED_BANDS: usize = 8;

struct Setup {
    server: LiveTileServer,
    pyramid: PyramidSpec,
    config: ServeConfig,
    arrivals: Vec<Point>,
}

/// The zoom-0 overview request (the whole level).
fn overview(pyramid: &PyramidSpec) -> Viewport {
    Viewport { zoom: 0, px: 0, py: 0, width: VIEW.0, height: VIEW.1 }
        .clamped(pyramid)
        .expect("zoom 0 exists")
}

fn overview_config(seed: u64) -> OverviewConfig {
    OverviewConfig {
        max_zoom: 0,
        method: CoresetMethod::Grid,
        target_rel_epsilon: CORESET_REL_EPS,
        seed,
    }
}

fn ticks(seconds: f64) -> usize {
    (seconds / TICK.as_secs_f64()).ceil() as usize
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let base = serving::ny_points(seed, 0, serving::BASE_N);
    let arrivals = serving::ny_points(seed, 1, (ticks(seconds) + 1) * BATCH);
    let config = serving::serve_config(&base);
    let pyramid = serving::pyramid();
    let server = LiveTileServer::with_overview_coreset(
        pyramid,
        config,
        LiveConfig { patching: true, compact_every: Some(COMPACT_EVERY) },
        base,
        2 * serving::pyramid_bytes(&pyramid),
        8,
        overview_config(seed),
    )
    .expect("valid live server");
    for vp in serving::warmup_viewports(&pyramid) {
        server.serve_viewport(&vp, 1).expect("warm-up request");
    }
    Setup { server, pyramid, config, arrivals }
}

/// What a sampled request keeps for the correctness check: the state it
/// was served at, and its response (whole for the coreset tier, whose
/// check is a tolerance; a checksum for the bitwise exact tier).
struct Sample {
    snapshot: StreamSnapshot,
    checksum: u64,
    grid: Option<DensityGrid>,
    epsilon: Option<f64>,
}

struct Request {
    vp: Viewport,
    done: Duration,
    wall_ns: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    patched: u64,
    coreset: bool,
    /// Stream generation before serving: the response was served at
    /// this generation or a later one.
    g0: u64,
    ok: bool,
    sample: Option<Sample>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    patched: u64,
    computed: u64,
    joined: u64,
    duplicates: u64,
    patched_bands: u64,
    recomputed_bands: u64,
    folded_batches: u64,
    epoch: u64,
}

impl Counters {
    fn read(server: &LiveTileServer) -> Self {
        let (cache, flight, live) =
            (server.cache_stats(), server.flight_stats(), server.live_stats());
        Self {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            rejected: cache.rejected(),
            patched: cache.patched(),
            computed: flight.computed(),
            joined: flight.joined(),
            duplicates: flight.duplicate_computes(),
            patched_bands: live.patched_bands(),
            recomputed_bands: live.recomputed_bands(),
            folded_batches: live.folded_batches(),
            epoch: server.epoch(),
        }
    }

    fn since(self, b: Counters) -> Counters {
        Counters {
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            evictions: self.evictions - b.evictions,
            rejected: self.rejected - b.rejected,
            patched: self.patched - b.patched,
            computed: self.computed - b.computed,
            joined: self.joined - b.joined,
            duplicates: self.duplicates - b.duplicates,
            patched_bands: self.patched_bands - b.patched_bands,
            recomputed_bands: self.recomputed_bands - b.recomputed_bands,
            folded_batches: self.folded_batches - b.folded_batches,
            epoch: self.epoch - b.epoch,
        }
    }
}

struct LoopResult {
    requests: Vec<Request>,
    /// `(generation, due time of the batch's first arrival)` per sealed
    /// arrival batch.
    batches: Vec<(u64, Duration)>,
    /// How late the generator issued each event.
    lag: Vec<Duration>,
    /// Duration of each `append` / `expire_oldest` call.
    mutate_ns: Vec<u64>,
    /// The epoch base after each compaction (traced runs only).
    bases: Vec<Arc<Vec<Point>>>,
    wall_s: f64,
    delta: Counters,
}

enum Event {
    Tick(usize),
    Request(u64),
}

fn schedule(seconds: f64) -> Vec<(Duration, Event)> {
    let end = Duration::from_secs_f64(seconds);
    let mut events: Vec<(Duration, Event)> = (1..=ticks(seconds))
        .map(|k| (TICK * k as u32, Event::Tick(k)))
        .filter(|(t, _)| *t < end)
        .collect();
    let mut due = REQUEST_INTERVAL / 2;
    let mut id = 0;
    while due < end {
        events.push((due, Event::Request(id)));
        id += 1;
        due += REQUEST_INTERVAL;
    }
    events.sort_by_key(|(t, _)| *t);
    events
}

/// A request handed to a worker: the viewport, and whether to sample it.
type Job = (Viewport, bool);

fn serve_one(server: &LiveTileServer, started: Instant, (vp, sampled): Job) -> Request {
    let g0 = server.generation();
    let snapshot = sampled.then(|| server.snapshot());
    let result = server.serve_viewport_tiered(&vp, 1);
    let done = started.elapsed();
    let g1 = server.generation();
    let mut request = Request {
        vp,
        done,
        wall_ns: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        rejected: 0,
        patched: 0,
        coreset: false,
        g0,
        ok: false,
        sample: None,
    };
    match result {
        Ok((grid, report, tier)) => {
            request.wall_ns = report.wall_nanos;
            request.hits = report.cache_hits;
            request.misses = report.cache_misses;
            request.evictions = report.cache_evictions;
            request.rejected = report.cache_rejected;
            request.patched = report.cache_patched;
            request.coreset = tier.tier == TileTier::Coreset;
            request.ok = true;
            request.sample =
                snapshot.filter(|snap| snap.generation() == g1).map(|snapshot| Sample {
                    snapshot,
                    checksum: grid_checksum(&grid),
                    epsilon: tier.epsilon,
                    grid: request.coreset.then_some(grid),
                });
        }
        Err(e) => eprintln!("live_feed: request {vp:?} failed: {e}"),
    }
    request
}

/// Runs the open loop for `seconds`; `traced` keeps the epoch bases
/// compaction produces and turns the span recorder off after
/// [`OBS_WINDOW`].
fn open_loop(s: &Setup, seed: u64, seconds: f64, traced: bool) -> LoopResult {
    let before = Counters::read(&s.server);
    let events = schedule(seconds);
    // One walk per exact zoom, indexed by zoom - 2. The walks do not
    // follow the workload seed (the data does): which bands a request
    // recomputes after each compaction sets the tail, and a fixed path
    // keeps that tail comparable from seed to seed.
    let mut walks: Vec<Walk> = (2..=3u8)
        .map(|zoom| Walk::new(WALK_SEED + u64::from(zoom), s.pyramid, VIEW, zoom, serving::START))
        .collect();
    let mut pick = SplitMix64::new(stats::derive_seed(seed, 31));
    let overview_vp = overview(&s.pyramid);
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    let mut batches = Vec::new();
    let mut lag = Vec::new();
    let mut mutate_ns = Vec::new();
    let mut bases = Vec::new();
    let started = Instant::now();
    let requests = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let job = rx.lock().expect("job queue").recv();
                        match job {
                            Ok(job) => done.push(serve_one(&s.server, started, job)),
                            Err(_) => return done,
                        }
                    }
                })
            })
            .collect();
        let mut epoch = s.server.epoch();
        for (due, event) in events {
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            lag.push(started.elapsed().saturating_sub(due));
            if traced && due >= OBS_WINDOW {
                kdv_obs::set_enabled(false);
            }
            match event {
                Event::Tick(k) => {
                    let arrivals = &s.arrivals[(k - 1) * BATCH..k * BATCH];
                    let t = Instant::now();
                    let generation = s.server.append(arrivals);
                    mutate_ns.push(t.elapsed().as_nanos() as u64);
                    let t = Instant::now();
                    s.server.expire_oldest(BATCH);
                    mutate_ns.push(t.elapsed().as_nanos() as u64);
                    // arrivals of batch k are due evenly over the tick before it
                    batches.push((generation, TICK * (k as u32 - 1) + TICK / BATCH as u32));
                    let now = s.server.epoch();
                    if traced && now != epoch {
                        bases.push(Arc::clone(&s.server.snapshot().base));
                    }
                    epoch = now;
                }
                Event::Request(id) => {
                    let vp = match ZOOMS[id as usize % ZOOMS.len()] {
                        0 => overview_vp,
                        zoom => walks[usize::from(zoom) - 2].pan(),
                    };
                    let sampled = pick.below(SAMPLE_EVERY) == 0;
                    tx.send((vp, sampled)).expect("workers alive");
                }
            }
        }
        drop(tx);
        workers.into_iter().flat_map(|w| w.join().expect("worker thread")).collect::<Vec<_>>()
    });
    let wall_s = started.elapsed().as_secs_f64();
    LoopResult {
        requests,
        batches,
        lag,
        mutate_ns,
        bases,
        wall_s,
        delta: Counters::read(&s.server).since(before),
    }
}

fn reconcile(r: &LoopResult, out: &mut Outcome) {
    let d = r.delta;
    let sum = |f: fn(&Request) -> u64| r.requests.iter().map(f).sum::<u64>();
    for (name, requests, cache) in [
        ("hits", sum(|q| q.hits), d.hits),
        ("evictions", sum(|q| q.evictions), d.evictions),
        ("rejected", sum(|q| q.rejected), d.rejected),
        ("patched", sum(|q| q.patched), d.patched),
    ] {
        out.check(requests == cache, || {
            format!("cache {name}: requests report {requests}, CacheStats {cache}")
        });
    }
    // The live server reports every tile of a cold band as a miss without
    // looking it up, so the cache's own miss counter sees only the lookups
    // that failed: the identity holds as an inequality.
    let (requests, cache) = (sum(|q| q.misses), d.misses);
    out.check(requests >= cache, || {
        format!("cache misses: requests report {requests} < CacheStats {cache}")
    });
    eprintln!("live_feed: misses reported by requests {requests}, counted by the cache {cache}");
    out.check(d.duplicates == 0, || format!("{} duplicate band computes", d.duplicates));
}

/// Per sealed batch: from its first arrival's due time to the completion
/// of the first response served at a generation that includes it
/// (`g0 ≥` the batch's generation). Batches no response caught up with
/// before the run ended are left out.
fn freshness_ms(r: &LoopResult) -> Vec<f64> {
    r.batches
        .iter()
        .filter_map(|&(generation, first_due)| {
            let done =
                r.requests.iter().filter(|q| q.ok && q.g0 >= generation).map(|q| q.done).min()?;
            Some(done.saturating_sub(first_due).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Checks one response against `kdv_stream::rebuild_grid` of the state
/// it was served at: bitwise for the exact tier, within the advertised
/// ε for the coreset tier.
fn check_against_rebuild(
    s: &Setup,
    vp: &Viewport,
    snapshot: &StreamSnapshot,
    checksum: u64,
    grid: Option<&DensityGrid>,
    epsilon: Option<f64>,
) -> Result<(), String> {
    let params =
        s.pyramid.level_params(vp.zoom, s.config.kernel, s.config.bandwidth, s.config.weight);
    let level = kdv_stream::rebuild_grid(&params, snapshot).map_err(|e| e.to_string())?;
    let expected = serving::crop(&level, vp);
    match (grid, epsilon) {
        (Some(grid), Some(eps)) => {
            let err = grid
                .values()
                .iter()
                .zip(expected.values())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            (err <= eps)
                .then_some(())
                .ok_or(format!("coreset response error {err:e} > advertised {eps:e}"))
        }
        (None, None) => (checksum == grid_checksum(&expected))
            .then_some(())
            .ok_or("exact response differs from the rebuild".to_string()),
        _ => Err("response tier metadata inconsistent".to_string()),
    }
}

/// The untimed correctness pass: one sampled response per zoom (chosen
/// by seed among those served at a known generation) and the settled
/// state after the run, each against a rebuild. Returns the number of
/// wrong responses.
fn check_responses(s: &Setup, r: &LoopResult, seed: u64, out: &mut Outcome) -> u64 {
    let mut wrong = 0;
    let mut pick = SplitMix64::new(stats::derive_seed(seed, 32));
    for zoom in [0u8, 2, 3] {
        let candidates: Vec<&Request> =
            r.requests.iter().filter(|q| q.vp.zoom == zoom && q.sample.is_some()).collect();
        if candidates.is_empty() {
            continue;
        }
        let q = candidates[pick.below(candidates.len() as u64) as usize];
        let sample = q.sample.as_ref().expect("filtered");
        let verdict = check_against_rebuild(
            s,
            &q.vp,
            &sample.snapshot,
            sample.checksum,
            sample.grid.as_ref(),
            sample.epsilon,
        );
        if let Err(e) = verdict {
            wrong += 1;
            out.failures.push(format!("response {:?} at generation {}: {e}", q.vp, q.g0));
        }
    }
    // the settled state: a fresh request for the walk's start and the
    // overview, served after the feed stopped
    let snapshot = s.server.snapshot();
    let start = Walk::new(0, s.pyramid, VIEW, 3, serving::START).viewport();
    for vp in [start, overview(&s.pyramid)] {
        let verdict = s.server.serve_viewport_tiered(&vp, 1).map_err(|e| e.to_string()).and_then(
            |(grid, _, tier)| {
                let coreset = tier.tier == TileTier::Coreset;
                check_against_rebuild(
                    s,
                    &vp,
                    &snapshot,
                    grid_checksum(&grid),
                    coreset.then_some(&grid),
                    tier.epsilon,
                )
            },
        );
        if let Err(e) = verdict {
            out.failures.push(format!("settled response {vp:?}: {e}"));
        }
    }
    let samples = [0u8, 2, 3]
        .iter()
        .filter(|&&z| r.requests.iter().any(|q| q.vp.zoom == z && q.sample.is_some()));
    out.check(samples.count() == 3, || "no sampled response for some zoom".to_string());
    wrong
}

/// The live feed's layers, measured in `pan_sessions`' traced run: one
/// open loop on its own set-up with the in-program `kdv-obs` spans on for
/// its first [`OBS_WINDOW`], the generator timing its own `append` /
/// `expire_oldest` calls, the responses checked against rebuilds, and
/// afterwards `kdv_coreset::build` and `SweepContext::new` rerun on the
/// bases compaction produced plus the distinct exact bands the run
/// needed computed directly (added to `core` and `band_ms`).
pub fn layers(args: &RunArgs, core: &mut CoreLayers, band_ms: &mut Vec<f64>, out: &mut Outcome) {
    let s = setup(args.seed, args.seconds);
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let r = open_loop(&s, args.seed, args.seconds, true);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    eprintln!("live_feed: kdv-obs phases of the traced loop\n{}", kdv_obs::phase_summary(&trace));
    drop(trace);
    eprintln!(
        "live_feed: {} requests in {:.2} s, {} batches, {} compactions, {} patched / {} recomputed bands",
        r.requests.len(),
        r.wall_s,
        r.batches.len(),
        r.delta.epoch,
        r.delta.patched_bands,
        r.delta.recomputed_bands
    );
    reconcile(&r, out);
    let wrong = check_responses(&s, &r, args.seed, out);
    out.ops(r.requests.len() as u64, r.requests.iter().filter(|q| !q.ok).count() as u64 + wrong);

    let mutate_ms: Vec<f64> = r.mutate_ns.iter().map(|&ns| ns_to_ms(ns)).collect();
    out.metric("stream.append_ms_p99", stats::percentile(&mutate_ms, 0.99));
    let d = r.delta;
    out.metric("stream.compactions", d.epoch as f64);
    let ms = |pred: &dyn Fn(&Request) -> bool| -> Vec<f64> {
        r.requests.iter().filter(|q| q.ok && pred(q)).map(|q| ns_to_ms(q.wall_ns)).collect()
    };
    let patch = ms(&|q| !q.coreset && q.patched > 0 && q.misses == 0);
    let recompute = ms(&|q| !q.coreset && q.misses > 0);
    let coreset = ms(&|q| q.coreset);
    out.metric("serve.live.patch_ms_p50", stats::percentile(&patch, 0.5));
    out.metric("serve.live.recompute_ms_p50", stats::percentile(&recompute, 0.5));
    out.metric("serve.live.coreset_ms_p50", stats::percentile(&coreset, 0.5));
    out.metric("serve.live.patched_bands", d.patched_bands as f64);
    out.metric("serve.live.recomputed_bands", d.recomputed_bands as f64);
    out.metric("serve.live.folded_batches", d.folded_batches as f64);
    let lag_ms: Vec<f64> = r.lag.iter().map(|l| l.as_secs_f64() * 1e3).collect();
    out.metric("serve.live.generator_lag_ms_p99", stats::percentile(&lag_ms, 0.99));
    out.metric("serve.live.freshness_p99_ms", stats::percentile(&freshness_ms(&r), 0.99));

    // Compaction's rebuild work, rerun directly on the bases it produced:
    // the overview coreset under the server's own spec, and the exact
    // tier's level contexts.
    let mut live = CoreLayers::default();
    let mut build_ms = Vec::new();
    for base in r.bases.iter().take(TRACED_BASES) {
        let spec = CoresetSpec {
            method: CoresetMethod::Grid,
            target_epsilon: CORESET_REL_EPS
                * kdv_coreset::density_scale(
                    s.config.kernel,
                    s.config.bandwidth,
                    s.config.weight,
                    base.len(),
                ),
            kernel: s.config.kernel,
            bandwidth: s.config.bandwidth,
            weight: s.config.weight,
            seed: args.seed,
            eval_grids: vec![s.pyramid.level_grid(0)],
        };
        let t = Instant::now();
        let built = kdv_coreset::build(&spec, base);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(built.is_ok(), || "coreset build on a compaction base failed".to_string());
        for zoom in 2..=s.pyramid.max_zoom {
            let params =
                s.pyramid.level_params(zoom, s.config.kernel, s.config.bandwidth, s.config.weight);
            layers::context(&params, base, &mut live).expect("valid level context");
        }
    }
    out.check(!build_ms.is_empty(), || "the traced run saw no compaction".to_string());
    out.metric("coreset.build_ms", stats::median(&build_ms));

    let bands: BTreeSet<(u8, usize)> = r
        .requests
        .iter()
        .filter(|q| !q.coreset)
        .flat_map(|q| serving::bands_of(&q.vp))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(TRACED_BANDS)
        .collect();
    let base = s.server.snapshot().base;
    band_ms.extend(serving::time_bands(&s.pyramid, &s.config, &base, &bands, &mut live, out));
    if let Some(problem) = live.reconcile("live_feed core layers") {
        out.failures.push(problem);
    }
    core.add(&live);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_ticks_and_requests_in_due_order() {
        let events = schedule(1.0);
        let ticks = events.iter().filter(|(_, e)| matches!(e, Event::Tick(_))).count();
        let requests = events.len() - ticks;
        assert_eq!(ticks, 9);
        assert_eq!(requests, (1.0 / REQUEST_INTERVAL.as_secs_f64()).round() as usize);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn serving_inputs_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(serving::ny_points(4, 1, 500), serving::ny_points(4, 1, 500));
        assert_ne!(serving::ny_points(4, 1, 500), serving::ny_points(5, 1, 500));
        assert_ne!(serving::ny_points(4, 0, 500), serving::ny_points(4, 1, 500));
    }
}
