//! `pan_sessions`: a closed loop of one client session with zero think
//! time, walking 1024×768 viewports (quarter-viewport pans, a zoom in and
//! out on a fixed cycle) through a `Frontend` over a static `TileServer`.
//! The cache holds about a third of the pyramid, so the walk's working set
//! does not fit: hits set the median, cold band sweeps and evictions the
//! tail. One session, so a ~1 ms hit never waits for a core behind another
//! session's band sweep: on a shared two-vCPU host that wait, not the
//! server, would set the median. The streaming patch path is never
//! touched.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use kdv_core::digest::grid_checksum;
use kdv_core::{DensityGrid, Point};
use kdv_serve::{Frontend, FrontendConfig, PyramidSpec, ServeConfig, TileServer, Viewport};

use crate::layers::CoreLayers;
use crate::report::{Outcome, RunArgs};
use crate::serving::{self, same_bits};
use crate::stats::{self, ns_to_ms, SplitMix64};
use crate::walk::Walk;

const WORKERS: usize = 1;
const SETUP_REPS: usize = 11;
/// The session pans at zoom 2 and, once per cycle of this many steps,
/// zooms in to zoom 3 for one request ([`ZOOM_IN`]) and back out
/// ([`ZOOM_OUT`]). Zoom 3 does not fit the cache, so the cycle fixes the
/// share of cold requests.
const ZOOM_CYCLE: usize = 48;
const ZOOM_IN: usize = ZOOM_CYCLE - 2;
const ZOOM_OUT: usize = ZOOM_CYCLE - 1;
/// Rounds of the closed loop; after each, [`RENDERS_PER_ROUND`] full
/// renders back to back (the first starts with caches the loop left cold).
/// `render_s` is the median of all of them.
const RENDER_ROUNDS: usize = 31;
const RENDERS_PER_ROUND: usize = 3;
/// Longest traced closed loop and traced live-feed loop, in seconds: the
/// traced run repeats the untraced one first, and the whole run must end
/// well inside the benchmark's time limit.
const TRACED_SECONDS: f64 = 20.0;
/// One response in this many has its checksum recorded during the run.
const SAMPLE_EVERY: u64 = 16;
/// Seed of the viewport walk. The walk is the same for every workload
/// seed (only the data follows it): which tiles the walk keeps revisiting
/// sets the hit/miss mix, and a fixed path keeps that mix comparable.
const WALK_SEED: u64 = 0x9A45;
/// One cache shard: a tile's shard follows a hash of its key, which holds
/// the seeded data's bandwidth, so with several shards the seed would move
/// which tiles each shard's LRU evicts and with it the hit/miss mix.
const CACHE_SHARDS: usize = 1;

struct Setup {
    points: Vec<Point>,
    config: ServeConfig,
    pyramid: PyramidSpec,
    frontend: Frontend,
    generate_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let points = serving::ny_points(seed, 0, serving::BASE_N);
    let generate_s = t.elapsed().as_secs_f64();
    let config = serving::serve_config(&points);
    let pyramid = serving::pyramid();
    let budget = serving::pyramid_bytes(&pyramid) / 3;
    let server = Arc::new(TileServer::new(pyramid, config, points.clone(), budget, CACHE_SHARDS));
    let frontend = Frontend::new(
        server,
        FrontendConfig {
            workers: WORKERS,
            queue_depth: 64,
            deadline: None,
            threads_per_request: 1,
        },
    );
    for vp in serving::warmup_viewports(&pyramid) {
        frontend.serve(vp).expect("warm-up request");
    }
    Setup { points, config, pyramid, frontend, generate_s }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    vp: Viewport,
    latency_ns: u64,
    /// Server-side wall (`SweepReport::wall_nanos`).
    wall_ns: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    ok: bool,
    checksum: Option<u64>,
}

/// Server and front-end counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    computed: u64,
    joined: u64,
    duplicates: u64,
    submitted: u64,
    completed: u64,
    shed: u64,
}

impl Counters {
    fn read(frontend: &Frontend) -> Self {
        let server = frontend.server();
        let (cache, flight, front) =
            (server.cache_stats(), server.flight_stats(), frontend.stats());
        Self {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            rejected: cache.rejected(),
            computed: flight.computed(),
            joined: flight.joined(),
            duplicates: flight.duplicate_computes(),
            submitted: front.submitted(),
            completed: front.completed(),
            shed: front.shed(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            rejected: self.rejected - before.rejected,
            computed: self.computed - before.computed,
            joined: self.joined - before.joined,
            duplicates: self.duplicates - before.duplicates,
            submitted: self.submitted - before.submitted,
            completed: self.completed - before.completed,
            shed: self.shed - before.shed,
        }
    }
}

struct LoopResult {
    requests: Vec<Request>,
    /// Wall time spent in the loop itself (not between its rounds).
    wall_s: f64,
    delta: Counters,
}

impl LoopResult {
    fn all(&self) -> impl Iterator<Item = &Request> {
        self.requests.iter()
    }

    fn count(&self) -> usize {
        self.requests.len()
    }
}

/// Runs the closed loop for `seconds` of loop time, split into `rounds`
/// equal rounds with `between` called after each: the untraced run times
/// its full renders there, so they sample the whole run rather than one
/// stretch of it.
fn closed_loop(
    s: &Setup,
    seed: u64,
    seconds: f64,
    rounds: usize,
    mut between: impl FnMut(),
) -> LoopResult {
    let before = Counters::read(&s.frontend);
    let mut walk = Walk::new(WALK_SEED, s.pyramid, serving::VIEW, 2, serving::START);
    let mut pick = SplitMix64::new(stats::derive_seed(seed, 20));
    let mut requests = Vec::new();
    let mut wall_s = 0.0;
    let mut step = 0;
    for round in 1..=rounds {
        let started = Instant::now();
        let round_s = seconds * round as f64 / rounds as f64 - wall_s;
        while started.elapsed().as_secs_f64() < round_s {
            let vp = match step % ZOOM_CYCLE {
                ZOOM_IN => walk.zoom_to(3),
                ZOOM_OUT => walk.zoom_to(2),
                _ => walk.pan(),
            };
            step += 1;
            let t = Instant::now();
            let result = s.frontend.serve(vp);
            let latency_ns = t.elapsed().as_nanos() as u64;
            let sampled = pick.below(SAMPLE_EVERY) == 0;
            requests.push(match result {
                Ok((grid, report)) => Request {
                    vp,
                    latency_ns,
                    wall_ns: report.wall_nanos,
                    hits: report.cache_hits,
                    misses: report.cache_misses,
                    evictions: report.cache_evictions,
                    rejected: report.cache_rejected,
                    ok: true,
                    checksum: sampled.then(|| grid_checksum(&grid)),
                },
                Err(e) => {
                    eprintln!("pan_sessions: request {vp:?} failed: {e}");
                    Request {
                        vp,
                        latency_ns,
                        wall_ns: 0,
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                        rejected: 0,
                        ok: false,
                        checksum: None,
                    }
                }
            });
        }
        wall_s += started.elapsed().as_secs_f64();
        between();
    }
    LoopResult { requests, wall_s, delta: Counters::read(&s.frontend).since(before) }
}

/// Counter reconciliation from outside: the per-request cache deltas sum
/// to the cache's own, every submit completed or shed, no band was
/// computed twice.
fn reconcile(r: &LoopResult, out: &mut Outcome) {
    let d = r.delta;
    let sum = |f: fn(&Request) -> u64| r.all().map(f).sum::<u64>();
    for (name, requests, cache) in [
        ("hits", sum(|q| q.hits), d.hits),
        ("misses", sum(|q| q.misses), d.misses),
        ("evictions", sum(|q| q.evictions), d.evictions),
        ("rejected", sum(|q| q.rejected), d.rejected),
    ] {
        out.check(requests == cache, || {
            format!("cache {name}: requests report {requests}, CacheStats {cache}")
        });
    }
    out.check(d.submitted == d.completed + d.shed, || {
        format!(
            "frontend: submitted {} != completed {} + shed {}",
            d.submitted, d.completed, d.shed
        )
    });
    out.check(d.submitted == r.count() as u64, || {
        format!("frontend: submitted {} for {} requests", d.submitted, r.count())
    });
    // The flight table counts recomputing a band it computed before as a
    // duplicate, which under this workload's undersized cache is what an
    // eviction forces: every duplicate must be explained by an eviction.
    out.check(d.duplicates <= d.evictions, || {
        format!("{} duplicate band computes but only {} evictions", d.duplicates, d.evictions)
    });
}

fn latencies_ms(r: &LoopResult) -> Vec<f64> {
    r.all().map(|q| ns_to_ms(q.latency_ns)).collect()
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        // drop the previous repetition first: set-up is timed alone
        drop(s.take());
        let t = Instant::now();
        let built = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(built.generate_s);
        s = Some(built);
    }
    let s = s.expect("at least one set-up");
    out.metric("setup_s", stats::median(&setup_s));
    out.metric("data.generate_s", stats::median(&generate_s));

    let mut render_times = Vec::new();
    let r = closed_loop(&s, args.seed, args.seconds, RENDER_ROUNDS, || {
        for _ in 0..RENDERS_PER_ROUND {
            render_times.push(serving::full_render_s(&s.pyramid, &s.config, &s.points));
        }
    });
    let lat = latencies_ms(&r);
    out.metric("latency_p50_ms", stats::percentile(&lat, 0.5));
    out.metric("latency_p99_ms", stats::percentile(&lat, 0.99));
    out.metric("throughput_rps", r.count() as f64 / r.wall_s);
    eprintln!(
        "pan_sessions: {} requests in {:.2} s, {} hits / {} misses / {} evictions",
        r.count(),
        r.wall_s,
        r.delta.hits,
        r.delta.misses,
        r.delta.evictions
    );
    // The mix that sets the metrics: requests with no miss (the median)
    // and requests that swept bands (the tail).
    let (hit_lat, miss_lat): (Vec<&Request>, Vec<&Request>) = r.all().partition(|q| q.misses == 0);
    let quartiles = |class: &[&Request]| {
        let ms: Vec<f64> = class.iter().map(|q| ns_to_ms(q.latency_ns)).collect();
        [0.25, 0.5, 0.75].map(|p| stats::percentile(&ms, p))
    };
    eprintln!(
        "pan_sessions: {:.3} of requests hit only, latency quartiles {:.2?} ms; the rest {:.1?} ms",
        hit_lat.len() as f64 / lat.len() as f64,
        quartiles(&hit_lat),
        quartiles(&miss_lat),
    );
    reconcile(&r, out);
    let failed_requests = r.all().filter(|q| !q.ok).count() as u64;
    out.metric("render_s", stats::median(&render_times));

    let wrong = check_responses(&s, &r, out);
    out.ops(r.count() as u64, failed_requests + wrong);

    if args.trace {
        drop(s);
        traced(args, &r, out);
    }
}

/// The untimed correctness pass: replays each distinct viewport of the
/// session's request sequence, in order of first request, on a fresh
/// server with room for the whole pyramid and checks the response bitwise
/// against the crop of its level's `sweep_bucket::compute` raster, then
/// checks the checksums sampled during the timed run against the same
/// crops. (The walk revisits few viewports thousands of times; replaying
/// each once keeps the pass short.) Returns the number of wrong responses.
fn check_responses(s: &Setup, r: &LoopResult, out: &mut Outcome) -> u64 {
    let levels: Vec<DensityGrid> = (0..=s.pyramid.max_zoom)
        .map(|z| {
            let params =
                s.pyramid.level_params(z, s.config.kernel, s.config.bandwidth, s.config.weight);
            kdv_core::sweep_bucket::compute(&params, &s.points).expect("valid level raster")
        })
        .collect();
    let replay = TileServer::new(s.pyramid, s.config, s.points.clone(), usize::MAX / 2, 4);
    // per distinct viewport (zoom, px, py, width, height): whether its
    // replay matched, and the crop's checksum
    type ViewportKey = (u8, usize, usize, usize, usize);
    let mut checked: HashMap<ViewportKey, (bool, u64)> = HashMap::new();
    let mut wrong = 0u64;
    for q in r.all().filter(|q| q.ok) {
        let vp = q.vp;
        let &mut (replay_ok, crop_sum) =
            checked.entry((vp.zoom, vp.px, vp.py, vp.width, vp.height)).or_insert_with(|| {
                let expected = serving::crop(&levels[vp.zoom as usize], &vp);
                let replayed = replay.serve_viewport(&vp, 1).map(|(grid, _)| grid);
                (replayed.is_ok_and(|g| same_bits(&g, &expected)), grid_checksum(&expected))
            });
        let sample_ok = q.checksum.is_none_or(|c| c == crop_sum);
        if !(replay_ok && sample_ok) {
            wrong += 1;
            if wrong <= 3 {
                out.failures.push(format!(
                    "response {vp:?} differs from the level raster crop (replay ok: {replay_ok}, sample ok: {sample_ok})"
                ));
            }
        }
    }
    if wrong > 3 {
        out.failures.push(format!("{wrong} wrong responses in all"));
    }
    eprintln!("pan_sessions: {} distinct viewports replayed", checked.len());
    wrong
}

/// The traced run: the same loop on a fresh set-up with the in-program
/// `kdv-obs` spans on, read per layer, plus each distinct band the run
/// needed computed directly through `tile::compute_band` and the
/// benchmark's per-layer timers.
fn traced(args: &RunArgs, untraced: &LoopResult, out: &mut Outcome) {
    let s = setup(args.seed);
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let seconds = args.seconds.min(TRACED_SECONDS);
    let r = closed_loop(&s, args.seed, seconds, 1, || {});
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    eprintln!(
        "pan_sessions: kdv-obs phases of the traced loop\n{}",
        kdv_obs::phase_summary(&trace)
    );
    drop(trace);
    reconcile(&r, out);
    out.ops(0, r.all().filter(|q| !q.ok).count() as u64);

    let per_op = |l: &LoopResult| l.wall_s / l.count() as f64;
    out.metric("obs.trace_overhead", per_op(&r) / per_op(untraced));

    let ms = |pred: fn(&Request) -> bool| -> Vec<f64> {
        r.all().filter(|q| q.ok && pred(q)).map(|q| ns_to_ms(q.wall_ns)).collect()
    };
    let (hit_ms, miss_ms) = (ms(|q| q.misses == 0), ms(|q| q.misses > 0));
    out.metric("serve.server.hit_ms_p50", stats::percentile(&hit_ms, 0.5));
    out.metric("serve.server.miss_ms_p50", stats::percentile(&miss_ms, 0.5));
    out.metric("serve.server.miss_ms_p99", stats::percentile(&miss_ms, 0.99));
    let d = r.delta;
    out.metric("serve.cache.hit_ratio", d.hits as f64 / (d.hits + d.misses).max(1) as f64);
    out.metric("serve.cache.misses", d.misses as f64);
    out.metric("serve.cache.evictions", d.evictions as f64);
    out.metric("serve.flight.computed", d.computed as f64);
    out.metric("serve.flight.joined", d.joined as f64);
    out.metric("serve.flight.duplicate_computes", d.duplicates as f64);
    let wait_ms: Vec<f64> = r
        .all()
        .filter(|q| q.ok)
        .map(|q| ns_to_ms(q.latency_ns.saturating_sub(q.wall_ns)))
        .collect();
    out.metric("serve.frontend.wait_ms_p50", stats::percentile(&wait_ms, 0.5));
    out.metric("serve.frontend.wait_ms_p99", stats::percentile(&wait_ms, 0.99));

    let bands: BTreeSet<(u8, usize)> = r.all().flat_map(|q| serving::bands_of(&q.vp)).collect();
    let mut core = CoreLayers::default();
    let mut band_ms = serving::time_bands(&s.pyramid, &s.config, &s.points, &bands, &mut core, out);
    if let Some(problem) = core.reconcile("pan_sessions core layers") {
        out.failures.push(problem);
    }
    drop(s);
    crate::live_feed::layers(&RunArgs { seconds, ..*args }, &mut core, &mut band_ms, out);
    core.report(out);
    out.metric("core.tile.band_ms_p50", stats::percentile(&band_ms, 0.5));
    eprintln!("pan_sessions: {} distinct bands timed directly", band_ms.len());
}
