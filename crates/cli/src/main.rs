//! `kdv` — command-line front-end for the SLAM-KDV workspace.
//!
//! Subcommands:
//!
//! * `generate` — synthesise a city dataset to CSV.
//! * `render`   — compute a KDV over a CSV dataset and write a PPM heat
//!   map (plus optional ASCII preview).
//! * `bench`    — time one method on a dataset.
//! * `hotspots` — extract and rank hotspot regions from a dataset's KDV.
//! * `stkdv`    — render a spatial-temporal KDV animation (one PPM per frame).
//! * `serve`    — replay a viewport trace through the caching tile server.
//! * `info`     — dataset statistics (n, MBR, Scott bandwidth).
//!
//! Run `kdv help` for usage. Argument parsing is hand-rolled: the surface
//! is tiny and the dependency budget is reserved for algorithmic crates.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdv_analysis::hotspots_by_peak_fraction;
use kdv_baselines::AnyMethod;
use kdv_core::driver::KdvParams;
use kdv_core::grid::{DensityGrid, GridSpec};
use kdv_core::parallel::default_threads;
use kdv_core::{KernelType, Method};
use kdv_data::catalog::City;
use kdv_data::csvio;
use kdv_obs::stats::ns_to_ms;
use kdv_obs::telemetry::{record_metrics, SweepStats};
use kdv_obs::{RequestClass, SloTargets, SloTracker, Trace};
use kdv_temporal::{compute_stkdv, FrameSpec, StKdvConfig, TemporalKernel};
use kdv_viz::{ascii_art, render, ColorMap, Scale};

const USAGE: &str = "kdv — SLAM kernel density visualization tools

USAGE:
  kdv generate --city <seattle|la|ny|sf> [--scale F] [--out FILE.csv]
  kdv render   --input FILE.csv [--res WxH] [--kernel K] [--bandwidth B]
               [--method M] [--colormap C] [--scale-mode S] [--out FILE.ppm] [--ascii]
               [--threads N] [--stats]
               [--trace-out FILE] [--metrics-out FILE]
  kdv bench    --input FILE.csv --method M [--res WxH] [--kernel K] [--bandwidth B]
               [--threads N] [--stats]
               [--trace-out FILE] [--metrics-out FILE]
  kdv hotspots --input FILE.csv [--res WxH] [--kernel K] [--bandwidth B]
               [--peak-fraction F] [--top N]
  kdv stkdv    --input FILE.csv --frames N [--res WxH] [--kernel K] [--bandwidth B]
               [--time-bandwidth SECS] [--out-prefix PREFIX] [--threads N]
  kdv serve    --input FILE.csv --batch TRACE.txt [--tile-size N] [--base-res WxH]
               [--max-zoom Z] [--kernel K] [--bandwidth B] [--cache-mb M]
               [--threads N] [--out-prefix PREFIX] [--stats]
               [--workers N] [--queue-depth N] [--deadline-ms MS]
               [--coreset-zoom Z] [--coreset-eps REL] [--coreset-method M]
               [--slo-p99-ms MS] [--incident-dir DIR] [--prom-out FILE]
               [--top [SECS]] [--trace-out FILE] [--metrics-out FILE]
  kdv serve    --input FILE.csv --live FEED.trace [--window N]
               [--compact-every N] [--no-patch] [--tile-size N]
               [--base-res WxH] [--max-zoom Z] [--kernel K] [--bandwidth B]
               [--cache-mb M] [--threads N] [--stats]
               [--coreset-zoom Z] [--coreset-eps REL] [--coreset-method M]
               [--slo-p99-ms MS] [--incident-dir DIR] [--prom-out FILE]
               [--top [SECS]] [--trace-out FILE] [--metrics-out FILE]
  kdv info     --input FILE.csv

OPTIONS:
  --kernel       uniform | epanechnikov | quartic        (default epanechnikov)
  --method       scan | rqs-kd | rqs-ball | zorder | akde | quad |
                 slam-sort | slam-bucket | slam-sort-rao | slam-bucket-rao
                 (default slam-bucket-rao)
  --bandwidth    metres, finite and above 0; omitted = Scott's rule
  --scale        generate: fraction of the paper's dataset size, in
                 (0, 10]                                 (default 0.01)
  --res          raster, e.g. 640x480                    (default 640x480)
  --colormap     heat | gray | viridis                   (default heat)
  --scale-mode   linear | sqrt | log                     (default sqrt)
  --threads      sweep worker threads; 0 or omitted = all cores
                 (SLAM methods, stkdv and serve; at most 1024)
  --stats        print the sweep statistics read from the span stream
                 (SLAM methods only); with --trace-out/--metrics-out also
                 prints a per-phase span summary table
  --trace-out    record structured spans and write a Chrome trace-event
                 JSON file (load in Perfetto / chrome://tracing)
  --metrics-out  write a flat JSON snapshot of the metrics registry
                 (counters, gauges, log2 histograms) for this run

SERVE OPTIONS:
  --batch        viewport trace file, `#` comments allowed. v1: one
                 `zoom px py width height` line per request, replayed
                 sequentially. v2: `session think_ms zoom px py width
                 height` lines, replayed concurrently (one thread per
                 session) through the worker-pool front end
  --tile-size    tile side length in pixels, at most 4096  (default 256)
  --base-res     level-0 raster, e.g. 512x512; level z doubles per zoom
                 (default one tile: tile-size x tile-size)
  --max-zoom     deepest zoom level served, at most 23     (default 4)
  --cache-mb     tile cache budget in MiB                  (default 256)
  --workers      front-end worker threads for v2 replay    (default 4,
                 at most 1024); with a v1 trace, forces it through the
                 front end too
  --queue-depth  bounded admission queue; submits beyond it are
                 load-shed with an explicit rejection      (default 64)
  --deadline-ms  shed requests still queued after this many ms
                 (default: no deadline)
  --coreset-zoom serve zoom levels <= Z from a certified eps-coreset of
                 the dataset (the approximate overview tier); deeper
                 zooms stay exact. Prints the achieved eps and coreset
                 size, and --stats shows each request's tier
  --coreset-eps  relative eps target for the overview tier, as a
                 fraction of the density scale |w|*n*K(0)  (default 0.01)
  --coreset-method grid | sort | sample coreset construction
                 (default grid)
  --out-prefix   write each served viewport as PREFIX_NNN.ppm
                 (sequential v1 replay only)
  --stats        print per-request cache deltas and a final summary;
                 concurrent replay also prints p50/p99 latency, shed
                 counts and single-flight tile counters
  --live         timestamped live feed (`p t x y` arrivals, `v t zoom px
                 py w h` requests): replays in order through the tile
                 server's front end, sealing the arrivals before each
                 request as one delta batch; cached tiles are patched
                 with it instead of rebuilt. Every response is
                 bitwise-equal to a cold rebuild of its generation
  --window       keep at most N live points: each flush expires the
                 oldest points beyond the window (FIFO)
  --compact-every fold the delta into the epoch base every N sealed
                 batches (generation keying keeps stale tiles out)
  --no-patch     disable tile patching (stale tiles recompute from the
                 epoch base instead — the A/B arm for the patch win)
  --slo-p99-ms   windowed SLO target: track p50/p99 latency per request
                 class (exact / coreset / live) over a 10 s sliding
                 window and count p99 breaches against this target (the
                 p50 target is half of it). Slow requests record
                 exemplars linking their id to the captured span tree;
                 with --incident-dir a breach edge dumps an incident
  --incident-dir arm the always-on flight recorder: bounded per-thread
                 span logs keep completed spans at near-zero cost, and a
                 deadline or queue-full shed, a duplicate tile compute,
                 an SLO p99 breach, or an abandoned tile leader
                 snapshots the recent spans plus a metrics snapshot to
                 a Perfetto-loadable incident file in this directory
  --prom-out     write the final metrics registry in Prometheus text
                 exposition format (counters, gauges, histograms)
  --top          print a `top`-style stats line every SECS seconds
                 (default 1): qps, windowed p50/p99 per tier, cache
                 hit/patch rates, shed and inflight counts, and the
                 ingest-to-serve generation lag
";

/// Minimal `--key value` argument map with flag support.
struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut values = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        values.push((key.to_string(), v.clone()));
                        i += 2;
                    }
                    _ => {
                        flags.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Self { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Observability session driven by `--trace-out` / `--metrics-out`.
///
/// Constructing one turns the span recorder on when either flag is
/// present, or when the command reads its `--stats` from the span stream
/// (it stays off — a single relaxed load per span site — otherwise).
/// [`ObsSession::take_trace`] stops it and drains the trace;
/// [`ObsSession::finish`] writes the requested export files and, with
/// `--stats`, the per-phase summary table.
struct ObsSession {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    baseline: kdv_obs::Snapshot,
    stats: bool,
    recording: bool,
}

impl ObsSession {
    fn from_args(args: &Args, record: bool) -> Self {
        let trace_out = args.get("trace-out").map(PathBuf::from);
        let metrics_out = args.get("metrics-out").map(PathBuf::from);
        let recording = record || trace_out.is_some() || metrics_out.is_some();
        if recording {
            kdv_obs::span::clear();
            kdv_obs::set_enabled(true);
        }
        Self {
            trace_out,
            metrics_out,
            baseline: kdv_obs::metrics::global().snapshot(),
            stats: args.has_flag("stats"),
            recording,
        }
    }

    /// Whether either export flag was given.
    fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Stops the recorder and drains what it recorded (nothing when it
    /// never ran).
    fn take_trace(&self) -> Trace {
        if !self.recording {
            return Trace::default();
        }
        kdv_obs::set_enabled(false);
        kdv_obs::span::take_trace()
    }

    /// Writes the export files and returns what to print about them.
    fn finish(self, trace: &Trace) -> Result<String, String> {
        let mut out = String::new();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, kdv_obs::chrome_trace_json(trace))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let _ = writeln!(out, "wrote {} span(s) to {}", trace.events.len(), path.display());
        }
        if let Some(path) = &self.metrics_out {
            let snap = kdv_obs::metrics::global().snapshot().diff(&self.baseline);
            std::fs::write(path, kdv_obs::metrics_json(&snap))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let _ = writeln!(out, "wrote {} metric(s) to {}", snap.values.len(), path.display());
        }
        if self.stats && self.active() {
            out.push_str(&kdv_obs::phase_summary(trace));
        }
        Ok(out)
    }
}

/// Sliding window backing the SLO tracker and the `[top]` line.
const SLO_WINDOW_NS: u64 = 10_000_000_000;

/// Samples the tile cache for the `[top]` line: `(hits, misses, patched)`.
type CacheSampler = dyn Fn() -> (u64, u64, u64) + Send + Sync;

/// Serving telemetry driven by `--slo-p99-ms`, `--incident-dir`,
/// `--prom-out` and `--top`.
///
/// Construction arms the flight recorder's incident dumps when
/// `--incident-dir` is given and builds a windowed [`SloTracker`] when
/// either `--slo-p99-ms` or `--top` asks for latency tracking.
/// [`ServeTelemetry::finish`] stops the `[top]` reporter, prints the
/// breach/incident summary, and writes the Prometheus snapshot.
struct ServeTelemetry {
    slo: Option<Arc<SloTracker>>,
    explicit_slo: bool,
    incident_dir: Option<PathBuf>,
    prom_out: Option<PathBuf>,
    top_every: Option<Duration>,
    top: Option<TopReporter>,
}

impl ServeTelemetry {
    fn from_args(args: &Args) -> Result<Self, String> {
        let slo_p99_ms: Option<f64> = args
            .get("slo-p99-ms")
            .map(|v| v.parse().map_err(|_| "bad --slo-p99-ms".to_string()))
            .transpose()?;
        let top_every = match args.get("top") {
            Some(secs) => {
                let s: f64 = secs.parse().map_err(|_| "bad --top")?;
                if s <= 0.0 {
                    return Err("bad --top (need a positive period in seconds)".into());
                }
                Some(Duration::from_secs_f64(s))
            }
            None if args.has_flag("top") => Some(Duration::from_secs(1)),
            None => None,
        };
        // `--top` without an explicit target still needs windowed latency
        // tracking; a 500 ms default p99 keeps breach noise down.
        let slo = (slo_p99_ms.is_some() || top_every.is_some()).then(|| {
            let p99 = slo_p99_ms.unwrap_or(500.0);
            Arc::new(SloTracker::uniform(SLO_WINDOW_NS, SloTargets::from_ms(p99 / 2.0, p99)))
        });
        let incident_dir = args.get("incident-dir").map(PathBuf::from);
        if let Some(dir) = &incident_dir {
            kdv_obs::arm_incidents(kdv_obs::IncidentConfig::new(dir.clone()));
        }
        Ok(Self {
            slo,
            explicit_slo: slo_p99_ms.is_some(),
            incident_dir,
            prom_out: args.get("prom-out").map(PathBuf::from),
            top_every,
            top: None,
        })
    }

    /// Starts the periodic `[top]` reporter once the server exists (the
    /// sampler closure reads its cache stats).
    fn start_top(&mut self, cache: Box<CacheSampler>) {
        if let (Some(every), Some(slo)) = (self.top_every, self.slo.clone()) {
            self.top = Some(TopReporter::start(every, slo, cache));
        }
    }

    /// Records one served request into the SLO tracker; a breach edge
    /// fires the flight recorder's `slo.p99` trigger.
    fn record(&self, class: RequestClass, latency_ns: u64, request_id: u64) {
        if let Some(slo) = &self.slo {
            if slo.record(class, latency_ns, request_id).breached {
                kdv_obs::trigger("slo.p99", Some(request_id));
            }
        }
    }

    fn finish(mut self) -> Result<(), String> {
        if let Some(top) = self.top.take() {
            top.stop();
        }
        if self.explicit_slo {
            if let Some(slo) = &self.slo {
                let total: u64 = RequestClass::ALL.iter().map(|&c| slo.breaches(c)).sum();
                println!(
                    "slo: p99 target {:.1} ms per class, {} breach transition(s)",
                    ns_to_ms(slo.targets(RequestClass::Exact).p99_ns),
                    total
                );
            }
        }
        if let Some(dir) = &self.incident_dir {
            kdv_obs::disarm_incidents();
            let dumps = kdv_obs::metrics::global().snapshot().counter("obs.incidents").unwrap_or(0);
            println!("flight recorder: {} incident dump(s) in {}", dumps, dir.display());
        }
        if let Some(path) = &self.prom_out {
            let snap = kdv_obs::metrics::global().snapshot();
            std::fs::write(path, kdv_obs::prometheus_text(&snap))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "wrote {} metric(s) as prometheus text to {}",
                snap.values.len(),
                path.display()
            );
        }
        Ok(())
    }
}

/// Background thread printing the `[top]` stats line every period (and
/// once more on stop, so short replays still report).
struct TopReporter {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl TopReporter {
    fn start(every: Duration, slo: Arc<SloTracker>, cache: Box<CacheSampler>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            std::thread::park_timeout(every);
            println!("{}", top_line(&slo, cache.as_ref()));
            if flag.load(Ordering::Relaxed) {
                break;
            }
        });
        Self { stop, handle }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        let _ = self.handle.join();
    }
}

/// One `[top]`-style stats line: qps and windowed p50/p99 per request
/// class, cache hit/patch rates, shed and inflight counts, and the
/// ingest-to-serve generation lag.
fn top_line(slo: &SloTracker, cache: &CacheSampler) -> String {
    use std::fmt::Write as _;
    let snap = kdv_obs::metrics::global().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let gauge = |name: &str| match snap.get(name) {
        Some(kdv_obs::metrics::MetricValue::Gauge(v)) => *v,
        _ => 0,
    };
    let mut requests = 0u64;
    let mut tiers = String::new();
    for class in RequestClass::ALL {
        let h = slo.windowed(class);
        if h.count > 0 {
            requests += h.count;
            let _ = write!(
                tiers,
                " | {} {}",
                class.name(),
                kdv_obs::stats::fmt_p50_p99_ms(
                    h.quantile_upper_bound(0.5),
                    h.quantile_upper_bound(0.99),
                )
            );
        }
    }
    let (hits, misses, patched) = cache();
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 { 0.0 } else { 100.0 * hits as f64 / lookups as f64 };
    let shed = counter("serve.shed.queue_full") + counter("serve.shed.deadline");
    let inflight =
        counter("serve.submitted").saturating_sub(counter("serve.completed")).saturating_sub(shed);
    let lag = gauge("stream.generation").saturating_sub(gauge("serve.generation"));
    let qps = requests as f64 / (slo.window_ns() as f64 / 1e9);
    let mut out = format!("[top] qps {qps:.1}{tiers}");
    let _ = write!(out, " | cache {hit_rate:.1}% hit, {patched} patched");
    let _ = write!(out, " | shed {shed} | inflight {inflight} | gen lag {lag}");
    let dropped = kdv_obs::span::dropped_events();
    if dropped > 0 {
        let _ = write!(out, " | dropped {dropped}");
    }
    out
}

fn parse_city(s: &str) -> Result<City, String> {
    match s.to_ascii_lowercase().as_str() {
        "seattle" => Ok(City::Seattle),
        "la" | "losangeles" | "los-angeles" => Ok(City::LosAngeles),
        "ny" | "newyork" | "new-york" => Ok(City::NewYork),
        "sf" | "sanfrancisco" | "san-francisco" => Ok(City::SanFrancisco),
        other => Err(format!("unknown city '{other}'")),
    }
}

fn parse_method(s: &str) -> Result<AnyMethod, String> {
    match s.to_ascii_lowercase().as_str() {
        "scan" => Ok(AnyMethod::Scan),
        "rqs-kd" => Ok(AnyMethod::RqsKd),
        "rqs-ball" => Ok(AnyMethod::RqsBall),
        "zorder" | "z-order" => Ok(AnyMethod::ZOrder { sample_fraction: 0.05 }),
        "akde" => Ok(AnyMethod::Akde { epsilon: 1e-6 }),
        "quad" => Ok(AnyMethod::Quad),
        "slam-sort" => Ok(AnyMethod::Slam(Method::SlamSort)),
        "slam-bucket" => Ok(AnyMethod::Slam(Method::SlamBucket)),
        "slam-sort-rao" => Ok(AnyMethod::Slam(Method::SlamSortRao)),
        "slam-bucket-rao" => Ok(AnyMethod::Slam(Method::SlamBucketRao)),
        other => Err(format!("unknown method '{other}'")),
    }
}

/// Parses a `WxH` resolution; [`GridSpec::new`] validates it.
fn parse_res(s: &str) -> Result<(usize, usize), String> {
    let (x, y) = s.split_once(['x', 'X']).ok_or("resolution must be WxH")?;
    Ok((x.parse().map_err(|_| "bad width")?, y.parse().map_err(|_| "bad height")?))
}

/// Parses `--bandwidth`: a finite, positive length in metres.
fn parse_bandwidth(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(b) if b.is_finite() && b > 0.0 => Ok(b),
        _ => Err(format!("bad --bandwidth {s}: expected a finite length above 0")),
    }
}

/// The largest `--scale` of `kdv generate`: ten times the paper's dataset
/// sizes (which the paper runs at 1), far below a point count whose
/// allocation would abort.
const MAX_SCALE: f64 = 10.0;

/// Parses `--scale`: a fraction of the paper's size in `(0, MAX_SCALE]`.
fn parse_scale(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v > 0.0 && v <= MAX_SCALE => Ok(v),
        _ => Err(format!("bad --scale {s}: expected a value in (0, {MAX_SCALE}]")),
    }
}

/// The largest `--tile-size`: a 4096×4096 tile is 128 MiB of densities.
const MAX_TILE_SIZE: usize = 4096;

/// Parses `--tile-size`: a side length in `1..=MAX_TILE_SIZE` pixels.
fn parse_tile_size(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(t) if (1..=MAX_TILE_SIZE).contains(&t) => Ok(t),
        _ => Err(format!("bad --tile-size {s}: expected 1..={MAX_TILE_SIZE} pixels")),
    }
}

/// Parses a zoom level given as `--flag value`: one a pyramid can serve,
/// below [`kdv_serve::ZOOM_LIMIT`].
fn parse_zoom(flag: &str, s: &str) -> Result<u8, String> {
    match s.parse::<u8>() {
        Ok(z) if z < kdv_serve::ZOOM_LIMIT => Ok(z),
        _ => Err(format!("bad --{flag} {s}: expected 0..{}", kdv_serve::ZOOM_LIMIT)),
    }
}

/// Parses `--cache-mb`, the tile cache budget in MiB, and returns it in
/// bytes: a budget whose byte count does not fit a `usize` is an error,
/// not a wrapped (and so tiny) budget.
fn parse_cache_mb(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .and_then(|mb| mb.checked_mul(1 << 20))
        .ok_or_else(|| format!("bad --cache-mb {s}: expected 0..={} MiB", usize::MAX >> 20))
}

/// Loads a CSV dataset and assembles the KDV parameters shared by the
/// `render` and `bench` subcommands.
fn load_problem(args: &Args) -> Result<(Vec<kdv_core::Point>, KdvParams), String> {
    let input = args.get("input").ok_or("--input FILE.csv is required")?;
    let dataset = csvio::read_csv_file(Path::new(input)).map_err(|e| e.to_string())?;
    if dataset.is_empty() {
        return Err("dataset is empty".into());
    }
    let points = dataset.points();
    let mbr = dataset.mbr();
    let (rx, ry) = args.get("res").map(parse_res).transpose()?.unwrap_or((640, 480));
    let kernel: KernelType =
        args.get("kernel").unwrap_or("epanechnikov").parse().map_err(|e: String| e)?;
    let bandwidth = match args.get("bandwidth") {
        Some(b) => parse_bandwidth(b)?,
        None => kdv_data::scott_bandwidth(&points),
    };
    let grid = GridSpec::new(mbr, rx, ry).map_err(|e| e.to_string())?;
    let params = KdvParams::new(grid, kernel, bandwidth).with_weight(1.0 / points.len() as f64);
    Ok((points, params))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let city = parse_city(args.get("city").ok_or("--city is required")?)?;
    let scale = parse_scale(args.get("scale").unwrap_or("0.01"))?;
    let out = PathBuf::from(
        args.get("out")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}.csv", city.name().to_lowercase().replace(' ', "_"))),
    );
    let dataset = city.dataset(scale);
    csvio::write_csv_file(&out, &dataset).map_err(|e| e.to_string())?;
    println!(
        "wrote {} events for {} (scale {scale}) to {}",
        dataset.len(),
        city.name(),
        out.display()
    );
    Ok(())
}

/// The most OS threads `--threads` or `--workers` may ask for: far more
/// than the cores of any machine this tool serves from, far fewer than
/// it takes to exhaust a process's thread limit.
const MAX_THREADS: usize = 1024;

/// Parses the thread count given as `--flag value`, rejecting counts
/// above [`MAX_THREADS`] before any thread is started.
fn parse_thread_count(flag: &str, value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|_| format!("bad --{flag}"))?;
    if n > MAX_THREADS {
        return Err(format!("--{flag} {n} is above the limit of {MAX_THREADS} threads"));
    }
    Ok(n)
}

/// Parses `--threads` (`0`/omitted = all cores, per [`default_threads`]).
fn parse_threads(args: &Args) -> Result<usize, String> {
    match args.get("threads") {
        Some(t) => {
            let n = parse_thread_count("threads", t)?;
            Ok(if n == 0 { default_threads() } else { n })
        }
        None => Ok(default_threads()),
    }
}

/// Parses `--workers`, the front end's worker threads (default 4).
fn parse_workers(args: &Args) -> Result<usize, String> {
    parse_thread_count("workers", args.get("workers").unwrap_or("4"))
}

/// Runs `method` honouring `--threads`: SLAM variants dispatch to the
/// work-stealing parallel runtime; baselines stay sequential (with a note
/// if `--threads`/`--stats` were requested for them).
fn compute_with_runtime(
    method: AnyMethod,
    params: &KdvParams,
    points: &[kdv_core::Point],
    threads: usize,
    stats: bool,
) -> Result<DensityGrid, String> {
    let AnyMethod::Slam(m) = method else {
        if threads > 1 || stats {
            eprintln!(
                "note: --threads/--stats apply to SLAM methods only; running {} sequentially",
                method.name()
            );
        }
        return Ok(method.compute(params, points).map_err(|e| e.to_string())?.grid);
    };
    m.compute(params, points, threads).map_err(|e| e.to_string())
}

/// What `render` and `bench` print after their own line: the `--stats`
/// summary of a SLAM compute and the export notes. A SLAM compute's
/// `sweep.*` metrics (and zero `cache.*` counters) are published first
/// when exporting.
fn compute_report(
    obs: ObsSession,
    trace: &Trace,
    slam: bool,
    stats: bool,
) -> Result<String, String> {
    let mut out = String::new();
    if slam && obs.active() {
        record_metrics(trace, [0; 5]);
    }
    if slam && stats {
        out.push_str(&SweepStats::from_trace(trace).summary());
    }
    out.push_str(&obs.finish(trace)?);
    Ok(out)
}

fn cmd_render(args: &Args) -> Result<String, String> {
    let (points, params) = load_problem(args)?;
    let method = parse_method(args.get("method").unwrap_or("slam-bucket-rao"))?;
    let colormap: ColorMap = args.get("colormap").unwrap_or("heat").parse()?;
    let scale_mode: Scale = args.get("scale-mode").unwrap_or("sqrt").parse()?;
    let out = PathBuf::from(args.get("out").unwrap_or("kdv.ppm"));
    let threads = parse_threads(args)?;
    let stats = args.has_flag("stats");
    let slam = matches!(method, AnyMethod::Slam(_));
    let obs = ObsSession::from_args(args, slam && stats);

    let start = Instant::now();
    let grid = compute_with_runtime(method, &params, &points, threads, stats)?;
    let elapsed = start.elapsed();
    let trace = obs.take_trace();
    let image = render(&grid, colormap, scale_mode);
    image.save_ppm(&out).map_err(|e| e.to_string())?;
    let mut text = format!(
        "{}: {}x{} raster over {} points in {:.3}s ({} thread(s)) -> {}\n",
        method.name(),
        params.grid.res_x,
        params.grid.res_y,
        points.len(),
        elapsed.as_secs_f64(),
        threads,
        out.display()
    );
    text.push_str(&compute_report(obs, &trace, slam, stats)?);
    if args.has_flag("ascii") {
        // coarse preview: subsample the grid to <= 72 columns
        let _ = writeln!(text, "{}", ascii_art(&grid, scale_mode));
    }
    Ok(text)
}

fn cmd_bench(args: &Args) -> Result<String, String> {
    let (points, params) = load_problem(args)?;
    let method = parse_method(args.get("method").ok_or("--method is required")?)?;
    let threads = parse_threads(args)?;
    let stats = args.has_flag("stats");
    let slam = matches!(method, AnyMethod::Slam(_));
    let obs = ObsSession::from_args(args, slam && stats);
    let start = Instant::now();
    compute_with_runtime(method, &params, &points, threads, stats)?;
    let elapsed = start.elapsed();
    let trace = obs.take_trace();
    let mut text = format!(
        "{}\t{}x{}\tn={}\tthreads={}\t{:.4}s\n",
        method.name(),
        params.grid.res_x,
        params.grid.res_y,
        points.len(),
        threads,
        elapsed.as_secs_f64()
    );
    text.push_str(&compute_report(obs, &trace, slam, stats)?);
    Ok(text)
}

fn cmd_hotspots(args: &Args) -> Result<(), String> {
    let (points, params) = load_problem(args)?;
    let fraction: f64 =
        args.get("peak-fraction").unwrap_or("0.25").parse().map_err(|_| "bad --peak-fraction")?;
    let top: usize = args.get("top").unwrap_or("10").parse().map_err(|_| "bad --top")?;

    let grid = Method::SlamBucketRao.compute(&params, &points, 1).map_err(|e| e.to_string())?;
    let hotspots = hotspots_by_peak_fraction(&grid, &params.grid, fraction);
    println!(
        "{} hotspot region(s) at >= {:.0}% of peak density {:.6}:",
        hotspots.len(),
        fraction * 100.0,
        grid.max_value()
    );
    println!("{:<4} {:>10} {:>14} {:>12} {:>22}", "#", "pixels", "area (m^2)", "peak", "centroid");
    for (i, h) in hotspots.iter().take(top).enumerate() {
        println!(
            "{:<4} {:>10} {:>14.0} {:>12.6} ({:>9.1}, {:>9.1})",
            i + 1,
            h.pixels,
            h.area,
            h.peak,
            h.centroid.x,
            h.centroid.y
        );
    }
    Ok(())
}

fn cmd_stkdv(args: &Args) -> Result<(), String> {
    let input = args.get("input").ok_or("--input FILE.csv is required")?;
    let dataset = csvio::read_csv_file(Path::new(input)).map_err(|e| e.to_string())?;
    if dataset.is_empty() {
        return Err("dataset is empty".into());
    }
    let (points, params) = load_problem(args)?;
    let _ = points;
    let frames: usize =
        args.get("frames").ok_or("--frames N is required")?.parse().map_err(|_| "bad --frames")?;
    let times: Vec<i64> = dataset.records.iter().map(|r| r.timestamp).collect();
    let (t0, t1) =
        (*times.iter().min().expect("non-empty"), *times.iter().max().expect("non-empty"));
    let spec = FrameSpec::spanning(t0, t1, frames);
    let default_bt = (spec.stride * 2).max(1).to_string();
    let temporal_bandwidth: i64 = args
        .get("time-bandwidth")
        .unwrap_or(&default_bt)
        .parse()
        .map_err(|_| "bad --time-bandwidth")?;
    let prefix = args.get("out-prefix").unwrap_or("stkdv");

    let config = StKdvConfig {
        params,
        frames: spec,
        temporal_bandwidth,
        temporal_kernel: TemporalKernel::Epanechnikov,
    };
    let threads = parse_threads(args)?;
    let start = Instant::now();
    let rendered = compute_stkdv(&config, &dataset.records, threads).map_err(|e| e.to_string())?;
    println!(
        "computed {} frames in {:.2}s (temporal bandwidth {}s, {} thread(s))",
        rendered.len(),
        start.elapsed().as_secs_f64(),
        temporal_bandwidth,
        threads
    );
    let colormap: ColorMap = args.get("colormap").unwrap_or("heat").parse()?;
    for (i, frame) in rendered.iter().enumerate() {
        let file = format!("{prefix}_{:03}.ppm", i + 1);
        render(&frame.grid, colormap, Scale::Sqrt)
            .save_ppm(Path::new(&file))
            .map_err(|e| e.to_string())?;
        println!("frame {:>3}: t={} events={} -> {file}", i + 1, frame.time, frame.events);
    }
    Ok(())
}

/// What `kdv serve --batch` and `kdv serve --live` share: the dataset,
/// the pyramid and kernel configuration, the cache budget, the optional
/// overview tier, and the reporting sessions.
struct ServeSetup {
    points: Vec<kdv_core::Point>,
    pyramid: kdv_serve::PyramidSpec,
    config: kdv_serve::ServeConfig,
    overview: Option<kdv_serve::OverviewConfig>,
    cache_bytes: usize,
    threads: usize,
    stats: bool,
    obs: ObsSession,
    telemetry: ServeTelemetry,
}

impl ServeSetup {
    fn from_args(args: &Args) -> Result<Self, String> {
        let input = args.get("input").ok_or("--input FILE.csv is required")?;
        let dataset = csvio::read_csv_file(Path::new(input)).map_err(|e| e.to_string())?;
        if dataset.is_empty() {
            return Err("dataset is empty".into());
        }
        let points = dataset.points();
        let tile_size = parse_tile_size(args.get("tile-size").unwrap_or("256"))?;
        let (base_x, base_y) = match args.get("base-res") {
            Some(r) => parse_res(r)?,
            None => (tile_size, tile_size),
        };
        let max_zoom = parse_zoom("max-zoom", args.get("max-zoom").unwrap_or("4"))?;
        let kernel: KernelType =
            args.get("kernel").unwrap_or("epanechnikov").parse().map_err(|e: String| e)?;
        let bandwidth = match args.get("bandwidth") {
            Some(b) => parse_bandwidth(b)?,
            None => kdv_data::scott_bandwidth(&points),
        };
        let cache_bytes = parse_cache_mb(args.get("cache-mb").unwrap_or("256"))?;
        let overview = match args.get("coreset-zoom") {
            Some(z) => Some(kdv_serve::OverviewConfig {
                max_zoom: parse_zoom("coreset-zoom", z)?,
                method: args
                    .get("coreset-method")
                    .unwrap_or("grid")
                    .parse()
                    .map_err(|e| format!("{e}"))?,
                target_rel_epsilon: args
                    .get("coreset-eps")
                    .unwrap_or("0.01")
                    .parse()
                    .map_err(|_| "bad --coreset-eps")?,
                seed: 7,
            }),
            None => None,
        };
        let pyramid =
            kdv_serve::PyramidSpec::new(dataset.mbr(), tile_size, base_x, base_y, max_zoom)
                .map_err(|e| e.to_string())?;
        let config = kdv_serve::ServeConfig {
            dataset: 1,
            kernel,
            bandwidth,
            weight: 1.0 / points.len() as f64,
        };
        Ok(Self {
            points,
            pyramid,
            config,
            overview,
            cache_bytes,
            threads: parse_threads(args)?,
            stats: args.has_flag("stats"),
            obs: ObsSession::from_args(args, false),
            telemetry: ServeTelemetry::from_args(args)?,
        })
    }

    /// The server over the dataset (its points move into the stream's
    /// epoch base), with the overview tier when one was asked for. Starts
    /// the `[top]` reporter on its cache.
    fn server(
        &mut self,
        live: kdv_serve::LiveConfig,
    ) -> Result<Arc<kdv_serve::TileServer>, String> {
        let (pyramid, config, bytes) = (self.pyramid, self.config, self.cache_bytes);
        let points = std::mem::take(&mut self.points);
        let n = points.len();
        let server = Arc::new(match self.overview {
            Some(ov) => kdv_serve::TileServer::with_overview_coreset(
                pyramid, config, live, points, bytes, 16, ov,
            )
            .map_err(|e| e.to_string())?,
            None => kdv_serve::TileServer::with_live(pyramid, config, live, points, bytes, 16),
        });
        if let Some(ov) = &self.overview {
            let info = server.tier_info(0);
            println!(
                "coreset overview tier: zoom <= {} served from {} of {n} point(s) ({} coreset), \
                 advertised eps {:.3e} (rel target {})",
                ov.max_zoom.min(pyramid.max_zoom),
                info.coreset_size.unwrap_or(0),
                ov.method,
                info.epsilon.unwrap_or(0.0),
                ov.target_rel_epsilon
            );
        }
        let sampled = Arc::clone(&server);
        self.telemetry.start_top(Box::new(move || {
            let cs = sampled.cache_stats();
            (cs.hits(), cs.misses(), cs.patched())
        }));
        Ok(server)
    }

    /// The configuration line both replays print before they start.
    fn describe(&self) -> String {
        let p = &self.pyramid;
        let (base_x, base_y) = p.level_res(0);
        format!(
            "tile {}px, base {base_x}x{base_y}, max zoom {}, bandwidth {:.2}, cache {} MiB, \
             {} thread(s)",
            p.tile_size,
            p.max_zoom,
            self.config.bandwidth,
            self.cache_bytes >> 20,
            self.threads
        )
    }

    /// Publishes the run's metrics when exporting (the `sweep.*` ones
    /// from the trace, the `cache.*` ones from `server`'s counters), then
    /// finishes the telemetry and the exports.
    fn finish(self, server: &kdv_serve::TileServer) -> Result<(), String> {
        let trace = self.obs.take_trace();
        if self.obs.active() {
            let cs = server.cache_stats();
            record_metrics(
                &trace,
                [cs.hits(), cs.misses(), cs.evictions(), cs.rejected(), cs.patched()],
            );
        }
        self.telemetry.finish()?;
        print!("{}", self.obs.finish(&trace)?);
        Ok(())
    }
}

/// Prints the single-flight counters (`ci.sh serve-load` greps the
/// duplicate count).
fn print_flights(server: &kdv_serve::TileServer) {
    let flights = server.flight_stats();
    println!(
        "flights: {} tile(s) computed, {} joined in flight, {} duplicate compute(s)",
        flights.computed(),
        flights.joined(),
        flights.duplicate_computes()
    );
}

/// The replay summaries' checkpoint line: lookups that found a band
/// sweep checkpoint to resume from and ones that did not, checkpoints
/// displaced, and the bytes held against the checkpoints' share of the
/// cache budget.
fn checkpoint_line(cache: &kdv_serve::TileCache) -> String {
    let cs = cache.stats();
    format!(
        "checkpoints: {} hit(s) / {} miss(es), {} displaced, {} held in {} B of a {} B share",
        cs.checkpoint_hits(),
        cs.checkpoint_misses(),
        cs.checkpoint_evictions(),
        cache.checkpoints(),
        cache.checkpoint_bytes(),
        cache.checkpoint_budget()
    )
}

/// `kdv serve --batch`: replays a recorded viewport trace against the
/// caching tile server and reports cache effectiveness. Every served
/// raster is exact — bitwise-equal to cropping the monolithic sweep of
/// the level — whether the tiles were cached or computed on the spot.
fn cmd_serve(args: &Args) -> Result<(), String> {
    if let Some(feed) = args.get("live") {
        return cmd_serve_live(args, feed);
    }
    let batch = args.get("batch").ok_or("--batch TRACE.txt or --live FEED.trace is required")?;
    let mut setup = ServeSetup::from_args(args)?;
    let trace_text = std::fs::read_to_string(batch).map_err(|e| format!("{batch}: {e}"))?;
    let trace = kdv_serve::trace::parse_sessions(&trace_text).map_err(|e| e.to_string())?;
    if trace.num_requests() == 0 {
        return Err(format!("{batch}: trace contains no requests"));
    }
    let concurrent = trace.version == 2 || args.get("workers").is_some();
    println!(
        "serving {} request(s) over {} points ({})",
        trace.num_requests(),
        setup.points.len(),
        setup.describe()
    );
    let server = setup.server(kdv_serve::LiveConfig::default())?;
    let start = Instant::now();
    if concurrent {
        serve_concurrent(args, &trace, &server, &setup)?;
    } else {
        serve_sequential(args, &trace, &server, &setup)?;
    }
    let cs = server.cache_stats();
    let total = cs.hits() + cs.misses();
    println!(
        "replayed {} request(s) in {:.3}s: {} hit(s) / {} miss(es) ({:.1}% hit rate), \
         {} eviction(s), {} rejected, cache {} tile(s) / {} B of {} B",
        trace.num_requests(),
        start.elapsed().as_secs_f64(),
        cs.hits(),
        cs.misses(),
        if total == 0 { 0.0 } else { 100.0 * cs.hits() as f64 / total as f64 },
        cs.evictions(),
        cs.rejected(),
        server.cache().len(),
        server.cache().bytes(),
        server.cache().budget()
    );
    println!("{}", checkpoint_line(server.cache()));
    setup.finish(&server)
}

/// `kdv serve --live`: replays a timestamped live feed through the tile
/// server and its worker-pool front end. Arrivals between two requests
/// are flushed as one sealed delta batch immediately before the later
/// request; cached tiles are **patched** with the delta instead of being
/// rebuilt, and every response is bitwise-equal to a cold rebuild of its
/// generation. Requests are submitted one at a time, in feed order; the
/// front end records those served at a generation > 0 under the `live`
/// SLO class.
fn cmd_serve_live(args: &Args, feed_path: &str) -> Result<(), String> {
    let mut setup = ServeSetup::from_args(args)?;
    let window: Option<usize> = match args.get("window") {
        Some(w) => Some(w.parse().map_err(|_| "bad --window")?),
        None => None,
    };
    let compact_every: Option<u64> = match args.get("compact-every") {
        Some(c) => Some(c.parse().map_err(|_| "bad --compact-every")?),
        None => None,
    };
    let patching = !args.has_flag("no-patch");

    let feed_text = std::fs::read_to_string(feed_path).map_err(|e| format!("{feed_path}: {e}"))?;
    let events = kdv_serve::trace::parse_live(&feed_text).map_err(|e| e.to_string())?;
    let requests =
        events.iter().filter(|e| matches!(e, kdv_serve::trace::LiveEvent::Request { .. })).count();
    if requests == 0 {
        return Err(format!("{feed_path}: feed contains no viewport requests"));
    }
    println!(
        "live replay: {} event(s), {requests} request(s) over a base of {} point(s) \
         ({}, patching {})",
        events.len(),
        setup.points.len(),
        setup.describe(),
        if patching { "on" } else { "off" },
    );
    let server = setup.server(kdv_serve::LiveConfig { patching, compact_every })?;
    let frontend = kdv_serve::Frontend::new(
        Arc::clone(&server),
        kdv_serve::FrontendConfig {
            workers: 1,
            threads_per_request: setup.threads,
            ..kdv_serve::FrontendConfig::default()
        },
    );
    if let Some(slo) = &setup.telemetry.slo {
        frontend.set_slo(Arc::clone(slo));
    }
    let start = Instant::now();
    let mut pending: Vec<kdv_core::geom::Point> = Vec::new();
    let mut arrived = 0usize;
    let mut expired = 0usize;
    let mut served = 0usize;
    for event in &events {
        match event {
            kdv_serve::trace::LiveEvent::Arrival { point, .. } => pending.push(*point),
            kdv_serve::trace::LiveEvent::Request { viewport: vp, at_ms } => {
                if !pending.is_empty() {
                    arrived += pending.len();
                    server.append(&pending);
                    pending.clear();
                    if let Some(w) = window {
                        let over = server.live_len().saturating_sub(w);
                        if over > 0 {
                            server.expire_oldest(over);
                            expired += over;
                        }
                    }
                }
                served += 1;
                let (_, outcome) = frontend.serve(*vp).map_err(|e| {
                    format!("request #{served} (zoom {} at {},{}): {e}", vp.zoom, vp.px, vp.py)
                })?;
                if setup.stats {
                    println!(
                        "t={at_ms:>6}ms gen {:>3}: zoom {} @({},{}) {}x{}  {:>8.3} ms  \
                         hits {} misses {} patched {}",
                        server.generation(),
                        vp.zoom,
                        vp.px,
                        vp.py,
                        vp.width,
                        vp.height,
                        ns_to_ms(outcome.wall_nanos),
                        outcome.cache_hits,
                        outcome.cache_misses,
                        outcome.cache_patched,
                    );
                }
            }
        }
    }
    if !pending.is_empty() {
        arrived += pending.len();
        server.append(&pending); // trailing arrivals still seal a batch
    }
    drop(frontend);
    let ls = server.live_stats();
    let cs = server.cache_stats();
    println!(
        "replayed {requests} request(s) in {:.3}s: {arrived} arrival(s), {expired} expired, \
         generation {} epoch {} ({} live point(s))",
        start.elapsed().as_secs_f64(),
        server.generation(),
        server.epoch(),
        server.live_len(),
    );
    println!(
        "bands: {} patched ({} batch(es) folded), {} recomputed; cache: {} hit(s) / {} miss(es), \
         {} patched tile(s), {} eviction(s)",
        ls.patched_bands(),
        ls.folded_batches(),
        ls.recomputed_bands(),
        cs.hits(),
        cs.misses(),
        cs.patched(),
        cs.evictions(),
    );
    println!("{}", checkpoint_line(server.cache()));
    print_flights(&server);
    setup.finish(&server)
}

/// Sequential v1 replay: one request at a time, straight at the server.
fn serve_sequential(
    args: &Args,
    trace: &kdv_serve::TraceFile,
    server: &kdv_serve::TileServer,
    setup: &ServeSetup,
) -> Result<(), String> {
    let ServeSetup { threads, stats, telemetry, .. } = setup;
    let colormap: ColorMap = args.get("colormap").unwrap_or("heat").parse()?;
    let requests: Vec<_> =
        trace.sessions.iter().flat_map(|s| s.requests.iter().map(|r| r.viewport)).collect();
    for (i, vp) in requests.iter().enumerate() {
        let (grid, outcome, tier) = server.serve_viewport_tiered(vp, *threads).map_err(|e| {
            format!("request #{} (zoom {} at {},{}): {e}", i + 1, vp.zoom, vp.px, vp.py)
        })?;
        let class = match tier.tier {
            kdv_serve::TileTier::Exact => RequestClass::Exact,
            kdv_serve::TileTier::Coreset => RequestClass::Coreset,
        };
        telemetry.record(class, outcome.wall_nanos, (i + 1) as u64);
        if *stats {
            println!(
                "request {:>3}: zoom {} @({},{}) {}x{}  tier {:7}  {:>8.3} ms  hits {} misses {} \
                 evictions {} rejected {}",
                i + 1,
                vp.zoom,
                vp.px,
                vp.py,
                vp.width,
                vp.height,
                tier.tier.name(),
                ns_to_ms(outcome.wall_nanos),
                outcome.cache_hits,
                outcome.cache_misses,
                outcome.cache_evictions,
                outcome.cache_rejected
            );
        }
        if let Some(prefix) = args.get("out-prefix") {
            let file = format!("{prefix}_{:03}.ppm", i + 1);
            render(&grid, colormap, Scale::Sqrt)
                .save_ppm(Path::new(&file))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Concurrent replay through the worker-pool front end: one closed-loop
/// thread per trace session, honoring think times.
fn serve_concurrent(
    args: &Args,
    trace: &kdv_serve::TraceFile,
    server: &Arc<kdv_serve::TileServer>,
    setup: &ServeSetup,
) -> Result<(), String> {
    let (stats, telemetry) = (setup.stats, &setup.telemetry);
    if args.get("out-prefix").is_some() {
        return Err("--out-prefix is only supported for sequential (v1) replay".into());
    }
    let workers = parse_workers(args)?;
    let queue_depth: usize =
        args.get("queue-depth").unwrap_or("64").parse().map_err(|_| "bad --queue-depth")?;
    let deadline = match args.get("deadline-ms") {
        Some(ms) => {
            Some(std::time::Duration::from_millis(ms.parse().map_err(|_| "bad --deadline-ms")?))
        }
        None => None,
    };
    let fe_config =
        kdv_serve::FrontendConfig { workers, queue_depth, deadline, threads_per_request: 1 };
    println!(
        "concurrent replay: {} session(s), {} worker(s), queue depth {}, deadline {}",
        trace.sessions.len(),
        workers,
        queue_depth,
        deadline.map_or("none".to_string(), |d| format!("{} ms", d.as_millis()))
    );
    let frontend = kdv_serve::Frontend::new(std::sync::Arc::clone(server), fe_config);
    if let Some(slo) = &telemetry.slo {
        frontend.set_slo(Arc::clone(slo));
    }
    let records = kdv_serve::replay_concurrent(&frontend, &trace.sessions, true);
    if stats {
        for r in &records {
            let outcome = match &r.outcome {
                kdv_serve::ReplayOutcome::Served { checksum } => format!("ok {checksum:016x}"),
                kdv_serve::ReplayOutcome::Shed(reason) => format!("shed ({reason})"),
                kdv_serve::ReplayOutcome::Failed(e) => format!("failed: {e}"),
            };
            println!(
                "session {:>2} req {:>3}: {:>8.3} ms  {}",
                r.session,
                r.seq + 1,
                ns_to_ms(r.latency_ns),
                outcome
            );
        }
    }
    let served = records
        .iter()
        .filter(|r| matches!(r.outcome, kdv_serve::ReplayOutcome::Served { .. }))
        .count();
    let p50 = kdv_serve::replay::latency_quantile_ns(&records, 0.5);
    let p99 = kdv_serve::replay::latency_quantile_ns(&records, 0.99);
    let fs = frontend.stats();
    println!(
        "front end: {} served, {} shed ({} queue-full, {} deadline), {}",
        served,
        fs.shed(),
        fs.shed_queue_full(),
        fs.shed_deadline(),
        kdv_obs::stats::fmt_p50_p99_ms(p50, p99)
    );
    print_flights(server);
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let input = args.get("input").ok_or("--input FILE.csv is required")?;
    let dataset = csvio::read_csv_file(Path::new(input)).map_err(|e| e.to_string())?;
    let points = dataset.points();
    let mbr = dataset.mbr();
    println!("dataset:   {}", dataset.name);
    println!("events:    {}", dataset.len());
    if !dataset.is_empty() {
        println!(
            "mbr:       [{:.1}, {:.1}] x [{:.1}, {:.1}]  ({:.1} x {:.1} m)",
            mbr.min_x,
            mbr.max_x,
            mbr.min_y,
            mbr.max_y,
            mbr.width(),
            mbr.height()
        );
        println!("scott b:   {:.2} m", kdv_data::scott_bandwidth(&points));
        let ts: Vec<i64> = dataset.records.iter().map(|r| r.timestamp).collect();
        println!("time span: {} .. {}", ts.iter().min().unwrap(), ts.iter().max().unwrap());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "render" => cmd_render(&args).map(|text| print!("{text}")),
        "bench" => cmd_bench(&args).map(|text| print!("{text}")),
        "hotspots" => cmd_hotspots(&args),
        "stkdv" => cmd_stkdv(&args),
        "serve" => cmd_serve(&args),
        "info" => cmd_info(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn args_values_flags_and_last_wins() {
        let a = args(&["--res", "64x48", "--ascii", "--res", "128x96"]);
        assert_eq!(a.get("res"), Some("128x96"));
        assert!(a.has_flag("ascii"));
        assert!(!a.has_flag("res"));
        assert_eq!(a.get("missing"), None);
    }

    /// Arbitrary flag values: short strings over the characters numbers
    /// are written with (signs, exponents, `x` separators, `NaN`/`inf`
    /// letters, a space, a non-ASCII letter), or one of the values at the
    /// edges of each parser's range.
    fn flag_value() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let chars: Vec<char> = "0123456789.-+eExXnaNAifIty é".chars().collect();
        // `|`-separated, the first one empty
        let edges: Vec<String> = "|0|-0|1|-1|NaN|nan|inf|-inf|infinity|1e309|1e-320|10|10.000001\
            |4096|4097|23|24|255|256|1024|1025|17592186044415|17592186044416|18446744073709551615\
            |18446744073709551616|0x0|1x0\
            |x|640x480|4294967296x4294967296|99999999999999999999x1|1x1x1| 64x48"
            .split('|')
            .map(String::from)
            .collect();
        (
            prop::collection::vec(prop::sample::select(chars), 0..24),
            prop::sample::select(edges),
            0u8..3,
        )
            .prop_map(|(chars, edge, pick)| match pick {
                0 => edge,
                1 => chars.into_iter().collect(),
                _ => format!("{edge}{}", chars.into_iter().collect::<String>()),
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Every numeric flag parser returns `Err` or a value inside its
        /// own validation, and none panics. Parsing only: no command runs
        /// and no thread is started for any value.
        #[test]
        fn numeric_flag_parsers_return_err_or_a_valid_value(value in flag_value()) {
            use proptest::prelude::*;
            // `--res` and `--base-res` go through `GridSpec::new` next
            let unit = kdv_core::Rect::new(0.0, 0.0, 1.0, 1.0);
            if let Ok(grid) = parse_res(&value).and_then(|(x, y)| {
                GridSpec::new(unit, x, y).map_err(|e| e.to_string())
            }) {
                let bytes = grid.res_x.checked_mul(grid.res_y).and_then(|p| p.checked_mul(8));
                prop_assert!(grid.res_x >= 1 && grid.res_y >= 1, "--res {:?}", value);
                prop_assert!(bytes.is_some_and(|b| b <= isize::MAX as usize), "--res {:?}", value);
            }
            if let Ok(b) = parse_bandwidth(&value) {
                prop_assert!(b.is_finite() && b > 0.0, "--bandwidth {:?}", value);
            }
            if let Ok(v) = parse_scale(&value) {
                prop_assert!(v > 0.0 && v <= MAX_SCALE, "--scale {:?}", value);
            }
            if let Ok(t) = parse_tile_size(&value) {
                prop_assert!((1..=MAX_TILE_SIZE).contains(&t), "--tile-size {:?}", value);
            }
            for flag in ["max-zoom", "coreset-zoom"] {
                if let Ok(z) = parse_zoom(flag, &value) {
                    prop_assert!(z < kdv_serve::ZOOM_LIMIT, "--{} {:?}", flag, value);
                }
            }
            for flag in ["threads", "workers"] {
                if let Ok(n) = parse_thread_count(flag, &value) {
                    prop_assert!(n <= MAX_THREADS, "--{} {:?}", flag, value);
                }
            }
            if let Ok(bytes) = parse_cache_mb(&value) {
                // whole MiB, and exactly the MiB asked for: nothing wrapped
                prop_assert!(bytes % (1 << 20) == 0, "--cache-mb {:?}", value);
                prop_assert_eq!(value.parse::<usize>(), Ok(bytes >> 20), "--cache-mb {:?}", value);
            }
        }
    }

    #[test]
    fn numeric_flags_reject_their_edge_values() {
        for bad in ["0", "-1", "NaN", "inf", "1e309", ""] {
            assert!(parse_bandwidth(bad).is_err(), "--bandwidth {bad}");
            assert!(parse_scale(bad).is_err(), "--scale {bad}");
        }
        assert_eq!(parse_bandwidth("2.5"), Ok(2.5));
        assert_eq!(parse_scale("10"), Ok(MAX_SCALE));
        assert!(parse_scale("10.000001").is_err());
        assert_eq!(parse_tile_size("4096"), Ok(MAX_TILE_SIZE));
        for bad in ["0", "4097", "18446744073709551615"] {
            assert!(parse_tile_size(bad).is_err(), "--tile-size {bad}");
        }
        assert_eq!(parse_zoom("max-zoom", "23"), Ok(23));
        assert!(parse_zoom("max-zoom", "24").unwrap_err().contains("--max-zoom"));
        assert_eq!(parse_res("640x480"), Ok((640, 480)));
        for bad in ["x", "640", "-1x4", "1x1x1"] {
            assert!(parse_res(bad).is_err(), "--res {bad}");
        }
        assert_eq!(parse_cache_mb("256"), Ok(256 << 20));
        assert_eq!(parse_cache_mb("0"), Ok(0));
        let largest = usize::MAX >> 20;
        assert_eq!(parse_cache_mb(&largest.to_string()), Ok(largest << 20));
        // 2^44 MiB is 2^64 bytes: it used to wrap to a 0-byte budget
        for bad in [&(largest + 1).to_string(), "17592186044416", "-1", "1.5", ""] {
            let err = parse_cache_mb(bad).unwrap_err();
            assert!(err.contains("--cache-mb"), "--cache-mb {bad}: {err}");
        }
    }

    #[test]
    fn thread_counts_above_the_ceiling_are_rejected() {
        // parsing only: no thread is started for any of these values
        for (flag, parse) in [
            ("threads", parse_threads as fn(&Args) -> Result<usize, String>),
            ("workers", parse_workers),
        ] {
            let key = format!("--{flag}");
            let with = |value: &str| parse(&args(&[&key, value]));
            assert_eq!(with(&MAX_THREADS.to_string()), Ok(MAX_THREADS));
            assert_eq!(with("3"), Ok(3));
            for too_many in [MAX_THREADS + 1, 1_000_000, usize::MAX] {
                let err = with(&too_many.to_string()).unwrap_err();
                assert!(err.contains(&key), "{err}");
            }
            assert!(with("-1").is_err());
            assert!(with("99999999999999999999999").is_err());
        }
        assert_eq!(parse_workers(&args(&[])), Ok(4));
        assert!(USAGE.contains(&format!("at most {MAX_THREADS}")), "usage names the ceiling");
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = args(&["--ascii", "--verbose"]);
        assert!(a.has_flag("ascii"));
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn city_aliases() {
        assert_eq!(parse_city("seattle").unwrap(), City::Seattle);
        assert_eq!(parse_city("LA").unwrap(), City::LosAngeles);
        assert_eq!(parse_city("new-york").unwrap(), City::NewYork);
        assert_eq!(parse_city("sf").unwrap(), City::SanFrancisco);
        assert!(parse_city("gotham").is_err());
    }

    #[test]
    fn method_names() {
        assert!(matches!(parse_method("scan").unwrap(), AnyMethod::Scan));
        assert!(matches!(
            parse_method("slam-bucket-rao").unwrap(),
            AnyMethod::Slam(Method::SlamBucketRao)
        ));
        assert!(matches!(parse_method("Z-ORDER").unwrap(), AnyMethod::ZOrder { .. }));
        assert!(parse_method("magic").is_err());
    }

    #[test]
    fn resolution_parsing() {
        assert_eq!(parse_res("320x240").unwrap(), (320, 240));
        assert_eq!(parse_res("1X2").unwrap(), (1, 2));
        assert!(parse_res("320").is_err());
        assert!(parse_res("ax2").is_err());
    }

    /// A resolution whose pixel count overflows `usize` parses, but the
    /// grid rejects it with an error instead of the render aborting in the
    /// allocator.
    #[test]
    fn oversized_resolution_is_an_error_not_an_abort() {
        let (rx, ry) = parse_res("4294967296x4294967296").unwrap();
        let region = kdv_core::Rect::new(0.0, 0.0, 1.0, 1.0);
        let err = GridSpec::new(region, rx, ry).map_err(|e| e.to_string()).unwrap_err();
        assert!(err.contains("4294967296x4294967296"), "{err}");
    }

    /// Runs `body` holding the span recorder's exclusive guard. The
    /// recorder is process-global, so every test here that sweeps or
    /// serves goes through this: no test's spans can enter another's trace.
    fn exclusive<T>(body: impl FnOnce() -> T) -> T {
        let _guard = kdv_obs::span::exclusive();
        body()
    }

    /// The number right after the first `prefix` in `text`.
    fn figure(text: &str, prefix: &str) -> usize {
        let at = text.find(prefix).unwrap_or_else(|| panic!("{prefix:?} missing from\n{text}"));
        let digits: String =
            text[at + prefix.len()..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap()
    }

    #[test]
    fn checkpoint_line_reports_the_cache_counters_and_share() {
        let region = kdv_core::Rect::new(0.0, 0.0, 100.0, 100.0);
        let pyramid = kdv_serve::PyramidSpec::new(region, 16, 48, 48, 2).unwrap();
        let config = kdv_serve::ServeConfig {
            dataset: 1,
            kernel: KernelType::Epanechnikov,
            bandwidth: 14.0,
            weight: 0.01,
        };
        let points = (0..200)
            .map(|i| kdv_core::geom::Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        let server = exclusive(|| {
            let server = kdv_serve::TileServer::new(pyramid, config, points, 1 << 20, 1);
            // a sweep of tiles 2..=3, then a pan right that resumes at 64
            for px in [40, 64] {
                let vp = kdv_serve::Viewport { zoom: 2, px, py: 64, width: 20, height: 16 };
                server.serve_viewport(&vp, 1).unwrap();
            }
            server
        });
        let (cache, cs) = (server.cache(), server.cache_stats());
        assert!(cs.checkpoint_hits() > 0 && cache.checkpoints() > 0);
        let line = checkpoint_line(cache);
        assert_eq!(figure(&line, "checkpoints: "), cs.checkpoint_hits() as usize, "{line}");
        assert_eq!(figure(&line, " / "), cs.checkpoint_misses() as usize, "{line}");
        assert_eq!(figure(&line, "), "), cs.checkpoint_evictions() as usize, "{line}");
        assert_eq!(figure(&line, "displaced, "), cache.checkpoints(), "{line}");
        assert_eq!(figure(&line, "held in "), cache.checkpoint_bytes(), "{line}");
        // 88 B of sweep state beside a 16-px tile's 128 B per row
        assert_eq!(figure(&line, "B of a "), (1 << 20) * 88 / (128 + 88), "{line}");
    }

    #[test]
    fn render_stats_count_the_rows_and_envelopes() {
        // two clusters of points in horizontal strips, so the rows between
        // them have an empty band
        let dir = std::env::temp_dir().join(format!("kdv-cli-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut csv = String::from("x,y,timestamp,category\n");
        for i in 0..120 {
            let y = if i % 2 == 0 { (i % 7) as f64 } else { 93.0 + (i % 5) as f64 };
            let _ = writeln!(csv, "{},{y},{},1", (i * 37 % 100) as f64, 1_000 + i);
        }
        let input = dir.join("points.csv");
        std::fs::write(&input, csv).unwrap();
        let (input, out) = (input.to_str().unwrap(), dir.join("kdv.ppm"));
        let a = args(&[
            "--input",
            input,
            "--res",
            "40x30",
            "--bandwidth",
            "6",
            "--method",
            "slam-bucket",
            "--threads",
            "2",
            "--stats",
            "--out",
            out.to_str().unwrap(),
        ]);
        let text = exclusive(|| cmd_render(&a).unwrap());
        let (points, params) = load_problem(&a).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let ctx = kdv_core::driver::SweepContext::new(&params, &points).unwrap();
        let mut envelope = kdv_core::envelope::EnvelopeBuffer::new();
        let (mut skipped, mut total) = (0, 0);
        for &k in &ctx.ks {
            let band = ctx.index.band(params.bandwidth, k);
            if band.is_empty() {
                skipped += 1;
            } else {
                total += envelope.fill_band(&ctx.index, band, params.bandwidth, k).len();
            }
        }
        assert!(skipped > 0 && total > 0, "the raster should have swept and skipped rows");
        assert_eq!(figure(&text, "sweep stats: "), 30, "{text}");
        assert_eq!(figure(&text, "envelopes: total "), total, "{text}");
        let line = text.lines().find(|l| l.contains("empty rows skipped")).unwrap();
        assert_eq!(figure(line, ", "), skipped, "{text}");
    }
}
