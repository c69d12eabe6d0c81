//! Streaming tile serving: cached tiles **patched** with delta sweeps.
//!
//! A [`LiveTileServer`] serves viewports over a mutating
//! [`kdv_stream::StreamingPointSet`]. Where the frozen-set
//! [`crate::server::TileServer`] would have to throw every cached tile
//! away on each append, this server advances them: kernel sums are
//! additive, so a cached band of generation `g₀` becomes the band of
//! generation `g` by folding in a weighted sweep of only the delta
//! batches `g₀..g`, restricted to the band's rows
//! ([`kdv_stream::fold_batches`] →
//! [`kdv_core::tile::accumulate_rows_weighted`]). Batches whose
//! y-extent ± bandwidth misses the band are skipped entirely
//! (bandwidth-radius invalidation) — bit-transparently, because the fold
//! skips exactly-zero delta pixels.
//!
//! **Exactness contract.** The canonical raster of generation `g` is
//! defined as: epoch-base band sweep, then each batch's weighted band
//! sweep folded in batch order. Cold misses run exactly that program;
//! patches run its *suffix* starting from the cached prefix — the same
//! additions in the same order — so a served viewport is bitwise-equal
//! to a rebuild-from-scratch at generation `g`, for any cache state,
//! patch history, zoom and thread count. `crates/conformance` holds the
//! server to that contract (`streaming append/expire serve vs cold
//! rebuild`, `Policy::Bitwise`).
//!
//! **Generations never alias.** Every sealed batch and every compaction
//! bumps the stream's generation, and the generation is part of
//! [`TileKey`], so a request for the current state can never be answered
//! by a stale tile. Compaction rebases onto a re-swept (re-associated)
//! base, so post-compaction tiles are *recomputed*, not patched — the
//! contract across a compaction is equality with a fresh server over the
//! compacted live set, which the `kdv-stream` property tests pin down.
//!
//! **Counters.** A patch is neither a miss nor an insert: the request
//! reports it under `patched` ([`crate::cache::CacheStats::patched`],
//! `SweepReport::cache_patched`), and the single-flight table keys
//! flights by `(zoom, band, generation)` so a recompute forced by *new
//! data* is fresh work, while recomputing a `(band, generation)` this
//! server already produced still counts as a duplicate.
//!
//! Overview tier: when configured, zooms at or below the threshold are
//! served from an ε-coreset of the **epoch base** with the exact delta
//! batches folded on top. Folding identical exact deltas into both the
//! approximate and the exact raster leaves their sup-distance unchanged
//! up to per-pixel rounding, so the advertised bound only gains a
//! machine-epsilon-scale slack term; the coreset is rebuilt from the
//! live set at each compaction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::parallel::for_each_index_with;
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::telemetry::SweepReport;
use kdv_core::tile::{slice_band, sweep_rows, sweep_rows_weighted, Tile, Tiling};
use kdv_core::weighted::WeightedWorkspace;
use kdv_core::{DensityGrid, KdvError, Point, Result};
use kdv_coreset::Coreset;
use kdv_stream::{fold_batches, StreamSnapshot, StreamingPointSet};

use crate::cache::{CacheStats, TileCache, TileKey, TileTier};
use crate::flight::{Flight, FlightStats, FlightTable};
use crate::pyramid::{PyramidSpec, TileCoord, Viewport};
use crate::server::{OverviewConfig, ServeConfig, TierInfo, TileWindow};

/// Streaming-specific configuration.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Advance stale cached tiles with delta folds (`true`) or recompute
    /// every band from scratch on any data change (`false` — the control
    /// arm `bench_stream` measures the patch speedup against).
    pub patching: bool,
    /// Compact (fold the delta into the base) once this many batches
    /// have accumulated; `None` never compacts.
    pub compact_every: Option<u64>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self { patching: true, compact_every: None }
    }
}

/// Saturating counters specific to streaming serving.
#[derive(Debug, Default)]
pub struct LiveStats {
    patched_bands: kdv_obs::Counter,
    recomputed_bands: kdv_obs::Counter,
    folded_batches: kdv_obs::Counter,
}

impl LiveStats {
    /// Bands advanced by patching cached tiles (no base re-sweep).
    pub fn patched_bands(&self) -> u64 {
        self.patched_bands.get()
    }

    /// Bands recomputed from the epoch base (cold, unpatchable, or
    /// patching disabled).
    pub fn recomputed_bands(&self) -> u64 {
        self.recomputed_bands.get()
    }

    /// Delta batches folded into bands (patch suffixes and cold
    /// rebuilds both count; radius-skipped batches do not).
    pub fn folded_batches(&self) -> u64 {
        self.folded_batches.get()
    }
}

/// Single-flight key: a band *of one generation*. Recomputing a band
/// because the data changed is fresh work; recomputing the same
/// `(zoom, band, generation)` twice is a duplicate.
type LiveBandId = (u8, usize, u64);

/// The shared tiles of one computed band, in `tx` order.
type BandTiles = Vec<Arc<Tile>>;

/// The overview coreset of one epoch.
struct OverviewState {
    epoch: u64,
    coreset: Arc<Coreset>,
}

/// Caching tile server over a streaming point set.
pub struct LiveTileServer {
    pyramid: PyramidSpec,
    config: ServeConfig,
    live: LiveConfig,
    cache: TileCache,
    stream: Mutex<StreamingPointSet>,
    /// Per-zoom sweep context over the **epoch base**, tagged with the
    /// epoch it was built for (rebuilt lazily after compaction).
    base_contexts: Mutex<HashMap<u8, (u64, Arc<SweepContext>)>>,
    /// Per-zoom context over the overview coreset, tagged with its epoch.
    coreset_contexts: Mutex<HashMap<u8, (u64, Arc<SweepContext>)>>,
    /// Per-`(zoom, batch generation)` contexts over delta batches.
    /// Batch generations are globally unique (monotone across epochs),
    /// and the map is cleared on compaction when the batches die.
    batch_contexts: Mutex<HashMap<(u8, u64), Arc<SweepContext>>>,
    /// Which generation each band's cached tiles are at (the
    /// patch-vs-recompute decision). A band absent here has nothing
    /// usable cached.
    band_gens: Mutex<HashMap<(u8, usize), u64>>,
    flights: FlightTable<LiveBandId, Arc<BandTiles>>,
    stats: LiveStats,
    overview_config: Option<OverviewConfig>,
    overview: Mutex<Option<OverviewState>>,
}

/// What one request decided to do about one band it needs.
enum BandPlan {
    /// Patch the cached band forward from this generation.
    Patch(u64),
    /// Sweep the band from the epoch base (and fold all batches).
    Cold,
}

impl LiveTileServer {
    /// A streaming server whose epoch base is `base`.
    pub fn new(
        pyramid: PyramidSpec,
        config: ServeConfig,
        live: LiveConfig,
        base: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
    ) -> Self {
        Self {
            pyramid,
            config,
            live,
            cache: TileCache::new(cache_bytes, cache_shards),
            stream: Mutex::new(StreamingPointSet::new(base)),
            base_contexts: Mutex::new(HashMap::new()),
            coreset_contexts: Mutex::new(HashMap::new()),
            batch_contexts: Mutex::new(HashMap::new()),
            band_gens: Mutex::new(HashMap::new()),
            flights: FlightTable::new(),
            stats: LiveStats::default(),
            overview_config: None,
            overview: Mutex::new(None),
        }
    }

    /// [`LiveTileServer::new`] plus an approximate overview tier. The
    /// ε-coreset summarises the **epoch base**; delta batches are folded
    /// exactly on top of the coreset raster, and each compaction rebuilds
    /// the coreset from the then-live set.
    pub fn with_overview_coreset(
        pyramid: PyramidSpec,
        config: ServeConfig,
        live: LiveConfig,
        base: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
        overview: OverviewConfig,
    ) -> Result<Self> {
        let mut server = Self::new(pyramid, config, live, base, cache_bytes, cache_shards);
        server.overview_config = Some(overview);
        let snapshot = server.stream.lock().expect("stream poisoned").snapshot();
        server.overview_for(&snapshot)?; // build (and certify) eagerly
        Ok(server)
    }

    /// The pyramid this server answers for.
    pub fn pyramid(&self) -> &PyramidSpec {
        &self.pyramid
    }

    /// The kernel configuration this server answers under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The cache's cumulative saturating counters.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The tile cache (exposed for stress tests and byte accounting).
    pub fn cache(&self) -> &TileCache {
        &self.cache
    }

    /// The single-flight band-computation counters.
    pub fn flight_stats(&self) -> &FlightStats {
        self.flights.stats()
    }

    /// The streaming-specific counters.
    pub fn live_stats(&self) -> &LiveStats {
        &self.stats
    }

    /// Current generation of the underlying stream.
    pub fn generation(&self) -> u64 {
        self.stream.lock().expect("stream poisoned").generation()
    }

    /// Current epoch of the underlying stream.
    pub fn epoch(&self) -> u64 {
        self.stream.lock().expect("stream poisoned").epoch()
    }

    /// Number of currently-live points.
    pub fn live_len(&self) -> usize {
        self.stream.lock().expect("stream poisoned").live_len()
    }

    /// The live points in arrival order (what a rebuild would sweep).
    pub fn live_points(&self) -> Vec<Point> {
        self.stream.lock().expect("stream poisoned").live_points()
    }

    /// A consistent snapshot of the stream's current state.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.stream.lock().expect("stream poisoned").snapshot()
    }

    /// Appends `points` as one batch; returns the new generation.
    /// Triggers compaction when `compact_every` is reached.
    pub fn append(&self, points: &[Point]) -> u64 {
        let mut stream = self.stream.lock().expect("stream poisoned");
        stream.append(points);
        self.maybe_compact(&mut stream)
    }

    /// Expires the `n` oldest live points as one batch; returns the new
    /// generation and the expired points.
    pub fn expire_oldest(&self, n: usize) -> (u64, Vec<Point>) {
        let mut stream = self.stream.lock().expect("stream poisoned");
        let (_, expired) = stream.expire_oldest(n);
        (self.maybe_compact(&mut stream), expired)
    }

    /// Seals one mixed signed batch (see
    /// [`StreamingPointSet::apply_signed`]); returns the new generation.
    pub fn apply_signed(&self, points: &[Point], weights: &[f64]) -> Result<u64> {
        let mut stream = self.stream.lock().expect("stream poisoned");
        stream.apply_signed(points, weights)?;
        Ok(self.maybe_compact(&mut stream))
    }

    /// Forces a compaction now, regardless of `compact_every`.
    pub fn compact(&self) -> u64 {
        let mut stream = self.stream.lock().expect("stream poisoned");
        let generation = stream.compact();
        self.batch_contexts.lock().expect("batch contexts poisoned").clear();
        generation
    }

    fn maybe_compact(&self, stream: &mut StreamingPointSet) -> u64 {
        if let Some(k) = self.live.compact_every {
            if stream.batch_count() as u64 >= k {
                let generation = stream.compact();
                self.batch_contexts.lock().expect("batch contexts poisoned").clear();
                return generation;
            }
        }
        stream.generation()
    }

    /// Which tier answers requests at `zoom`.
    pub fn tier_of(&self, zoom: u8) -> TileTier {
        match self.overview_config {
            Some(cfg) if zoom <= cfg.max_zoom.min(self.pyramid.max_zoom) => TileTier::Coreset,
            _ => TileTier::Exact,
        }
    }

    fn key(&self, zoom: u8, tx: usize, ty: usize, generation: u64) -> TileKey {
        TileKey::new(
            self.config.dataset,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
            TileCoord { zoom, tx: tx as u32, ty: ty as u32 },
        )
        .with_tier(self.tier_of(zoom))
        .with_generation(generation)
    }

    fn level_params(&self, zoom: u8) -> KdvParams {
        self.pyramid.level_params(
            zoom,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
        )
    }

    /// The overview coreset for the snapshot's epoch, (re)built when a
    /// compaction has rebased the epoch since the last build.
    fn overview_for(&self, snapshot: &StreamSnapshot) -> Result<Arc<Coreset>> {
        let cfg = self.overview_config.ok_or(KdvError::Internal("no overview tier configured"))?;
        let mut state = self.overview.lock().expect("overview poisoned");
        if let Some(s) = state.as_ref() {
            if s.epoch == snapshot.epoch {
                return Ok(Arc::clone(&s.coreset));
            }
        }
        let _s = kdv_obs::span1("serve.overview.rebuild", "epoch", snapshot.epoch);
        let threshold = cfg.max_zoom.min(self.pyramid.max_zoom);
        let eval_grids = (0..=threshold).map(|z| self.pyramid.level_grid(z)).collect();
        let scale = kdv_coreset::density_scale(
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
            snapshot.base.len(),
        );
        let spec = kdv_coreset::CoresetSpec {
            method: cfg.method,
            target_epsilon: cfg.target_rel_epsilon * scale,
            kernel: self.config.kernel,
            bandwidth: self.config.bandwidth,
            weight: self.config.weight,
            seed: cfg.seed,
            eval_grids,
        };
        let coreset = Arc::new(kdv_coreset::build(&spec, &snapshot.base)?);
        *state = Some(OverviewState { epoch: snapshot.epoch, coreset: Arc::clone(&coreset) });
        Ok(coreset)
    }

    /// Tier metadata for a request at `zoom` against `snapshot`. The
    /// coreset tier's advertised ε is the certified epoch-base bound plus
    /// a `2⁻²⁴·scale` slack absorbing the per-pixel rounding of folding
    /// the exact deltas into an approximate base raster.
    fn tier_info_for(&self, snapshot: &StreamSnapshot, zoom: u8) -> Result<TierInfo> {
        match self.tier_of(zoom) {
            TileTier::Exact => {
                Ok(TierInfo { tier: TileTier::Exact, epsilon: None, coreset_size: None })
            }
            TileTier::Coreset => {
                let coreset = self.overview_for(snapshot)?;
                let scale = kdv_coreset::density_scale(
                    self.config.kernel,
                    self.config.bandwidth,
                    self.config.weight,
                    snapshot.base.len() + snapshot.delta_len(),
                );
                Ok(TierInfo {
                    tier: TileTier::Coreset,
                    epsilon: Some(coreset.epsilon + scale * 2.0f64.powi(-24)),
                    coreset_size: Some(coreset.len()),
                })
            }
        }
    }

    /// The sweep context for this zoom's *base* raster under the
    /// snapshot's epoch: the epoch base for the exact tier, the overview
    /// coreset for the coreset tier.
    fn base_context(&self, snapshot: &StreamSnapshot, zoom: u8) -> Result<Arc<SweepContext>> {
        let (map, points): (_, Arc<Vec<Point>>) = match self.tier_of(zoom) {
            TileTier::Exact => (&self.base_contexts, Arc::clone(&snapshot.base)),
            TileTier::Coreset => {
                let coreset = self.overview_for(snapshot)?;
                // context over the coreset representatives
                (&self.coreset_contexts, Arc::new(coreset.points.clone()))
            }
        };
        let mut map = map.lock().expect("context map poisoned");
        if let Some((epoch, ctx)) = map.get(&zoom) {
            if *epoch == snapshot.epoch {
                return Ok(Arc::clone(ctx));
            }
        }
        let _s = kdv_obs::span1("pyramid.build", "zoom", zoom as u64);
        let ctx = Arc::new(SweepContext::new(&self.level_params(zoom), &points)?);
        map.insert(zoom, (snapshot.epoch, Arc::clone(&ctx)));
        Ok(ctx)
    }

    /// Sweep contexts for every batch of `snapshot` at `zoom`, in batch
    /// order, from the per-generation cache.
    fn batch_contexts_for(
        &self,
        snapshot: &StreamSnapshot,
        zoom: u8,
    ) -> Result<Vec<Arc<SweepContext>>> {
        let params = self.level_params(zoom);
        let mut map = self.batch_contexts.lock().expect("batch contexts poisoned");
        let mut out = Vec::with_capacity(snapshot.batches.len());
        for (i, batch) in snapshot.batches.iter().enumerate() {
            let generation = snapshot.epoch_generation + 1 + i as u64;
            let ctx = match map.get(&(zoom, generation)) {
                Some(ctx) => Arc::clone(ctx),
                None => {
                    let ctx = Arc::new(SweepContext::new(&params, &batch.points)?);
                    map.insert((zoom, generation), Arc::clone(&ctx));
                    ctx
                }
            };
            out.push(ctx);
        }
        Ok(out)
    }

    /// Serves one viewport against the stream's current generation; see
    /// [`LiveTileServer::serve_viewport_tiered`].
    pub fn serve_viewport(
        &self,
        viewport: &Viewport,
        threads: usize,
    ) -> Result<(DensityGrid, SweepReport)> {
        let (grid, report, _tier) = self.serve_viewport_tiered(viewport, threads)?;
        Ok((grid, report))
    }

    /// Serves one viewport against a consistent snapshot of the stream:
    /// assembles the window from generation-`g` tiles, **patching**
    /// cached older-generation bands with delta folds where possible and
    /// sweeping from the epoch base otherwise. The raster is
    /// bitwise-equal to a rebuild-from-scratch of generation `g` cropped
    /// to the viewport, for any cache state and thread count.
    ///
    /// The report's cache counters are the deltas this request itself
    /// caused; patched tiles appear under `cache_patched`, not as
    /// misses.
    pub fn serve_viewport_tiered(
        &self,
        viewport: &Viewport,
        threads: usize,
    ) -> Result<(DensityGrid, SweepReport, TierInfo)> {
        let started = Instant::now();
        let mut span = kdv_obs::span1("serve.viewport", "zoom", viewport.zoom as u64);
        let vp = viewport
            .clamped(&self.pyramid)
            .ok_or(KdvError::EmptyResolution { x: viewport.width, y: viewport.height })?;
        // The clamped window's size: the request's own `width × height`
        // is untrusted and may overflow.
        span.arg("pixels", vp.num_pixels() as u64);
        let snapshot = self.snapshot();
        let generation = snapshot.generation();
        span.arg("generation", generation);
        // Generation lag = stream.generation - serve.generation: how far
        // behind ingestion the bits being served are.
        kdv_obs::metrics::global().gauge("serve.generation").set(generation);
        let tier_info = self.tier_info_for(&snapshot, vp.zoom)?;
        kdv_obs::metrics::global()
            .counter(match tier_info.tier {
                TileTier::Exact => "serve.tier.exact",
                TileTier::Coreset => "serve.tier.coreset",
            })
            .bump();
        let tiling = self.pyramid.level_tiling(vp.zoom);
        let mut window = TileWindow::new(&vp, self.pyramid.tile_size);

        // Decide per band: fresh (cached at this generation), patchable
        // (cached at an older generation of this epoch), or cold.
        let registry: HashMap<usize, u64> = {
            let reg = self.band_gens.lock().expect("band registry poisoned");
            window.rows().filter_map(|ty| reg.get(&(vp.zoom, ty)).map(|&g| (ty, g))).collect()
        };
        let mut work: Vec<(usize, BandPlan)> = Vec::new();
        let (mut req_hits, mut req_misses) = (0u64, 0u64);
        for ty in window.rows() {
            match registry.get(&ty) {
                Some(&g) if g == generation => {
                    // Expect cached tiles at the current generation:
                    // counting lookups, like any warm request.
                    let mut evicted = false;
                    for tx in window.cols() {
                        match self.cache.get(&self.key(vp.zoom, tx, ty, generation)) {
                            Some(tile) => {
                                req_hits += 1;
                                window.put(tile);
                            }
                            None => {
                                req_misses += 1;
                                evicted = true;
                            }
                        }
                    }
                    if evicted {
                        work.push((ty, BandPlan::Cold));
                    }
                }
                Some(&g) if self.live.patching && snapshot.patchable_from(g) => {
                    // Patch path: the band's bits are cached, just stale.
                    // Deliberately no counting lookups — a patch is
                    // neither a hit (the bits weren't current) nor a
                    // miss (no base sweep was needed).
                    work.push((ty, BandPlan::Patch(g)));
                }
                _ => {
                    req_misses += window.cols().len() as u64;
                    work.push((ty, BandPlan::Cold));
                }
            }
        }

        let req_evictions = AtomicU64::new(0);
        let req_rejected = AtomicU64::new(0);
        let req_patched = AtomicU64::new(0);
        if !work.is_empty() {
            let base_ctx = self.base_context(&snapshot, vp.zoom)?;
            let batch_ctxs = self.batch_contexts_for(&snapshot, vp.zoom)?;
            let coreset = match tier_info.tier {
                TileTier::Coreset => Some(self.overview_for(&snapshot)?),
                TileTier::Exact => None,
            };
            let keys: Vec<LiveBandId> =
                work.iter().map(|&(ty, _)| (vp.zoom, ty, generation)).collect();
            let plans: HashMap<usize, BandPlan> = work.into_iter().collect();
            let (lead, join) = self.flights.claim(&keys);
            let params = self.level_params(vp.zoom);
            let req = LiveLeadContext {
                snapshot: &snapshot,
                params: &params,
                tiling: &tiling,
                zoom: vp.zoom,
                generation,
                base_ctx: &base_ctx,
                batch_ctxs: &batch_ctxs,
                coreset: coreset.as_deref(),
                evictions: &req_evictions,
                rejected: &req_rejected,
                patched: &req_patched,
            };

            let led: Vec<Result<Arc<BandTiles>>> =
                for_each_index_with(lead.len(), threads, LiveScratch::default, |scratch, i| {
                    let ((_, ty, _), ref flight) = lead[i];
                    let plan = plans.get(&ty).expect("claimed band has a plan");
                    self.lead_band(&req, ty, plan, flight, scratch)
                });

            for result in led {
                window.put_band(&result?);
            }
            for (_, flight) in join {
                window.put_band(&flight.wait()?);
            }
        }

        let out = window.assemble(&tiling, &vp);

        let mut report = SweepReport::from_workers(Vec::new(), vp.height, 0)
            .with_cache_counters(req_hits, req_misses, req_evictions.load(Ordering::Relaxed))
            .with_cache_rejected(req_rejected.load(Ordering::Relaxed))
            .with_cache_patched(req_patched.load(Ordering::Relaxed));
        report.threads = threads;
        report.wall_nanos = started.elapsed().as_nanos() as u64;
        span.arg("misses", report.cache_misses);
        span.arg("patched", report.cache_patched);
        let metrics = kdv_obs::metrics::global();
        metrics.histogram("serve.request_ns").record(report.wall_nanos);
        metrics.histogram("serve.request_ns.live").record(report.wall_nanos);
        Ok((out, report, tier_info))
    }

    /// Leads one band: patches it forward from the cached generation if
    /// the plan says so and the stale tiles are all still cached, else
    /// sweeps it from the epoch base and folds every batch. Either way
    /// the band ends cached at the request's generation, the registry is
    /// advanced, and the result is published to joined waiters.
    fn lead_band(
        &self,
        req: &LiveLeadContext<'_>,
        ty: usize,
        plan: &BandPlan,
        flight: &Arc<Flight<Arc<BandTiles>>>,
        scratch: &mut LiveScratch,
    ) -> Result<Arc<BandTiles>> {
        let zoom = req.zoom;
        let mut lease = self.flights.lease((zoom, ty, req.generation), flight);
        let rows = req.tiling.tile_rows(ty);
        let metrics = kdv_obs::metrics::global();

        // Double-check after winning the flight: another request may have
        // brought this band to our generation between this request's
        // planning and its claim (its flight already came and went, so we
        // lead a second flight for work that is already done).
        if let Some(current) = self.peek_band(zoom, ty, req.generation, req.tiling) {
            let shared: Arc<BandTiles> = Arc::new(current);
            lease.complete(Ok(Arc::clone(&shared)));
            return Ok(shared);
        }
        scratch.band.resize(rows.len() * req.tiling.res_x, 0.0);

        // Try the patch path: reassemble the band from the stale cached
        // tiles, then fold only the missing suffix of batches.
        let mut patched_from = None;
        if let BandPlan::Patch(g0) = *plan {
            if let Some(stale) = self.peek_band(zoom, ty, g0, req.tiling) {
                let mut span = kdv_obs::span2("serve.patch", "ty", ty as u64, "from", g0);
                for tile in &stale {
                    let cols = req.tiling.tile_cols(tile.tx);
                    for j in 0..rows.len() {
                        scratch.band
                            [j * req.tiling.res_x + cols.start..j * req.tiling.res_x + cols.end]
                            .copy_from_slice(tile.row(j));
                    }
                }
                let offset = (g0 - req.snapshot.epoch_generation) as usize;
                let (folded, _skipped) = fold_batches(
                    req.params,
                    req.snapshot.batches_since(g0),
                    rows.clone(),
                    &mut scratch.workspace,
                    &mut scratch.delta,
                    &mut scratch.band,
                    |i, _| Ok(Arc::clone(&req.batch_ctxs[offset + i])),
                )?;
                span.arg("folded", folded);
                patched_from = Some((g0, folded));
            } else {
                // A stale tile was evicted under us; fall back to cold.
                metrics.counter("serve.patch.recompute").bump();
            }
        }

        if patched_from.is_none() {
            // Cold: canonical program from the epoch base.
            match req.coreset {
                None => {
                    let engine = scratch.engine.get_or_insert_with(|| {
                        BucketSweep::new(
                            self.config.kernel,
                            self.config.bandwidth,
                            self.config.weight,
                        )
                    });
                    sweep_rows(
                        req.base_ctx,
                        self.config.bandwidth,
                        rows.clone(),
                        engine,
                        &mut scratch.envelope,
                        &mut scratch.band,
                    );
                }
                Some(coreset) => {
                    sweep_rows_weighted(
                        req.base_ctx,
                        req.params,
                        rows.clone(),
                        &coreset.weights,
                        &mut scratch.workspace,
                        &mut scratch.band,
                    );
                }
            }
            let (folded, _skipped) = fold_batches(
                req.params,
                &req.snapshot.batches,
                rows.clone(),
                &mut scratch.workspace,
                &mut scratch.delta,
                &mut scratch.band,
                |i, _| Ok(Arc::clone(&req.batch_ctxs[i])),
            )?;
            self.stats.recomputed_bands.bump();
            self.stats.folded_batches.add(folded);
        }

        let sliced = slice_band(req.tiling, ty, rows, &scratch.band);
        let shared: Arc<BandTiles> = Arc::new(sliced.into_iter().map(Arc::new).collect());
        match patched_from {
            Some((g0, folded)) => {
                for tile in shared.iter() {
                    let old = self.key(zoom, tile.tx, tile.ty, g0);
                    let new = self.key(zoom, tile.tx, tile.ty, req.generation);
                    let outcome = self.cache.patch(&old, new, Arc::clone(tile));
                    req.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
                    req.rejected.fetch_add(outcome.rejected as u64, Ordering::Relaxed);
                    if !outcome.rejected {
                        req.patched.fetch_add(1, Ordering::Relaxed);
                    }
                }
                metrics.counter("serve.patch.bands").bump();
                metrics.counter("serve.patch.tiles").add(shared.len() as u64);
                metrics.counter("serve.patch.batches").add(folded);
                self.stats.patched_bands.bump();
                self.stats.folded_batches.add(folded);
                // The patched-away generation is retired on purpose: a
                // slow request still serving it will recompute it cold,
                // and that is legitimate work, not a dedup failure.
                self.flights.forget(&(zoom, ty, g0));
            }
            None => {
                for tile in shared.iter() {
                    let key = self.key(zoom, tile.tx, tile.ty, req.generation);
                    let outcome = self.cache.insert(key, Arc::clone(tile));
                    req.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
                    req.rejected.fetch_add(outcome.rejected as u64, Ordering::Relaxed);
                }
            }
        }

        // Advance the registry — never backwards: a slow leader serving
        // an old snapshot must not demote a band a newer request already
        // advanced past this generation.
        {
            let mut reg = self.band_gens.lock().expect("band registry poisoned");
            let entry = reg.entry((zoom, ty)).or_insert(req.generation);
            if *entry < req.generation {
                *entry = req.generation;
            }
        }
        self.flights.record_computed((zoom, ty, req.generation));
        lease.complete(Ok(Arc::clone(&shared)));
        Ok(shared)
    }

    /// Peeks every tile of a band at `generation` (no counters, no
    /// recency): the patch path's stale input. `None` if any tile of the
    /// band has been evicted (the band is then recomputed cold).
    fn peek_band(
        &self,
        zoom: u8,
        ty: usize,
        generation: u64,
        tiling: &Tiling,
    ) -> Option<BandTiles> {
        (0..tiling.tiles_x())
            .map(|tx| self.cache.peek(&self.key(zoom, tx, ty, generation)))
            .collect()
    }

    /// Drops every cached tile generation older than the current one
    /// from the registry (testing hook: forces cold recomputes without
    /// touching the cache's byte accounting).
    pub fn forget_band_registry(&self) {
        self.band_gens.lock().expect("band registry poisoned").clear();
    }
}

/// Per-request context shared by every band a request leads.
struct LiveLeadContext<'a> {
    snapshot: &'a StreamSnapshot,
    params: &'a KdvParams,
    tiling: &'a Tiling,
    zoom: u8,
    generation: u64,
    base_ctx: &'a Arc<SweepContext>,
    batch_ctxs: &'a [Arc<SweepContext>],
    coreset: Option<&'a Coreset>,
    evictions: &'a AtomicU64,
    rejected: &'a AtomicU64,
    patched: &'a AtomicU64,
}

/// Per-worker scratch for live band computes; buffers grow on first use
/// and stay warm across bands.
struct LiveScratch {
    engine: Option<BucketSweep>,
    envelope: EnvelopeBuffer,
    workspace: WeightedWorkspace,
    band: Vec<f64>,
    delta: Vec<f64>,
}

impl Default for LiveScratch {
    fn default() -> Self {
        Self {
            engine: None,
            envelope: EnvelopeBuffer::new(),
            workspace: WeightedWorkspace::new(),
            band: Vec::new(),
            delta: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::sweep_bucket;
    use kdv_core::{KernelType, Rect};
    use kdv_stream::rebuild_grid;

    fn points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
    }

    fn config() -> ServeConfig {
        ServeConfig { dataset: 7, kernel: KernelType::Epanechnikov, bandwidth: 14.0, weight: 0.005 }
    }

    fn pyramid() -> PyramidSpec {
        PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 48, 48, 2).unwrap()
    }

    fn live_server(cache_bytes: usize, live: LiveConfig) -> LiveTileServer {
        LiveTileServer::new(pyramid(), config(), live, points(300, 0xBADC0FFE), cache_bytes, 4)
    }

    /// The canonical rebuild of the server's current state at the
    /// viewport's level, cropped — what every response must equal
    /// bitwise.
    fn rebuild_reference(server: &LiveTileServer, vp: &Viewport) -> DensityGrid {
        let params = server.pyramid().level_params(
            vp.zoom,
            server.config().kernel,
            server.config().bandwidth,
            server.config().weight,
        );
        let full = rebuild_grid(&params, &server.snapshot()).unwrap();
        let mut out = DensityGrid::zeroed(vp.width, vp.height);
        for j in 0..vp.height {
            out.row_mut(j).copy_from_slice(&full.row(vp.py + j)[vp.px..vp.px + vp.width]);
        }
        out
    }

    #[test]
    fn frozen_stream_matches_monolithic_bitwise() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let vp = Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 };
        let (grid, _) = srv.serve_viewport(&vp, 0).unwrap();
        let params = srv.pyramid().level_params(1, config().kernel, 14.0, 0.005);
        let full = sweep_bucket::compute(&params, &srv.live_points()).unwrap();
        let mut reference = DensityGrid::zeroed(vp.width, vp.height);
        for j in 0..vp.height {
            reference.row_mut(j).copy_from_slice(&full.row(vp.py + j)[vp.px..vp.px + vp.width]);
        }
        assert_eq!(grid, reference);
    }

    #[test]
    fn patched_serve_equals_rebuild_across_zooms() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let viewports = [
            Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
            Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 },
            Viewport { zoom: 2, px: 100, py: 77, width: 50, height: 33 },
        ];
        // warm every level at generation 0
        for vp in &viewports {
            srv.serve_viewport(vp, 0).unwrap();
        }
        // mutate: appends and expirations across several generations
        srv.append(&points(7, 0xA11CE));
        srv.expire_oldest(3);
        srv.append(&points(2, 0xB0B));
        for vp in &viewports {
            let (grid, report) = srv.serve_viewport(vp, 0).unwrap();
            assert_eq!(grid, rebuild_reference(&srv, vp), "{vp:?}");
            assert_eq!(report.cache_misses, 0, "{vp:?}: patching must not miss");
            assert!(report.cache_patched > 0, "{vp:?}: tiles should be patched");
        }
        assert!(srv.live_stats().patched_bands() > 0);
        assert_eq!(srv.flight_stats().duplicate_computes(), 0);
    }

    #[test]
    fn patching_disabled_recomputes_but_matches() {
        let srv = live_server(1 << 22, LiveConfig { patching: false, compact_every: None });
        let vp = Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 };
        srv.serve_viewport(&vp, 0).unwrap();
        srv.append(&points(5, 0xF00D));
        let (grid, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert_eq!(grid, rebuild_reference(&srv, &vp));
        assert_eq!(report.cache_patched, 0, "patching disabled");
        assert!(report.cache_misses > 0, "recompute path counts real misses");
    }

    #[test]
    fn compaction_preserves_served_bits() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let vp = Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 };
        srv.append(&points(9, 0xC0DE));
        srv.expire_oldest(4);
        let (before, _) = srv.serve_viewport(&vp, 0).unwrap();
        srv.compact();
        let (after, _) = srv.serve_viewport(&vp, 0).unwrap();
        // compaction reassociates the base sweep, so the contract is
        // equality with a fresh server over the compacted live set …
        let fresh = LiveTileServer::new(
            pyramid(),
            config(),
            LiveConfig::default(),
            srv.live_points(),
            1 << 22,
            4,
        );
        let (fresh_grid, _) = fresh.serve_viewport(&vp, 0).unwrap();
        assert_eq!(after, fresh_grid, "compacted serve must equal a fresh rebuild");
        // … and on this data the re-sweep happens to agree with the
        // incremental bits only approximately, never by contract:
        let close = before
            .values()
            .iter()
            .zip(after.values())
            .all(|(a, b)| (a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        assert!(close, "compaction must not change densities materially");
    }

    #[test]
    fn compact_every_triggers_and_epoch_advances() {
        let srv = live_server(1 << 22, LiveConfig { patching: true, compact_every: Some(3) });
        assert_eq!(srv.epoch(), 0);
        srv.append(&points(1, 1));
        srv.append(&points(1, 2));
        assert_eq!(srv.epoch(), 0);
        srv.append(&points(1, 3)); // third batch → compaction
        assert_eq!(srv.epoch(), 1);
        assert_eq!(srv.snapshot().batches.len(), 0);
        let vp = Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 };
        let (grid, _) = srv.serve_viewport(&vp, 0).unwrap();
        assert_eq!(grid, rebuild_reference(&srv, &vp));
    }

    #[test]
    fn overview_tier_bound_survives_streaming() {
        let overview = OverviewConfig {
            max_zoom: 1,
            method: kdv_coreset::CoresetMethod::Grid,
            target_rel_epsilon: 0.01,
            seed: 11,
        };
        let srv = LiveTileServer::with_overview_coreset(
            pyramid(),
            config(),
            LiveConfig::default(),
            points(300, 0xBADC0FFE),
            1 << 22,
            4,
            overview,
        )
        .unwrap();
        let vp = Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 };
        srv.serve_viewport(&vp, 0).unwrap();
        srv.append(&points(6, 0x5EED));
        srv.expire_oldest(2);
        let (grid, _, tier) = srv.serve_viewport_tiered(&vp, 0).unwrap();
        assert_eq!(tier.tier, TileTier::Coreset);
        let eps = tier.epsilon.unwrap();
        // exact live raster at this level
        let params = srv.pyramid().level_params(1, config().kernel, 14.0, 0.005);
        let exact = sweep_bucket::compute(&params, &srv.live_points()).unwrap();
        let sup = grid
            .values()
            .iter()
            .zip(
                (0..vp.height).flat_map(|j| exact.row(vp.py + j)[vp.px..vp.px + vp.width].to_vec()),
            )
            .map(|(a, r)| (a - r).abs())
            .fold(0.0f64, f64::max);
        assert!(sup <= eps, "sup {sup:e} > advertised {eps:e}");
        // deep zoom stays exact (bitwise vs rebuild)
        let deep = Viewport { zoom: 2, px: 100, py: 77, width: 50, height: 33 };
        let (deep_grid, _, deep_tier) = srv.serve_viewport_tiered(&deep, 0).unwrap();
        assert_eq!(deep_tier.tier, TileTier::Exact);
        assert_eq!(deep_grid, rebuild_reference(&srv, &deep));
    }

    #[test]
    fn patch_counters_are_not_misses() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let vp = Viewport { zoom: 1, px: 0, py: 0, width: 96, height: 96 };
        srv.serve_viewport(&vp, 0).unwrap();
        let (h0, m0) = (srv.cache_stats().hits(), srv.cache_stats().misses());
        srv.append(&points(3, 0xFEED));
        let (_, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert!(report.cache_patched > 0);
        assert_eq!(report.cache_misses, 0);
        assert_eq!(srv.cache_stats().misses(), m0, "patching bumped the global miss counter");
        assert_eq!(srv.cache_stats().hits(), h0, "patch path must not count hits either");
        assert_eq!(srv.cache_stats().patched(), report.cache_patched);
    }

    #[test]
    fn forgetting_the_registry_forces_cold_recompute_same_bits() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let vp = Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 };
        srv.append(&points(4, 0xDEAF));
        let (patched, _) = srv.serve_viewport(&vp, 0).unwrap();
        srv.forget_band_registry();
        let (cold, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert!(report.cache_misses > 0);
        assert_eq!(patched, cold, "cold and patched bits must be identical");
    }
}
