//! The tile server: viewport requests in, exact density rasters out.
//!
//! A [`TileServer`] serves one [`StreamingPointSet`] over a
//! [`PyramidSpec`]. A frozen point set is a stream that never seals a
//! batch: it stays at generation 0, and every request takes the same path
//! whether the data is frozen or live ([`crate::live`] holds the
//! mutation API). A request snapshots the stream, looks every tile of its
//! window up at the snapshot's generation `g`, and finds each one
//!
//! * **cached at `g`** — a hit;
//! * **cached at an older generation `g₀` of the same epoch** — a patch:
//!   kernel sums are additive, so the stale tile becomes the tile of `g`
//!   by folding in a weighted sweep of only the batches sealed since `g₀`
//!   ([`kdv_stream::fold_batches`]). The stale tiles of one band and one
//!   `g₀` are copied into the band buffer and folded together, over the
//!   columns from the leftmost to the rightmost of them;
//! * **not cached** — a cold compute: a sweep of the band's rows over the
//!   epoch base ([`kdv_core::tile::sweep_band`]) up to the right edge of
//!   its rightmost missing tile, then every batch folded over the same
//!   columns.
//!
//! The tile is the unit of a miss: a request computes exactly the tiles
//! it missed and inserts only those, and a zoom-in excursion does not
//! flood the cache with tiles nobody asked for.
//!
//! **Checkpoints.** A cold sweep records the band's sweep state
//! ([`kdv_core::tile::BandCheckpoint`], keyed by `(zoom, ty, boundary,
//! epoch generation)`) where a later cold run can resume with no lead-in:
//! at the left edge of each tile it caches, except its own start, so a
//! re-missed tile sweeps only its own columns, and at its right edge,
//! which serves a right pan. Boundaries it crosses inside its lead-in are
//! not recorded. The [`TileCache`] keeps checkpoints in an SLRU of their
//! own beside each shard's tiles, with the checkpoint's share
//! `c / (t + c)` of the byte budget (`c`, `t`: a checkpoint's and a
//! tile's bytes per row, from the engine's state words and the pyramid's
//! tile size), so a zoom excursion that pushes tiles out leaves the
//! checkpoints in front of them. A later cold run of the band resumes
//! from the nearest checkpoint at or left of its first tile instead of
//! sweeping from pixel 0, so a missed tile costs about its own columns,
//! not the whole row prefix left of it. A request looks its checkpoints
//! up in the same pass as its tiles, before computing anything, and
//! counts those lookups under [`CacheStats::checkpoint_hits`] /
//! `checkpoint_misses` only. Checkpoints hold the base sweep's state, so
//! every generation of an epoch resumes from them, with the batches
//! folded on top as usual.
//!
//! **Exactness contract.** The canonical raster of generation `g` is the
//! epoch-base sweep with each batch's weighted sweep folded in batch
//! order ([`kdv_stream::rebuild_grid`]); at generation 0 it is the
//! monolithic `sweep_bucket` raster. Cold computes run exactly that
//! program and patches run its suffix from the cached prefix — the same
//! additions in the same order, and a sweep or fold over a column range,
//! resumed or not, is bitwise those columns of the full row — so a
//! served viewport is bitwise-equal to cropping
//! the rebuild of its generation, for any cache state, patch history,
//! zoom and thread count. Compaction rebases onto a re-swept base and
//! takes a fresh generation, so stale tiles of an older epoch are never
//! patched, only recomputed; the contract across a compaction is equality
//! with a fresh server over the compacted live set.
//!
//! **Concurrency.** Tile computation is single-flight, keyed
//! `(zoom, tx, ty, generation)`: a request claims its missing tiles under
//! the in-flight table's lock, leads each tile nobody is computing yet,
//! joins the flights of the others, computes its led tiles band by band
//! and then waits on the ones it joined. A tile computed for newer data
//! is fresh work; computing the same tile of the same generation twice is
//! a duplicate, which only a cache eviction can cause, so under an
//! adequately sized cache [`FlightStats::duplicate_computes`] stays at
//! zero however many threads hammer the server. A patch retires the
//! patched-away generation's key ([`FlightTable::forget`]).
//!
//! **Counters.** Each window tile is counted once, by the lookup that
//! classified it, as a hit, a miss or a patch ([`TileCache::lookup`]), so
//! `cache_hits + cache_misses + cache_patched` of a request's
//! [`RequestOutcome`] is the number of tiles in its window, and the
//! requests' counters sum to the cache's. [`LiveStats`] counts band-prefix patches and cold sweeps.
//!
//! **Locks.** A request whose tiles are all cached at its generation
//! takes only the stream lock (for its snapshot) and the cache shard
//! locks. The stream lock recovers from poisoning through `into_inner`,
//! because every mutation leaves the stream consistent whenever the lock
//! is free; the sweep-context map is a derived cache and is cleared when
//! poisoned; the cache shards and the flight table recover as documented
//! in their modules.
//!
//! **Overview tier.** When configured, zooms at or below the threshold
//! are served from an ε-coreset of the epoch base, weighted by its
//! multiplicities, with the exact delta batches folded on top. The
//! coreset is built once per epoch (at construction, and again after each
//! compaction). Folding identical exact deltas into the approximate and
//! the exact raster leaves their sup-distance unchanged up to per-pixel
//! rounding, so a snapshot with batches advertises the certified ε plus a
//! `2⁻²⁴·scale` slack; a server that never sealed a batch advertises the
//! certified ε alone.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use kdv_core::driver::{KdvParams, RowEngine, SweepContext};
use kdv_core::parallel::for_each_index_with;
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::tile::{
    self, slice_band_tiles, sweep_band, BandCheckpoint, BandWorkspace, Tile, Tiling,
};
use kdv_core::{DensityGrid, KdvError, KernelType, Point, Result};
use kdv_coreset::{Coreset, CoresetMethod, CoresetSpec};
use kdv_obs::RequestClass;
use kdv_stream::{fold_batches, StreamSnapshot, StreamingPointSet};

use crate::cache::{
    CacheStats, CheckpointKey, InsertOutcome, Lookup, TileCache, TileKey, TileTier,
};
use crate::flight::{Flight, FlightStats, FlightTable};
use crate::live::{LiveConfig, LiveStats};
use crate::pyramid::{PyramidSpec, TileCoord, Viewport};

/// Kernel configuration a server answers requests under (one server = one
/// dataset × one kernel configuration; vary either and the tile bits
/// change, which is exactly what the cache key encodes).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Identifier of the point set, embedded in every cache key.
    pub dataset: u64,
    /// Spatial kernel.
    pub kernel: KernelType,
    /// Kernel bandwidth.
    pub bandwidth: f64,
    /// Normalisation weight.
    pub weight: f64,
}

/// Configuration of the approximate overview tier: pyramid levels at or
/// below `max_zoom` are served from an ε-coreset of the epoch base
/// instead of the full point set (deep zooms stay exact). The coreset is
/// certified on exactly the level grids this tier answers on.
#[derive(Debug, Clone, Copy)]
pub struct OverviewConfig {
    /// Highest zoom served from the coreset (inclusive); `zoom >
    /// max_zoom` requests stay exact over the full set.
    pub max_zoom: u8,
    /// Coreset construction method.
    pub method: CoresetMethod,
    /// Target sup-error, relative to the density scale `|w|·n·K(0)`
    /// (see [`kdv_coreset::density_scale`]). The achieved (certified)
    /// bound is reported in [`TierInfo::epsilon`].
    pub target_rel_epsilon: f64,
    /// Construction seed (meaningful for the `Sample` method).
    pub seed: u64,
}

/// Which tier answered a request, plus the approximation metadata a
/// client needs to label the result. Attached to every served viewport
/// by [`TileServer::serve_viewport_tiered`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierInfo {
    /// Exact or coreset provenance of every tile in the response.
    pub tier: TileTier,
    /// Advertised sup-error bound of the response vs the exact raster
    /// (`None` for the exact tier, which is bitwise-equal instead).
    pub epsilon: Option<f64>,
    /// Number of coreset representatives the tier sweeps over (`None`
    /// for the exact tier).
    pub coreset_size: Option<usize>,
}

/// What one served request did: the generation it was served at, its
/// wall time, and the cache counters **this request itself caused** —
/// one hit, miss or patch per window tile, counted along its own
/// lookups, never inferred from the global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The stream generation the response was served at.
    pub generation: u64,
    /// Wall-clock nanoseconds inside the server: the sample this request
    /// recorded into the `serve.request_ns` histogram.
    pub wall_nanos: u64,
    /// Window tiles found cached at the request's generation.
    pub cache_hits: u64,
    /// Window tiles computed cold.
    pub cache_misses: u64,
    /// Tiles this request's inserts pushed out of the cache.
    pub cache_evictions: u64,
    /// Tiles the cache refused outright (computed, never cached).
    pub cache_rejected: u64,
    /// Window tiles patched forward from an older generation.
    pub cache_patched: u64,
}

/// Single-flight identity of one tile of one generation:
/// `(zoom, tx, ty, generation)`. The server fixes dataset, kernel,
/// bandwidth and weight, and the tier is a function of the zoom.
type TileId = (u8, usize, usize, u64);

/// A tile this request leads: its id and the flight it publishes to.
type LedTile = (TileId, Arc<Flight<Arc<Tile>>>);

/// The stream and the overview coreset of its current epoch, under one
/// lock so a snapshot and its coreset always agree.
pub(crate) struct Stream {
    pub(crate) set: StreamingPointSet,
    /// The current epoch's overview coreset, once built (cleared by
    /// compaction).
    pub(crate) overview: Option<Arc<Coreset>>,
}

/// Caching tile server over a streaming point set and a pyramid.
pub struct TileServer {
    pyramid: PyramidSpec,
    config: ServeConfig,
    pub(crate) live: LiveConfig,
    cache: TileCache,
    pub(crate) stream: Mutex<Stream>,
    /// Sweep contexts by `(zoom, generation)`: at an epoch's generation
    /// the context of its base (or of its overview coreset, on coreset
    /// levels), at a batch's generation the weighted context of that
    /// batch. Generations are unique across epochs, so the two never
    /// collide; entries of older epochs are dropped when the first
    /// context of a newer one is built. The contexts of one set at
    /// different zooms share its sorted points and index
    /// ([`TileServer::contexts_for`]).
    contexts: Mutex<HashMap<(u8, u64), Arc<SweepContext>>>,
    flights: FlightTable<TileId, Arc<Tile>>,
    pub(crate) stats: LiveStats,
    overview: Option<OverviewConfig>,
}

impl TileServer {
    /// A server for the frozen point set `points` over `pyramid`,
    /// caching at most `cache_bytes` bytes of tiles across
    /// `cache_shards` shards: [`TileServer::with_live`] with the default
    /// [`LiveConfig`].
    pub fn new(
        pyramid: PyramidSpec,
        config: ServeConfig,
        points: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
    ) -> Self {
        Self::with_live(pyramid, config, LiveConfig::default(), points, cache_bytes, cache_shards)
    }

    /// A server whose stream starts from the epoch base `base` at
    /// generation 0, patching and compacting as `live` says. The cache
    /// gives checkpoints the share of `cache_bytes` that a unit-weight
    /// row's sweep state takes beside a tile's row of densities.
    pub fn with_live(
        pyramid: PyramidSpec,
        config: ServeConfig,
        live: LiveConfig,
        base: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
    ) -> Self {
        let engine = BucketSweep::new(config.kernel, config.bandwidth, config.weight);
        let checkpoint_row = engine.state_words(false) * std::mem::size_of::<u64>();
        let tile_row = pyramid.tile_size * std::mem::size_of::<f64>();
        Self {
            pyramid,
            config,
            live,
            cache: TileCache::with_checkpoint_share(
                cache_bytes,
                cache_shards,
                checkpoint_row,
                tile_row,
            ),
            stream: Mutex::new(Stream { set: StreamingPointSet::new(base), overview: None }),
            contexts: Mutex::new(HashMap::new()),
            flights: FlightTable::new(),
            stats: LiveStats::default(),
            overview: None,
        }
    }

    /// [`TileServer::with_live`] plus an approximate overview tier: builds
    /// an ε-coreset of `base` (certified on exactly the level grids of
    /// zooms `0..=overview.max_zoom`) and serves those levels from it,
    /// while deeper zooms stay exact. Each compaction rebuilds the
    /// coreset from the then-live set. The advertised ε is surfaced by
    /// [`TileServer::tier_info`] and in every [`TierInfo`] this server
    /// attaches to a response.
    pub fn with_overview_coreset(
        pyramid: PyramidSpec,
        config: ServeConfig,
        live: LiveConfig,
        base: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
        overview: OverviewConfig,
    ) -> Result<Self> {
        let mut server = Self::with_live(pyramid, config, live, base, cache_bytes, cache_shards);
        server.overview = Some(overview);
        let (snapshot, _) = server.read_stream();
        server.overview_for(&snapshot, None)?; // build (and certify) eagerly
        Ok(server)
    }

    /// Which tier answers requests at `zoom`.
    pub fn tier_of(&self, zoom: u8) -> TileTier {
        match self.overview {
            Some(cfg) if zoom <= cfg.max_zoom.min(self.pyramid.max_zoom) => TileTier::Coreset,
            _ => TileTier::Exact,
        }
    }

    /// Tier metadata for a request at `zoom` against the current state:
    /// the tier plus, for the coreset tier, the advertised ε and coreset
    /// size. A coreset level whose epoch's coreset cannot be built (the
    /// request would fail too) reports no ε.
    pub fn tier_info(&self, zoom: u8) -> TierInfo {
        let (snapshot, held) = self.read_stream();
        let coreset = match self.tier_of(zoom) {
            TileTier::Exact => None,
            TileTier::Coreset => match self.overview_for(&snapshot, held) {
                Ok(coreset) => Some(coreset),
                Err(_) => {
                    return TierInfo { tier: TileTier::Coreset, epsilon: None, coreset_size: None }
                }
            },
        };
        self.tier_info_for(&snapshot, coreset.as_deref())
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

    /// The single-flight tile-computation counters.
    pub fn flight_stats(&self) -> &FlightStats {
        self.flights.stats()
    }

    /// Locks the stream. A poisoned lock is recovered through
    /// `into_inner`: every [`StreamingPointSet`] mutation validates and
    /// computes everything that can fail before its first write, and the
    /// server's own writes under this lock are single assignments, so the
    /// stream is consistent whenever the lock is free, even after a
    /// holder panicked.
    pub(crate) fn lock_stream(&self) -> MutexGuard<'_, Stream> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A consistent snapshot of the stream and, when built, the overview
    /// coreset of its epoch.
    fn read_stream(&self) -> (StreamSnapshot, Option<Arc<Coreset>>) {
        let stream = self.lock_stream();
        (stream.set.snapshot(), stream.overview.clone())
    }

    /// The sweep-context map. It is a derived cache: if a holder
    /// panicked, it is cleared (every entry is rebuilt from the stream on
    /// demand) and serving goes on.
    fn lock_contexts(&self) -> MutexGuard<'_, HashMap<(u8, u64), Arc<SweepContext>>> {
        self.contexts.lock().unwrap_or_else(|poisoned| {
            let mut map = poisoned.into_inner();
            map.clear();
            self.contexts.clear_poison();
            map
        })
    }

    fn key(&self, zoom: u8, tx: usize, ty: usize, generation: u64) -> TileKey {
        TileKey::new(
            self.config.dataset,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
            TileCoord { zoom, tx: tx as u32, ty: ty as u32 },
            generation,
        )
        .with_tier(self.tier_of(zoom))
    }

    /// Key of the checkpoint at the left edge of tile column `tx` of band
    /// `ty`, of the epoch whose base has generation `epoch_generation`.
    fn checkpoint_key(
        &self,
        zoom: u8,
        tx: usize,
        ty: usize,
        epoch_generation: u64,
    ) -> CheckpointKey {
        CheckpointKey(self.key(zoom, tx, ty, epoch_generation))
    }

    /// Looks up the checkpoints the cold tiles `cold` (ascending columns)
    /// of band `ty` may resume from: for each run of adjacent cold tiles,
    /// the checkpoint nearest left of its first tile. The search of a run
    /// stops two columns past the previous run, because resuming at or
    /// left of the previous run's end is no cheaper than sweeping on.
    /// Returns the found checkpoints ascending by boundary; which run
    /// resumes from which is [`plan_runs`]' choice alone.
    fn find_checkpoints(
        &self,
        zoom: u8,
        ty: usize,
        epoch_generation: u64,
        cold: &[usize],
    ) -> Vec<Arc<BandCheckpoint>> {
        let mut found = Vec::new();
        for (i, &tx) in cold.iter().enumerate() {
            let floor = match i.checked_sub(1).map(|p| cold[p]) {
                Some(prev) if prev + 1 == tx => continue,
                Some(prev) => prev + 2,
                None => 1,
            };
            if tx >= floor {
                let key = self.checkpoint_key(zoom, tx, ty, epoch_generation);
                found.extend(self.cache.nearest_checkpoint(&key, floor as u32));
            }
        }
        found
    }

    fn level_params(&self, zoom: u8) -> KdvParams {
        self.pyramid.level_params(
            zoom,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
        )
    }

    /// The overview coreset of the snapshot's epoch: `held` if the
    /// snapshot came with it, else built now and stored with the stream
    /// (unless a compaction has moved on since). Concurrent first
    /// requests of an epoch may both build it; construction is
    /// deterministic, so either copy has the same bits.
    fn overview_for(
        &self,
        snapshot: &StreamSnapshot,
        held: Option<Arc<Coreset>>,
    ) -> Result<Arc<Coreset>> {
        if let Some(coreset) = held {
            return Ok(coreset);
        }
        let cfg = self.overview.ok_or(KdvError::Internal("no overview tier configured"))?;
        let _s = kdv_obs::span1("serve.overview.rebuild", "epoch", snapshot.epoch);
        let threshold = cfg.max_zoom.min(self.pyramid.max_zoom);
        let scale = kdv_coreset::density_scale(
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
            snapshot.base.len(),
        );
        let spec = CoresetSpec {
            method: cfg.method,
            target_epsilon: cfg.target_rel_epsilon * scale,
            kernel: self.config.kernel,
            bandwidth: self.config.bandwidth,
            weight: self.config.weight,
            seed: cfg.seed,
            eval_grids: (0..=threshold).map(|z| self.pyramid.level_grid(z)).collect(),
        };
        let coreset = Arc::new(kdv_coreset::build(&spec, &snapshot.base)?);
        let mut stream = self.lock_stream();
        if stream.set.epoch() != snapshot.epoch {
            return Ok(coreset);
        }
        Ok(Arc::clone(stream.overview.get_or_insert(coreset)))
    }

    /// Tier metadata of a response served from `snapshot`, whose level is
    /// answered from `coreset` if it is a coreset level. The coreset's
    /// certified ε holds for the epoch base; with batches folded on top
    /// it gains a `2⁻²⁴·scale` slack for the per-pixel rounding of the
    /// folds.
    fn tier_info_for(&self, snapshot: &StreamSnapshot, coreset: Option<&Coreset>) -> TierInfo {
        let Some(coreset) = coreset else {
            return TierInfo { tier: TileTier::Exact, epsilon: None, coreset_size: None };
        };
        let epsilon = if snapshot.batches.is_empty() {
            coreset.epsilon
        } else {
            let scale = kdv_coreset::density_scale(
                self.config.kernel,
                self.config.bandwidth,
                self.config.weight,
                snapshot.base.len() + snapshot.delta_len(),
            );
            coreset.epsilon + scale * 2.0f64.powi(-24)
        };
        TierInfo {
            tier: TileTier::Coreset,
            epsilon: Some(epsilon),
            coreset_size: Some(coreset.len()),
        }
    }

    /// The sweep contexts a tile of `zoom` needs at the snapshot's
    /// generation, from the shared map: index 0 sweeps the epoch base (or
    /// its overview coreset, weighted by the multiplicities), index
    /// `1 + i` is batch `i`'s weighted context. Missing ones are built
    /// under the map's lock, so each is built once.
    ///
    /// Every level covers the same region, so the recentred, y-sorted set
    /// is the same at every zoom: it is sorted once per (tier, generation)
    /// — the epoch base, the epoch's coreset, or one sealed batch — and
    /// every other level's context is derived from a held one
    /// ([`SweepContext::for_grid`]), sharing that set and owning only its
    /// own pixel centres.
    fn contexts_for(
        &self,
        snapshot: &StreamSnapshot,
        coreset: Option<&Coreset>,
        zoom: u8,
    ) -> Result<Vec<Arc<SweepContext>>> {
        let params = self.level_params(zoom);
        let tier = self.tier_of(zoom);
        let first = snapshot.epoch_generation;
        let mut map = self.lock_contexts();
        let mut out = Vec::with_capacity(1 + snapshot.batches.len());
        for generation in first..=snapshot.generation() {
            if let Some(ctx) = map.get(&(zoom, generation)) {
                out.push(Arc::clone(ctx));
                continue;
            }
            // Another level's context over the same set: any level's at a
            // batch generation, a level of the same tier at the epoch's.
            let sibling = map
                .iter()
                .find(|(&(z, g), _)| g == generation && (g != first || self.tier_of(z) == tier))
                .map(|(_, ctx)| Arc::clone(ctx));
            let _s =
                (generation == first).then(|| kdv_obs::span1("pyramid.build", "zoom", zoom as u64));
            let (points, weights) = match (generation - first).checked_sub(1) {
                Some(i) => {
                    let batch = &snapshot.batches[i as usize];
                    (&batch.points[..], Some(&batch.weights[..]))
                }
                None => {
                    map.retain(|&(_, g), _| g >= first);
                    match coreset {
                        Some(c) => (&c.points[..], Some(&c.weights[..])),
                        None => (&snapshot.base[..], None),
                    }
                }
            };
            let ctx = Arc::new(match (sibling, weights) {
                (Some(sibling), _) => sibling.for_grid(&params, points)?,
                (None, Some(weights)) => SweepContext::weighted(&params, points, weights)?,
                (None, None) => SweepContext::new(&params, points)?,
            });
            map.insert((zoom, generation), Arc::clone(&ctx));
            out.push(ctx);
        }
        Ok(out)
    }

    /// Serves one viewport against the stream's current generation: see
    /// [`TileServer::serve_viewport_tiered`].
    pub fn serve_viewport(
        &self,
        viewport: &Viewport,
        threads: usize,
    ) -> Result<(DensityGrid, RequestOutcome)> {
        let (grid, outcome, _) = self.serve_viewport_tiered(viewport, threads)?;
        Ok((grid, outcome))
    }

    /// Serves one viewport against a consistent snapshot of the stream:
    /// assembles the requested pixel window from tiles of the snapshot's
    /// generation — cached, patched forward from an older generation, or
    /// computed cold, one band sweep per run of cold tiles and one fold
    /// per band and stale generation on
    /// the work-stealing runtime (`threads == 0` means "auto"). Misses
    /// and patches are single-flight per tile. The raster is
    /// bitwise-equal to cropping the rebuild of the snapshot's generation
    /// (at generation 0, the monolithic level raster), for any cache
    /// state and thread count.
    ///
    /// Returns the raster, the request's [`RequestOutcome`] and the
    /// [`TierInfo`] of the level that answered.
    pub fn serve_viewport_tiered(
        &self,
        viewport: &Viewport,
        threads: usize,
    ) -> Result<(DensityGrid, RequestOutcome, TierInfo)> {
        let started = Instant::now();
        let mut span = kdv_obs::span1("serve.viewport", "zoom", viewport.zoom as u64);
        let vp = viewport
            .clamped(&self.pyramid)
            .ok_or(KdvError::EmptyResolution { x: viewport.width, y: viewport.height })?;
        // The clamped window's size: the request's own `width × height`
        // is untrusted and may overflow.
        span.arg("pixels", vp.num_pixels() as u64);
        let (snapshot, held) = self.read_stream();
        let generation = snapshot.generation();
        span.arg("generation", generation);
        let metrics = kdv_obs::metrics::global();
        // Generation lag = stream.generation - serve.generation: how far
        // behind ingestion the bits being served are.
        metrics.gauge("serve.generation").set(generation);
        let tier = self.tier_of(vp.zoom);
        let coreset = match tier {
            TileTier::Exact => None,
            TileTier::Coreset => Some(self.overview_for(&snapshot, held)?),
        };
        let tier_info = self.tier_info_for(&snapshot, coreset.as_deref());
        {
            let _s = kdv_obs::span2(
                "serve.tier",
                "zoom",
                vp.zoom as u64,
                "coreset",
                u64::from(tier == TileTier::Coreset),
            );
            metrics
                .counter(match tier {
                    TileTier::Exact => "serve.tier.exact",
                    TileTier::Coreset => "serve.tier.coreset",
                })
                .bump();
        }
        let tiling = self.pyramid.level_tiling(vp.zoom);

        // Look every tile up first, counting this request's own hits,
        // patches and misses; collect the tiles to compute in `(ty, tx)`
        // order, as the lookup walks the rows in order. Each band's cold
        // runs look up their checkpoints in the same pass, so a checkpoint
        // this request resumes from is promoted before any of its inserts.
        let oldest = if self.live.patching { snapshot.epoch_generation } else { generation };
        let mut window = TileWindow::new(&vp, self.pyramid.tile_size);
        let mut missing: Vec<TileId> = Vec::new();
        let mut stale: HashMap<(usize, usize), (u64, Arc<Tile>)> = HashMap::new();
        let mut resume: HashMap<usize, Vec<Arc<BandCheckpoint>>> = HashMap::new();
        let (mut req_hits, mut req_misses, mut req_patched) = (0u64, 0u64, 0u64);
        for ty in window.rows() {
            let mut cold = Vec::new();
            for tx in window.cols() {
                match self.cache.lookup(&self.key(vp.zoom, tx, ty, generation), oldest) {
                    Lookup::Hit(tile) => {
                        req_hits += 1;
                        window.put(tile);
                        continue;
                    }
                    Lookup::Stale(from, tile) => {
                        req_patched += 1;
                        stale.insert((tx, ty), (from, tile));
                    }
                    Lookup::Miss => {
                        req_misses += 1;
                        cold.push(tx);
                    }
                }
                missing.push((vp.zoom, tx, ty, generation));
            }
            let found = self.find_checkpoints(vp.zoom, ty, snapshot.epoch_generation, &cold);
            if !found.is_empty() {
                resume.insert(ty, found);
            }
        }

        let req_evictions = AtomicU64::new(0);
        let req_rejected = AtomicU64::new(0);
        if !missing.is_empty() {
            let contexts = self.contexts_for(&snapshot, coreset.as_deref(), vp.zoom)?;
            let (lead, join) = self.flights.claim(&missing);
            let params = self.level_params(vp.zoom);
            let req = LeadContext {
                snapshot: &snapshot,
                params: &params,
                tiling: &tiling,
                contexts: &contexts,
                stale: &stale,
                resume: &resume,
                evictions: &req_evictions,
                rejected: &req_rejected,
            };

            // Compute the led tiles band by band, in parallel, each band
            // publishing its tiles as soon as they are done.
            let bands: Vec<&[LedTile]> = lead.chunk_by(|a, b| a.0 .2 == b.0 .2).collect();
            let led: Vec<Result<Vec<Arc<Tile>>>> = for_each_index_with(
                bands.len(),
                threads,
                || BandWorkspace::new(&params),
                |ws, i| self.lead_tiles(&req, bands[i], ws),
            );

            // Take the window's tiles from the led results, then wait for
            // the tiles other requests are computing on this request's
            // behalf.
            for tiles in led {
                for tile in tiles? {
                    window.put(tile);
                }
            }
            for (_, flight) in join {
                window.put(flight.wait()?);
            }
        }

        let out = window.assemble(&tiling, &vp);

        let outcome = RequestOutcome {
            generation,
            wall_nanos: started.elapsed().as_nanos() as u64,
            cache_hits: req_hits,
            cache_misses: req_misses,
            cache_evictions: req_evictions.load(Ordering::Relaxed),
            cache_rejected: req_rejected.load(Ordering::Relaxed),
            cache_patched: req_patched,
        };
        span.arg("misses", outcome.cache_misses);
        span.arg("patched", outcome.cache_patched);
        metrics.histogram("serve.request_ns").record(outcome.wall_nanos);
        metrics
            .histogram(match request_class(tier, generation) {
                RequestClass::Exact => "serve.request_ns.exact",
                RequestClass::Coreset => "serve.request_ns.coreset",
                RequestClass::Live => "serve.request_ns.live",
            })
            .record(outcome.wall_nanos);
        Ok((out, outcome, tier_info))
    }

    /// Computes the tiles this request leads in one band (ascending
    /// `tx`), caches them, records the single-flight counters and
    /// publishes each tile to its flight's waiters. Every flight is
    /// published and deregistered, even on an error or a panic (the lease
    /// guards publish an error so waiters fail instead of hanging).
    ///
    /// The request looked these tiles up before claiming their flights,
    /// and another request's flight for one of them may have completed in
    /// between. So the leader first peeks each tile at the request's
    /// generation: a cached one is published without computing. The rest
    /// are patched, one fold per stale generation over the columns of the
    /// tiles of that generation, and computed cold, one sweep per run of
    /// [`plan_runs`]: from the checkpoint it picks among those the
    /// request found for the band, or from pixel 0, to the right edge of
    /// its rightmost tile. Each sweep caches its tiles and a checkpoint
    /// at the left edge of each of them (unless the sweep starts there)
    /// and at its own right edge.
    fn lead_tiles(
        &self,
        req: &LeadContext<'_>,
        led: &[LedTile],
        ws: &mut BandWorkspace,
    ) -> Result<Vec<Arc<Tile>>> {
        let Some(&((zoom, _, ty, generation), _)) = led.first() else {
            return Ok(Vec::new());
        };
        let mut tiles = Vec::with_capacity(led.len());
        let mut cold = Vec::new();
        let mut patches: BTreeMap<u64, Vec<_>> = BTreeMap::new();
        for (id, flight) in led {
            let mut lease = self.flights.lease(*id, flight);
            let tx = id.1;
            if let Some(tile) = self.cache.peek(&self.key(zoom, tx, ty, generation)) {
                lease.complete(Ok(Arc::clone(&tile)));
                tiles.push(tile);
                continue;
            }
            match req.stale.get(&(tx, ty)) {
                Some((from, tile)) => patches.entry(*from).or_default().push((lease, tx, tile)),
                None => cold.push((lease, tx)),
            }
        }
        let rows = req.tiling.tile_rows(ty);
        let metrics = kdv_obs::metrics::global();

        for (from, group) in patches {
            let mut span = kdv_obs::span2("serve.patch", "ty", ty as u64, "from", from);
            let (first, last) = (group[0].1, group[group.len() - 1].1);
            let pixels = req.tiling.tile_cols(first).start..req.tiling.tile_cols(last).end;
            ws.band.resize(rows.len() * pixels.len(), 0.0);
            for (_, tx, tile) in &group {
                let cols = req.tiling.tile_cols(*tx);
                let local = cols.start - pixels.start..cols.end - pixels.start;
                for (j, row) in ws.band.chunks_exact_mut(pixels.len()).enumerate() {
                    row[local.clone()].copy_from_slice(tile.row(j));
                }
            }
            let offset = 1 + (from - req.snapshot.epoch_generation) as usize;
            let (folded, _) = fold_batches(
                req.params,
                req.snapshot.batches_since(from),
                rows.clone(),
                pixels.clone(),
                ws,
                |i, _| Ok(Arc::clone(&req.contexts[offset + i])),
            )?;
            span.arg("folded", folded);
            let cols: Vec<usize> = group.iter().map(|&(_, tx, _)| tx).collect();
            let fresh = slice_band_tiles(req.tiling, ty, pixels, &cols, &ws.band);
            for ((mut lease, tx, _), tile) in group.into_iter().zip(fresh) {
                let tile = Arc::new(tile);
                let old = self.key(zoom, tx, ty, from);
                let new = TileKey { generation, ..old };
                let outcome = self.cache.patch(&old, new, Arc::clone(&tile));
                req.record(outcome);
                // The patched-away generation is retired on purpose: a
                // slow request still serving it will recompute it cold,
                // and that is legitimate work, not a dedup failure.
                self.flights.forget(&(zoom, tx, ty, from));
                self.flights.record_computed((zoom, tx, ty, generation));
                lease.complete(Ok(Arc::clone(&tile)));
                tiles.push(tile);
            }
            metrics.counter("serve.patch.bands").bump();
            metrics.counter("serve.patch.tiles").add(cols.len() as u64);
            metrics.counter("serve.patch.batches").add(folded);
            self.stats.patched_bands.bump();
            self.stats.folded_batches.add(folded);
        }

        let found = req.resume.get(&ty).map_or(&[][..], Vec::as_slice);
        for run in plan_runs(cold, req.tiling.tile_size, found) {
            let (from, start) = match run.from {
                Some(checkpoint) => (Some(&**checkpoint), checkpoint.boundary),
                None => (None, 0),
            };
            let last = run.tiles.last().map_or(0, |&(_, tx)| tx);
            let pixels = start..req.tiling.tile_cols(last).end;
            let mut s = kdv_obs::span2("tile.band", "ty", ty as u64, "rows", rows.len() as u64);
            s.arg("start", pixels.start as u64);
            s.arg("end", pixels.end as u64);
            let cols: Vec<usize> = run.tiles.iter().map(|&(_, tx)| tx).collect();
            let size = req.tiling.tile_size;
            // Only where a later cold run resumes with no lead-in: a
            // re-missed tile's left edge, and the end a right pan starts at.
            let marks: Vec<usize> = req
                .tiling
                .boundaries(pixels.clone())
                .filter(|&c| c == pixels.end || cols.contains(&(c / size)))
                .collect();
            ws.band.resize(rows.len() * pixels.len(), 0.0);
            let BandWorkspace { engine, envelope, band, .. } = ws;
            let checkpoints = sweep_band(
                &req.contexts[0],
                self.config.bandwidth,
                rows.clone(),
                pixels.clone(),
                from,
                &marks,
                engine,
                envelope,
                band,
            );
            let batches = &req.snapshot.batches;
            let (folded, _) =
                fold_batches(req.params, batches, rows.clone(), pixels.clone(), ws, |i, _| {
                    Ok(Arc::clone(&req.contexts[1 + i]))
                })?;
            let fresh = slice_band_tiles(req.tiling, ty, pixels, &cols, &ws.band);
            for ((mut lease, tx), tile) in run.tiles.into_iter().zip(fresh) {
                let tile = Arc::new(tile);
                req.record(
                    self.cache.insert(self.key(zoom, tx, ty, generation), Arc::clone(&tile)),
                );
                self.flights.record_computed((zoom, tx, ty, generation));
                lease.complete(Ok(Arc::clone(&tile)));
                tiles.push(tile);
            }
            for checkpoint in checkpoints {
                let key = self.checkpoint_key(
                    zoom,
                    checkpoint.boundary / size,
                    ty,
                    req.snapshot.epoch_generation,
                );
                self.cache.insert_checkpoint(key, Arc::new(checkpoint));
            }
            self.stats.recomputed_bands.bump();
            self.stats.folded_batches.add(folded);
        }
        Ok(tiles)
    }
}

/// One cold sweep of a band: its tiles (ascending columns) and the
/// checkpoint it resumes from (`None`: from pixel 0).
struct ColdRun<'a, L> {
    from: Option<&'a Arc<BandCheckpoint>>,
    tiles: Vec<(L, usize)>,
}

/// Splits a band's cold tiles (ascending columns) into sweeps, given the
/// band's `found` checkpoints (ascending boundaries). A tile starts a new
/// sweep from the rightmost checkpoint at or left of its left edge when
/// that lies right of where the previous sweep ends; otherwise it joins
/// the previous sweep (sweeping on is no dearer than resuming), or starts
/// the first one from pixel 0. The tiles a request leads may be fewer
/// than the ones it looked checkpoints up for (another request took some
/// of them in between), so a sweep may resume from a checkpoint found for
/// a tile left of its first.
fn plan_runs<'a, L>(
    cold: Vec<(L, usize)>,
    tile_size: usize,
    found: &'a [Arc<BandCheckpoint>],
) -> Vec<ColdRun<'a, L>> {
    let mut runs: Vec<ColdRun<'a, L>> = Vec::new();
    for (lease, tx) in cold {
        let end = runs.last().and_then(|r| r.tiles.last()).map(|&(_, last)| (last + 1) * tile_size);
        let at = found.partition_point(|c| c.boundary <= tx * tile_size);
        let from =
            at.checked_sub(1).map(|i| &found[i]).filter(|c| end.is_none_or(|end| c.boundary > end));
        match runs.last_mut() {
            Some(run) if from.is_none() => run.tiles.push((lease, tx)),
            _ => runs.push(ColdRun { from, tiles: vec![(lease, tx)] }),
        }
    }
    runs
}

/// The SLO and latency class of a response: `live` once the stream has
/// sealed a batch or compacted (generation > 0), else its tier.
pub(crate) fn request_class(tier: TileTier, generation: u64) -> RequestClass {
    match tier {
        _ if generation > 0 => RequestClass::Live,
        TileTier::Exact => RequestClass::Exact,
        TileTier::Coreset => RequestClass::Coreset,
    }
}

/// Per-request context shared by every band this request leads tiles
/// in: the snapshot, the level's parameters, tiling and sweep contexts,
/// the stale tiles and checkpoints its lookups found, and the
/// request-local eviction /
/// rejection accumulators (leaders insert from parallel worker threads,
/// so the deltas are atomics).
struct LeadContext<'a> {
    snapshot: &'a StreamSnapshot,
    params: &'a KdvParams,
    tiling: &'a Tiling,
    contexts: &'a [Arc<SweepContext>],
    stale: &'a HashMap<(usize, usize), (u64, Arc<Tile>)>,
    /// Checkpoints found for each band's cold tiles, by `ty`, ascending
    /// by boundary (see [`TileServer::find_checkpoints`]).
    resume: &'a HashMap<usize, Vec<Arc<BandCheckpoint>>>,
    evictions: &'a AtomicU64,
    rejected: &'a AtomicU64,
}

impl LeadContext<'_> {
    /// Adds one insert's or patch's displacement to the request's deltas.
    fn record(&self, outcome: InsertOutcome) {
        self.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
        self.rejected.fetch_add(outcome.rejected as u64, Ordering::Relaxed);
    }
}

/// The tiles one request assembles its viewport from: a dense table
/// over the viewport's tile window, row-major in `(ty, tx)`. Filled from
/// cache hits and computed tiles, then handed to
/// [`kdv_core::tile::assemble`].
struct TileWindow {
    cols: Range<usize>,
    rows: Range<usize>,
    tiles: Vec<Option<Arc<Tile>>>,
}

impl TileWindow {
    /// An empty window over the tiles a clamped viewport intersects.
    fn new(vp: &Viewport, tile_size: usize) -> Self {
        let (cols, rows) = (vp.tile_cols(tile_size), vp.tile_rows(tile_size));
        Self { tiles: vec![None; cols.len() * rows.len()], cols, rows }
    }

    /// Tile columns of the window.
    fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Tile rows (bands) of the window.
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    fn slot(&self, tx: usize, ty: usize) -> usize {
        (ty - self.rows.start) * self.cols.len() + (tx - self.cols.start)
    }

    /// Stores a tile of the window.
    fn put(&mut self, tile: Arc<Tile>) {
        let slot = self.slot(tile.tx, tile.ty);
        self.tiles[slot] = Some(tile);
    }

    /// Assembles the viewport from the window's tiles.
    ///
    /// # Panics
    /// Panics if a tile the viewport overlaps was never stored.
    fn assemble(&self, tiling: &Tiling, vp: &Viewport) -> DensityGrid {
        tile::assemble(tiling, vp.px, vp.py, vp.width, vp.height, |tx, ty| {
            self.tiles[self.slot(tx, ty)].as_deref().expect("every window tile is served")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::sweep_bucket;
    use kdv_core::Rect;

    fn points(n: usize) -> Vec<Point> {
        let mut state = 0xBADC0FFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
    }

    fn server(cache_bytes: usize) -> TileServer {
        let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 48, 48, 2).unwrap();
        let config = ServeConfig {
            dataset: 7,
            kernel: KernelType::Epanechnikov,
            bandwidth: 14.0,
            weight: 0.005,
        };
        TileServer::new(pyramid, config, points(300), cache_bytes, 4)
    }

    /// Crops the monolithic level raster to the viewport — the reference
    /// every served viewport must match bitwise.
    fn crop_reference(server: &TileServer, vp: &Viewport) -> DensityGrid {
        let params = server.pyramid().level_params(
            vp.zoom,
            server.config().kernel,
            server.config().bandwidth,
            server.config().weight,
        );
        let full = sweep_bucket::compute(&params, &server.live_points()).unwrap();
        let mut out = DensityGrid::zeroed(vp.width, vp.height);
        for j in 0..vp.height {
            out.row_mut(j).copy_from_slice(&full.row(vp.py + j)[vp.px..vp.px + vp.width]);
        }
        out
    }

    #[test]
    fn viewport_matches_cropped_monolithic_bitwise() {
        let srv = server(1 << 22);
        for vp in [
            Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
            Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 },
            Viewport { zoom: 2, px: 100, py: 77, width: 50, height: 33 },
        ] {
            let (grid, _) = srv.serve_viewport(&vp, 0).unwrap();
            assert_eq!(grid, crop_reference(&srv, &vp), "{vp:?}");
        }
    }

    #[test]
    fn second_request_hits_cache_and_matches() {
        let srv = server(1 << 22);
        let vp = Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 };
        let (cold, r1) = srv.serve_viewport(&vp, 2).unwrap();
        assert_eq!(r1.cache_hits, 0);
        assert!(r1.cache_misses > 0);
        let (warm, r2) = srv.serve_viewport(&vp, 2).unwrap();
        assert_eq!(r2.cache_misses, 0);
        assert!(r2.cache_hits > 0);
        assert_eq!(warm, cold, "cached bits differ from fresh bits");
    }

    /// The tile coordinates a viewport covers, in `(ty, tx)` order.
    fn tiles_of(srv: &TileServer, vp: &Viewport) -> Vec<(usize, usize)> {
        let size = srv.pyramid().tile_size;
        let cols = vp.tile_cols(size);
        vp.tile_rows(size).flat_map(|ty| cols.clone().map(move |tx| (tx, ty))).collect()
    }

    fn cached(srv: &TileServer, zoom: u8, tx: usize, ty: usize) -> bool {
        srv.cache().peek(&srv.key(zoom, tx, ty, 0)).is_some()
    }

    #[test]
    fn a_miss_caches_exactly_its_missing_tiles() {
        let srv = server(1 << 22);
        // zoom 1 is 96 px wide in 16-px tiles: six columns per band
        let vp = Viewport { zoom: 1, px: 20, py: 20, width: 30, height: 16 };
        let wanted = tiles_of(&srv, &vp);
        assert_eq!(wanted, [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]);
        let (grid, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &vp));
        assert_eq!(report.cache_misses, wanted.len() as u64);
        assert_eq!(srv.flight_stats().computed(), wanted.len() as u64);
        // no band prefetch: the cache holds the requested tiles and no
        // neighbour of theirs
        assert_eq!(srv.cache().len(), wanted.len());
        for ty in 0..6 {
            for tx in 0..6 {
                assert_eq!(cached(&srv, 1, tx, ty), wanted.contains(&(tx, ty)), "({tx}, {ty})");
            }
        }
    }

    #[test]
    fn right_pan_computes_only_the_newly_exposed_tiles() {
        let srv = server(1 << 22);
        let a = Viewport { zoom: 1, px: 0, py: 20, width: 32, height: 16 };
        let (_, r1) = srv.serve_viewport(&a, 0).unwrap();
        let first = tiles_of(&srv, &a);
        assert_eq!(r1.cache_misses, first.len() as u64);
        // pan right by one tile within the same bands: the overlap hits,
        // and only the exposed right column is computed
        let b = Viewport { zoom: 1, px: 16, py: 20, width: 32, height: 16 };
        let exposed: Vec<_> =
            tiles_of(&srv, &b).into_iter().filter(|t| !first.contains(t)).collect();
        assert_eq!(exposed, [(2, 1), (2, 2)]);
        let (grid, r2) = srv.serve_viewport(&b, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &b));
        assert_eq!(r2.cache_misses, exposed.len() as u64);
        assert_eq!(r2.cache_hits, (tiles_of(&srv, &b).len() - exposed.len()) as u64);
        assert_eq!(srv.flight_stats().computed(), (first.len() + exposed.len()) as u64);
        assert_eq!(srv.flight_stats().duplicate_computes(), 0);
        assert_eq!(srv.cache().len(), first.len() + exposed.len());
        assert!(!cached(&srv, 1, 3, 1), "tiles right of the pan stay uncomputed");
    }

    /// Whether the checkpoint at the left edge of column `tx` of band
    /// `ty` of generation 0 is cached (a counted lookup).
    fn checkpointed(srv: &TileServer, zoom: u8, tx: usize, ty: usize) -> bool {
        let key = srv.checkpoint_key(zoom, tx, ty, 0);
        srv.cache().nearest_checkpoint(&key, tx as u32).is_some()
    }

    #[test]
    fn cold_sweeps_checkpoint_where_a_later_run_needs_no_lead_in() {
        let srv = server(1 << 22);
        // zoom 2 is 192 px wide in 16-px tiles: twelve columns per band
        let vp = Viewport { zoom: 2, px: 40, py: 64, width: 20, height: 16 };
        assert_eq!(tiles_of(&srv, &vp), [(2, 4), (3, 4)]);
        let (grid, _) = srv.serve_viewport(&vp, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &vp));
        // the band was swept over 0..64 for tiles 2 and 3: their left
        // edges 32 and 48 and the sweep's right edge 64, not 16 inside the
        // lead-in
        let marked = |srv: &TileServer| -> Vec<usize> {
            (1..12).filter(|&tx| checkpointed(srv, 2, tx, 4)).collect()
        };
        assert_eq!(marked(&srv), [2, 3, 4]);
        // unit Epanechnikov: 11 words (88 B) per row and boundary
        let words = srv.cache().checkpoint_bytes() - 3 * std::mem::size_of::<BandCheckpoint>();
        assert_eq!(words, 3 * 16 * 88);
        // tile 6 resumes at 64 and sweeps 64..112: its own left edge 96
        // and the right edge 112, not 80 inside the lead-in
        let vp = Viewport { zoom: 2, px: 96, py: 64, width: 16, height: 16 };
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, crop_reference(&srv, &vp));
        assert_eq!(marked(&srv), [2, 3, 4, 6, 7]);
        // a sweep to the raster's right edge records nothing there
        let vp = Viewport { zoom: 2, px: 176, py: 64, width: 16, height: 16 };
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, crop_reference(&srv, &vp));
        assert_eq!(marked(&srv), [2, 3, 4, 6, 7, 11]);
        assert_eq!(srv.cache().checkpoints(), 6);
        assert!(srv.cache().bytes() <= srv.cache().budget());
    }

    #[test]
    fn pans_resume_from_the_nearest_checkpoint_and_stay_bitwise() {
        let srv = server(1 << 22);
        let a = Viewport { zoom: 2, px: 0, py: 64, width: 48, height: 16 };
        srv.serve_viewport(&a, 0).unwrap();
        let stats = srv.cache_stats();
        assert_eq!(
            (stats.checkpoint_hits(), stats.checkpoint_misses()),
            (0, 0),
            "column 0 needs none"
        );
        // pan right by one tile: the exposed column resumes at boundary 48
        let b = Viewport { zoom: 2, px: 16, py: 64, width: 48, height: 16 };
        let (grid, report) = srv.serve_viewport(&b, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &b));
        assert_eq!(report.cache_misses, 1);
        assert_eq!((stats.checkpoint_hits(), stats.checkpoint_misses()), (1, 0));
        // a jump right of every checkpoint resumes at the nearest one, 64
        let c = Viewport { zoom: 2, px: 130, py: 64, width: 20, height: 16 };
        let (grid, _) = srv.serve_viewport(&c, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &c));
        assert_eq!((stats.checkpoint_hits(), stats.checkpoint_misses()), (2, 0));
        assert!(!cached(&srv, 2, 5, 4), "tiles left of a resumed run are not cached");
        // a band nobody swept has no checkpoint: a miss, swept from 0
        let d = Viewport { zoom: 2, px: 100, py: 0, width: 20, height: 16 };
        let (grid, _) = srv.serve_viewport(&d, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &d));
        assert_eq!((stats.checkpoint_hits(), stats.checkpoint_misses()), (2, 1));
        assert_eq!(srv.flight_stats().duplicate_computes(), 0);
    }

    #[test]
    fn runs_resume_from_the_rightmost_found_checkpoint_past_the_previous_run() {
        let srv = server(1 << 22);
        // sweeps of band 4 of zoom 2 that cache tiles 2 and 5 checkpoint
        // their left edges, 32 and 80
        for px in [32, 80] {
            srv.serve_viewport(&Viewport { zoom: 2, px, py: 64, width: 16, height: 16 }, 0)
                .unwrap();
        }
        let found: Vec<_> = [2, 5]
            .map(|tx| srv.cache().nearest_checkpoint(&srv.checkpoint_key(2, tx, 4, 0), 1).unwrap())
            .into();
        let plan = |cold: &[usize]| -> Vec<(Option<usize>, Vec<usize>)> {
            let cold = cold.iter().map(|&tx| ((), tx)).collect();
            plan_runs(cold, 16, &found)
                .into_iter()
                .map(|run| {
                    let tiles = run.tiles.into_iter().map(|(_, tx)| tx).collect();
                    (run.from.map(|c| c.boundary), tiles)
                })
                .collect()
        };
        assert_eq!(plan(&[3, 4]), [(Some(32), vec![3, 4])]);
        // the lookup run was 5..=7, but another request took tile 5 since:
        // the led run still resumes from the checkpoint found for tile 5
        assert_eq!(plan(&[6, 7]), [(Some(80), vec![6, 7])]);
        assert_eq!(plan(&[3, 5]), [(Some(32), vec![3]), (Some(80), vec![5])]);
        // resuming at the previous run's end is no cheaper: sweep on
        assert_eq!(plan(&[3, 4, 6]), [(Some(32), vec![3, 4, 6])]);
        assert_eq!(plan(&[0, 1, 6]), [(None, vec![0, 1]), (Some(80), vec![6])]);
    }

    #[test]
    fn resumed_walks_under_eviction_match_the_rebuild_bitwise() {
        // A cache of a few tiles evicts tiles and checkpoints alike; every
        // response, live generations included, must still be the crop of
        // its generation's rebuild.
        let unit = std::mem::size_of::<Tile>() + 16 * 16 * 8;
        let srv = server(unit * 9);
        let mut state = 0x9A11_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n
        };
        let mut evictions = 0;
        for step in 0..60 {
            if step % 20 == 10 {
                srv.append(&points(3 + step % 5));
            }
            let vp = Viewport { zoom: 2, px: next(150), py: next(150), width: 40, height: 30 };
            let (grid, report) = srv.serve_viewport(&vp, 0).unwrap();
            let params = srv.pyramid().level_params(2, KernelType::Epanechnikov, 14.0, 0.005);
            let level = kdv_stream::rebuild_grid(&params, &srv.snapshot()).unwrap();
            for j in 0..vp.height {
                let want = &level.row(vp.py + j)[vp.px..vp.px + vp.width];
                assert_eq!(grid.row(j), want, "step {step} {vp:?} row {j}");
            }
            let tiles = (vp.tile_cols(16).len() * vp.tile_rows(16).len()) as u64;
            assert_eq!(report.cache_hits + report.cache_misses + report.cache_patched, tiles);
            assert!(srv.cache().bytes() <= srv.cache().budget());
            evictions += report.cache_evictions;
        }
        let stats = srv.cache_stats();
        assert!(stats.checkpoint_hits() > 0, "no cold run resumed");
        assert!(stats.evictions() > 0, "the cache never filled");
        // requests report the tiles they pushed out; checkpoints count apart
        assert_eq!(evictions, stats.evictions(), "per-request evictions count tiles only");
        assert!(stats.checkpoint_evictions() > 0, "no checkpoint was evicted");
    }

    #[test]
    fn degenerate_viewports_are_rejected() {
        let srv = server(1 << 20);
        let out_of_level = Viewport { zoom: 9, px: 0, py: 0, width: 4, height: 4 };
        assert!(srv.serve_viewport(&out_of_level, 0).is_err());
        let empty = Viewport { zoom: 0, px: 0, py: 0, width: 0, height: 4 };
        assert!(srv.serve_viewport(&empty, 0).is_err());
    }

    fn tiered_server(cache_bytes: usize, threshold: u8) -> TileServer {
        let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 48, 48, 2).unwrap();
        let config = ServeConfig {
            dataset: 7,
            kernel: KernelType::Epanechnikov,
            bandwidth: 14.0,
            weight: 0.005,
        };
        let overview = OverviewConfig {
            max_zoom: threshold,
            method: CoresetMethod::Grid,
            target_rel_epsilon: 0.01,
            seed: 11,
        };
        TileServer::with_overview_coreset(
            pyramid,
            config,
            LiveConfig::default(),
            points(300),
            cache_bytes,
            4,
            overview,
        )
        .unwrap()
    }

    #[test]
    fn coreset_tier_serves_within_advertised_epsilon() {
        let srv = tiered_server(1 << 22, 1);
        for vp in [
            Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
            Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 },
        ] {
            let (grid, _, tier) = srv.serve_viewport_tiered(&vp, 0).unwrap();
            assert_eq!(tier.tier, TileTier::Coreset, "{vp:?}");
            let eps = tier.epsilon.expect("coreset tier advertises epsilon");
            assert!(tier.coreset_size.unwrap() < 300, "coreset should shrink the point set");
            let exact = crop_reference(&srv, &vp);
            let sup = grid
                .values()
                .iter()
                .zip(exact.values())
                .map(|(a, r)| (a - r).abs())
                .fold(0.0f64, f64::max);
            assert!(sup <= eps, "{vp:?}: sup {sup:e} > advertised {eps:e}");
        }
    }

    #[test]
    fn exact_tier_above_threshold_stays_bitwise() {
        let srv = tiered_server(1 << 22, 1);
        let vp = Viewport { zoom: 2, px: 100, py: 77, width: 50, height: 33 };
        let (grid, _, tier) = srv.serve_viewport_tiered(&vp, 0).unwrap();
        assert_eq!(tier, TierInfo { tier: TileTier::Exact, epsilon: None, coreset_size: None });
        assert_eq!(grid, crop_reference(&srv, &vp), "exact tier must stay bitwise-equal");
    }

    #[test]
    fn untiered_server_is_all_exact() {
        let srv = server(1 << 20);
        for zoom in 0..=2 {
            assert_eq!(srv.tier_of(zoom), TileTier::Exact);
            assert_eq!(srv.tier_info(zoom).epsilon, None);
        }
    }

    #[test]
    fn tiny_cache_still_serves_exact_results() {
        let srv = server(1024); // far too small to hold a band
        let vp = Viewport { zoom: 1, px: 10, py: 10, width: 50, height: 50 };
        let (grid, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert_eq!(grid, crop_reference(&srv, &vp));
        // a 1024-byte budget cannot admit a single tile: every insert is
        // rejected as oversized (not miscounted as an eviction)
        assert!(report.cache_rejected > 0, "tiny budget must reject oversized tiles");
        assert_eq!(report.cache_evictions, 0, "nothing admitted, so nothing displaced");
        assert!(srv.cache().bytes() <= srv.cache().budget());
    }

    /// Serves every level of `srv` whole, so each level's contexts are in
    /// the map; an exact level is checked against the rebuild of its
    /// generation.
    fn serve_every_level(srv: &TileServer) {
        for zoom in 0..=srv.pyramid().max_zoom {
            let (width, height) = srv.pyramid().level_res(zoom);
            let vp = Viewport { zoom, px: 0, py: 0, width, height };
            let (grid, _, tier) = srv.serve_viewport_tiered(&vp, 0).unwrap();
            if tier.tier == TileTier::Exact {
                let params = srv.level_params(zoom);
                assert_eq!(grid, kdv_stream::rebuild_grid(&params, &srv.snapshot()).unwrap());
            }
        }
    }

    /// The sets of the contexts held at `generation`, by zoom.
    fn sets_at(srv: &TileServer, generation: u64) -> Vec<Arc<kdv_core::driver::SweepSet>> {
        let map = srv.lock_contexts();
        (0..=srv.pyramid().max_zoom)
            .map(|zoom| Arc::clone(map[&(zoom, generation)].set()))
            .collect()
    }

    #[test]
    fn every_level_sweeps_one_sorted_set_per_generation() {
        let srv = server(1 << 22);
        serve_every_level(&srv);
        let base = srv.snapshot().generation();
        let sets = sets_at(&srv, base);
        assert!(sets.iter().all(|s| Arc::ptr_eq(s, &sets[0])), "base set sorted per level");
        assert_eq!(sets[0].points.len(), 300);
        // a sealed batch: every level patches from one sorted batch set,
        // and keeps the base set it had
        assert_eq!(srv.append(&points(5)), 1);
        serve_every_level(&srv);
        let batch = sets_at(&srv, base + 1);
        assert!(batch.iter().all(|s| Arc::ptr_eq(s, &batch[0])), "batch set sorted per level");
        assert_eq!(batch[0].points.len(), 5);
        assert!(sets_at(&srv, base).iter().all(|s| Arc::ptr_eq(s, &sets[0])));
    }

    #[test]
    fn coreset_levels_share_the_coreset_set_and_exact_levels_the_base() {
        let srv = tiered_server(1 << 22, 1);
        serve_every_level(&srv);
        let sets = sets_at(&srv, srv.snapshot().generation());
        // zooms 0 and 1 sweep the epoch's coreset, zoom 2 the base
        assert!(Arc::ptr_eq(&sets[0], &sets[1]), "coreset set sorted per level");
        assert!(!Arc::ptr_eq(&sets[1], &sets[2]), "tiers must not share a set");
        assert!(sets[0].points.len() < 300 && sets[0].weights().is_some());
        assert_eq!((sets[2].points.len(), sets[2].weights()), (300, None));
    }

    /// Poisons `mutex` by panicking on a thread that holds it.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = mutex.lock();
                panic!("holder panics with the lock held");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_stream_lock_keeps_serving_and_ingesting() {
        let srv = server(1 << 22);
        let vp = Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 };
        srv.serve_viewport(&vp, 0).unwrap();
        poison(&srv.stream);
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, crop_reference(&srv, &vp));
        assert_eq!(srv.append(&points(4)), 1, "a poisoned stream still seals batches");
        let params = srv.pyramid().level_params(1, KernelType::Epanechnikov, 14.0, 0.005);
        let level = kdv_stream::rebuild_grid(&params, &srv.snapshot()).unwrap();
        let (grid, report) = srv.serve_viewport(&vp, 0).unwrap();
        assert!(report.cache_patched > 0);
        for j in 0..vp.height {
            assert_eq!(grid.row(j), &level.row(vp.py + j)[vp.px..vp.px + vp.width], "row {j}");
        }
    }

    #[test]
    fn poisoned_context_map_is_cleared_and_rebuilt() {
        let srv = server(1 << 22);
        let a = Viewport { zoom: 1, px: 0, py: 0, width: 30, height: 30 };
        srv.serve_viewport(&a, 0).unwrap();
        poison(&srv.contexts);
        // a miss at the same level needs the level's context again
        let b = Viewport { zoom: 1, px: 50, py: 50, width: 40, height: 40 };
        let (grid, report) = srv.serve_viewport(&b, 0).unwrap();
        assert!(report.cache_misses > 0);
        assert_eq!(grid, crop_reference(&srv, &b));
        assert!(!srv.contexts.is_poisoned());
        assert_eq!(srv.lock_contexts().len(), 1, "only the rebuilt context is held");
    }
}
