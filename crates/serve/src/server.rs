//! The tile server: viewport requests in, exact density rasters out.
//!
//! A [`TileServer`] owns one immutable point set and a [`PyramidSpec`],
//! and answers [`Viewport`] requests by assembling cached tiles. A miss
//! computes the whole **tile row band** the missing tile lives in — one
//! full-level-width sweep per band via [`kdv_core::tile::compute_band`] —
//! and inserts every tile of the band, so a pan that walks horizontally
//! across a level keeps hitting tiles its first request already paid for
//! (the shared-aggregate amortisation described in `kdv_core::tile`).
//!
//! Exactness contract: a served viewport is bitwise-equal to cropping the
//! monolithic `sweep_bucket` raster of the whole level, whether the tiles
//! came from the cache or were computed on the spot, for any thread
//! count. The cache key carries the full provenance of the bits
//! ([`crate::cache::TileKey`]), and tile computation is
//! viewport-independent, so cached and fresh tiles cannot diverge.
//!
//! Concurrency: band computation is **single-flight**. Concurrent misses
//! on the same `(zoom, ty)` row band elect one leader under the in-flight
//! table's lock; the leader computes the band once and publishes the
//! tiles to every waiter, so two users panning the same region share one
//! sweep instead of duplicating it (this is also the cross-request
//! batching unit — a band *is* the batch, and every request that needs
//! any tile of it joins the same computation). [`FlightStats`] counts
//! leaders, joiners and duplicate computes; under an adequately sized
//! cache the duplicate counter stays at zero however many threads hammer
//! the server, which `ci.sh serve-load` asserts.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::parallel::for_each_index_with;
use kdv_core::telemetry::SweepReport;
use kdv_core::tile::{self, compute_band, BandWorkspace, Tile, Tiling};
use kdv_core::{DensityGrid, KdvError, KernelType, Point, Result};
use kdv_coreset::{Coreset, CoresetMethod, CoresetSpec};

use crate::cache::{CacheStats, TileCache, TileKey, TileTier};
use crate::flight::{Flight, FlightStats, FlightTable};
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
/// below `max_zoom` are served from an ε-coreset of the dataset instead
/// of the full point set (deep zooms stay exact). The coreset is built
/// once at server construction, with the certificate measured on exactly
/// the level grids this tier will answer on.
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
    /// Certified sup-error bound of the response vs the exact raster
    /// (`None` for the exact tier, which is bitwise-equal instead).
    pub epsilon: Option<f64>,
    /// Number of coreset representatives the tier sweeps over (`None`
    /// for the exact tier).
    pub coreset_size: Option<usize>,
}

/// The built overview tier: the coreset and the zoom threshold it
/// answers for.
struct OverviewTier {
    coreset: Coreset,
    max_zoom: u8,
}

/// Identity of one tile row band within a server (the server fixes
/// dataset, kernel, bandwidth and weight, so `(zoom, ty)` is the full
/// single-flight key — the tier is a function of the zoom).
type BandId = (u8, usize);

/// The shared tiles of one computed band, in `tx` order.
type BandTiles = Vec<Arc<Tile>>;

/// Caching tile server over one point set and pyramid.
pub struct TileServer {
    pyramid: PyramidSpec,
    config: ServeConfig,
    points: Vec<Point>,
    cache: TileCache,
    /// Lazily-built per-level sweep contexts (recentred points + banded
    /// index + pixel coordinates), indexed by zoom. Shared by every
    /// request at that level.
    contexts: Vec<OnceLock<Arc<SweepContext>>>,
    /// Single-flight table over bands keyed by `(zoom, ty)`: a miss
    /// either leads (computes and publishes) or joins the existing
    /// flight. The table's ever-computed set is bounded by the pyramid's
    /// band count, not by traffic.
    flights: FlightTable<BandId, Arc<BandTiles>>,
    /// Approximate overview tier, when configured.
    overview: Option<OverviewTier>,
}

impl TileServer {
    /// A server for `points` over `pyramid`, caching at most
    /// `cache_bytes` bytes of tiles across `cache_shards` shards.
    pub fn new(
        pyramid: PyramidSpec,
        config: ServeConfig,
        points: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
    ) -> Self {
        let contexts = (0..=pyramid.max_zoom as usize).map(|_| OnceLock::new()).collect();
        Self {
            pyramid,
            config,
            points,
            cache: TileCache::new(cache_bytes, cache_shards),
            contexts,
            flights: FlightTable::new(),
            overview: None,
        }
    }

    /// [`TileServer::new`] plus an approximate overview tier: builds an
    /// ε-coreset of `points` (certified on exactly the level grids of
    /// zooms `0..=overview.max_zoom`) and serves those levels from it,
    /// while deeper zooms stay exact over the full set. The achieved ε
    /// is surfaced by [`TileServer::tier_info`] and in every
    /// [`TierInfo`] this server attaches to a response.
    pub fn with_overview_coreset(
        pyramid: PyramidSpec,
        config: ServeConfig,
        points: Vec<Point>,
        cache_bytes: usize,
        cache_shards: usize,
        overview: OverviewConfig,
    ) -> Result<Self> {
        let threshold = overview.max_zoom.min(pyramid.max_zoom);
        let eval_grids = (0..=threshold).map(|z| pyramid.level_grid(z)).collect();
        let scale = kdv_coreset::density_scale(
            config.kernel,
            config.bandwidth,
            config.weight,
            points.len(),
        );
        let spec = CoresetSpec {
            method: overview.method,
            target_epsilon: overview.target_rel_epsilon * scale,
            kernel: config.kernel,
            bandwidth: config.bandwidth,
            weight: config.weight,
            seed: overview.seed,
            eval_grids,
        };
        let coreset = kdv_coreset::build(&spec, &points)?;
        let mut server = Self::new(pyramid, config, points, cache_bytes, cache_shards);
        server.overview = Some(OverviewTier { coreset, max_zoom: threshold });
        Ok(server)
    }

    /// Which tier answers requests at `zoom`.
    pub fn tier_of(&self, zoom: u8) -> TileTier {
        match &self.overview {
            Some(tier) if zoom <= tier.max_zoom => TileTier::Coreset,
            _ => TileTier::Exact,
        }
    }

    /// Tier metadata for `zoom`: the tier plus, for the coreset tier,
    /// the advertised ε and coreset size.
    pub fn tier_info(&self, zoom: u8) -> TierInfo {
        match self.tier_of(zoom) {
            TileTier::Exact => {
                TierInfo { tier: TileTier::Exact, epsilon: None, coreset_size: None }
            }
            TileTier::Coreset => {
                let tier = self.overview.as_ref().expect("coreset tier implies overview");
                TierInfo {
                    tier: TileTier::Coreset,
                    epsilon: Some(tier.coreset.epsilon),
                    coreset_size: Some(tier.coreset.len()),
                }
            }
        }
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

    fn key(&self, zoom: u8, tx: usize, ty: usize) -> TileKey {
        TileKey::new(
            self.config.dataset,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
            TileCoord { zoom, tx: tx as u32, ty: ty as u32 },
        )
        .with_tier(self.tier_of(zoom))
    }

    fn level_params(&self, zoom: u8) -> KdvParams {
        self.pyramid.level_params(
            zoom,
            self.config.kernel,
            self.config.bandwidth,
            self.config.weight,
        )
    }

    /// The level's shared sweep context, built on first use over the
    /// level tier's point set: the full set for exact levels, the coreset
    /// representatives weighted by their multiplicities for overview
    /// levels. Concurrent first requests may build it twice; construction
    /// is deterministic, so either copy yields the same bits and one is
    /// dropped.
    fn level_context(&self, zoom: u8) -> Result<Arc<SweepContext>> {
        let slot = &self.contexts[zoom as usize];
        if let Some(ctx) = slot.get() {
            return Ok(Arc::clone(ctx));
        }
        let _s = kdv_obs::span1("pyramid.build", "zoom", zoom as u64);
        let params = self.level_params(zoom);
        let built = Arc::new(match &self.overview {
            Some(tier) if zoom <= tier.max_zoom => {
                SweepContext::weighted(&params, &tier.coreset.points, &tier.coreset.weights)?
            }
            _ => SweepContext::new(&params, &self.points)?,
        });
        Ok(Arc::clone(slot.get_or_init(|| built)))
    }

    /// Computes one led band, caches its tiles, records the single-flight
    /// counters and publishes the result to any joined waiters. Always
    /// publishes and deregisters, even if the sweep panics (the lease
    /// guard publishes an error so waiters fail instead of hanging).
    ///
    /// The request missed this band before claiming its flight, and
    /// another request's flight for it may have completed in between. So
    /// the leader first peeks the band's tiles: if all are cached, it
    /// publishes them without sweeping or counting a compute.
    fn lead_band(
        &self,
        req: &LeadContext<'_>,
        ty: usize,
        flight: &Arc<Flight<Arc<BandTiles>>>,
        ws: &mut BandWorkspace,
    ) -> Arc<BandTiles> {
        let zoom = req.zoom;
        let mut lease = self.flights.lease((zoom, ty), flight);
        let cached: Option<BandTiles> =
            (0..req.tiling.tiles_x()).map(|tx| self.cache.peek(&self.key(zoom, tx, ty))).collect();
        if let Some(cached) = cached {
            let shared = Arc::new(cached);
            lease.complete(Ok(Arc::clone(&shared)));
            return shared;
        }
        let BandWorkspace { engine, envelope, band, .. } = ws;
        let computed =
            compute_band(req.ctx, req.tiling, self.config.bandwidth, ty, engine, envelope, band);
        let shared: Arc<BandTiles> = Arc::new(computed.into_iter().map(Arc::new).collect());
        for tile in shared.iter() {
            // Every tile of the band goes into the cache — the sweep
            // already paid for them (pan prefetch).
            let outcome = self.cache.insert(self.key(zoom, tile.tx, tile.ty), Arc::clone(tile));
            req.evictions.fetch_add(outcome.evicted, Ordering::Relaxed);
            req.rejected.fetch_add(outcome.rejected as u64, Ordering::Relaxed);
        }
        self.flights.record_computed((zoom, ty));
        lease.complete(Ok(Arc::clone(&shared)));
        shared
    }

    /// Serves one viewport: assembles the requested pixel window from
    /// cached tiles, computing (and caching) any missing row bands on the
    /// work-stealing runtime (`threads == 0` means "auto"). Misses are
    /// **single-flight** per band: if another request is already
    /// computing a needed band, this request waits for that result
    /// instead of duplicating the sweep.
    ///
    /// Returns the `width × height` density raster plus a [`SweepReport`]
    /// whose cache counters are the **deltas this request itself
    /// caused** — counted along this request's own lookups and inserts,
    /// never inferred from the global counters (which would misattribute
    /// other requests' traffic under concurrency). The raster is
    /// bitwise-equal to cropping the monolithic level raster, for any
    /// cache state and thread count.
    pub fn serve_viewport(
        &self,
        viewport: &Viewport,
        threads: usize,
    ) -> Result<(DensityGrid, SweepReport)> {
        let (grid, report, _tier) = self.serve_viewport_tiered(viewport, threads)?;
        Ok((grid, report))
    }

    /// [`TileServer::serve_viewport`] plus the [`TierInfo`] metadata of
    /// the level that answered: which tier it was and, for the coreset
    /// tier, the advertised ε and coreset size.
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
        let tier_info = self.tier_info(vp.zoom);
        {
            let _s = kdv_obs::span2(
                "serve.tier",
                "zoom",
                vp.zoom as u64,
                "coreset",
                u64::from(tier_info.tier == TileTier::Coreset),
            );
            kdv_obs::metrics::global()
                .counter(match tier_info.tier {
                    TileTier::Exact => "serve.tier.exact",
                    TileTier::Coreset => "serve.tier.coreset",
                })
                .bump();
        }
        let tiling = self.pyramid.level_tiling(vp.zoom);

        // Look every needed tile up first, counting this request's own
        // hits and misses; collect the misses' row bands (ascending, as
        // the lookup walks the rows in order).
        let mut window = TileWindow::new(&vp, self.pyramid.tile_size);
        let mut missing_bands: Vec<usize> = Vec::new();
        let (mut req_hits, mut req_misses) = (0u64, 0u64);
        for ty in window.rows() {
            for tx in window.cols() {
                match self.cache.get(&self.key(vp.zoom, tx, ty)) {
                    Some(tile) => {
                        req_hits += 1;
                        window.put(tile);
                    }
                    None => {
                        req_misses += 1;
                        if missing_bands.last() != Some(&ty) {
                            missing_bands.push(ty);
                        }
                    }
                }
            }
        }

        let req_evictions = AtomicU64::new(0);
        let req_rejected = AtomicU64::new(0);
        if !missing_bands.is_empty() {
            let ctx = self.level_context(vp.zoom)?;
            let keys: Vec<BandId> = missing_bands.into_iter().map(|ty| (vp.zoom, ty)).collect();
            let (lead, join) = self.flights.claim(&keys);
            let req = LeadContext {
                ctx: &ctx,
                tiling: &tiling,
                zoom: vp.zoom,
                evictions: &req_evictions,
                rejected: &req_rejected,
            };

            // Compute the bands this request leads, in parallel, each
            // publishing to its flight as soon as it finishes.
            let params = self.level_params(vp.zoom);
            let led: Vec<Arc<BandTiles>> = for_each_index_with(
                lead.len(),
                threads,
                || BandWorkspace::new(&params),
                |ws, i| {
                    let ((_, ty), ref flight) = lead[i];
                    self.lead_band(&req, ty, flight, ws)
                },
            );

            // Take the window's tiles from the led results, then wait for
            // the flights other requests are computing on this request's
            // behalf.
            for shared in &led {
                window.put_band(shared);
            }
            for (_, flight) in join {
                window.put_band(&flight.wait()?);
            }
        }

        let out = window.assemble(&tiling, &vp);

        let mut report = SweepReport::from_workers(Vec::new(), vp.height, 0)
            .with_cache_counters(req_hits, req_misses, req_evictions.load(Ordering::Relaxed))
            .with_cache_rejected(req_rejected.load(Ordering::Relaxed));
        report.threads = threads;
        report.wall_nanos = started.elapsed().as_nanos() as u64;
        span.arg("misses", report.cache_misses);
        let metrics = kdv_obs::metrics::global();
        metrics.histogram("serve.request_ns").record(report.wall_nanos);
        metrics
            .histogram(match tier_info.tier {
                TileTier::Exact => "serve.request_ns.exact",
                TileTier::Coreset => "serve.request_ns.coreset",
            })
            .record(report.wall_nanos);
        Ok((out, report, tier_info))
    }
}

/// Per-request context shared by every band this request leads: the
/// level's sweep context and tiling, plus the request-local eviction /
/// rejection accumulators (leaders insert from parallel worker threads,
/// so the deltas are atomics).
struct LeadContext<'a> {
    ctx: &'a SweepContext,
    tiling: &'a Tiling,
    zoom: u8,
    evictions: &'a AtomicU64,
    rejected: &'a AtomicU64,
}

/// The tiles one request assembles its viewport from: a dense table
/// over the viewport's tile window, row-major in `(ty, tx)`. Filled from
/// cache hits and computed bands, then handed to
/// [`kdv_core::tile::assemble`]. Shared by [`TileServer`] and
/// [`crate::live::LiveTileServer`].
pub(crate) struct TileWindow {
    cols: Range<usize>,
    rows: Range<usize>,
    tiles: Vec<Option<Arc<Tile>>>,
}

impl TileWindow {
    /// An empty window over the tiles a clamped viewport intersects.
    pub(crate) fn new(vp: &Viewport, tile_size: usize) -> Self {
        let (cols, rows) = (vp.tile_cols(tile_size), vp.tile_rows(tile_size));
        Self { tiles: vec![None; cols.len() * rows.len()], cols, rows }
    }

    /// Tile columns of the window.
    pub(crate) fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Tile rows (bands) of the window.
    pub(crate) fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    fn slot(&self, tx: usize, ty: usize) -> usize {
        (ty - self.rows.start) * self.cols.len() + (tx - self.cols.start)
    }

    /// Stores a tile of the window.
    pub(crate) fn put(&mut self, tile: Arc<Tile>) {
        let slot = self.slot(tile.tx, tile.ty);
        self.tiles[slot] = Some(tile);
    }

    /// Stores the tiles of a computed band that fall inside the window.
    pub(crate) fn put_band(&mut self, band: &[Arc<Tile>]) {
        for tile in band {
            if self.cols.contains(&tile.tx) && self.rows.contains(&tile.ty) {
                self.put(Arc::clone(tile));
            }
        }
    }

    /// Assembles the viewport from the window's tiles.
    ///
    /// # Panics
    /// Panics if a tile the viewport overlaps was never stored.
    pub(crate) fn assemble(&self, tiling: &Tiling, vp: &Viewport) -> DensityGrid {
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
        let full = sweep_bucket::compute(&params, &server.points).unwrap();
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

    #[test]
    fn pan_reuses_band_tiles() {
        let srv = server(1 << 22);
        let a = Viewport { zoom: 1, px: 0, py: 20, width: 32, height: 16 };
        let (_, r1) = srv.serve_viewport(&a, 0).unwrap();
        assert!(r1.cache_misses > 0);
        // pan right within the same row bands: every tile was prefetched
        let b = Viewport { zoom: 1, px: 48, py: 20, width: 32, height: 16 };
        let (grid, r2) = srv.serve_viewport(&b, 0).unwrap();
        assert_eq!(r2.cache_misses, 0, "horizontal pan should be all hits");
        assert_eq!(grid, crop_reference(&srv, &b));
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
        TileServer::with_overview_coreset(pyramid, config, points(300), cache_bytes, 4, overview)
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
}
