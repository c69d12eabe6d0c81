//! Streaming ingestion: the mutation API of a [`TileServer`].
//!
//! A [`TileServer`] serves a [`kdv_stream::StreamingPointSet`]; a frozen point set is
//! the stream that never seals a batch. Appends, expirations and signed
//! batches seal one batch each and bump the stream's generation; the
//! server patches cached tiles forward to the new generation on the
//! next request that needs them (see [`crate::server`] for the serve
//! path and its exactness contract). Compaction folds the delta into a
//! new epoch base, either on request ([`TileServer::compact`]) or every
//! [`LiveConfig::compact_every`] batches.

use kdv_core::{Point, Result};
use kdv_stream::StreamSnapshot;

use crate::server::{Stream, TileServer};

/// Streaming-specific configuration.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Advance stale cached tiles with delta folds (`true`) or recompute
    /// every tile from scratch on any data change (`false` — the control
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

/// Saturating counters of band work. One band sweep counts one band: a
/// patch of the stale tiles one band holds at one generation, or one cold
/// sweep of a run of one band's missing tiles.
#[derive(Debug, Default)]
pub struct LiveStats {
    pub(crate) patched_bands: kdv_obs::Counter,
    pub(crate) recomputed_bands: kdv_obs::Counter,
    pub(crate) folded_batches: kdv_obs::Counter,
}

impl LiveStats {
    /// Band column ranges advanced by patching cached tiles (no base
    /// sweep).
    pub fn patched_bands(&self) -> u64 {
        self.patched_bands.get()
    }

    /// Band column ranges swept from the epoch base, from pixel 0 or a
    /// checkpoint (tiles not cached, stale from an older epoch, or
    /// patching disabled).
    pub fn recomputed_bands(&self) -> u64 {
        self.recomputed_bands.get()
    }

    /// Delta batches folded into band column ranges (patch suffixes and
    /// cold rebuilds both count; radius-skipped batches do not).
    pub fn folded_batches(&self) -> u64 {
        self.folded_batches.get()
    }
}

/// The streaming server's former name. It is kept only because the
/// benchmark harness (`perfbench/src/live_feed.rs`) imports it and its
/// sources are frozen between benchmark changes; new code names
/// [`TileServer`].
pub type LiveTileServer = TileServer;

impl TileServer {
    /// The streaming counters.
    pub fn live_stats(&self) -> &LiveStats {
        &self.stats
    }

    /// Current generation of the underlying stream.
    pub fn generation(&self) -> u64 {
        self.lock_stream().set.generation()
    }

    /// Current epoch of the underlying stream.
    pub fn epoch(&self) -> u64 {
        self.lock_stream().set.epoch()
    }

    /// Number of currently-live points.
    pub fn live_len(&self) -> usize {
        self.lock_stream().set.live_len()
    }

    /// The live points in arrival order (what a rebuild would sweep).
    pub fn live_points(&self) -> Vec<Point> {
        self.lock_stream().set.live_points()
    }

    /// A consistent snapshot of the stream's current state.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.lock_stream().set.snapshot()
    }

    /// Appends `points` as one batch; returns the new generation.
    /// Triggers compaction when `compact_every` is reached. A batch with
    /// a non-finite coordinate is rejected whole: nothing is sealed, the
    /// current generation is returned, and the `stream.rejected_points`
    /// counter grows by the batch's size.
    pub fn append(&self, points: &[Point]) -> u64 {
        let mut stream = self.lock_stream();
        if stream.set.append(points).is_err() {
            kdv_obs::metrics::global().counter("stream.rejected_points").add(points.len() as u64);
            return stream.set.generation();
        }
        self.maybe_compact(&mut stream)
    }

    /// Expires the `n` oldest live points as one batch; returns the new
    /// generation and the expired points.
    pub fn expire_oldest(&self, n: usize) -> (u64, Vec<Point>) {
        let mut stream = self.lock_stream();
        let (_, expired) = stream.set.expire_oldest(n);
        (self.maybe_compact(&mut stream), expired)
    }

    /// Seals one mixed signed batch (see
    /// [`kdv_stream::StreamingPointSet::apply_signed`]); returns the new
    /// generation.
    pub fn apply_signed(&self, points: &[Point], weights: &[f64]) -> Result<u64> {
        let mut stream = self.lock_stream();
        stream.set.apply_signed(points, weights)?;
        Ok(self.maybe_compact(&mut stream))
    }

    /// Forces a compaction now, regardless of `compact_every`.
    pub fn compact(&self) -> u64 {
        compact(&mut self.lock_stream())
    }

    fn maybe_compact(&self, stream: &mut Stream) -> u64 {
        match self.live.compact_every {
            Some(k) if stream.set.batch_count() as u64 >= k => compact(stream),
            _ => stream.set.generation(),
        }
    }
}

/// Compacts the stream; the next coreset-tier request rebuilds the
/// overview coreset from the new epoch base.
fn compact(stream: &mut Stream) -> u64 {
    let generation = stream.set.compact();
    stream.overview = None;
    generation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TileTier;
    use crate::pyramid::{PyramidSpec, Viewport};
    use crate::server::{OverviewConfig, ServeConfig};
    use kdv_core::sweep_bucket;
    use kdv_core::{DensityGrid, KdvError, KernelType, Rect};
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

    fn live_server(cache_bytes: usize, live: LiveConfig) -> TileServer {
        TileServer::with_live(pyramid(), config(), live, points(300, 0xBADC0FFE), cache_bytes, 4)
    }

    /// The canonical rebuild of the server's current state at the
    /// viewport's level, cropped — what every response must equal
    /// bitwise.
    fn rebuild_reference(server: &TileServer, vp: &Viewport) -> DensityGrid {
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
    fn non_finite_batches_are_rejected_and_later_requests_succeed() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let vp = Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 };
        srv.serve_viewport(&vp, 0).unwrap();
        let rejected = kdv_obs::metrics::global().counter("stream.rejected_points").get();
        let nan = [Point::new(f64::NAN, 50.0), Point::new(20.0, 20.0)];
        assert_eq!(srv.append(&nan), 0, "a rejected append seals nothing");
        assert!(kdv_obs::metrics::global().counter("stream.rejected_points").get() >= rejected + 2);
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, rebuild_reference(&srv, &vp));
        let inf = [Point::new(30.0, f64::INFINITY)];
        assert!(matches!(srv.apply_signed(&inf, &[1.0]), Err(KdvError::NonFinitePoint { .. })));
        assert_eq!(srv.generation(), 0);
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, rebuild_reference(&srv, &vp));
        // a valid append after the rejections is served as usual
        assert_eq!(srv.append(&points(4, 0xFACE)), 1);
        assert_eq!(srv.serve_viewport(&vp, 0).unwrap().0, rebuild_reference(&srv, &vp));
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
        let fresh = TileServer::with_live(
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
        let srv = TileServer::with_overview_coreset(
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
    fn cold_and_patched_tiles_are_bitwise_identical() {
        let vp = Viewport { zoom: 1, px: 13, py: 29, width: 41, height: 30 };
        let patched = live_server(1 << 22, LiveConfig::default());
        patched.serve_viewport(&vp, 0).unwrap();
        patched.append(&points(4, 0xDEAF));
        let (patched_grid, report) = patched.serve_viewport(&vp, 0).unwrap();
        assert!(report.cache_patched > 0 && report.cache_misses == 0);
        // the same history on a server that never cached generation 0
        let cold = live_server(1 << 22, LiveConfig::default());
        cold.append(&points(4, 0xDEAF));
        let (cold_grid, report) = cold.serve_viewport(&vp, 0).unwrap();
        assert!(report.cache_misses > 0 && report.cache_patched == 0);
        assert_eq!(patched_grid, cold_grid, "cold and patched bits must be identical");
    }

    /// The tiles a viewport covers, in `(ty, tx)` order.
    fn tiles_of(vp: &Viewport) -> Vec<(usize, usize)> {
        let cols = vp.tile_cols(16);
        vp.tile_rows(16).flat_map(|ty| cols.clone().map(move |tx| (tx, ty))).collect()
    }

    #[test]
    fn right_pan_after_an_append_patches_the_overlap_and_computes_the_exposed_column() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let a = Viewport { zoom: 1, px: 0, py: 20, width: 32, height: 16 };
        srv.serve_viewport(&a, 0).unwrap();
        srv.append(&points(5, 0x9A4));
        // pan right by one tile at the new generation: the two cached
        // columns are patched, the exposed right column is computed cold
        let b = Viewport { zoom: 1, px: 16, py: 20, width: 32, height: 16 };
        let (overlap, exposed): (Vec<_>, Vec<_>) =
            tiles_of(&b).into_iter().partition(|t| tiles_of(&a).contains(t));
        assert_eq!(exposed, [(2, 1), (2, 2)]);
        let (bands, computed) =
            (srv.live_stats().recomputed_bands(), srv.flight_stats().computed());
        let (grid, report) = srv.serve_viewport(&b, 0).unwrap();
        assert_eq!(grid, rebuild_reference(&srv, &b));
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_patched, overlap.len() as u64);
        assert_eq!(report.cache_misses, exposed.len() as u64);
        assert_eq!(srv.live_stats().patched_bands(), 2, "one patch per band");
        assert_eq!(srv.live_stats().recomputed_bands() - bands, 2, "one cold sweep per band");
        assert_eq!(srv.flight_stats().computed() - computed, tiles_of(&b).len() as u64);
        assert_eq!(srv.flight_stats().duplicate_computes(), 0);
        let g = srv.generation();
        for (tx, ty) in tiles_of(&a) {
            let cached = |generation| {
                let key = crate::cache::TileKey::new(
                    7,
                    KernelType::Epanechnikov,
                    14.0,
                    0.005,
                    crate::pyramid::TileCoord { zoom: 1, tx: tx as u32, ty: ty as u32 },
                    generation,
                );
                srv.cache().peek(&key).is_some()
            };
            // the left column was not requested again: it stays stale
            assert_eq!(cached(g), overlap.contains(&(tx, ty)), "({tx}, {ty}) at {g}");
            assert_eq!(cached(0), !overlap.contains(&(tx, ty)), "({tx}, {ty}) at 0");
        }
    }

    #[test]
    fn every_window_tile_counts_once_and_requests_sum_to_the_cache() {
        let srv = live_server(1 << 22, LiveConfig::default());
        let viewports = [
            Viewport { zoom: 1, px: 5, py: 9, width: 60, height: 40 },
            Viewport { zoom: 1, px: 40, py: 30, width: 50, height: 50 },
            Viewport { zoom: 2, px: 100, py: 77, width: 50, height: 33 },
        ];
        let mut misses = 0;
        for step in 0..6u64 {
            if step % 2 == 1 {
                srv.append(&points(3, step));
            }
            for vp in &viewports {
                let (_, r) = srv.serve_viewport(vp, 0).unwrap();
                let tiles = tiles_of(vp).len() as u64;
                assert_eq!(r.cache_hits + r.cache_misses + r.cache_patched, tiles, "{vp:?}");
                misses += r.cache_misses;
            }
        }
        assert_eq!(srv.cache_stats().misses(), misses, "request misses sum to the cache's");
        assert!(srv.cache_stats().patched() > 0 && srv.cache_stats().hits() > 0);
    }
}
