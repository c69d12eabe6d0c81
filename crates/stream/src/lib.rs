//! # kdv-stream — streaming ingestion for kernel density visualization
//!
//! Every sweep engine in the workspace assumes a frozen point set, but
//! the flagship scenarios (traffic, outbreak monitoring) are naturally
//! *streaming*: points arrive continuously and old points expire. Kernel
//! sums are additive, so live data does not need a new engine — it needs
//! bookkeeping that keeps the additivity **bit-exact**:
//!
//! * [`StreamingPointSet`] — a frozen *epoch base* plus an ordered log of
//!   [`DeltaBatch`]es (signed weights: `+1` append, `-1` expiration),
//!   with a monotone **generation** counter that names every distinct
//!   state the set has ever been in.
//! * The canonical density of generation `g` is defined as the base
//!   sweep *plus each batch's weighted sweep folded in batch order* —
//!   one fixed float program per generation. A cached tile patched from
//!   generation `g₀` to `g` folds exactly the suffix batches, so the
//!   patch is bitwise-equal to a cold rebuild **by construction** (both
//!   run the same additions in the same order; see
//!   [`kdv_core::tile::accumulate_rows`]).
//! * [`StreamingPointSet::compact`] folds the live multiset into a new
//!   epoch base. Re-sweeping a merged set legally reassociates float
//!   additions, so compaction bumps the generation (old cached tiles can
//!   never alias the new bits) and the contract is *rebuild equality*:
//!   the compacted set serves bitwise-identically to a fresh
//!   [`StreamingPointSet`] constructed directly from the same live
//!   points — at any compaction trigger point.
//!
//! The serving integration (cached-tile patching, generation-keyed cache
//! entries, the patch-vs-recompute decision) lives in `kdv-serve`; this
//! crate owns the state machine and the canonical rebuild reference the
//! conformance oracle compares against.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use kdv_core::driver::{validate_points, KdvParams, SweepContext};
use kdv_core::tile::{accumulate_rows, sweep_rows, BandWorkspace};
use kdv_core::{DensityGrid, KdvError, Point, Result};

/// One sealed mutation batch: points with signed unit weights (`+1.0`
/// append, `-1.0` expiration), in arrival order. A batch is the
/// *association unit* of the canonical float program — the density of a
/// generation folds whole batches in order, so batch boundaries are part
/// of the state's identity, not an implementation detail.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Batch points, in arrival order.
    pub points: Vec<Point>,
    /// Signed unit weight per point (`+1.0` or `-1.0`).
    pub weights: Vec<f64>,
    /// Smallest point y-coordinate (world frame), for the
    /// bandwidth-radius band test.
    y_min: f64,
    /// Largest point y-coordinate (world frame).
    y_max: f64,
}

impl DeltaBatch {
    fn new(points: Vec<Point>, weights: Vec<f64>) -> Self {
        debug_assert_eq!(points.len(), weights.len());
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &points {
            y_min = y_min.min(p.y);
            y_max = y_max.max(p.y);
        }
        Self { points, weights, y_min, y_max }
    }

    /// Number of entries in the batch.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the batch has no entries.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Bandwidth-radius band test: whether any point of this batch can
    /// contribute to a pixel row with y-coordinate in `[row_lo, row_hi]`
    /// under bandwidth `b` (Definition 1: only points with
    /// `|k − p.y| ≤ b` reach row `k`). A `false` means the batch's
    /// weighted sweep over those rows is exactly zero everywhere, and —
    /// because the fold skips exactly-zero delta pixels — eliding the
    /// sweep entirely is bit-identical to running it. Both the serve
    /// patch path and [`rebuild_grid`] use this same test, so elision
    /// can never make patch and rebuild disagree.
    pub fn touches_rows(&self, row_lo: f64, row_hi: f64, bandwidth: f64) -> bool {
        !self.is_empty() && self.y_min - bandwidth <= row_hi && self.y_max + bandwidth >= row_lo
    }
}

/// A consistent point-in-time view of a [`StreamingPointSet`]: the epoch
/// base and every batch sealed so far, cheap to take (Arc clones) and
/// safe to compute against while the set keeps mutating.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// The frozen epoch base, in its canonical (arrival) order.
    pub base: Arc<Vec<Point>>,
    /// Sealed batches of this epoch, in seal order.
    pub batches: Vec<Arc<DeltaBatch>>,
    /// Epoch counter (bumped by each compaction).
    pub epoch: u64,
    /// Generation of the bare epoch base (no batches folded).
    pub epoch_generation: u64,
}

impl StreamSnapshot {
    /// Generation of this snapshot: the epoch base's generation plus one
    /// per sealed batch.
    pub fn generation(&self) -> u64 {
        self.epoch_generation + self.batches.len() as u64
    }

    /// Whether a tile cached at generation `from` can be *patched* up to
    /// this snapshot: `from` must name a state of this epoch (a
    /// pre-compaction tile was computed from a differently-associated
    /// base and cannot be advanced by folding batches).
    pub fn patchable_from(&self, from: u64) -> bool {
        from >= self.epoch_generation && from <= self.generation()
    }

    /// The batches a tile at generation `from` is missing, in fold
    /// order. Panics if `from` is not [`StreamSnapshot::patchable_from`].
    pub fn batches_since(&self, from: u64) -> &[Arc<DeltaBatch>] {
        assert!(self.patchable_from(from), "generation {from} is not of this epoch");
        &self.batches[(from - self.epoch_generation) as usize..]
    }

    /// Total delta entries across all sealed batches.
    pub fn delta_len(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

/// A live point set: a frozen epoch base plus an append-only log of
/// signed delta batches, with FIFO expiration and periodic compaction.
///
/// Mutations never edit the base or a sealed batch — each one seals a
/// new batch and bumps the generation, so every generation names one
/// immutable state and the serving layer can cache against it. Each
/// mutation validates and builds everything it needs before its first
/// write, so a panic (or an error) never leaves a half-applied mutation
/// behind: a server may keep using the set after a panic poisoned the
/// lock around it.
#[derive(Debug)]
pub struct StreamingPointSet {
    base: Arc<Vec<Point>>,
    batches: Vec<Arc<DeltaBatch>>,
    /// Current live points in arrival order (base survivors first) — the
    /// FIFO expiration queue and the next compaction's base. `None` while
    /// the live set is exactly the epoch base, so a set that has sealed
    /// no batch since its base was frozen holds its points once.
    live: Option<VecDeque<Point>>,
    epoch: u64,
    epoch_generation: u64,
}

impl StreamingPointSet {
    /// A streaming set whose epoch base is `base` (generation 0,
    /// epoch 0). The base order is canonical: two sets constructed from
    /// the same sequence are bitwise-indistinguishable forever after the
    /// same mutation history.
    pub fn new(base: Vec<Point>) -> Self {
        Self {
            base: Arc::new(base),
            batches: Vec::new(),
            live: None,
            epoch: 0,
            epoch_generation: 0,
        }
    }

    /// The live FIFO, copied out of the base on first use (the copy holds
    /// the same points, so the live set is unchanged by it).
    fn live_mut(&mut self) -> &mut VecDeque<Point> {
        self.live.get_or_insert_with(|| self.base.iter().copied().collect())
    }

    /// Current generation (monotone across mutations *and* compactions —
    /// two distinct states never share a generation).
    pub fn generation(&self) -> u64 {
        self.epoch_generation + self.batches.len() as u64
    }

    /// Current epoch (bumped by each compaction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of currently-live points.
    pub fn live_len(&self) -> usize {
        self.live.as_ref().map_or(self.base.len(), VecDeque::len)
    }

    /// Number of sealed batches in the current epoch.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Total delta entries (appends + expirations) sealed this epoch —
    /// the per-request patch cost compaction exists to bound.
    pub fn delta_len(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// The live points in arrival order (what a compaction would freeze).
    pub fn live_points(&self) -> Vec<Point> {
        match &self.live {
            Some(live) => live.iter().copied().collect(),
            None => self.base.to_vec(),
        }
    }

    /// Appends `points` as one sealed batch (weight `+1.0` each) and
    /// returns the new generation. Empty appends are a no-op (no batch,
    /// same generation) — replaying a history with empty appends removed
    /// reaches the identical state. A batch with a non-finite coordinate
    /// is an error ([`KdvError::NonFinitePoint`]) and leaves the set
    /// unchanged: sealed, it would fail every later sweep of the stream.
    pub fn append(&mut self, points: &[Point]) -> Result<u64> {
        validate_points(points)?;
        if points.is_empty() {
            return Ok(self.generation());
        }
        let batch = DeltaBatch::new(points.to_vec(), vec![1.0; points.len()]);
        self.live_mut().extend(points.iter().copied());
        Ok(self.seal(batch))
    }

    /// Expires the `n` oldest live points (FIFO — the expiring-window
    /// semantics of the traffic/outbreak scenarios) as one sealed batch
    /// of weight `-1.0` entries. Returns the new generation and the
    /// expired points; expiring from an empty set is a no-op.
    pub fn expire_oldest(&mut self, n: usize) -> (u64, Vec<Point>) {
        let n = n.min(self.live_len());
        if n == 0 {
            return (self.generation(), Vec::new());
        }
        let live = self.live_mut();
        let expired: Vec<Point> = live.iter().take(n).copied().collect();
        let batch = DeltaBatch::new(expired.clone(), vec![-1.0; n]);
        live.drain(..n);
        (self.seal(batch), expired)
    }

    /// Seals one *mixed* batch of signed unit mutations: weight `+1.0`
    /// appends the point, `-1.0` expires one live point with bitwise the
    /// same coordinates. Entries cancel *within* the batch's single
    /// weighted sweep, which is what makes an append-then-expire of the
    /// same point in one batch an exactly-zero delta (see the property
    /// tests). Errors (leaving the set unchanged) on a length mismatch,
    /// a non-finite coordinate, a weight other than ±1.0, or an
    /// expiration of a point that is not live.
    pub fn apply_signed(&mut self, points: &[Point], weights: &[f64]) -> Result<u64> {
        if points.len() != weights.len() {
            return Err(KdvError::Internal("signed batch points/weights length mismatch"));
        }
        validate_points(points)?;
        if weights.iter().any(|&w| w != 1.0 && w != -1.0) {
            return Err(KdvError::Internal("signed batch weights must be +1.0 or -1.0"));
        }
        // validate + stage the live-queue edit before sealing anything
        let mut live = match &self.live {
            Some(live) => live.clone(),
            None => self.base.iter().copied().collect(),
        };
        for (p, &w) in points.iter().zip(weights) {
            if w == 1.0 {
                live.push_back(*p);
            } else {
                match live
                    .iter()
                    .position(|q| q.x.to_bits() == p.x.to_bits() && q.y.to_bits() == p.y.to_bits())
                {
                    Some(i) => {
                        live.remove(i);
                    }
                    None => return Err(KdvError::Internal("expired point is not live")),
                }
            }
        }
        if points.is_empty() {
            return Ok(self.generation());
        }
        let batch = DeltaBatch::new(points.to_vec(), weights.to_vec());
        self.live = Some(live);
        Ok(self.seal(batch))
    }

    fn seal(&mut self, batch: DeltaBatch) -> u64 {
        self.batches.push(Arc::new(batch));
        let generation = self.generation();
        let metrics = kdv_obs::metrics::global();
        metrics.counter("stream.batches").bump();
        metrics
            .counter("stream.delta_points")
            .add(self.batches.last().map_or(0, |b| b.len()) as u64);
        // stream.generation - serve.generation = the live server's
        // generation lag (how far serving trails ingestion).
        metrics.gauge("stream.generation").set(generation);
        generation
    }

    /// Folds the delta into the base: the new epoch base is the current
    /// live multiset in arrival order, the batch log empties, the epoch
    /// and generation advance. Re-sweeping the merged base reassociates
    /// float additions, so the new generation guarantees no pre-compact
    /// cached tile can alias the new bits; the correctness contract is
    /// that the compacted set is bitwise-indistinguishable from a fresh
    /// [`StreamingPointSet::new`] over the same live points.
    pub fn compact(&mut self) -> u64 {
        let _s = kdv_obs::span2(
            "stream.compact",
            "live",
            self.live_len() as u64,
            "delta",
            self.delta_len() as u64,
        );
        // Everything that allocates happens before the first write, so a
        // panic cannot leave a half-compacted set behind.
        let base = Arc::new(self.live_points());
        self.epoch_generation = self.generation() + 1;
        self.epoch += 1;
        self.base = base;
        self.batches.clear();
        self.live = None;
        let metrics = kdv_obs::metrics::global();
        metrics.counter("stream.compactions").bump();
        metrics.gauge("stream.generation").set(self.epoch_generation);
        self.epoch_generation
    }

    /// A consistent snapshot of the current state (cheap: Arc clones).
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            base: Arc::clone(&self.base),
            batches: self.batches.clone(),
            epoch: self.epoch,
            epoch_generation: self.epoch_generation,
        }
    }
}

/// Folds every batch of `batches` into `workspace.band`, the row band
/// of rows `rows` of the raster over pixel columns `cols`
/// (`rows.len() × cols.len()`), in batch order, skipping batches outside
/// the band's bandwidth radius. This is the one fold both the cold
/// rebuild and the serve layer's cached-tile patch run — the shared
/// float program that makes them bitwise-equal. Each folded pixel is
/// bitwise that pixel of the full-width fold (see
/// [`kdv_core::tile::accumulate_rows`], whose batch sweeps start at each
/// row's last pixel at or left of `cols` with nothing active), so a tile
/// can be patched, or a resumed cold run folded, over about its own
/// columns.
///
/// `context_for` supplies (or caches) the per-batch weighted sweep
/// context ([`batch_context`]), called with each folded batch's index
/// within `batches`.
///
/// Returns `(folded, skipped)` batch counts, so the serve layer can
/// attribute patch work (`serve.patch.batches` / `serve.patch.skipped`)
/// without re-running the radius test.
pub fn fold_batches(
    params: &KdvParams,
    batches: &[Arc<DeltaBatch>],
    rows: Range<usize>,
    cols: Range<usize>,
    workspace: &mut BandWorkspace,
    mut context_for: impl FnMut(usize, &DeltaBatch) -> Result<Arc<SweepContext>>,
) -> Result<(u64, u64)> {
    if batches.is_empty() || rows.is_empty() {
        return Ok((0, batches.len() as u64));
    }
    let (k0, k1) =
        (params.grid.pixel_center(0, rows.start).y, params.grid.pixel_center(0, rows.end - 1).y);
    let (row_lo, row_hi) = (k0.min(k1), k0.max(k1));
    let (mut folded, mut skipped) = (0u64, 0u64);
    let BandWorkspace { engine, envelope, band, delta } = workspace;
    for (i, batch) in batches.iter().enumerate() {
        if !batch.touches_rows(row_lo, row_hi, params.bandwidth) {
            kdv_obs::metrics::global().counter("serve.patch.skipped").bump();
            skipped += 1;
            continue;
        }
        let ctx = context_for(i, batch)?;
        let (rows, cols) = (rows.clone(), cols.clone());
        accumulate_rows(&ctx, params.bandwidth, rows, cols, engine, envelope, delta, band);
        folded += 1;
    }
    Ok((folded, skipped))
}

/// The weighted sweep context of one batch: its points with their signed
/// weights, on the raster of `params`.
pub fn batch_context(params: &KdvParams, batch: &DeltaBatch) -> Result<SweepContext> {
    SweepContext::weighted(params, &batch.points, &batch.weights)
}

/// The canonical cold rebuild of a snapshot's full raster: the epoch
/// base swept with the bucket engine, then every sealed batch folded in
/// order via [`fold_batches`]. This is the reference the conformance
/// oracle holds streaming serving to — a patched tile must reproduce the
/// corresponding window of this raster bit for bit.
pub fn rebuild_grid(params: &KdvParams, snapshot: &StreamSnapshot) -> Result<DensityGrid> {
    let rows = 0..params.grid.res_y;
    let ctx = SweepContext::new(params, &snapshot.base)?;
    let mut ws = BandWorkspace::new(params);
    ws.band.resize(params.grid.res_x * params.grid.res_y, 0.0);
    sweep_rows(
        &ctx,
        params.bandwidth,
        rows.clone(),
        &mut ws.engine,
        &mut ws.envelope,
        &mut ws.band,
    );
    fold_batches(params, &snapshot.batches, rows, 0..params.grid.res_x, &mut ws, |_, batch| {
        Ok(Arc::new(batch_context(params, batch)?))
    })?;
    Ok(DensityGrid::from_values(params.grid.res_x, params.grid.res_y, ws.band))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::tile::sweep_band;
    use kdv_core::{GridSpec, KernelType, Rect};

    fn params() -> KdvParams {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 24, 24).unwrap();
        KdvParams { grid, kernel: KernelType::Epanechnikov, bandwidth: 18.0, weight: 0.01 }
    }

    fn pts(seed: u64, n: usize) -> Vec<Point> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
    }

    #[test]
    fn generations_are_monotone_and_name_every_state() {
        let mut set = StreamingPointSet::new(pts(1, 20));
        assert_eq!(set.generation(), 0);
        let g1 = set.append(&pts(2, 3)).unwrap();
        assert_eq!(g1, 1);
        let (g2, expired) = set.expire_oldest(2);
        assert_eq!(g2, 2);
        assert_eq!(expired.len(), 2);
        assert_eq!(set.live_len(), 21);
        let g3 = set.compact();
        assert_eq!(g3, 3, "compaction takes a fresh generation");
        assert_eq!(set.epoch(), 1);
        assert_eq!(set.batch_count(), 0);
        assert_eq!(set.generation(), 3);
    }

    #[test]
    fn empty_mutations_do_not_seal_batches() {
        let mut set = StreamingPointSet::new(pts(1, 5));
        assert_eq!(set.append(&[]).unwrap(), 0);
        assert_eq!(set.expire_oldest(0).0, 0);
        assert_eq!(set.apply_signed(&[], &[]).unwrap(), 0);
        assert_eq!(set.batch_count(), 0);
    }

    #[test]
    fn apply_signed_validates_before_mutating() {
        let mut set = StreamingPointSet::new(pts(1, 4));
        let p = Point::new(1.0, 2.0);
        assert!(set.apply_signed(&[p], &[0.5]).is_err(), "non-unit weight");
        assert!(set.apply_signed(&[p], &[-1.0]).is_err(), "expiring a non-live point");
        assert!(set.apply_signed(&[p, p], &[1.0]).is_err(), "length mismatch");
        let nan = Point::new(f64::NAN, 2.0);
        assert!(set.apply_signed(&[p, nan], &[1.0, 1.0]).is_err(), "non-finite point");
        assert!(set.append(&[p, nan]).is_err(), "non-finite append");
        assert_eq!(set.generation(), 0, "failed batches leave the set untouched");
        assert_eq!(set.live_len(), 4);
        // append then expire in one batch: live set round-trips
        assert_eq!(set.apply_signed(&[p, p], &[1.0, -1.0]).unwrap(), 1);
        assert_eq!(set.live_len(), 4);
    }

    #[test]
    fn snapshot_is_stable_under_later_mutations() {
        let mut set = StreamingPointSet::new(pts(3, 10));
        set.append(&pts(4, 2)).unwrap();
        let snap = set.snapshot();
        set.append(&pts(5, 2)).unwrap();
        set.compact();
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.batches.len(), 1);
        assert!(snap.patchable_from(0));
        assert!(snap.patchable_from(1));
        assert!(!snap.patchable_from(2));
        assert_eq!(snap.batches_since(0).len(), 1);
        assert_eq!(snap.batches_since(1).len(), 0);
    }

    #[test]
    fn rebuild_matches_plain_sweep_on_frozen_set() {
        // with no batches, the canonical rebuild IS the bucket sweep
        let set = StreamingPointSet::new(pts(7, 40));
        let p = params();
        let got = rebuild_grid(&p, &set.snapshot()).unwrap();
        let reference = kdv_core::sweep_bucket::compute(&p, &set.snapshot().base).unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn append_is_observable_in_the_density() {
        let mut set = StreamingPointSet::new(pts(7, 40));
        let p = params();
        let before = rebuild_grid(&p, &set.snapshot()).unwrap();
        set.append(&[Point::new(50.0, 50.0)]).unwrap();
        let after = rebuild_grid(&p, &set.snapshot()).unwrap();
        assert_ne!(before, after, "an appended point must change the density");
    }

    #[test]
    fn out_of_radius_batch_is_skipped_bit_transparently() {
        let p = params();
        let mut set = StreamingPointSet::new(pts(9, 30));
        let base = rebuild_grid(&p, &set.snapshot()).unwrap();
        // a point far below the raster (rows span y∈[0,100], b=18)
        set.append(&[Point::new(50.0, -500.0)]).unwrap();
        assert!(!set.snapshot().batches[0].touches_rows(0.0, 100.0, p.bandwidth));
        let after = rebuild_grid(&p, &set.snapshot()).unwrap();
        assert_eq!(
            kdv_core::digest::grid_checksum(&after),
            kdv_core::digest::grid_checksum(&base),
            "an out-of-radius batch must not change a single bit"
        );
    }

    #[test]
    fn prefix_fold_equals_the_full_folds_prefix_bitwise() {
        // Columns `0..end` of a band: the base sweep plus every signed
        // batch folded over them must be the first `end` pixels of the
        // rebuild.
        let p = params();
        let mut set = StreamingPointSet::new(pts(11, 40));
        set.append(&pts(12, 9)).unwrap();
        set.expire_oldest(5);
        let mixed = pts(13, 4);
        set.append(&mixed).unwrap();
        set.apply_signed(&[mixed[1], Point::new(30.0, 60.0)], &[-1.0, 1.0]).unwrap();
        let snapshot = set.snapshot();
        let full = rebuild_grid(&p, &snapshot).unwrap();
        let ctx = SweepContext::new(&p, &snapshot.base).unwrap();
        let mut ws = BandWorkspace::new(&p);
        for (rows, end) in [(0..24, 1), (3..9, 7), (10..24, 13), (5..6, 24), (0..24, 24)] {
            ws.band.resize(rows.len() * end, 0.0);
            let BandWorkspace { engine, envelope, band, .. } = &mut ws;
            let (rows, cols) = (rows.clone(), 0..end);
            sweep_band(
                &ctx,
                p.bandwidth,
                rows.clone(),
                cols.clone(),
                None,
                &[],
                engine,
                envelope,
                band,
            );
            let (folded, _) =
                fold_batches(&p, &snapshot.batches, rows.clone(), cols, &mut ws, |_, b| {
                    Ok(Arc::new(batch_context(&p, b)?))
                })
                .unwrap();
            assert!(folded > 0, "rows {rows:?}: some batch must reach the band");
            for (slot, j) in rows.clone().enumerate() {
                let got: Vec<u64> =
                    ws.band[slot * end..(slot + 1) * end].iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = full.row(j)[..end].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {j}, prefix of {end} pixels");
            }
        }
    }

    #[test]
    fn column_range_fold_equals_the_full_folds_columns_bitwise() {
        // Columns `s..e` of the base raster with every signed batch folded
        // over just those columns must be those columns of the rebuild.
        let p = params();
        let mut set = StreamingPointSet::new(pts(21, 40));
        set.append(&pts(22, 3)).unwrap();
        set.append(&pts(23, 2)).unwrap();
        set.expire_oldest(4);
        let snapshot = set.snapshot();
        let full = rebuild_grid(&p, &snapshot).unwrap();
        let base =
            rebuild_grid(&p, &StreamingPointSet::new(snapshot.base.to_vec()).snapshot()).unwrap();
        let mut ws = BandWorkspace::new(&p);
        let mut total = 0;
        for (rows, cols) in [(0..24, 5..6), (3..9, 7..19), (10..24, 13..24), (0..24, 1..23)] {
            ws.band.clear();
            for j in rows.clone() {
                ws.band.extend_from_slice(&base.row(j)[cols.clone()]);
            }
            let (folded, _) =
                fold_batches(&p, &snapshot.batches, rows.clone(), cols.clone(), &mut ws, |_, b| {
                    Ok(Arc::new(batch_context(&p, b)?))
                })
                .unwrap();
            total += folded;
            for (slot, j) in rows.clone().enumerate() {
                let n = cols.len();
                let got: Vec<u64> =
                    ws.band[slot * n..(slot + 1) * n].iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    full.row(j)[cols.clone()].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {j}, columns {cols:?}");
            }
        }
        assert!(total > 0, "no batch reached a band");
    }
}
