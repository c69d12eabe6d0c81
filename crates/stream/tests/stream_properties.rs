//! Property tests for the streaming state machine's bit-level contracts.
//!
//! Three properties carry the whole PR:
//!
//! 1. **Same-batch cancellation** — appending and expiring the same
//!    point inside one signed batch is a bitwise no-op on the density
//!    grid. The ± pair cancels *exactly* inside the batch's single
//!    compensated accumulation (`x` then `−x` from a zeroed Kahan
//!    accumulator returns to exactly zero, and negation is exact), and
//!    the fold skips exactly-zero delta pixels, so not a bit moves.
//! 2. **Patch = rebuild** — folding the suffix batches onto a rebuild of
//!    any earlier generation reproduces the full rebuild of the current
//!    generation bit for bit. This is the serve layer's tile-patching
//!    argument, proven here independent of any cache or server.
//! 3. **Compaction = fresh rebuild** — compacting at *any* trigger point
//!    yields a state whose canonical rebuild is bitwise-equal to a brand
//!    new stream constructed from the same live points. (Compaction
//!    reassociates float additions, so bit-stability *across* the
//!    compaction is deliberately not claimed — the generation bump is
//!    what keeps pre-compaction tiles from ever aliasing.)

use std::sync::Arc;

use kdv_core::digest::grid_checksum;
use kdv_core::driver::KdvParams;
use kdv_core::tile::BandWorkspace;
use kdv_core::{GridSpec, KernelType, Point, Rect};
use kdv_stream::{batch_context, fold_batches, rebuild_grid, StreamingPointSet};
use proptest::prelude::*;

fn params(res_x: usize, res_y: usize, bandwidth: f64) -> KdvParams {
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), res_x, res_y).unwrap();
    KdvParams { grid, kernel: KernelType::Epanechnikov, bandwidth, weight: 0.01 }
}

fn point_strategy() -> impl Strategy<Value = Point> {
    // points straddle the region border so bandwidth-radius skipping is
    // exercised, not just the always-touching case
    (-40.0f64..140.0, -40.0f64..140.0).prop_map(|(x, y)| Point::new(x, y))
}

fn points_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point_strategy(), 1..max)
}

/// A random mutation history: each step either appends a small batch or
/// expires a few oldest points.
#[derive(Debug, Clone)]
enum Step {
    Append(Vec<Point>),
    Expire(usize),
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..3, points_strategy(8), 1usize..4).prop_map(|(kind, points, n)| {
            // 2:1 append:expire mix so histories grow as often as they shrink
            if kind < 2 {
                Step::Append(points)
            } else {
                Step::Expire(n)
            }
        }),
        1..8,
    )
}

fn apply(set: &mut StreamingPointSet, steps: &[Step]) {
    for step in steps {
        match step {
            Step::Append(points) => {
                set.append(points).unwrap();
            }
            Step::Expire(n) => {
                set.expire_oldest(*n);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: a same-batch append+expire of one point cancels
    /// bitwise — the density grid checksum does not move. The batch's
    /// sweep only ever accumulates the ± pair, whose contributions
    /// cancel exactly from a zeroed compensated accumulator, and the
    /// fold skips exactly-zero delta pixels.
    #[test]
    fn same_batch_append_expire_is_a_bitwise_noop(
        base in points_strategy(60),
        p in point_strategy(),
        extra in points_strategy(5),
    ) {
        let params = params(23, 17, 21.0);
        let mut set = StreamingPointSet::new(base);
        // some unrelated history first, so the no-op batch lands on a
        // non-trivial state
        set.append(&extra).unwrap();
        let before = grid_checksum(&rebuild_grid(&params, &set.snapshot()).unwrap());
        set.apply_signed(&[p, p], &[1.0, -1.0]).unwrap();
        prop_assert!(set.generation() > 1, "the no-op batch still seals a generation");
        let after = grid_checksum(&rebuild_grid(&params, &set.snapshot()).unwrap());
        prop_assert_eq!(after, before, "± pair in one batch must not move a single bit");
    }

    /// Property 2: folding the missing suffix of batches onto a rebuild
    /// of any earlier generation reproduces the current generation's
    /// rebuild bitwise — the tile-patching correctness argument.
    #[test]
    fn suffix_fold_equals_full_rebuild(
        base in points_strategy(60),
        steps in steps_strategy(),
        split in 0usize..8,
    ) {
        let params = params(19, 26, 17.0);
        let mut set = StreamingPointSet::new(base);
        // run history up to an arbitrary split point: the "cached" state
        let split = split.min(steps.len());
        apply(&mut set, &steps[..split]);
        let cached_snapshot = set.snapshot();
        let g0 = cached_snapshot.generation();
        let mut workspace = BandWorkspace::new(&params);
        workspace.band = rebuild_grid(&params, &cached_snapshot).unwrap().values().to_vec();
        // the rest of the history arrives after the tile was cached
        apply(&mut set, &steps[split..]);
        let now = set.snapshot();
        prop_assert!(now.patchable_from(g0));
        let missing = now.batches_since(g0).to_vec();
        fold_batches(
            &params,
            &missing,
            0..params.grid.res_y,
            0..params.grid.res_x,
            &mut workspace,
            |_, batch| Ok(Arc::new(batch_context(&params, batch)?)),
        ).unwrap();
        let patched = kdv_core::DensityGrid::from_values(
            params.grid.res_x,
            params.grid.res_y,
            workspace.band,
        );
        let rebuilt = rebuild_grid(&params, &now).unwrap();
        prop_assert_eq!(
            grid_checksum(&patched),
            grid_checksum(&rebuilt),
            "patching from generation {} must equal rebuild at generation {}",
            g0,
            now.generation()
        );
    }

    /// Property 3: compaction at any trigger point is indistinguishable
    /// from a brand-new stream over the same live points — and the
    /// generation strictly advances so stale tiles cannot alias.
    #[test]
    fn compaction_anywhere_equals_fresh_rebuild(
        base in points_strategy(60),
        steps in steps_strategy(),
        trigger in 0usize..8,
    ) {
        let params = params(21, 21, 19.0);
        let mut set = StreamingPointSet::new(base);
        let trigger = trigger.min(steps.len());
        apply(&mut set, &steps[..trigger]);
        let gen_before = set.generation();
        let live = set.live_points();
        set.compact();
        prop_assert!(set.generation() > gen_before, "compaction must take a fresh generation");
        prop_assert_eq!(set.live_points(), live.clone(), "compaction must not change the live set");
        let fresh = StreamingPointSet::new(live);
        let a = grid_checksum(&rebuild_grid(&params, &set.snapshot()).unwrap());
        let b = grid_checksum(&rebuild_grid(&params, &fresh.snapshot()).unwrap());
        prop_assert_eq!(a, b, "compacted state must rebuild identically to a fresh stream");
        // and the post-compaction stream keeps working incrementally
        apply(&mut set, &steps[trigger..]);
        let mut replay = StreamingPointSet::new(set.snapshot().base.as_ref().clone());
        apply(&mut replay, &steps[trigger..]);
        let c = grid_checksum(&rebuild_grid(&params, &set.snapshot()).unwrap());
        let d = grid_checksum(&rebuild_grid(&params, &replay.snapshot()).unwrap());
        prop_assert_eq!(c, d, "post-compaction history must replay bitwise");
    }

    /// FIFO expiration and the live multiset stay consistent under any
    /// history (the queue the next compaction will freeze).
    #[test]
    fn live_set_tracks_history(base in points_strategy(40), steps in steps_strategy()) {
        let mut set = StreamingPointSet::new(base.clone());
        let mut model: Vec<Point> = base;
        for step in &steps {
            match step {
                Step::Append(points) => {
                    set.append(points).unwrap();
                    model.extend(points.iter().copied());
                }
                Step::Expire(n) => {
                    let n = (*n).min(model.len());
                    let (_, expired) = set.expire_oldest(n);
                    let drained: Vec<Point> = model.drain(..n).collect();
                    prop_assert_eq!(expired, drained, "FIFO order violated");
                }
            }
        }
        prop_assert_eq!(set.live_points(), model);
    }
}
