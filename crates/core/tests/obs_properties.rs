//! Property tests of the span stream the row-parallel sweep records:
//! whatever the raster shape, thread count, engine or RAO transposition,
//! the spans each thread recorded must nest (no two partly overlap), and
//! the row spans must account for the raster exactly — one `band.search`
//! per row, `envelope.fill` sizes equal to a direct envelope pass, a
//! skipped row exactly where the band is empty, all inside the one
//! `sweep.parallel` span.
//!
//! The recorder is process-global, so every case runs under
//! [`kdv_obs::span::exclusive`] and this file is its own integration-test
//! binary (proptest drives cases sequentially; no sibling test races the
//! span logs).

use std::collections::BTreeMap;

use kdv_core::driver::{KdvParams, SweepContext};
use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::geom::{Point, Rect};
use kdv_core::grid::GridSpec;
use kdv_core::parallel::{compute_parallel_rao, ParallelEngine};
use kdv_core::{rao, KernelType};
use kdv_obs::{Trace, TraceEvent};
use proptest::prelude::*;

/// Runs one traced RAO sweep and returns the recorded trace.
fn run_traced(
    params: &KdvParams,
    points: &[Point],
    threads: usize,
    engine: ParallelEngine,
) -> Trace {
    let _guard = kdv_obs::span::exclusive();
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let out = compute_parallel_rao(params, points, engine, threads);
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    out.expect("sweep must succeed");
    trace
}

fn arg(e: &TraceEvent, key: &str) -> u64 {
    e.args.as_slice().iter().find(|(k, _)| *k == key).map(|&(_, v)| v).expect(key)
}

/// `|E(k)|` of every row of the raster the sweep actually ran (the
/// transposed one when RAO transposes), `None` for an empty band, from a
/// direct envelope pass.
fn direct_sizes(params: &KdvParams, points: &[Point]) -> Vec<Option<usize>> {
    let (params, points) = if rao::should_transpose(params) {
        (params.transposed(), points.iter().map(Point::transposed).collect())
    } else {
        (*params, points.to_vec())
    };
    let ctx = SweepContext::new(&params, &points).expect("valid context");
    let mut envelope = EnvelopeBuffer::new();
    ctx.ks
        .iter()
        .map(|&k| {
            let band = ctx.index.band(params.bandwidth, k);
            (!band.is_empty())
                .then(|| envelope.fill_band(&ctx.index, band, params.bandwidth, k).len())
        })
        .collect()
}

/// Checks the row spans of `trace` against the direct pass: returns an
/// error naming the first disagreement.
fn check_row_spans(
    trace: &Trace,
    params: &KdvParams,
    points: &[Point],
    threads: usize,
) -> Result<(), String> {
    let want = direct_sizes(params, points);
    let sweeps: Vec<&TraceEvent> =
        trace.events.iter().filter(|e| e.name == "sweep.parallel").collect();
    let [sweep] = sweeps[..] else {
        return Err(format!("{} sweep.parallel spans", sweeps.len()));
    };
    if arg(sweep, "rows") != want.len() as u64 {
        return Err(format!("sweep.parallel rows {} of {}", arg(sweep, "rows"), want.len()));
    }
    let workers = arg(sweep, "threads") as usize;
    if workers == 0 || workers > threads {
        return Err(format!("{workers} workers for {threads} thread(s)"));
    }
    let (peak, aux) = (arg(sweep, "peak_bytes"), arg(sweep, "aux_bytes"));
    if peak > aux || aux == 0 {
        return Err(format!("heap args peak {peak} aux {aux}"));
    }
    let mut searched = vec![0usize; want.len()];
    let mut filled: BTreeMap<usize, usize> = BTreeMap::new();
    let (start, end) = (sweep.ts_ns, sweep.ts_ns + sweep.dur_ns);
    for e in &trace.events {
        if !matches!(e.name, "band.search" | "envelope.fill" | "row.sweep") {
            continue;
        }
        if e.ts_ns < start || e.ts_ns + e.dur_ns > end {
            return Err(format!("{} of row {} outside sweep.parallel", e.name, arg(e, "row")));
        }
        let row = arg(e, "row") as usize;
        match e.name {
            "band.search" => searched[row] += 1,
            "envelope.fill" => {
                filled.insert(row, arg(e, "size") as usize);
            }
            _ => {}
        }
    }
    if let Some(row) = searched.iter().position(|&n| n != 1) {
        return Err(format!("row {row} searched {} times", searched[row]));
    }
    let got: Vec<Option<usize>> = (0..want.len()).map(|j| filled.get(&j).copied()).collect();
    if got != want {
        return Err(format!("envelope sizes {got:?}, direct pass {want:?}"));
    }
    let total: usize = filled.values().sum();
    if total != want.iter().flatten().sum::<usize>() {
        return Err(format!("envelope total {total}"));
    }
    Ok(())
}

fn params(res: (usize, usize), bandwidth: f64) -> KdvParams {
    let extent = Rect::new(0.0, 0.0, 1_000.0, 1_000.0);
    let grid = GridSpec::new(extent, res.0, res.1).expect("valid grid");
    KdvParams::new(grid, KernelType::Epanechnikov, bandwidth).with_weight(1.0)
}

fn problem() -> impl Strategy<Value = (Vec<Point>, (usize, usize), f64, usize, ParallelEngine)> {
    (
        prop::collection::vec((0.0f64..1_000.0, 0.0f64..1_000.0), 0..60),
        (1usize..24, 1usize..24),
        10.0f64..600.0,
        1usize..5,
        0u8..2,
    )
        .prop_map(|(raw, res, b, threads, sort)| {
            let pts = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let engine = if sort == 1 { ParallelEngine::Sort } else { ParallelEngine::Bucket };
            (pts, res, b, threads, engine)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_threads_spans_nest((points, res, bandwidth, threads, engine) in problem()) {
        let trace = run_traced(&params(res, bandwidth), &points, threads, engine);
        let crossing = trace.partial_overlap();
        prop_assert!(crossing.is_none(), "spans of one thread partly overlap: {:?}", crossing);
        prop_assert!(!trace.events.is_empty(), "instrumented sweep recorded nothing");
    }

    #[test]
    fn row_spans_account_for_the_raster(
        (points, res, bandwidth, threads, engine) in problem()
    ) {
        let params = params(res, bandwidth);
        let trace = run_traced(&params, &points, threads, engine);
        let checked = check_row_spans(&trace, &params, &points, threads);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

#[test]
fn row_spans_account_for_a_transposed_clustered_raster() {
    // a tall raster, so RAO sweeps its 40 columns as rows; two clusters
    // leave the columns between them with an empty band
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<Point> = (0..400)
        .map(|i| {
            let x = if i % 2 == 0 { next() * 200.0 } else { 800.0 + next() * 200.0 };
            Point::new(x, next() * 1_000.0)
        })
        .collect();
    let params = params((40, 70), 40.0);
    assert!(rao::should_transpose(&params));
    let skipped = direct_sizes(&params, &points).iter().filter(|s| s.is_none()).count();
    assert!(skipped > 0, "the raster should have empty rows");
    for threads in 1..=4 {
        for engine in [ParallelEngine::Bucket, ParallelEngine::Sort] {
            let trace = run_traced(&params, &points, threads, engine);
            assert_eq!(trace.partial_overlap().map(|(a, b)| (a.name, b.name)), None);
            if let Err(e) = check_row_spans(&trace, &params, &points, threads) {
                panic!("{threads} thread(s), {engine:?}: {e}");
            }
        }
    }
}
