//! Golden raster checksums for the sweep engines.
//!
//! The conformance matrix compares engines with each other, so a change
//! that moved every engine the same way (say, in the shared accumulator or
//! the bucket helpers) would pass it. These tests pin the absolute output
//! instead: small fixed scenes, all three kernels, unweighted and
//! unit-weighted, must reproduce the `digest::grid_checksum` values
//! recorded below bit for bit.
//!
//! The values were recorded from the engines before the bucket sweep's
//! per-event rewrite (libm-free bucketing, selected-operand compensated
//! adds, register-resident accumulators), which is specified not to change
//! a bit. If a deliberate change to the float program moves them, record
//! the new table from the failure message and say why in the change.
//!
//! Unit weights cannot tell `w·n²·x` from `w·(n²·x)`, so a second table,
//! [`WEIGHTED_GOLDEN`], pins the weighted sweep under weights that can:
//! real weights of both signs, signed unit weights as live delta batches
//! carry them, and the integer multiplicities of a coreset. It covers the
//! sequential and two-thread drivers on every scene (the tall one
//! transposes) and one band fold of a signed batch into a base band, the
//! streaming patch step.

use kdv_core::digest::grid_checksum;
use kdv_core::driver::SweepContext;
use kdv_core::envelope::EnvelopeBuffer;
use kdv_core::sweep_bucket::BucketSweep;
use kdv_core::tile::{accumulate_rows, sweep_rows};
use kdv_core::weighted::compute_weighted;
use kdv_core::{sweep_bucket, DensityGrid, GridSpec, KdvParams, KernelType, Method, Point, Rect};

/// Deterministic xorshift stream in `[0, 1)`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Scene {
    name: &'static str,
    grid: GridSpec,
    bandwidth: f64,
    points: Vec<Point>,
}

fn scenes() -> Vec<Scene> {
    // Three clusters plus background noise, some points outside the region.
    let mut next = uniform(11);
    let mut clustered = Vec::new();
    for i in 0..360 {
        let (cx, cy, spread) = [(10.0, 15.0, 6.0), (55.0, 40.0, 12.0), (70.0, 5.0, 3.0)][i % 3];
        clustered.push(Point::new(cx + (next() - 0.5) * spread, cy + (next() - 0.5) * spread));
    }
    for _ in 0..120 {
        clustered.push(Point::new(-30.0 + next() * 140.0, -20.0 + next() * 90.0));
    }
    // Taller than wide, so the resolution-aware sweep transposes.
    let mut next = uniform(23);
    let tall: Vec<Point> = (0..300).map(|_| Point::new(next() * 40.0, next() * 90.0)).collect();
    // A long dense strip at city-scale coordinates: the active set stays
    // non-empty for many bandwidths, so the rolling frame shifts mid-row.
    let mut next = uniform(37);
    let strip: Vec<Point> = (0..2000)
        .map(|_| Point::new(451_000.0 + next() * 1000.0, 4_312_000.0 + next() * 40.0))
        .collect();
    // Integer points on a raster whose pixel centres are the integers,
    // with an integer bandwidth: interval ends land exactly on pixel
    // centres, so the closed-boundary bucketing convention shows.
    let mut next = uniform(53);
    let lattice: Vec<Point> =
        (0..200).map(|_| Point::new((next() * 40.0).floor(), (next() * 30.0).floor())).collect();
    vec![
        Scene {
            name: "clustered",
            grid: GridSpec::new(Rect::new(-20.0, -10.0, 80.0, 60.0), 64, 45).unwrap(),
            bandwidth: 9.0,
            points: clustered,
        },
        Scene {
            name: "tall",
            grid: GridSpec::new(Rect::new(0.0, 0.0, 40.0, 90.0), 24, 50).unwrap(),
            bandwidth: 17.5,
            points: tall,
        },
        Scene {
            name: "strip",
            grid: GridSpec::new(Rect::new(451_000.0, 4_312_000.0, 452_000.0, 4_312_040.0), 250, 8)
                .unwrap(),
            bandwidth: 6.0,
            points: strip,
        },
        Scene {
            name: "lattice",
            grid: GridSpec::new(Rect::new(-0.5, -0.5, 39.5, 29.5), 40, 30).unwrap(),
            bandwidth: 3.0,
            points: lattice,
        },
    ]
}

/// Every pinned render of one scene and kernel, labelled.
fn renders(scene: &Scene, kernel: KernelType) -> Vec<(String, DensityGrid)> {
    let params = KdvParams::new(scene.grid, kernel, scene.bandwidth)
        .with_weight(1.0 / scene.points.len() as f64);
    let pts = &scene.points;
    let unit = vec![1.0; pts.len()];
    let label = |engine: &str| format!("{}/{kernel}/{engine}", scene.name);
    vec![
        (label("bucket"), sweep_bucket::compute(&params, pts).unwrap()),
        (label("sort"), Method::SlamSort.compute(&params, pts, 1).unwrap()),
        (label("bucket-rao-2t"), Method::SlamBucketRao.compute(&params, pts, 2).unwrap()),
        (label("weighted-unit"), compute_weighted(&params, pts, &unit, 1).unwrap()),
    ]
}

/// Checksums recorded from the engines before the per-event rewrite.
const GOLDEN: &[(&str, u64)] = &[
    ("clustered/uniform/bucket", 0x0875252ebdcbd20f),
    ("clustered/uniform/sort", 0x0875252ebdcbd20f),
    ("clustered/uniform/bucket-rao-2t", 0x0875252ebdcbd20f),
    ("clustered/uniform/weighted-unit", 0x0875252ebdcbd20f),
    ("clustered/epanechnikov/bucket", 0xb1be4365b3973314),
    ("clustered/epanechnikov/sort", 0xb1be4365b3973314),
    ("clustered/epanechnikov/bucket-rao-2t", 0xb1be4365b3973314),
    ("clustered/epanechnikov/weighted-unit", 0xb1be4365b3973314),
    ("clustered/quartic/bucket", 0xc06c580c9dda67d3),
    ("clustered/quartic/sort", 0xc06c580c9dda67d3),
    ("clustered/quartic/bucket-rao-2t", 0xc06c580c9dda67d3),
    ("clustered/quartic/weighted-unit", 0xc06c580c9dda67d3),
    ("tall/uniform/bucket", 0x2cad900cf92524bf),
    ("tall/uniform/sort", 0x2cad900cf92524bf),
    ("tall/uniform/bucket-rao-2t", 0x2cad900cf92524bf),
    ("tall/uniform/weighted-unit", 0x2cad900cf92524bf),
    ("tall/epanechnikov/bucket", 0x9a07b6a2482c4c7d),
    ("tall/epanechnikov/sort", 0x9a07b6a2482c4c7d),
    ("tall/epanechnikov/bucket-rao-2t", 0x5a6a7486f704f8ac),
    ("tall/epanechnikov/weighted-unit", 0x5a6a7486f704f8ac),
    ("tall/quartic/bucket", 0x19ca588ca0794631),
    ("tall/quartic/sort", 0x19ca588ca0794631),
    ("tall/quartic/bucket-rao-2t", 0x6759d603048bdc0e),
    ("tall/quartic/weighted-unit", 0x6759d603048bdc0e),
    ("strip/uniform/bucket", 0x867e3926950ecb75),
    ("strip/uniform/sort", 0x867e3926950ecb75),
    ("strip/uniform/bucket-rao-2t", 0x867e3926950ecb75),
    ("strip/uniform/weighted-unit", 0x867e3926950ecb75),
    ("strip/epanechnikov/bucket", 0x73086ba43ae96894),
    ("strip/epanechnikov/sort", 0x73086ba43ae96894),
    ("strip/epanechnikov/bucket-rao-2t", 0x73086ba43ae96894),
    ("strip/epanechnikov/weighted-unit", 0x73086ba43ae96894),
    ("strip/quartic/bucket", 0x2dbec7a078938e9a),
    ("strip/quartic/sort", 0x2dbec7a078938e9a),
    ("strip/quartic/bucket-rao-2t", 0x2dbec7a078938e9a),
    ("strip/quartic/weighted-unit", 0x2dbec7a078938e9a),
    ("lattice/uniform/bucket", 0x4e5193cd914cf6c3),
    ("lattice/uniform/sort", 0x4e5193cd914cf6c3),
    ("lattice/uniform/bucket-rao-2t", 0x4e5193cd914cf6c3),
    ("lattice/uniform/weighted-unit", 0x4e5193cd914cf6c3),
    ("lattice/epanechnikov/bucket", 0xfbd80d8bf293a2f1),
    ("lattice/epanechnikov/sort", 0xfbd80d8bf293a2f1),
    ("lattice/epanechnikov/bucket-rao-2t", 0xfbd80d8bf293a2f1),
    ("lattice/epanechnikov/weighted-unit", 0xfbd80d8bf293a2f1),
    ("lattice/quartic/bucket", 0x6b76db544f8652d1),
    ("lattice/quartic/sort", 0x6b76db544f8652d1),
    ("lattice/quartic/bucket-rao-2t", 0x6b76db544f8652d1),
    ("lattice/quartic/weighted-unit", 0x6b76db544f8652d1),
];

/// The weight vectors [`WEIGHTED_GOLDEN`] pins, by kind: real weights of
/// both signs, signed unit weights (live delta batches) and integer
/// multiplicities (coreset representatives).
fn weight_sets(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let mut next = uniform(71);
    let real = (0..n).map(|_| next() * 5.0 - 1.5).collect();
    let signed = (0..n).map(|_| if next() < 0.3 { -1.0 } else { 1.0 }).collect();
    let mult = (0..n).map(|_| (1.0 + next() * 7.0).floor()).collect();
    vec![("real", real), ("signed", signed), ("mult", mult)]
}

/// Every pinned weighted render of one scene and kernel, labelled.
fn weighted_renders(scene: &Scene, kernel: KernelType) -> Vec<(String, DensityGrid)> {
    let params = KdvParams::new(scene.grid, kernel, scene.bandwidth)
        .with_weight(1.0 / scene.points.len() as f64);
    let pts = &scene.points;
    let label = |engine: &str| format!("{}/{kernel}/{engine}", scene.name);
    let mut out = Vec::new();
    for (kind, weights) in weight_sets(pts.len()) {
        out.push((
            label(&format!("weighted-{kind}")),
            compute_weighted(&params, pts, &weights, 1).unwrap(),
        ));
        out.push((
            label(&format!("weighted-{kind}-2t")),
            compute_weighted(&params, pts, &weights, 2).unwrap(),
        ));
    }
    // The streaming patch step: a signed batch (the scene's first 60
    // points) folded into a band of the unweighted base sweep.
    let (_, signed) = weight_sets(pts.len()).swap_remove(1);
    let rows = scene.grid.res_y / 4..scene.grid.res_y * 3 / 4;
    let res_x = scene.grid.res_x;
    let base = SweepContext::new(&params, pts).unwrap();
    let batch = SweepContext::weighted(&params, &pts[..60], &signed[..60]).unwrap();
    let mut engine = BucketSweep::new(kernel, scene.bandwidth, params.weight);
    let mut envelope = EnvelopeBuffer::new();
    let mut band = vec![0.0; rows.len() * res_x];
    sweep_rows(&base, scene.bandwidth, rows.clone(), &mut engine, &mut envelope, &mut band);
    accumulate_rows(
        &batch,
        scene.bandwidth,
        rows.clone(),
        0..res_x,
        &mut engine,
        &mut envelope,
        &mut Vec::new(),
        &mut band,
    );
    out.push((label("fold-signed"), DensityGrid::from_values(res_x, rows.len(), band)));
    out
}

/// Checks every render against `golden`, failing with the actual table.
fn assert_checksums(
    golden: &[(&str, u64)],
    renders: impl Fn(&Scene, KernelType) -> Vec<(String, DensityGrid)>,
) {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for scene in scenes() {
        for kernel in KernelType::ALL {
            for (label, grid) in renders(&scene, kernel) {
                let got = grid_checksum(&grid);
                table.push_str(&format!("    (\"{label}\", 0x{got:016x}),\n"));
                match golden.iter().find(|(l, _)| *l == label) {
                    Some(&(_, want)) if want == got => {}
                    Some(&(_, want)) => {
                        mismatches.push(format!("{label}: got {got:016x}, want {want:016x}"))
                    }
                    None => mismatches.push(format!("{label}: no recorded checksum")),
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} checksum(s) differ from the recorded table:\n{}\nactual table:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn sweep_engines_reproduce_recorded_checksums() {
    assert_checksums(GOLDEN, renders);
}

/// Weighted checksums recorded before the weighted and unweighted bucket
/// sweeps were merged into one engine.
const WEIGHTED_GOLDEN: &[(&str, u64)] = &[
    ("clustered/uniform/weighted-real", 0xe66e7e7b1f897a47),
    ("clustered/uniform/weighted-real-2t", 0xe66e7e7b1f897a47),
    ("clustered/uniform/weighted-signed", 0xae0dfc2f0840aea3),
    ("clustered/uniform/weighted-signed-2t", 0xae0dfc2f0840aea3),
    ("clustered/uniform/weighted-mult", 0xc750bdab723e0d7c),
    ("clustered/uniform/weighted-mult-2t", 0xc750bdab723e0d7c),
    ("clustered/uniform/fold-signed", 0xccf4fb80a99d4981),
    ("clustered/epanechnikov/weighted-real", 0xbb086ed05ff3b9d9),
    ("clustered/epanechnikov/weighted-real-2t", 0xbb086ed05ff3b9d9),
    ("clustered/epanechnikov/weighted-signed", 0xfa864ab542f4b0b0),
    ("clustered/epanechnikov/weighted-signed-2t", 0xfa864ab542f4b0b0),
    ("clustered/epanechnikov/weighted-mult", 0x1112688787dd88c6),
    ("clustered/epanechnikov/weighted-mult-2t", 0x1112688787dd88c6),
    ("clustered/epanechnikov/fold-signed", 0x8631039a0f476637),
    ("clustered/quartic/weighted-real", 0x1f97e3fb2bb9aeee),
    ("clustered/quartic/weighted-real-2t", 0x1f97e3fb2bb9aeee),
    ("clustered/quartic/weighted-signed", 0x1a7bb60161093a52),
    ("clustered/quartic/weighted-signed-2t", 0x1a7bb60161093a52),
    ("clustered/quartic/weighted-mult", 0xe492c3fce2b68ed8),
    ("clustered/quartic/weighted-mult-2t", 0xe492c3fce2b68ed8),
    ("clustered/quartic/fold-signed", 0xd71e1b3dee8265e6),
    ("tall/uniform/weighted-real", 0x2e0d2077d31a6752),
    ("tall/uniform/weighted-real-2t", 0x2e0d2077d31a6752),
    ("tall/uniform/weighted-signed", 0xf37e1ddb25a425c2),
    ("tall/uniform/weighted-signed-2t", 0xf37e1ddb25a425c2),
    ("tall/uniform/weighted-mult", 0xc0c994f3173698bd),
    ("tall/uniform/weighted-mult-2t", 0xc0c994f3173698bd),
    ("tall/uniform/fold-signed", 0xd32206de21281a41),
    ("tall/epanechnikov/weighted-real", 0xb671bcedb17c1aa4),
    ("tall/epanechnikov/weighted-real-2t", 0xb671bcedb17c1aa4),
    ("tall/epanechnikov/weighted-signed", 0x0363fb1081914867),
    ("tall/epanechnikov/weighted-signed-2t", 0x0363fb1081914867),
    ("tall/epanechnikov/weighted-mult", 0x7040c790e86161c6),
    ("tall/epanechnikov/weighted-mult-2t", 0x7040c790e86161c6),
    ("tall/epanechnikov/fold-signed", 0x6c72b7a4f0df7983),
    ("tall/quartic/weighted-real", 0x1855eb82bd9b4def),
    ("tall/quartic/weighted-real-2t", 0x1855eb82bd9b4def),
    ("tall/quartic/weighted-signed", 0x86fc32b1fe7b30e6),
    ("tall/quartic/weighted-signed-2t", 0x86fc32b1fe7b30e6),
    ("tall/quartic/weighted-mult", 0xbd7c9b21b5b34b01),
    ("tall/quartic/weighted-mult-2t", 0xbd7c9b21b5b34b01),
    ("tall/quartic/fold-signed", 0xa47f07bfd20c7cd2),
    ("strip/uniform/weighted-real", 0xd0cbf1a3f5857598),
    ("strip/uniform/weighted-real-2t", 0xd0cbf1a3f5857598),
    ("strip/uniform/weighted-signed", 0x5c5e8ff0c081e223),
    ("strip/uniform/weighted-signed-2t", 0x5c5e8ff0c081e223),
    ("strip/uniform/weighted-mult", 0xe5b3c4c49a297396),
    ("strip/uniform/weighted-mult-2t", 0xe5b3c4c49a297396),
    ("strip/uniform/fold-signed", 0xa6c3de9ad0b2d6f8),
    ("strip/epanechnikov/weighted-real", 0xfd2004cd6658d238),
    ("strip/epanechnikov/weighted-real-2t", 0xfd2004cd6658d238),
    ("strip/epanechnikov/weighted-signed", 0xdb19811b821e0c05),
    ("strip/epanechnikov/weighted-signed-2t", 0xdb19811b821e0c05),
    ("strip/epanechnikov/weighted-mult", 0xefe5b1f815c39f74),
    ("strip/epanechnikov/weighted-mult-2t", 0xefe5b1f815c39f74),
    ("strip/epanechnikov/fold-signed", 0x386b02b18c3b7628),
    ("strip/quartic/weighted-real", 0xa81c42b4dfef8076),
    ("strip/quartic/weighted-real-2t", 0xa81c42b4dfef8076),
    ("strip/quartic/weighted-signed", 0x9827904211b889a8),
    ("strip/quartic/weighted-signed-2t", 0x9827904211b889a8),
    ("strip/quartic/weighted-mult", 0xf772dd9f98603be1),
    ("strip/quartic/weighted-mult-2t", 0xf772dd9f98603be1),
    ("strip/quartic/fold-signed", 0x6c5ee84cf9c2130b),
    ("lattice/uniform/weighted-real", 0x688e5728489e29e0),
    ("lattice/uniform/weighted-real-2t", 0x688e5728489e29e0),
    ("lattice/uniform/weighted-signed", 0x0b521180f3d2af33),
    ("lattice/uniform/weighted-signed-2t", 0x0b521180f3d2af33),
    ("lattice/uniform/weighted-mult", 0x33223995b10a7174),
    ("lattice/uniform/weighted-mult-2t", 0x33223995b10a7174),
    ("lattice/uniform/fold-signed", 0x556ae51f76cc8a7a),
    ("lattice/epanechnikov/weighted-real", 0xac989cc975b6efce),
    ("lattice/epanechnikov/weighted-real-2t", 0xac989cc975b6efce),
    ("lattice/epanechnikov/weighted-signed", 0x9a38c62ee16d99a2),
    ("lattice/epanechnikov/weighted-signed-2t", 0x9a38c62ee16d99a2),
    ("lattice/epanechnikov/weighted-mult", 0x10eee3bc09f6201d),
    ("lattice/epanechnikov/weighted-mult-2t", 0x10eee3bc09f6201d),
    ("lattice/epanechnikov/fold-signed", 0x9ad0a15bc1709ea7),
    ("lattice/quartic/weighted-real", 0x4dd47be4b34579e5),
    ("lattice/quartic/weighted-real-2t", 0x4dd47be4b34579e5),
    ("lattice/quartic/weighted-signed", 0xb8ab7fb946d20dbc),
    ("lattice/quartic/weighted-signed-2t", 0xb8ab7fb946d20dbc),
    ("lattice/quartic/weighted-mult", 0x61265e2c8c2dd600),
    ("lattice/quartic/weighted-mult-2t", 0x61265e2c8c2dd600),
    ("lattice/quartic/fold-signed", 0x17b4ab76af34abe5),
];

#[test]
fn weighted_sweeps_reproduce_recorded_checksums() {
    assert_checksums(WEIGHTED_GOLDEN, weighted_renders);
}
