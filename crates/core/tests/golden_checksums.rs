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

use kdv_core::digest::grid_checksum;
use kdv_core::parallel::{compute_parallel_rao, ParallelEngine};
use kdv_core::weighted::compute_weighted;
use kdv_core::{
    sweep_bucket, sweep_sort, DensityGrid, GridSpec, KdvParams, KernelType, Point, Rect,
};

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
        (label("sort"), sweep_sort::compute(&params, pts).unwrap()),
        (
            label("bucket-rao-2t"),
            compute_parallel_rao(&params, pts, ParallelEngine::Bucket, 2).unwrap(),
        ),
        (label("weighted-unit"), compute_weighted(&params, pts, &unit).unwrap()),
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

#[test]
fn sweep_engines_reproduce_recorded_checksums() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for scene in scenes() {
        for kernel in KernelType::ALL {
            for (label, grid) in renders(&scene, kernel) {
                let got = grid_checksum(&grid);
                table.push_str(&format!("    (\"{label}\", 0x{got:016x}),\n"));
                match GOLDEN.iter().find(|(l, _)| *l == label) {
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
