//! Integration tests spanning the temporal and analysis crates with the
//! SLAM engines: an animated outbreak must be *trackable* — hotspot
//! extraction per frame should recover the moving epicentre — and a
//! uniform-kernel frame must equal a direct SLAM run over its window.

use slam_kdv::analysis::hotspots_by_peak_fraction;
use slam_kdv::core::driver::KdvParams;
use slam_kdv::core::geom::{Point, Rect};
use slam_kdv::core::grid::GridSpec;
use slam_kdv::core::stats::max_rel_error;
use slam_kdv::data::record::EventRecord;
use slam_kdv::temporal::{compute_stkdv, FrameSpec, StKdvConfig, TemporalKernel};
use slam_kdv::{KernelType, Method};

/// A burst that jumps between three sites over three epochs.
fn moving_bursts() -> Vec<EventRecord> {
    let sites = [Point::new(20.0, 20.0), Point::new(60.0, 50.0), Point::new(85.0, 15.0)];
    let mut out = Vec::new();
    let mut state = 31u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for (epoch, site) in sites.iter().enumerate() {
        for _ in 0..200 {
            out.push(EventRecord {
                point: Point::new(site.x + next() * 6.0 - 3.0, site.y + next() * 6.0 - 3.0),
                timestamp: epoch as i64 * 10_000 + (next() * 1_000.0) as i64,
                category: epoch as u16,
            });
        }
    }
    out
}

fn config() -> StKdvConfig {
    let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 70.0), 50, 35).unwrap();
    StKdvConfig {
        params: KdvParams::new(grid, KernelType::Epanechnikov, 8.0).with_weight(1.0 / 200.0),
        frames: FrameSpec::new(500, 10_000, 3),
        temporal_bandwidth: 2_000,
        temporal_kernel: TemporalKernel::Epanechnikov,
    }
}

#[test]
fn stkdv_frames_track_the_moving_hotspot() {
    let cfg = config();
    let frames = compute_stkdv(&cfg, &moving_bursts(), 1).unwrap();
    assert_eq!(frames.len(), 3);
    let expected = [Point::new(20.0, 20.0), Point::new(60.0, 50.0), Point::new(85.0, 15.0)];
    for (frame, site) in frames.iter().zip(expected) {
        assert!(frame.events > 0, "frame at t={} lost its burst", frame.time);
        let hs = hotspots_by_peak_fraction(&frame.grid, &cfg.params.grid, 0.5);
        assert!(!hs.is_empty());
        let top = &hs[0];
        assert!(
            top.centroid.dist(&site) < 6.0,
            "frame t={}: hotspot at {} expected near {}",
            frame.time,
            top.centroid,
            site
        );
    }
}

#[test]
fn per_frame_grids_equal_direct_slam_on_uniform_kernel() {
    // with a uniform temporal kernel, a frame is exactly a filtered SLAM run
    let mut cfg = config();
    cfg.temporal_kernel = TemporalKernel::Uniform;
    let records = moving_bursts();
    let frames = compute_stkdv(&cfg, &records, 1).unwrap();
    for frame in &frames {
        let window: Vec<Point> = records
            .iter()
            .filter(|r| (r.timestamp - frame.time).abs() <= cfg.temporal_bandwidth)
            .map(|r| r.point)
            .collect();
        let direct = Method::SlamBucketRao.compute(&cfg.params, &window, 1).unwrap();
        let err = max_rel_error(frame.grid.values(), direct.values());
        assert!(err < 1e-9, "t={}: max relative error {err}", frame.time);
    }
}
