//! Spatial-temporal KDV: per-frame weighted SLAM sweeps.

use kdv_core::driver::KdvParams;
use kdv_core::geom::Point;
use kdv_core::grid::DensityGrid;
use kdv_core::weighted::compute_weighted;
use kdv_core::Result;
use kdv_data::record::EventRecord;

use crate::frames::FrameSpec;

/// Finite-support temporal kernels over `u = |t − t_i| / b_t ∈ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemporalKernel {
    /// Every event inside the window counts fully (a sliding time filter).
    Uniform,
    /// Linear decay to the window edge: `1 − u`.
    Triangular,
    /// Quadratic decay `1 − u²` (the temporal analogue of the paper's
    /// default spatial kernel).
    #[default]
    Epanechnikov,
}

impl TemporalKernel {
    /// Kernel value at normalised distance `u` (0 outside `[0, 1]`).
    #[inline]
    pub fn eval(&self, u: f64) -> f64 {
        if !(0.0..=1.0).contains(&u) {
            return 0.0;
        }
        match self {
            TemporalKernel::Uniform => 1.0,
            TemporalKernel::Triangular => 1.0 - u,
            TemporalKernel::Epanechnikov => 1.0 - u * u,
        }
    }
}

/// Configuration of an STKDV animation.
#[derive(Debug, Clone, Copy)]
pub struct StKdvConfig {
    /// Spatial raster, kernel, bandwidth and global weight.
    pub params: KdvParams,
    /// Frame times.
    pub frames: FrameSpec,
    /// Temporal bandwidth `b_t` in seconds (> 0): events farther than this
    /// from a frame's centre time do not contribute to that frame.
    pub temporal_bandwidth: i64,
    /// Temporal kernel shape.
    pub temporal_kernel: TemporalKernel,
}

/// One rendered frame of an STKDV animation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame centre time.
    pub time: i64,
    /// Number of events inside the temporal support.
    pub events: usize,
    /// The spatial density raster at this time.
    pub grid: DensityGrid,
}

/// Per-worker scratch reused across frames: the event/weight selection
/// buffers. One animation allocates these once per worker instead of once
/// per frame.
#[derive(Default)]
struct FrameScratch {
    points: Vec<Point>,
    weights: Vec<f64>,
}

/// Computes every frame of the animation on `threads` workers (`0` means
/// "auto"; one thread stays on the calling thread).
///
/// Events are sorted by timestamp once (`O(n log n)`); each frame then
/// locates its temporal support by binary search and runs one weighted
/// SLAM sweep over only those events. Frames are independent, so the
/// work-stealing pool ([`kdv_core::parallel::for_each_index_with`]) hands
/// each one whole to a worker, and the result is bitwise identical for
/// every thread count.
///
/// ```
/// use kdv_core::driver::KdvParams;
/// use kdv_core::{GridSpec, KernelType, Point, Rect};
/// use kdv_data::record::EventRecord;
/// use kdv_temporal::{compute_stkdv, FrameSpec, StKdvConfig, TemporalKernel};
///
/// let events: Vec<EventRecord> = (0..50)
///     .map(|i| EventRecord {
///         point: Point::new(50.0 + (i % 7) as f64, 50.0 + (i / 7) as f64),
///         timestamp: 1_000 + i,
///         category: 0,
///     })
///     .collect();
/// let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 32, 32)?;
/// let config = StKdvConfig {
///     params: KdvParams::new(grid, KernelType::Epanechnikov, 10.0),
///     frames: FrameSpec::new(1_000, 25, 3),
///     temporal_bandwidth: 30,
///     temporal_kernel: TemporalKernel::Epanechnikov,
/// };
/// let frames = compute_stkdv(&config, &events, 2)?;
/// assert_eq!(frames.len(), 3);
/// assert!(frames[0].grid.max_value() > 0.0);
/// // the same bits on one thread
/// assert_eq!(compute_stkdv(&config, &events, 1)?[0].grid, frames[0].grid);
/// # Ok::<(), kdv_core::KdvError>(())
/// ```
pub fn compute_stkdv(
    config: &StKdvConfig,
    records: &[EventRecord],
    threads: usize,
) -> Result<Vec<Frame>> {
    if config.temporal_bandwidth <= 0 {
        return Err(kdv_core::KdvError::InvalidBandwidth(config.temporal_bandwidth as f64));
    }
    // sort by time once
    let mut sorted: Vec<&EventRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.timestamp);
    let times: Vec<i64> = sorted.iter().map(|r| r.timestamp).collect();
    let frame_times: Vec<i64> = config.frames.times().collect();

    kdv_core::parallel::for_each_index_with(
        frame_times.len(),
        threads,
        FrameScratch::default,
        |scratch, i| compute_frame(config, &sorted, &times, frame_times[i], scratch),
    )
    .into_iter()
    .collect()
}

/// Renders one frame: select the temporal support `[t − b_t, t + b_t]` by
/// binary search, weight each event by the temporal kernel, run one
/// weighted SLAM sweep over them.
fn compute_frame(
    config: &StKdvConfig,
    sorted: &[&EventRecord],
    times: &[i64],
    t: i64,
    scratch: &mut FrameScratch,
) -> Result<Frame> {
    let bt = config.temporal_bandwidth;
    let lo = times.partition_point(|&ts| ts < t - bt);
    let hi = times.partition_point(|&ts| ts <= t + bt);
    scratch.points.clear();
    scratch.weights.clear();
    for r in &sorted[lo..hi] {
        let u = (r.timestamp - t).abs() as f64 / bt as f64;
        let w = config.temporal_kernel.eval(u);
        if w > 0.0 {
            scratch.points.push(r.point);
            scratch.weights.push(w);
        }
    }
    let grid = compute_weighted(&config.params, &scratch.points, &scratch.weights, 1)?;
    Ok(Frame { time: t, events: scratch.points.len(), grid })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::geom::Rect;
    use kdv_core::grid::GridSpec;
    use kdv_core::weighted::weighted_scan;
    use kdv_core::{KernelType, Method};

    fn records() -> Vec<EventRecord> {
        // two bursts: one early around (20, 20), one late around (70, 60)
        let mut recs = Vec::new();
        for i in 0..60 {
            recs.push(EventRecord {
                point: Point::new(20.0 + (i % 8) as f64, 20.0 + (i / 8) as f64),
                timestamp: 1_000 + i,
                category: 0,
            });
            recs.push(EventRecord {
                point: Point::new(70.0 + (i % 8) as f64, 60.0 + (i / 8) as f64),
                timestamp: 9_000 + i,
                category: 0,
            });
        }
        recs
    }

    fn config(frames: FrameSpec, kernel: TemporalKernel) -> StKdvConfig {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 100.0, 80.0), 20, 16).unwrap();
        StKdvConfig {
            params: KdvParams::new(grid, KernelType::Epanechnikov, 10.0),
            frames,
            temporal_bandwidth: 500,
            temporal_kernel: kernel,
        }
    }

    #[test]
    fn frames_follow_the_bursts() {
        let cfg = config(FrameSpec::new(1_030, 8_000, 2), TemporalKernel::Epanechnikov);
        let frames = compute_stkdv(&cfg, &records(), 1).unwrap();
        assert_eq!(frames.len(), 2);
        // frame 0 (t=1030) sees only the early burst near (20, 20)
        assert_eq!(frames[0].events, 60);
        let g0 = &frames[0].grid;
        let spec = cfg.params.grid;
        let hot0 = (0..16)
            .flat_map(|j| (0..20).map(move |i| (i, j)))
            .max_by(|a, b| g0.get(a.0, a.1).total_cmp(&g0.get(b.0, b.1)))
            .unwrap();
        let c0 = spec.pixel_center(hot0.0, hot0.1);
        assert!(c0.x < 50.0 && c0.y < 40.0, "frame 0 hotspot at {c0}");
        // frame 1 (t=9030) sees only the late burst near (70, 60)
        let g1 = &frames[1].grid;
        let hot1 = (0..16)
            .flat_map(|j| (0..20).map(move |i| (i, j)))
            .max_by(|a, b| g1.get(a.0, a.1).total_cmp(&g1.get(b.0, b.1)))
            .unwrap();
        let c1 = spec.pixel_center(hot1.0, hot1.1);
        assert!(c1.x > 50.0 && c1.y > 40.0, "frame 1 hotspot at {c1}");
    }

    #[test]
    fn matches_direct_weighted_evaluation() {
        let cfg = config(FrameSpec::new(1_000, 100, 3), TemporalKernel::Triangular);
        let recs = records();
        let frames = compute_stkdv(&cfg, &recs, 1).unwrap();
        for frame in &frames {
            // direct: weight every record by the temporal kernel and scan
            let mut pts = Vec::new();
            let mut ws = Vec::new();
            for r in &recs {
                let u = (r.timestamp - frame.time).abs() as f64 / cfg.temporal_bandwidth as f64;
                let w = cfg.temporal_kernel.eval(u);
                if w > 0.0 {
                    pts.push(r.point);
                    ws.push(w);
                }
            }
            let direct = weighted_scan(&cfg.params, &pts, &ws);
            let scale = direct.max_value().max(1e-300);
            for (a, b) in frame.grid.values().iter().zip(direct.values()) {
                assert!((a - b).abs() / scale < 1e-11);
            }
        }
    }

    #[test]
    fn empty_window_yields_zero_frame() {
        let cfg = config(FrameSpec::new(100_000, 10, 1), TemporalKernel::Uniform);
        let frames = compute_stkdv(&cfg, &records(), 1).unwrap();
        assert_eq!(frames[0].events, 0);
        assert_eq!(frames[0].grid.max_value(), 0.0);
    }

    #[test]
    fn uniform_temporal_kernel_is_a_time_filter() {
        let cfg = config(FrameSpec::new(1_030, 1, 1), TemporalKernel::Uniform);
        let recs = records();
        let frames = compute_stkdv(&cfg, &recs, 1).unwrap();
        // uniform weights: equals the unweighted KDV over the window
        let window: Vec<Point> =
            recs.iter().filter(|r| (r.timestamp - 1_030).abs() <= 500).map(|r| r.point).collect();
        let plain = Method::SlamBucketRao.compute(&cfg.params, &window, 1).unwrap();
        let scale = plain.max_value().max(1e-300);
        for (a, b) in frames[0].grid.values().iter().zip(plain.values()) {
            assert!((a - b).abs() / scale < 1e-12);
        }
    }

    #[test]
    fn parallel_frames_match_sequential_bitwise() {
        let cfg = config(FrameSpec::new(1_000, 700, 13), TemporalKernel::Epanechnikov);
        let recs = records();
        let seq = compute_stkdv(&cfg, &recs, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = compute_stkdv(&cfg, &recs, threads).unwrap();
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.time, b.time, "threads={threads}");
                assert_eq!(a.events, b.events, "threads={threads}");
                assert_eq!(a.grid, b.grid, "threads={threads} t={}", a.time);
            }
        }
    }

    #[test]
    fn non_positive_temporal_bandwidth_is_an_error() {
        for bt in [0, -7] {
            let mut cfg = config(FrameSpec::new(1_000, 100, 2), TemporalKernel::Uniform);
            cfg.temporal_bandwidth = bt;
            assert!(
                matches!(
                    compute_stkdv(&cfg, &records(), 1),
                    Err(kdv_core::KdvError::InvalidBandwidth(_))
                ),
                "temporal bandwidth {bt} must be rejected, not panic"
            );
        }
    }

    #[test]
    fn temporal_kernel_shapes() {
        assert_eq!(TemporalKernel::Uniform.eval(0.5), 1.0);
        assert_eq!(TemporalKernel::Triangular.eval(0.25), 0.75);
        assert_eq!(TemporalKernel::Epanechnikov.eval(0.5), 0.75);
        for k in [TemporalKernel::Uniform, TemporalKernel::Triangular, TemporalKernel::Epanechnikov]
        {
            assert_eq!(k.eval(1.5), 0.0);
            assert_eq!(k.eval(-0.1), 0.0);
        }
    }
}
