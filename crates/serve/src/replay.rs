//! Trace replayers: sequential (ground truth) and concurrent (through
//! the [`Frontend`] worker pool), both checksumming every served grid
//! with [`kdv_core::digest::grid_checksum`], the definition the golden
//! checksums use.
//!
//! The concurrent replayer spawns one thread per trace session; each
//! session is a closed loop — submit a viewport, wait for the result,
//! sleep its think time, move on. Because the serving path is exact
//! (a served viewport is bitwise-equal to cropping the monolithic
//! raster for any cache state and thread count), the per-request
//! checksums from a concurrent replay must equal those of a sequential
//! replay of the same sessions — which is exactly what the hammer tests
//! and `ci.sh serve-load` assert.

use std::time::{Duration, Instant};

use kdv_core::digest::grid_checksum;

use crate::frontend::{Frontend, ServeError, ShedReason};
use crate::server::TileServer;
use crate::trace::Session;

/// How one replayed request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Served; `checksum` fingerprints the grid bits.
    Served { checksum: u64 },
    /// Explicitly load-shed by the front end.
    Shed(ShedReason),
    /// Failed with a compute or shutdown error.
    Failed(String),
}

/// One request's replay record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRecord {
    /// Trace session id the request belongs to.
    pub session: u32,
    /// Position of the request within its session (0-based).
    pub seq: usize,
    /// End-to-end latency observed by the (virtual) user.
    pub latency_ns: u64,
    /// What happened.
    pub outcome: ReplayOutcome,
}

/// Replays every session's requests one at a time, in round-robin
/// session order, directly against the server (no front end, no
/// queueing). This is the single-threaded ground truth the concurrent
/// replay is compared against; think times are ignored. Like
/// [`replay_concurrent`], records come back sorted by `(session, seq)`.
pub fn replay_sequential(
    server: &TileServer,
    sessions: &[Session],
    threads: usize,
) -> Vec<ReplayRecord> {
    let mut records = Vec::new();
    let mut cursors = vec![0usize; sessions.len()];
    loop {
        let mut progressed = false;
        for (si, session) in sessions.iter().enumerate() {
            let seq = cursors[si];
            let Some(req) = session.requests.get(seq) else { continue };
            cursors[si] += 1;
            progressed = true;
            let start = Instant::now();
            let outcome = match server.serve_viewport(&req.viewport, threads) {
                Ok((grid, _)) => ReplayOutcome::Served { checksum: grid_checksum(&grid) },
                Err(e) => ReplayOutcome::Failed(e.to_string()),
            };
            records.push(ReplayRecord {
                session: session.id,
                seq,
                latency_ns: start.elapsed().as_nanos() as u64,
                outcome,
            });
        }
        if !progressed {
            break;
        }
    }
    records.sort_by_key(|r| (r.session, r.seq));
    records
}

/// Replays the sessions concurrently through `frontend`, one thread per
/// session, each a closed loop over its own requests. With
/// `honor_think` the thread sleeps each request's think time before
/// submitting it; without, sessions hammer the front end back to back.
///
/// Records come back sorted by `(session, seq)` so they line up with a
/// [`replay_sequential`] run of the same sessions for comparison.
pub fn replay_concurrent(
    frontend: &Frontend,
    sessions: &[Session],
    honor_think: bool,
) -> Vec<ReplayRecord> {
    let mut records: Vec<ReplayRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|session| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(session.requests.len());
                    for (seq, req) in session.requests.iter().enumerate() {
                        if honor_think && req.think_ms > 0 {
                            std::thread::sleep(Duration::from_millis(req.think_ms));
                        }
                        let start = Instant::now();
                        let outcome = match frontend.serve(req.viewport) {
                            Ok((grid, _)) => {
                                ReplayOutcome::Served { checksum: grid_checksum(&grid) }
                            }
                            Err(ServeError::Shed(reason)) => ReplayOutcome::Shed(reason),
                            Err(e) => ReplayOutcome::Failed(e.to_string()),
                        };
                        out.push(ReplayRecord {
                            session: session.id,
                            seq,
                            latency_ns: start.elapsed().as_nanos() as u64,
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay session thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| (r.session, r.seq));
    records
}

/// Upper-bound latency quantile (ns) over served-or-shed records;
/// `q` in `[0, 1]`. Returns 0 for an empty run.
pub fn latency_quantile_ns(records: &[ReplayRecord], q: f64) -> u64 {
    let mut lat: Vec<u64> = records.iter().map(|r| r.latency_ns).collect();
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
    lat[rank - 1]
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::frontend::FrontendConfig;
    use crate::pyramid::{PyramidSpec, Viewport};
    use crate::server::ServeConfig;
    use crate::trace::SessionRequest;
    use kdv_core::{KernelType, Point, Rect};

    fn points(n: usize) -> Vec<Point> {
        let mut state = 0xD00Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * 50.0, next() * 50.0)).collect()
    }

    fn server() -> Arc<TileServer> {
        let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 50.0, 50.0), 16, 64, 64, 2).unwrap();
        let config =
            ServeConfig { dataset: 5, kernel: KernelType::Quartic, bandwidth: 9.0, weight: 0.01 };
        Arc::new(TileServer::new(pyramid, config, points(150), 1 << 22, 4))
    }

    fn pan_sessions(n: u32) -> Vec<Session> {
        (0..n)
            .map(|id| Session {
                id,
                requests: (0..6)
                    .map(|step| SessionRequest {
                        think_ms: 0,
                        viewport: Viewport {
                            zoom: 1,
                            px: (id as usize * 8 + step * 16) % 80,
                            py: (id as usize * 4) % 64,
                            width: 48,
                            height: 40,
                        },
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn concurrent_replay_matches_sequential_bitwise() {
        let sessions = pan_sessions(4);
        let seq = replay_sequential(&server(), &sessions, 1);
        let frontend = Frontend::new(server(), FrontendConfig { workers: 4, ..Default::default() });
        let conc = replay_concurrent(&frontend, &sessions, false);
        assert_eq!(seq.len(), conc.len());
        for (s, c) in seq.iter().zip(&conc) {
            assert_eq!((s.session, s.seq), (c.session, c.seq));
            assert_eq!(s.outcome, c.outcome, "session {} seq {}", s.session, s.seq);
            assert!(matches!(s.outcome, ReplayOutcome::Served { .. }));
        }
    }

    #[test]
    fn think_times_are_honored() {
        let sessions = vec![Session {
            id: 0,
            requests: vec![SessionRequest {
                think_ms: 30,
                viewport: Viewport { zoom: 0, px: 0, py: 0, width: 16, height: 16 },
            }],
        }];
        let frontend = Frontend::new(server(), FrontendConfig::default());
        let start = Instant::now();
        let records = replay_concurrent(&frontend, &sessions, true);
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].outcome, ReplayOutcome::Served { .. }));
    }

    #[test]
    fn latency_quantiles_bound_the_sample() {
        let recs: Vec<ReplayRecord> = (1..=100)
            .map(|i| ReplayRecord {
                session: 0,
                seq: i as usize,
                latency_ns: i,
                outcome: ReplayOutcome::Served { checksum: 0 },
            })
            .collect();
        assert_eq!(latency_quantile_ns(&recs, 0.5), 50);
        assert_eq!(latency_quantile_ns(&recs, 0.99), 99);
        assert_eq!(latency_quantile_ns(&recs, 1.0), 100);
        assert_eq!(latency_quantile_ns(&[], 0.5), 0);
    }
}
