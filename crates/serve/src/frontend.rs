//! The concurrent serving front end: a worker pool over one
//! [`TileServer`] with a **bounded** admission queue, per-request
//! deadlines and explicit load-shedding.
//!
//! The design goal is that overload degrades to *fast, explicit
//! rejection* rather than unbounded latency: a full queue rejects at
//! submit time ([`ShedReason::QueueFull`]), and a request that waited in
//! the queue past its deadline is rejected when a worker picks it up
//! ([`ShedReason::DeadlineExceeded`]) instead of being served late into a
//! viewport nobody is looking at any more. Queue depth therefore bounds
//! the worst accepted wait to `depth × slowest-request`, and everything
//! beyond that is a counted rejection, not a growing tail.
//!
//! Duplicate work across concurrent requests is handled one layer down:
//! the [`TileServer`]'s per-tile single-flight table means two workers
//! serving overlapping viewports compute each shared tile once — the
//! front end adds admission control and parallel execution, not
//! coordination. The server may be frozen or live: appends, expirations
//! and compactions go to the server directly while the pool serves.
//!
//! Metrics (process-global registry): counters `serve.submitted`,
//! `serve.completed`, `serve.shed.queue_full`, `serve.shed.deadline`;
//! histograms `serve.queue_wait_ns` (time spent queued) and the
//! server-level `serve.request_ns`. `serve.submitted` counts every offer,
//! shed ones included, so once the admitted requests have finished,
//! submitted = completed + shed.
//!
//! Observability: every admitted request gets a process-unique **request
//! id** and is executed under a `serve.request` span carrying it (`req`
//! argument), so a flight-recorder incident dump ties the request id in
//! its trigger context to the exact span tree of that request. A shed
//! fires the `shed.queue_full` / `shed.deadline` incident triggers; an
//! attached [`SloTracker`] ([`Frontend::set_slo`]) records each
//! completion's submit-to-finish latency under its request class and
//! fires `slo.p99` on a breach edge. Triggers fire *after* the request
//! span has closed into the ring, so the offending span tree is always
//! part of its own dump.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kdv_core::telemetry::SweepReport;
use kdv_core::{DensityGrid, KdvError};
use kdv_obs::SloTracker;

use crate::pyramid::Viewport;
use crate::server::{request_class, TileServer};

/// Why a request was rejected without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was full at submit time.
    QueueFull,
    /// The request waited in the queue past its deadline.
    DeadlineExceeded,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "admission queue full"),
            ShedReason::DeadlineExceeded => write!(f, "queued past deadline"),
        }
    }
}

/// How a front-end request can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Load-shed: rejected explicitly, never computed.
    Shed(ShedReason),
    /// The underlying tile server failed the request.
    Compute(KdvError),
    /// The front end shut down before the request was served.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(reason) => write!(f, "request shed: {reason}"),
            ServeError::Compute(e) => write!(f, "request failed: {e}"),
            ServeError::Closed => write!(f, "front end closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served viewport: the raster plus the per-request report.
pub type ServeResult = Result<(DensityGrid, SweepReport), ServeError>;

/// Front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Worker threads consuming the queue (`0` = one, clamped).
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it are rejected
    /// (`0` = 1, clamped — admission control needs at least one slot).
    pub queue_depth: usize,
    /// Per-request deadline measured from submit; `None` = no deadline.
    /// A request still queued when its deadline passes is shed.
    pub deadline: Option<Duration>,
    /// Sweep threads each worker hands to `serve_viewport`
    /// (`0` = auto). Workers already parallelise across requests, so the
    /// default for a loaded front end is 1.
    pub threads_per_request: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self { workers: 4, queue_depth: 64, deadline: None, threads_per_request: 1 }
    }
}

/// Saturating front-end counters.
#[derive(Debug, Default)]
pub struct FrontendStats {
    submitted: kdv_obs::Counter,
    completed: kdv_obs::Counter,
    shed_queue_full: kdv_obs::Counter,
    shed_deadline: kdv_obs::Counter,
}

impl FrontendStats {
    /// Requests offered to [`Frontend::submit`], admitted or shed at the
    /// door. Once every admitted request has finished,
    /// `submitted = completed + shed` by construction.
    pub fn submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Requests served to completion (ok or compute error).
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Requests rejected at submit because the queue was full.
    pub fn shed_queue_full(&self) -> u64 {
        self.shed_queue_full.get()
    }

    /// Requests rejected at dequeue because their deadline had passed.
    pub fn shed_deadline(&self) -> u64 {
        self.shed_deadline.get()
    }

    /// All load-shed rejections.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full().saturating_add(self.shed_deadline())
    }
}

/// One-shot completion slot a submitter waits on.
struct TicketState {
    slot: Mutex<Option<ServeResult>>,
    done: Condvar,
}

/// Handle to one accepted request; [`Ticket::wait`] blocks until a
/// worker completes (or sheds) it.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    fn new() -> (Ticket, Arc<TicketState>) {
        let state = Arc::new(TicketState { slot: Mutex::new(None), done: Condvar::new() });
        (Ticket { state: Arc::clone(&state) }, state)
    }

    /// Blocks until the request completes and returns its outcome.
    pub fn wait(self) -> ServeResult {
        let mut slot = lock(&self.state.slot);
        while slot.is_none() {
            slot = self.state.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.take().expect("completed")
    }
}

/// Locks a front-end mutex, recovering it if a holder panicked: every
/// critical section here is a single push, pop, drain or slot write, so
/// the guarded state is consistent whenever the lock is free.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn complete(state: &TicketState, result: ServeResult) {
    let mut slot = lock(&state.slot);
    *slot = Some(result);
    state.done.notify_all();
}

/// A queued request.
struct Job {
    id: u64,
    viewport: Viewport,
    submitted: Instant,
    ticket: Arc<TicketState>,
}

struct Inner {
    server: Arc<TileServer>,
    config: FrontendConfig,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    shutdown: AtomicBool,
    stats: FrontendStats,
    next_id: AtomicU64,
    slo: OnceLock<Arc<SloTracker>>,
}

/// The worker-pool serving front end. Dropping it shuts the pool down:
/// queued-but-unserved requests complete with [`ServeError::Closed`].
pub struct Frontend {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Frontend {
    /// Spawns `config.workers` workers over `server`.
    pub fn new(server: Arc<TileServer>, config: FrontendConfig) -> Self {
        let inner = Arc::new(Inner {
            server,
            config,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: FrontendStats::default(),
            next_id: AtomicU64::new(1),
            slo: OnceLock::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Frontend { inner, workers }
    }

    /// The front-end counters.
    pub fn stats(&self) -> &FrontendStats {
        &self.inner.stats
    }

    /// The server this front end drives.
    pub fn server(&self) -> &Arc<TileServer> {
        &self.inner.server
    }

    /// The configuration the pool runs under.
    pub fn config(&self) -> &FrontendConfig {
        &self.inner.config
    }

    /// Attaches an SLO tracker: workers record every completion's
    /// submit-to-finish latency under its request class (`live` once the
    /// stream has sealed a batch or compacted, else exact / coreset by
    /// the zoom's serving tier) and fire the `slo.p99`
    /// incident trigger on a breach edge. One-shot — later calls are
    /// ignored (the pool is already recording against the first).
    pub fn set_slo(&self, slo: Arc<SloTracker>) {
        let _ = self.inner.slo.set(slo);
    }

    /// The attached SLO tracker, if any.
    pub fn slo(&self) -> Option<&Arc<SloTracker>> {
        self.inner.slo.get()
    }

    /// Submits one viewport request. Returns a [`Ticket`] if admitted;
    /// rejects immediately with [`ShedReason::QueueFull`] when the
    /// bounded queue is at capacity (explicit load shedding — the caller
    /// learns *now*, instead of waiting behind an unbounded backlog).
    pub fn submit(&self, viewport: Viewport) -> Result<Ticket, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        let depth = self.inner.config.queue_depth.max(1);
        let mut queue = lock(&self.inner.queue);
        self.inner.stats.submitted.bump();
        kdv_obs::metrics::global().counter("serve.submitted").bump();
        if queue.len() >= depth {
            self.inner.stats.shed_queue_full.bump();
            kdv_obs::metrics::global().counter("serve.shed.queue_full").bump();
            drop(queue);
            kdv_obs::ring::trigger("shed.queue_full", None);
            return Err(ServeError::Shed(ShedReason::QueueFull));
        }
        let (ticket, state) = Ticket::new();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        queue.push_back(Job { id, viewport, submitted: Instant::now(), ticket: state });
        drop(queue);
        self.inner.not_empty.notify_one();
        Ok(ticket)
    }

    /// Convenience: submit and block for the result.
    pub fn serve(&self, viewport: Viewport) -> ServeResult {
        self.submit(viewport)?.wait()
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone; fail anything still queued so no submitter
        // blocks on a ticket nobody will complete.
        let mut queue = lock(&self.inner.queue);
        for job in queue.drain(..) {
            complete(&job.ticket, Err(ServeError::Closed));
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.not_empty.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let waited = job.submitted.elapsed();
        let metrics = kdv_obs::metrics::global();
        metrics.histogram("serve.queue_wait_ns").record(waited.as_nanos() as u64);
        // The serve.request span must close (landing in the flight-
        // recorder ring) before any trigger fires, so the dump of a shed
        // or breach contains the offending request's own span tree.
        let mut shed = false;
        let result = {
            let mut span = kdv_obs::span1("serve.request", "req", job.id);
            span.arg("wait_us", waited.as_micros() as u64);
            if inner.config.deadline.is_some_and(|deadline| waited > deadline) {
                shed = true;
                span.arg("shed", 1);
                Err(ServeError::Shed(ShedReason::DeadlineExceeded))
            } else {
                inner
                    .server
                    .serve(&job.viewport, inner.config.threads_per_request)
                    .map(|(grid, report, tier, generation)| {
                        ((grid, report), request_class(tier.tier, generation))
                    })
                    .map_err(ServeError::Compute)
            }
        };
        if shed {
            inner.stats.shed_deadline.bump();
            metrics.counter("serve.shed.deadline").bump();
            kdv_obs::ring::trigger("shed.deadline", Some(job.id));
        } else {
            inner.stats.completed.bump();
            metrics.counter("serve.completed").bump();
            if let Some(slo) = inner.slo.get() {
                let latency_ns = job.submitted.elapsed().as_nanos() as u64;
                let class = match &result {
                    Ok((_, class)) => *class,
                    Err(_) => request_class(inner.server.tier_of(job.viewport.zoom), 0),
                };
                if slo.record(class, latency_ns, job.id).breached {
                    kdv_obs::ring::trigger("slo.p99", Some(job.id));
                }
            }
        }
        complete(&job.ticket, result.map(|(served, _)| served));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pyramid::PyramidSpec;
    use crate::server::ServeConfig;
    use kdv_core::{KernelType, Point, Rect};

    fn points(n: usize) -> Vec<Point> {
        let mut state = 0xFEEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
    }

    fn server() -> Arc<TileServer> {
        let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 48, 48, 2).unwrap();
        let config = ServeConfig {
            dataset: 11,
            kernel: KernelType::Epanechnikov,
            bandwidth: 12.0,
            weight: 0.004,
        };
        Arc::new(TileServer::new(pyramid, config, points(200), 1 << 22, 4))
    }

    #[test]
    fn serves_through_the_pool_and_matches_direct() {
        let srv = server();
        let fe = Frontend::new(Arc::clone(&srv), FrontendConfig::default());
        let vp = Viewport { zoom: 1, px: 7, py: 9, width: 50, height: 40 };
        let (grid, report) = fe.serve(vp).expect("served");
        assert_eq!(report.cache_hits + report.cache_misses, 16, "4x4 tiles of 16 at zoom 1");
        let reference = server().serve_viewport(&vp, 1).unwrap().0;
        assert_eq!(grid, reference, "front-end bits differ from direct serve");
        assert_eq!(fe.stats().completed(), 1);
        assert_eq!(fe.stats().shed(), 0);
    }

    #[test]
    fn zero_deadline_sheds_every_queued_request() {
        let fe = Frontend::new(
            server(),
            FrontendConfig { deadline: Some(Duration::ZERO), ..FrontendConfig::default() },
        );
        let vp = Viewport { zoom: 0, px: 0, py: 0, width: 20, height: 20 };
        // any nonzero queue wait exceeds a zero deadline
        match fe.serve(vp) {
            Err(ServeError::Shed(ShedReason::DeadlineExceeded)) => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert_eq!(fe.stats().shed_deadline(), 1);
        assert_eq!(fe.stats().completed(), 0);
    }

    #[test]
    fn full_queue_rejects_at_submit() {
        let fe = Frontend::new(
            server(),
            FrontendConfig { workers: 1, queue_depth: 1, ..FrontendConfig::default() },
        );
        let vp = Viewport { zoom: 2, px: 0, py: 0, width: 96, height: 96 };
        // open-loop burst: keep submitting without waiting until the
        // depth-1 queue turns one away (bounded by a generous cap so a
        // regression fails rather than spins forever)
        let mut pending = Vec::new();
        let mut shed = false;
        for _ in 0..10_000 {
            match fe.submit(vp) {
                Ok(t) => pending.push(t),
                Err(ServeError::Shed(ShedReason::QueueFull)) => {
                    shed = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(shed, "a depth-1 queue never rejected an open-loop burst");
        assert!(fe.stats().shed_queue_full() >= 1);
        // every *accepted* request still completes
        for t in pending {
            t.wait().expect("accepted request must be served");
        }
    }

    #[test]
    fn drop_fails_queued_requests_instead_of_hanging() {
        let fe = Frontend::new(
            server(),
            FrontendConfig { workers: 1, queue_depth: 64, ..FrontendConfig::default() },
        );
        let vp = Viewport { zoom: 2, px: 0, py: 0, width: 96, height: 96 };
        let tickets: Vec<Ticket> = (0..16).filter_map(|_| fe.submit(vp).ok()).collect();
        drop(fe);
        for t in tickets {
            match t.wait() {
                Ok(_) | Err(ServeError::Closed) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn submit_after_close_is_rejected() {
        let fe = Frontend::new(server(), FrontendConfig::default());
        let inner = Arc::clone(&fe.inner);
        drop(fe);
        assert!(inner.shutdown.load(Ordering::Acquire));
    }

    /// Poisons `mutex` by panicking on a thread that holds it.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = mutex.lock();
                panic!("holder panics with the lock held");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_queue_keeps_serving() {
        let fe =
            Frontend::new(server(), FrontendConfig { workers: 1, ..FrontendConfig::default() });
        poison(&fe.inner.queue);
        let vp = Viewport { zoom: 0, px: 0, py: 0, width: 20, height: 20 };
        for _ in 0..3 {
            fe.serve(vp).expect("a poisoned queue must keep serving");
        }
        assert_eq!(fe.stats().completed(), 3);
    }

    #[test]
    fn poisoned_ticket_still_completes() {
        let (ticket, state) = Ticket::new();
        poison(&state.slot);
        complete(&state, Err(ServeError::Closed));
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Closed);
    }
}
