//! Per-request layer reconciliation: the spans one served viewport
//! records must account for its wall time. Every span recorded while a
//! cold multi-band request runs lies inside its `serve.viewport` span and
//! nests (no two spans of a thread partly overlap). On one thread they
//! form one tree under `serve.viewport`, so each span's self time (its
//! duration less its children's) is non-negative and the self times of
//! the spans below it plus the request's own unattributed time sum to
//! its wall time exactly.
//!
//! The tests toggle the process-global span recorder, so each holds
//! `kdv_obs::span::exclusive()` and they live in this dedicated
//! integration binary.

use std::cmp::Reverse;

use kdv_core::{KernelType, Point, Rect};
use kdv_obs::{Trace, TraceEvent};
use kdv_serve::{PyramidSpec, ServeConfig, TileServer, Viewport};

fn server() -> TileServer {
    let mut state = 0x7ACE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points = (0..400).map(|_| Point::new(next() * 80.0, next() * 80.0)).collect();
    let pyramid = PyramidSpec::new(Rect::new(0.0, 0.0, 80.0, 80.0), 16, 48, 48, 2).unwrap();
    let config =
        ServeConfig { dataset: 3, kernel: KernelType::Quartic, bandwidth: 9.0, weight: 0.01 };
    TileServer::new(pyramid, config, points, 64 << 20, 4)
}

/// A cold zoom-1 window over three tile bands, traced on `threads`.
fn traced_request(threads: usize) -> (Trace, TraceEvent) {
    let server = server();
    let vp = Viewport { zoom: 1, px: 5, py: 3, width: 70, height: 40 };
    let _guard = kdv_obs::span::exclusive();
    kdv_obs::span::clear();
    kdv_obs::set_enabled(true);
    let (_, outcome) = server.serve_viewport(&vp, threads).unwrap();
    kdv_obs::set_enabled(false);
    let trace = kdv_obs::span::take_trace();
    assert_eq!(outcome.cache_hits, 0, "the request must be cold");
    let requests: Vec<&TraceEvent> =
        trace.events.iter().filter(|e| e.name == "serve.viewport").collect();
    let [request] = requests[..] else { panic!("{} serve.viewport spans", requests.len()) };
    let request = *request;
    (trace, request)
}

fn end(e: &TraceEvent) -> u64 {
    e.ts_ns + e.dur_ns
}

#[test]
fn every_span_of_a_request_nests_inside_it() {
    for threads in [1, 2, 3] {
        let (trace, request) = traced_request(threads);
        assert_eq!(trace.partial_overlap().map(|(a, b)| (a.name, b.name)), None);
        let bands = trace.events.iter().filter(|e| e.name == "tile.band").count();
        assert!(bands >= 3, "a multi-band request computes each band ({bands})");
        for e in &trace.events {
            assert!(
                e.ts_ns >= request.ts_ns && end(e) <= end(&request),
                "{threads} thread(s): {} [{}, {}] outside serve.viewport [{}, {}]",
                e.name,
                e.ts_ns,
                end(e),
                request.ts_ns,
                end(&request)
            );
        }
    }
}

#[test]
fn self_times_and_unattributed_time_sum_to_the_requests_wall() {
    let (trace, request) = traced_request(1);
    // One worker runs on the calling thread, so every span is on it.
    assert!(trace.events.iter().all(|e| e.tid == request.tid), "a one-thread request spawned");
    assert_eq!(trace.partial_overlap().map(|(a, b)| (a.name, b.name)), None);
    let mut spans: Vec<&TraceEvent> = trace.events.iter().collect();
    spans.sort_by_key(|e| (e.ts_ns, Reverse(end(e))));
    assert_eq!(spans[0].name, "serve.viewport", "the request span is the root");
    // children[i]: total duration of span i's direct children
    let mut children = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        // the innermost open span that contains `e` is its parent
        while open.last().is_some_and(|&p| end(spans[p]) < end(e)) {
            open.pop();
        }
        match open.last() {
            Some(&parent) => children[parent] += e.dur_ns,
            None => assert_eq!(i, 0, "{} is outside the request", e.name),
        }
        open.push(i);
    }
    let self_time: Vec<i128> =
        spans.iter().zip(&children).map(|(e, &c)| i128::from(e.dur_ns) - i128::from(c)).collect();
    for (e, &t) in spans.iter().zip(&self_time) {
        assert!(t >= 0, "{}: children last longer than the span ({t} ns self)", e.name);
    }
    let unattributed = self_time[0];
    let attributed: i128 = self_time[1..].iter().sum();
    assert!(attributed > 0 && unattributed >= 0);
    assert_eq!(attributed + unattributed, i128::from(request.dur_ns));
}
