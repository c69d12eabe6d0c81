//! Viewport trace files — recorded pan/zoom sessions for batch replay.
//!
//! **v1** — one request per line, five whitespace-separated integers:
//!
//! ```text
//! # zoom px py width height
//! 1 0 0 256 256
//! 1 64 0 256 256
//! ```
//!
//! **v2** — multi-session: each line carries a session id and the think
//! time (milliseconds the simulated user paused before issuing the
//! request), seven fields total:
//!
//! ```text
//! # session think_ms zoom px py width height
//! 0 0   2 0   384 512 512
//! 1 25  2 128 384 512 512
//! ```
//!
//! Lines from different sessions may interleave freely; a session's
//! requests replay in file order. A file must be uniformly v1 or v2
//! (mixed arities are a parse error). `#` starts a comment (whole-line
//! or trailing); blank lines are skipped. The format is deliberately
//! trivial so traces can be captured with a shell one-liner and diffed
//! in review; `kdv serve --batch` replays v1 sequentially against a
//! [`crate::server::TileServer`] and v2 concurrently through the
//! [`crate::frontend::Frontend`] (one thread per session).
//!
//! **Live feed** — a third, tagged format for streaming replay
//! ([`parse_live`]): each line is a timestamped event, either a point
//! arrival or a viewport request, in non-decreasing time order:
//!
//! ```text
//! # p <t_ms> <x> <y>                      — point arrives at t
//! # v <t_ms> <zoom> <px> <py> <w> <h>     — viewport requested at t
//! p 0    512.5 103.25
//! p 40   498.0 141.0
//! v 100  2 0 384 512 512
//! ```
//!
//! `kdv serve --live` replays a feed against a
//! [`crate::server::TileServer`]: arrivals between two requests are
//! flushed as **one** sealed delta batch immediately before the later
//! request, so the generation ladder a replay walks is a pure function
//! of the file.

use kdv_core::Point;

use crate::pyramid::Viewport;

/// A parse failure, carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Parses a trace file's contents into viewport requests, in file order.
pub fn parse(text: &str) -> Result<Vec<Viewport>, TraceError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(TraceError {
                line,
                message: format!(
                    "expected 5 fields `zoom px py width height`, got {}",
                    fields.len()
                ),
            });
        }
        let num = |i: usize, name: &str| -> Result<usize, TraceError> {
            fields[i].parse::<usize>().map_err(|_| TraceError {
                line,
                message: format!("{name} `{}` is not a non-negative integer", fields[i]),
            })
        };
        let zoom = num(0, "zoom")?;
        if zoom > u8::MAX as usize {
            return Err(TraceError { line, message: format!("zoom {zoom} out of range") });
        }
        out.push(Viewport {
            zoom: zoom as u8,
            px: num(1, "px")?,
            py: num(2, "py")?,
            width: num(3, "width")?,
            height: num(4, "height")?,
        });
    }
    Ok(out)
}

/// Formats requests back into the trace line format ([`parse`] inverse).
pub fn format(viewports: &[Viewport]) -> String {
    let mut s = String::from("# zoom px py width height\n");
    for vp in viewports {
        s.push_str(&format!("{} {} {} {} {}\n", vp.zoom, vp.px, vp.py, vp.width, vp.height));
    }
    s
}

/// One request of a recorded session: the viewport plus the think time
/// the simulated user paused before issuing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRequest {
    /// Milliseconds of user think time before this request.
    pub think_ms: u64,
    /// The requested viewport.
    pub viewport: Viewport,
}

/// One client session of a multi-session trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Session id from the trace file.
    pub id: u32,
    /// Requests in file order.
    pub requests: Vec<SessionRequest>,
}

/// A parsed trace file of either version, normalised to sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// `1` (five-field single-session) or `2` (seven-field
    /// multi-session).
    pub version: u8,
    /// Sessions in order of first appearance; a v1 file becomes one
    /// session with id 0 and zero think times.
    pub sessions: Vec<Session>,
}

impl TraceFile {
    /// Total request count across sessions.
    pub fn num_requests(&self) -> usize {
        self.sessions.iter().map(|s| s.requests.len()).sum()
    }
}

fn parse_viewport(fields: &[&str], line: usize) -> Result<Viewport, TraceError> {
    let num = |i: usize, name: &str| -> Result<usize, TraceError> {
        fields[i].parse::<usize>().map_err(|_| TraceError {
            line,
            message: format!("{name} `{}` is not a non-negative integer", fields[i]),
        })
    };
    let zoom = num(0, "zoom")?;
    if zoom > u8::MAX as usize {
        return Err(TraceError { line, message: format!("zoom {zoom} out of range") });
    }
    Ok(Viewport {
        zoom: zoom as u8,
        px: num(1, "px")?,
        py: num(2, "py")?,
        width: num(3, "width")?,
        height: num(4, "height")?,
    })
}

/// Parses a trace file of either version into sessions. The arity of the
/// first data line fixes the version; every later line must match it.
pub fn parse_sessions(text: &str) -> Result<TraceFile, TraceError> {
    let mut version: Option<u8> = None;
    let mut order: Vec<u32> = Vec::new();
    let mut sessions: std::collections::HashMap<u32, Vec<SessionRequest>> =
        std::collections::HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        let line_version = match fields.len() {
            5 => 1,
            7 => 2,
            n => {
                return Err(TraceError {
                    line,
                    message: format!(
                        "expected 5 fields (v1 `zoom px py width height`) or 7 (v2 \
                         `session think_ms zoom px py width height`), got {n}"
                    ),
                })
            }
        };
        match version {
            None => version = Some(line_version),
            Some(v) if v != line_version => {
                return Err(TraceError {
                    line,
                    message: format!(
                        "mixed trace versions: file started as v{v}, this line is v{line_version}"
                    ),
                })
            }
            Some(_) => {}
        }
        let (session, think_ms, vp_fields) = if line_version == 1 {
            (0u32, 0u64, &fields[..])
        } else {
            let session = fields[0].parse::<u32>().map_err(|_| TraceError {
                line,
                message: format!("session `{}` is not a non-negative integer", fields[0]),
            })?;
            let think_ms = fields[1].parse::<u64>().map_err(|_| TraceError {
                line,
                message: format!("think_ms `{}` is not a non-negative integer", fields[1]),
            })?;
            (session, think_ms, &fields[2..])
        };
        let viewport = parse_viewport(vp_fields, line)?;
        if !sessions.contains_key(&session) {
            order.push(session);
        }
        sessions.entry(session).or_default().push(SessionRequest { think_ms, viewport });
    }
    Ok(TraceFile {
        version: version.unwrap_or(1),
        sessions: order
            .into_iter()
            .map(|id| Session { id, requests: sessions.remove(&id).expect("ordered") })
            .collect(),
    })
}

/// One timestamped event of a live feed ([`parse_live`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveEvent {
    /// A point arriving at `at_ms`.
    Arrival {
        /// Milliseconds since the start of the feed.
        at_ms: u64,
        /// The arriving point.
        point: Point,
    },
    /// A viewport requested at `at_ms`.
    Request {
        /// Milliseconds since the start of the feed.
        at_ms: u64,
        /// The requested viewport.
        viewport: Viewport,
    },
}

impl LiveEvent {
    /// The event's timestamp in feed milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            LiveEvent::Arrival { at_ms, .. } | LiveEvent::Request { at_ms, .. } => *at_ms,
        }
    }
}

/// Parses a live feed (`p t x y` arrivals and `v t zoom px py w h`
/// requests, `#` comments) into events in file order. Timestamps must be
/// non-decreasing — a feed is a recording, and replay relies on file
/// order being time order.
pub fn parse_live(text: &str) -> Result<Vec<LiveEvent>, TraceError> {
    let mut out: Vec<LiveEvent> = Vec::new();
    let mut last_ms = 0u64;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        let int = |i: usize, name: &str| -> Result<u64, TraceError> {
            fields[i].parse::<u64>().map_err(|_| TraceError {
                line,
                message: format!("{name} `{}` is not a non-negative integer", fields[i]),
            })
        };
        let event = match fields[0] {
            "p" => {
                if fields.len() != 4 {
                    return Err(TraceError {
                        line,
                        message: format!("expected `p t x y` (4 fields), got {}", fields.len()),
                    });
                }
                let coord = |i: usize, name: &str| -> Result<f64, TraceError> {
                    match fields[i].parse::<f64>() {
                        Ok(v) if v.is_finite() => Ok(v),
                        _ => Err(TraceError {
                            line,
                            message: format!("{name} `{}` is not a finite number", fields[i]),
                        }),
                    }
                };
                LiveEvent::Arrival {
                    at_ms: int(1, "t")?,
                    point: Point::new(coord(2, "x")?, coord(3, "y")?),
                }
            }
            "v" => {
                if fields.len() != 7 {
                    return Err(TraceError {
                        line,
                        message: format!(
                            "expected `v t zoom px py width height` (7 fields), got {}",
                            fields.len()
                        ),
                    });
                }
                LiveEvent::Request {
                    at_ms: int(1, "t")?,
                    viewport: parse_viewport(&fields[2..], line)?,
                }
            }
            tag => {
                return Err(TraceError {
                    line,
                    message: format!("unknown event tag `{tag}` (expected `p` or `v`)"),
                })
            }
        };
        if event.at_ms() < last_ms {
            return Err(TraceError {
                line,
                message: format!(
                    "timestamp {} goes backwards (previous event at {})",
                    event.at_ms(),
                    last_ms
                ),
            });
        }
        last_ms = event.at_ms();
        out.push(event);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a recorded pan\n\n1 0 0 256 256\n1 64 0 256 256 # trailing note\n";
        let vps = parse(text).unwrap();
        assert_eq!(vps.len(), 2);
        assert_eq!(vps[1], Viewport { zoom: 1, px: 64, py: 0, width: 256, height: 256 });
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let err = parse("1 0 0 256\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("5 fields"));
        let err = parse("1 0 0 256 256\n2 x 0 1 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("px"));
        assert!(parse("999 0 0 1 1\n").is_err());
    }

    #[test]
    fn format_round_trips() {
        let vps = vec![
            Viewport { zoom: 0, px: 0, py: 0, width: 48, height: 48 },
            Viewport { zoom: 2, px: 7, py: 31, width: 100, height: 60 },
        ];
        assert_eq!(parse(&format(&vps)).unwrap(), vps);
    }

    #[test]
    fn v2_parses_interleaved_sessions_in_file_order() {
        let text = "# session think_ms zoom px py width height\n\
                    0 0  1 0  0 64 64\n\
                    1 50 1 32 0 64 64   # second user joins\n\
                    0 25 1 64 0 64 64\n\
                    1 0  0 0  0 32 32\n";
        let t = parse_sessions(text).unwrap();
        assert_eq!(t.version, 2);
        assert_eq!(t.num_requests(), 4);
        assert_eq!(t.sessions.len(), 2);
        assert_eq!(t.sessions[0].id, 0);
        assert_eq!(t.sessions[0].requests.len(), 2);
        assert_eq!(t.sessions[0].requests[1].think_ms, 25);
        assert_eq!(t.sessions[1].requests[0].think_ms, 50);
        assert_eq!(
            t.sessions[1].requests[1].viewport,
            Viewport { zoom: 0, px: 0, py: 0, width: 32, height: 32 }
        );
    }

    #[test]
    fn v1_file_parses_as_one_zero_think_session() {
        let t = parse_sessions("1 0 0 256 256\n1 64 0 256 256\n").unwrap();
        assert_eq!(t.version, 1);
        assert_eq!(t.sessions.len(), 1);
        assert_eq!(t.sessions[0].id, 0);
        assert!(t.sessions[0].requests.iter().all(|r| r.think_ms == 0));
        assert_eq!(t.num_requests(), 2);
    }

    #[test]
    fn mixed_versions_and_bad_fields_are_rejected_with_position() {
        let err = parse_sessions("1 0 0 256 256\n0 0 1 0 0 256 256\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mixed trace versions"));
        let err = parse_sessions("0 x 1 0 0 256 256\n").unwrap_err();
        assert!(err.message.contains("think_ms"));
        let err = parse_sessions("0 0 1 0 0 256\n").unwrap_err();
        assert!(err.to_string().contains("expected 5 fields"));
        assert!(parse_sessions("0 0 999 0 0 1 1\n").is_err());
    }

    #[test]
    fn empty_trace_defaults_to_v1_with_no_sessions() {
        let t = parse_sessions("# nothing here\n").unwrap();
        assert_eq!((t.version, t.sessions.len(), t.num_requests()), (1, 0, 0));
    }

    #[test]
    fn live_feed_parses_arrivals_and_requests_in_order() {
        let text = "# a live feed\n\
                    p 0   512.5 103.25\n\
                    p 40  498.0 141.0   # second arrival\n\
                    v 100 2 0 384 512 512\n\
                    p 100 7 7\n\
                    v 160 0 0 0 256 256\n";
        let events = parse_live(text).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0], LiveEvent::Arrival { at_ms: 0, point: Point::new(512.5, 103.25) });
        assert_eq!(
            events[2],
            LiveEvent::Request {
                at_ms: 100,
                viewport: Viewport { zoom: 2, px: 0, py: 384, width: 512, height: 512 },
            }
        );
        assert!(events.windows(2).all(|w| w[0].at_ms() <= w[1].at_ms()));
    }

    #[test]
    fn live_feed_rejects_malformed_events_with_position() {
        let err = parse_live("p 0 1.0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("4 fields"));
        let err = parse_live("p 0 1.0 nan\n").unwrap_err();
        assert!(err.message.contains("finite"));
        let err = parse_live("v 0 2 0 0 64\n").unwrap_err();
        assert!(err.message.contains("7 fields"));
        let err = parse_live("p 10 1 1\nq 20 1 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown event tag"));
        let err = parse_live("p 50 1 1\np 40 2 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("backwards"));
    }
}
