//! Untrusted input: trace text in, served viewports out, and nothing in
//! between may panic.
//!
//! A seeded generator produces arbitrary text and mutations of the valid
//! lines in `traces/*.trace` (fields replaced by huge, negative, float or
//! empty tokens; fields dropped, duplicated, inserted or swapped; lines
//! cut short or commented out). Every input goes through all three
//! parsers, and every viewport any of them accepts is served by a tiny
//! [`TileServer`] and a tiny [`LiveTileServer`]. The live feed's
//! arrivals are appended to the live server and then expired, once while
//! they are live and once more after they are not. Each step must return
//! `Ok` or `Err`: a served viewport must have exactly the clamped
//! window's shape, and a viewport with nothing left after clamping must
//! be an `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kdv_core::{KernelType, Point, Rect};
use kdv_serve::trace::{self, LiveEvent};
use kdv_serve::{LiveConfig, PyramidSpec, ServeConfig, TileServer, Viewport};

const TRACES: [&str; 3] = [
    include_str!("../../../traces/pan.trace"),
    include_str!("../../../traces/pan_sessions.trace"),
    include_str!("../../../traces/live_feed.trace"),
];

/// Tokens a mutation may put in place of a field.
const TOKENS: [&str; 22] = [
    "0",
    "1",
    "7",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "8589934592",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "-0",
    "+3",
    "1.5",
    "1e308",
    "nan",
    "inf",
    "0x10",
    "p",
    "v",
    "#",
];

/// Characters arbitrary text is drawn from.
const ALPHABET: [char; 24] = [
    '0', '1', '2', '5', '8', '9', ' ', ' ', '\t', '\n', '\n', '\r', '#', 'p', 'v', '-', '+', '.',
    'e', 'x', 'n', 'é', '\u{0}', '9',
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn points(n: usize) -> Vec<Point> {
    let mut rng = Rng(0xF022_5EED);
    let mut unit = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    (0..n).map(|_| Point::new(unit() * 40.0, unit() * 30.0)).collect()
}

fn pyramid() -> PyramidSpec {
    PyramidSpec::new(Rect::new(0.0, 0.0, 40.0, 30.0), 4, 8, 6, 2).unwrap()
}

fn config() -> ServeConfig {
    ServeConfig { dataset: 5, kernel: KernelType::Quartic, bandwidth: 6.0, weight: 0.01 }
}

fn servers() -> (TileServer, TileServer) {
    let frozen = TileServer::new(pyramid(), config(), points(40), 1 << 24, 2);
    // Compaction keeps the batch log of the fed arrivals short.
    let live_config = LiveConfig { patching: true, compact_every: Some(16) };
    let live = TileServer::with_live(pyramid(), config(), live_config, points(40), 1 << 24, 2);
    (frozen, live)
}

/// Random printable-ish text of up to 80 characters.
fn arbitrary_text(rng: &mut Rng) -> String {
    (0..rng.below(81)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
}

/// A non-negative integer: half the time a small one, otherwise one of
/// random bit length (which may overflow a zoom, a session id or a
/// pixel count).
fn number(rng: &mut Rng) -> String {
    if rng.below(2) == 0 {
        rng.below(64).to_string()
    } else {
        (rng.next() >> rng.below(64)).to_string()
    }
}

/// One valid line of a committed trace: kept as it is one time in three,
/// otherwise mutated one to three times.
fn mutated_line(rng: &mut Rng, corpus: &[&str]) -> String {
    let line = corpus[rng.below(corpus.len())];
    if rng.below(3) == 0 {
        return line.to_string();
    }
    let mut fields: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(fields.len() + 1);
        match rng.below(8) {
            0..=2 if at < fields.len() => fields[at] = number(rng),
            3 if at < fields.len() => fields[at] = TOKENS[rng.below(TOKENS.len())].to_string(),
            4 if at < fields.len() => {
                fields.remove(at);
            }
            5 if at < fields.len() => {
                let copy = fields[at].clone();
                fields.insert(at, copy);
            }
            6 if fields.len() >= 2 => {
                let other = rng.below(fields.len());
                let at = at.min(fields.len() - 1);
                fields.swap(at, other);
            }
            _ => fields.insert(at, TOKENS[rng.below(TOKENS.len())].to_string()),
        }
    }
    let mut line = fields.join(if rng.below(4) == 0 { "\t" } else { " " });
    match rng.below(8) {
        0 => {
            let cut = line.char_indices().map(|(i, _)| i).nth(rng.below(line.len() + 1));
            line.truncate(cut.unwrap_or(line.len()));
        }
        1 => line.insert(0, '#'),
        2 => line.push_str(" # note"),
        _ => {}
    }
    line
}

/// One fuzz input: arbitrary text, lines of one committed trace
/// (mutated or not), or both.
fn input(rng: &mut Rng, corpora: &[Vec<&str>]) -> String {
    let corpus = &corpora[rng.below(corpora.len())];
    match rng.below(4) {
        0 => arbitrary_text(rng),
        1 => {
            let mut text = mutated_line(rng, corpus);
            text.push('\n');
            text.push_str(&arbitrary_text(rng));
            text
        }
        _ => (0..1 + rng.below(5)).map(|_| mutated_line(rng, corpus) + "\n").collect(),
    }
}

/// Appends `arrivals` to the live server as one batch, then expires each
/// one with a signed batch, and the first once more, when it is no longer
/// live: that expiration must be an `Err` that seals nothing.
fn feed(live: &TileServer, arrivals: &[Point]) {
    let before = live.generation();
    assert_eq!(live.append(arrivals) > before, !arrivals.is_empty(), "append of {arrivals:?}");
    for p in arrivals {
        live.apply_signed(&[*p], &[-1.0]).expect("an appended arrival is live");
    }
    if let Some(p) = arrivals.first() {
        let generation = live.generation();
        assert!(live.apply_signed(&[*p], &[-1.0]).is_err(), "{p:?} expired twice");
        assert_eq!(live.generation(), generation, "a rejected expiration seals nothing");
    }
}

/// Serves `vp` on both servers and checks the outcome against the
/// clamped window.
fn serve_both(frozen: &TileServer, live: &TileServer, vp: &Viewport) {
    let clamped = vp.clamped(frozen.pyramid()).ok();
    for (name, result) in [
        ("frozen", frozen.serve_viewport(vp, 1).map(|(grid, _)| grid)),
        ("live", live.serve_viewport(vp, 1).map(|(grid, _)| grid)),
    ] {
        match (clamped, result) {
            (Some(c), Ok(grid)) => {
                assert_eq!((grid.res_x(), grid.res_y()), (c.width, c.height), "{name} {vp:?}")
            }
            (None, Err(_)) => {}
            (c, r) => panic!("{name} {vp:?}: clamped {c:?} but served {:?}", r.map(|_| ())),
        }
    }
}

#[test]
fn overflowing_viewport_is_served_on_both_servers() {
    // parses fine, and width × height overflows usize
    let vps = trace::parse("0 0 0 8589934592 8589934592\n").unwrap();
    let (frozen, live) = servers();
    let (rx, ry) = frozen.pyramid().level_res(0);
    let (grid, _) = frozen.serve_viewport(&vps[0], 1).expect("frozen server serves it");
    assert_eq!((grid.res_x(), grid.res_y()), (rx, ry));
    let (grid, _) = live.serve_viewport(&vps[0], 1).expect("live server serves it");
    assert_eq!((grid.res_x(), grid.res_y()), (rx, ry));
}

#[test]
fn seeded_trace_inputs_never_panic() {
    let corpora: Vec<Vec<&str>> = TRACES
        .iter()
        .map(|t| {
            t.lines().filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty()).collect()
        })
        .collect();
    assert!(corpora.iter().all(|c| c.len() >= 5), "the committed traces should seed the corpus");
    let (frozen, live) = servers();
    let mut rng = Rng(0x7ACE_F022);
    let (mut parsed, mut served, mut clamped, mut fed) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..20_000 {
        let text = input(&mut rng, &corpora);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut vps: Vec<Viewport> = Vec::new();
            let mut arrivals = Vec::new();
            if let Ok(v) = trace::parse(&text) {
                vps.extend(v);
            }
            if let Ok(file) = trace::parse_sessions(&text) {
                vps.extend(
                    file.sessions.iter().flat_map(|s| s.requests.iter().map(|r| r.viewport)),
                );
            }
            if let Ok(events) = trace::parse_live(&text) {
                for event in &events {
                    match event {
                        LiveEvent::Request { viewport, .. } => vps.push(*viewport),
                        LiveEvent::Arrival { point, .. } => arrivals.push(*point),
                    }
                }
                feed(&live, &arrivals);
            }
            for vp in &vps {
                serve_both(&frozen, &live, vp);
            }
            let reshaped = vps.iter().filter(|vp| vp.clamped(frozen.pyramid()).ok() != Some(**vp));
            (vps.len(), reshaped.count(), arrivals.len())
        }));
        match outcome {
            Ok((n, reshaped, arrived)) => {
                parsed += usize::from(n > 0);
                served += n;
                clamped += reshaped;
                fed += arrived;
            }
            Err(_) => panic!("input {i} panicked: {text:?}"),
        }
    }
    // enough inputs must parse to reach the servers, most of them with
    // windows the servers have to clamp or reject
    println!(
        "{parsed} inputs parsed, {served} viewports served, {clamped} clamped or rejected, \
         {fed} arrivals fed"
    );
    assert!(parsed > 1_500, "only {parsed} inputs parsed to a viewport");
    assert!(fed > 100, "only {fed} live arrivals reached the live server");
    assert!(clamped > 3_000, "only {clamped} viewports needed clamping");
}
