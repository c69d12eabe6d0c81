//! The benchmark's definition: its workloads, its end-to-end metrics and
//! its per-layer metrics, each per-layer metric with the end-to-end
//! metric and workload it should move. `BENCHMARK.json` at the repository
//! root declares the same names and units; every run checks the two agree
//! (see [`check_declaration`]).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperRender,
    PanSessions,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PaperRender, Workload::PanSessions];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRender => "paper_render",
            Workload::PanSessions => "pan_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which end-to-end metric a per-layer metric should move, and where.
#[derive(Debug, Clone, Copy)]
pub enum Moves {
    /// `(end-to-end metric, workloads)` pairs.
    Metrics(&'static [(&'static str, &'static [Workload])]),
    /// Moves no end-to-end metric; the reason says what it is for.
    Nothing(&'static str),
}

impl Moves {
    /// One line: what the metric should move, on which workloads.
    pub fn describe(&self) -> String {
        match self {
            Moves::Metrics(pairs) => pairs
                .iter()
                .map(|(metric, on)| {
                    let on: Vec<&str> = on.iter().map(|w| w.name()).collect();
                    format!("{metric} on {}", on.join("/"))
                })
                .collect::<Vec<_>>()
                .join("; "),
            Moves::Nothing(reason) => format!("none: {reason}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads that measure it. A traced run of any other workload
    /// reports it as 0 (the layer is not exercised there).
    pub on: &'static [Workload],
    /// Per-layer metrics only: what it should move.
    pub moves: Option<Moves>,
}

use Better::{Higher, Lower};
use Workload::{PanSessions as PS, PaperRender as PR};

const ALL: &[Workload] = &Workload::ALL;

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, on: ALL, moves: None }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
    moves: Moves,
) -> Metric {
    Metric { name, unit, better, on, moves: Some(moves) }
}

/// End-to-end metrics, reported by every untraced run. An *operation* is
/// one city render (`paper_render`) or one viewport request (the serving
/// workloads).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower),
    e2e("peak_rss_mb", "MiB", Lower),
    e2e("render_s", "s", Lower),
    e2e("latency_p50_ms", "ms", Lower),
    e2e("latency_p99_ms", "ms", Lower),
    e2e("throughput_rps", "1/s", Higher),
];

const RENDER_PR: &[(&str, &[Workload])] = &[("render_s", &[PR])];
const PAN_TAIL: &[(&str, &[Workload])] = &[("latency_p99_ms", &[PS]), ("throughput_rps", &[PS])];
const PAN_MEDIAN: &[(&str, &[Workload])] = &[("latency_p50_ms", &[PS])];
/// The live feed's layers are measured in `pan_sessions`' traced run only.
const LIVE: Moves = Moves::Nothing(
    "live feed layer, measured in pan_sessions' traced run; no end-to-end workload serves live data",
);

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("data.generate_s", "s", Lower, ALL, Moves::Metrics(&[("setup_s", ALL)])),
    layer(
        "core.context_s",
        "s",
        Lower,
        ALL,
        Moves::Metrics(&[("render_s", &[PR]), ("setup_s", &[PS])]),
    ),
    layer("core.band_search_s", "s", Lower, ALL, Moves::Metrics(RENDER_PR)),
    layer("core.envelope_fill_s", "s", Lower, ALL, Moves::Metrics(RENDER_PR)),
    layer("core.envelope_points", "count", Lower, ALL, Moves::Metrics(RENDER_PR)),
    layer("core.rows_skipped", "count", Higher, ALL, Moves::Metrics(RENDER_PR)),
    layer(
        "core.row_sweep_s",
        "s",
        Lower,
        ALL,
        Moves::Metrics(&[
            ("render_s", &[PR]),
            ("latency_p99_ms", &[PS]),
            ("throughput_rps", &[PS]),
        ]),
    ),
    layer("core.unattributed_s", "s", Lower, ALL, Moves::Metrics(RENDER_PR)),
    layer("core.parallel_speedup", "x", Higher, &[PR], Moves::Metrics(RENDER_PR)),
    layer("core.row_sweep.res_slope", "slope", Lower, &[PR], Moves::Metrics(RENDER_PR)),
    layer("core.envelope_fill.res_slope", "slope", Lower, &[PR], Moves::Metrics(RENDER_PR)),
    layer("core.tile.band_ms_p50", "ms", Lower, &[PS], Moves::Metrics(PAN_TAIL)),
    layer("serve.server.hit_ms_p50", "ms", Lower, &[PS], Moves::Metrics(PAN_MEDIAN)),
    layer("serve.server.miss_ms_p50", "ms", Lower, &[PS], Moves::Metrics(PAN_TAIL)),
    layer("serve.server.miss_ms_p99", "ms", Lower, &[PS], Moves::Metrics(PAN_TAIL)),
    layer("serve.cache.hit_ratio", "fraction", Higher, &[PS], Moves::Metrics(PAN_MEDIAN)),
    layer("serve.cache.misses", "count", Lower, &[PS], Moves::Metrics(PAN_TAIL)),
    layer("serve.cache.evictions", "count", Lower, &[PS], Moves::Metrics(PAN_TAIL)),
    layer(
        "serve.flight.computed",
        "count",
        Lower,
        &[PS],
        Moves::Metrics(&[("throughput_rps", &[PS])]),
    ),
    layer(
        "serve.flight.joined",
        "count",
        Higher,
        &[PS],
        Moves::Metrics(&[("throughput_rps", &[PS])]),
    ),
    layer(
        "serve.flight.duplicate_computes",
        "count",
        Lower,
        &[PS],
        Moves::Metrics(&[("throughput_rps", &[PS])]),
    ),
    layer(
        "serve.frontend.wait_ms_p50",
        "ms",
        Lower,
        &[PS],
        Moves::Metrics(&[("latency_p99_ms", &[PS])]),
    ),
    layer(
        "serve.frontend.wait_ms_p99",
        "ms",
        Lower,
        &[PS],
        Moves::Metrics(&[("latency_p99_ms", &[PS])]),
    ),
    layer("stream.append_ms_p99", "ms", Lower, &[PS], LIVE),
    layer("stream.compactions", "count", Lower, &[PS], LIVE),
    layer("serve.live.patch_ms_p50", "ms", Lower, &[PS], LIVE),
    layer("serve.live.recompute_ms_p50", "ms", Lower, &[PS], LIVE),
    layer("serve.live.coreset_ms_p50", "ms", Lower, &[PS], LIVE),
    layer("serve.live.patched_bands", "count", Higher, &[PS], LIVE),
    layer("serve.live.recomputed_bands", "count", Lower, &[PS], LIVE),
    layer("serve.live.folded_batches", "count", Lower, &[PS], LIVE),
    layer("serve.live.generator_lag_ms_p99", "ms", Lower, &[PS], LIVE),
    layer("serve.live.freshness_p99_ms", "ms", Lower, &[PS], LIVE),
    layer("coreset.build_ms", "ms", Lower, &[PS], LIVE),
    layer(
        "obs.trace_overhead",
        "ratio",
        Lower,
        ALL,
        Moves::Nothing("traced per-operation wall over untraced; must stay near 1"),
    ),
];

/// The metric definition for `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric names must match `[A-Za-z0-9_.-]+` and start with a letter or
/// digit; units `[A-Za-z0-9_/%.-]{1,16}`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks a parsed `BENCHMARK.json` against this registry and the
/// benchmark contract: the document's keys, the same workloads, and the
/// same metrics with the same units and directions in each section, with
/// well-formed names and bounds. Returns every disagreement.
pub fn check_declaration(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let keys = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    if doc.keys() != keys {
        problems.push(format!("top-level keys {:?}, expected {keys:?}", doc.keys()));
    }
    let section =
        |name: &str| -> &[Json] { doc.get(name).and_then(Json::as_array).unwrap_or_default() };
    let declared: Vec<&str> =
        section("workloads").iter().filter_map(|w| w.get("name")?.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared != ours {
        problems.push(format!("workloads: declared {declared:?}, benchmark runs {ours:?}"));
    }
    for w in section("workloads") {
        let why = w.get("why").and_then(Json::as_str).unwrap_or_default();
        if w.keys() != ["name", "why"] || why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {:?}: needs exactly a name and a one-line why",
                w.get("name")
            ));
        }
    }
    let mut setup_bound = 0.0;
    let mut largest_bound = 0.0f64;
    for (name, registry, fields) in [
        ("end_to_end", END_TO_END, &["name", "unit", "better", "bound"][..]),
        ("per_layer", PER_LAYER, &["name", "unit", "better"][..]),
    ] {
        let entries = section(name);
        if entries.len() != registry.len() {
            problems.push(format!(
                "{name}: declares {} metrics, benchmark reports {}",
                entries.len(),
                registry.len()
            ));
        }
        for entry in entries {
            let metric = entry.get("name").and_then(Json::as_str).unwrap_or_default();
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or_default();
            if entry.keys() != fields || !valid_name(metric) || !valid_unit(unit) {
                problems.push(format!("{name}: malformed entry {metric:?}"));
            }
            if let Some(bound) = entry.get("bound").and_then(Json::as_f64) {
                if !(bound > 0.0 && bound <= 0.25) {
                    problems.push(format!("{name}: {metric} bound {bound} outside (0, 0.25]"));
                }
                largest_bound = largest_bound.max(bound);
                if metric == "setup_s" {
                    setup_bound = bound;
                }
            }
        }
        for m in registry {
            let Some(entry) =
                entries.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(m.name))
            else {
                problems.push(format!("{name}: {} is not declared", m.name));
                continue;
            };
            if entry.get("unit").and_then(Json::as_str) != Some(m.unit) {
                problems.push(format!("{name}: {} should have unit {}", m.name, m.unit));
            }
            if entry.get("better").and_then(Json::as_str) != Some(m.better.name()) {
                problems.push(format!("{name}: {} should be {}", m.name, m.better.name()));
            }
        }
    }
    if setup_bound < largest_bound {
        problems.push("setup_s must carry the largest bound".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declaration() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert_eq!(all.iter().filter(|o| o.name == m.name).count(), 1, "{} twice", m.name);
        }
    }

    #[test]
    fn every_per_layer_metric_names_what_it_moves() {
        for m in PER_LAYER {
            match m.moves.expect("per-layer metrics carry a moves entry") {
                Moves::Metrics(pairs) => {
                    assert!(!pairs.is_empty(), "{}", m.name);
                    for (target, workloads) in pairs {
                        assert!(
                            END_TO_END.iter().any(|e| e.name == *target),
                            "{} -> {target}",
                            m.name
                        );
                        assert!(!workloads.is_empty(), "{} -> {target}: no workload", m.name);
                    }
                }
                Moves::Nothing(reason) => assert!(!reason.is_empty(), "{}", m.name),
            }
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.moves.is_none() && m.on.len() == Workload::ALL.len()));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = declaration();
        assert_eq!(check_declaration(&doc), Vec::<String>::new());
        // every per-layer metric it declares is one this registry maps to
        // the end-to-end metric and workload it should move
        for entry in doc.get("per_layer").and_then(Json::as_array).unwrap() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            assert!(lookup(name).and_then(|m| m.moves).is_some(), "{name}");
        }
    }
}
