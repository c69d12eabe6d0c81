//! What one run found: its metrics, the operations it attempted and any
//! correctness or reconciliation failure — rendered as the result line
//! and the provenance record.

use crate::json::quote;
use crate::spec::{self, Metric, Workload};

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Accumulates one run's measurements and verdicts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and reconciliation failures, one line each.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records metric `name` (must be registered in [`spec`]).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::lookup(name).is_some(), "unregistered metric {name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Records a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed or were wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metrics this run must report: every end-to-end metric
    /// untraced, every per-layer metric traced. A per-layer metric the
    /// workload does not exercise reads 0; a metric the workload should
    /// have measured but did not (or measured as non-finite) is a failure.
    pub fn finish(&mut self, args: &RunArgs) -> Vec<(&'static Metric, f64)> {
        let section = if args.trace { spec::PER_LAYER } else { spec::END_TO_END };
        let mut out = Vec::with_capacity(section.len());
        for m in section {
            let measured = m.on.contains(&args.workload);
            let value = match (self.value(m.name), measured) {
                (Some(v), true) if v.is_finite() => v,
                (_, false) => 0.0,
                (v, true) => {
                    self.failures.push(format!("{} was not measured (got {v:?})", m.name));
                    0.0
                }
            };
            out.push((m, value));
        }
        out
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
pub fn result_line(outcome: &Outcome, metrics: &[(&'static Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(m.name), quote(m.unit)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Where and on what a result was measured. Records whose machine
/// fingerprints differ must never be compared as a regression.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub cpu_model: String,
    pub nproc: usize,
    pub simd_mode: &'static str,
    pub simd_detected: bool,
    pub commit: String,
    pub source_digest: String,
}

impl Provenance {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpu_model,
            nproc: kdv_core::parallel::default_threads(),
            simd_mode: kdv_core::simd::mode().name(),
            simd_detected: kdv_core::simd::detected(),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            source_digest: source_digest(),
        }
    }

    /// The machine part: what must match for two records to be compared.
    pub fn fingerprint(&self) -> String {
        format!("{} | nproc={} | simd={}", self.cpu_model, self.nproc, self.simd_mode)
    }

    pub fn to_json(&self, args: &RunArgs, overhead: Option<f64>) -> String {
        format!(
            "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"cpu_model\": {}, \"nproc\": {}, \"simd_mode\": {}, \"simd_detected\": {}, \
             \"fingerprint\": {}, \"commit\": {}, \"source_digest\": {}, \"trace_overhead\": {}}}}}",
            quote(args.workload.name()),
            args.seed,
            args.seconds,
            args.trace,
            quote(&self.cpu_model),
            self.nproc,
            quote(self.simd_mode),
            self.simd_detected,
            quote(&self.fingerprint()),
            quote(&self.commit),
            quote(&self.source_digest),
            overhead.filter(|v| v.is_finite()).map_or("null".to_string(), |v| v.to_string()),
        )
    }
}

/// The checked-out commit, read from `.git` without running git (a
/// source checkout without history has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))?
                    .split(' ')
                    .next()
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of every Rust source and manifest under `crates/`, in
/// path order: identifies the code measured even without git history.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        for byte in file.to_string_lossy().bytes().chain(std::fs::read(file).unwrap_or_default()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_validates_and_has_exactly_the_contract_keys() {
        let args = RunArgs { workload: Workload::PanSessions, seed: 3, seconds: 1.0, trace: false };
        let mut outcome = Outcome::default();
        for m in spec::END_TO_END {
            outcome.metric(m.name, 1.25e-3);
        }
        outcome.ops(10, 0);
        let metrics = outcome.finish(&args);
        let line = result_line(&outcome, &metrics);
        assert_eq!(kdv_obs::validate_json(&line), Ok(()));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        let names = doc.get("metrics").unwrap().keys();
        assert_eq!(names, spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for m in spec::END_TO_END {
            let entry = doc.get("metrics").unwrap().get(m.name).unwrap();
            assert_eq!(entry.keys(), ["value", "unit"]);
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        }
        assert!(outcome.correct());
    }

    #[test]
    fn missing_measured_metric_fails_but_unexercised_layer_reads_zero() {
        let args = RunArgs { workload: Workload::PaperRender, seed: 3, seconds: 1.0, trace: true };
        let mut outcome = Outcome::default();
        outcome.ops(1, 0);
        let metrics = outcome.finish(&args);
        let get = |n: &str| metrics.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert_eq!(get("serve.cache.hit_ratio"), 0.0);
        assert!(outcome.failures.iter().any(|f| f.starts_with("core.row_sweep_s")));
        assert!(!outcome.correct());
        let provenance = Provenance::collect().to_json(&args, Some(1.01));
        assert_eq!(kdv_obs::validate_json(&provenance), Ok(()));
    }
}
