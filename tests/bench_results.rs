//! Smoke tests over the benchmark result files: every `bench_*` gate
//! appends a dated entry to a `BENCH_*.json` history, and a malformed
//! append (a bad suffix splice, a truncated run) must fail CI rather than
//! silently corrupt the history. The checks are [`kdv_obs::validate_json`]
//! (a recursive-descent well-formedness pass — no JSON dependency in the
//! budget) plus presence of the keys downstream tooling reads.
//!
//! The files are read from `$KDV_BENCH_RESULTS_DIR` when it is set,
//! relative to the repository root unless absolute, and from the
//! committed `results/` otherwise. `./ci.sh` copies `results/` into the
//! gates' output directory `target/bench-results/` before a gate and
//! points the variable there after it, so the checks see the entry the
//! gate just appended, on top of the committed history.

use std::path::{Path, PathBuf};

use kdv_obs::validate_json;

/// The directory of the result files (see the module docs).
fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    root.join(std::env::var_os("KDV_BENCH_RESULTS_DIR").unwrap_or_else(|| "results".into()))
}

/// Reads `<results dir>/<name>` and runs the well-formedness pass,
/// panicking with the offending file's full path (and the bytes around
/// the error) so a malformed append is traceable straight from the CI
/// log.
fn validated(name: &str) -> String {
    let path = results_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing (run ./ci.sh bench): {e}", path.display()));
    validate_json(&text).unwrap_or_else(|off| {
        panic!(
            "{} is not valid JSON near byte {off}: ...{:?}",
            path.display(),
            &text[off.saturating_sub(30)..(off + 30).min(text.len())]
        )
    });
    text
}

#[test]
fn bench_tiles_json_parses_with_expected_keys() {
    let text = validated("BENCH_tiles.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"n\"",
        "\"tile_size\"",
        "\"configs\"",
        "\"trace\"",
        "\"requests\"",
        "\"cold_s\"",
        "\"warm_s\"",
        "\"speedup\"",
        "\"hits\"",
        "\"misses\"",
        "\"evictions\"",
    ] {
        assert!(text.contains(key), "BENCH_tiles.json missing key {key}");
    }
    // the three committed trace configs
    for trace in ["\"trace\": \"pan\"", "\"trace\": \"zoom\"", "\"trace\": \"revisit\""] {
        assert!(text.contains(trace), "BENCH_tiles.json missing config {trace}");
    }
}

#[test]
fn bench_envelope_json_parses_with_expected_keys() {
    let text = validated("BENCH_envelope.json");
    for key in
        ["\"rows\"", "\"bandwidth\"", "\"extract_scan_s\"", "\"extract_banded_s\"", "\"mean_band\""]
    {
        assert!(text.contains(key), "BENCH_envelope.json missing key {key}");
    }
}

#[test]
fn bench_obs_json_parses_with_expected_keys() {
    let text = validated("BENCH_obs.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"n\"",
        "\"requests\"",
        "\"spans\"",
        "\"disabled_s\"",
        "\"instrumented_s\"",
        "\"ratio\"",
        "\"max_ratio\"",
    ] {
        assert!(text.contains(key), "BENCH_obs.json missing key {key}");
    }
}

#[test]
fn bench_flight_json_parses_with_expected_keys() {
    let text = validated("BENCH_flight.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"n\"",
        "\"requests\"",
        "\"ring_off_s\"",
        "\"ring_on_s\"",
        "\"overhead_ratio\"",
        "\"max_ratio\"",
        "\"bitwise\"",
        "\"shed_incidents\"",
        "\"slo_incidents\"",
        "\"prometheus_series\"",
    ] {
        assert!(text.contains(key), "BENCH_flight.json missing key {key}");
    }
    // the run itself asserts these, but the committed history must agree:
    // a non-bitwise recorder-on replay or a missed/duplicated incident
    // dump must never be recorded
    assert!(text.contains("\"bitwise\": true"), "BENCH_flight.json recorded a non-bitwise replay");
    assert!(
        text.contains("\"shed_incidents\": 1") && text.contains("\"slo_incidents\": 1"),
        "BENCH_flight.json recorded a missed or duplicated incident dump"
    );
}

/// Extracts every numeric value of `"key": <number>` in file order.
fn numeric_series(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Trajectory guard: `./ci.sh` bench gates append one dated entry per
/// run, and the gated headline ratio of the *latest* entry must not
/// regress by more than 25% against the entry before it — after a gate,
/// the fresh entry against the last committed one. A fresh file with
/// fewer than two entries passes trivially.
#[test]
fn bench_trajectories_do_not_regress() {
    const MAX_REGRESSION: f64 = 0.25;
    // (file, headline key, higher-is-better)
    for (file, key, higher) in [
        ("BENCH_stream.json", "speedup", true),
        ("BENCH_obs.json", "ratio", false),
        ("BENCH_flight.json", "overhead_ratio", false),
        ("BENCH_coreset.json", "speedup", true),
    ] {
        let text = validated(file);
        let series = numeric_series(&text, key);
        assert!(!series.is_empty(), "{file} has no {key} entries");
        if series.len() < 2 {
            continue;
        }
        let prior = series[series.len() - 2];
        let latest = series[series.len() - 1];
        assert!(prior > 0.0, "{file}: non-positive prior {key} {prior}");
        let regression = if higher { (prior - latest) / prior } else { (latest - prior) / prior };
        assert!(
            regression <= MAX_REGRESSION,
            "{file}: {key} regressed {:.0}% ({prior} -> {latest}); rerun the gate on a quiet \
             machine or investigate before committing",
            regression * 100.0
        );
    }
}

#[test]
fn bench_serve_json_parses_with_expected_keys() {
    let text = validated("BENCH_serve.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"sessions\"",
        "\"requests\"",
        "\"distinct_tiles\"",
        "\"sequential_s\"",
        "\"concurrent_s\"",
        "\"p50_ms\"",
        "\"p99_ms\"",
        "\"tiles_computed\"",
        "\"tiles_joined\"",
        "\"duplicate_computes\"",
        "\"saturation_shed\"",
    ] {
        assert!(text.contains(key), "BENCH_serve.json missing key {key}");
    }
    // the run itself asserts these, but the committed history must agree:
    // a nonzero duplicate count must never be recorded
    assert!(
        text.contains("\"duplicate_computes\": 0"),
        "BENCH_serve.json recorded duplicate tile computes"
    );
}

#[test]
fn bench_coreset_json_parses_with_expected_keys() {
    let text = validated("BENCH_coreset.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"n\"",
        "\"method\"",
        "\"target_rel\"",
        "\"epsilon\"",
        "\"coreset_size\"",
        "\"sup_error\"",
        "\"build_s\"",
        "\"exact_overview_s\"",
        "\"coreset_overview_s\"",
        "\"speedup\"",
        "\"deep_bitwise\"",
    ] {
        assert!(text.contains(key), "BENCH_coreset.json missing key {key}");
    }
    // the run itself asserts these, but the committed history must agree:
    // an approximation leaking into the exact tier must never be recorded
    assert!(
        text.contains("\"deep_bitwise\": true"),
        "BENCH_coreset.json recorded a non-bitwise deep zoom"
    );
}

#[test]
fn bench_stream_json_parses_with_expected_keys() {
    let text = validated("BENCH_stream.json");
    for key in [
        "\"runs\"",
        "\"date\"",
        "\"n\"",
        "\"generations\"",
        "\"batch\"",
        "\"requests\"",
        "\"patch_s\"",
        "\"recompute_s\"",
        "\"speedup\"",
        "\"patched_bands\"",
        "\"folded_batches\"",
        "\"duplicate_computes\"",
    ] {
        assert!(text.contains(key), "BENCH_stream.json missing key {key}");
    }
    // the run itself asserts these, but the committed history must agree:
    // a torn or duplicated streaming serve must never be recorded
    assert!(
        text.contains("\"duplicate_computes\": 0"),
        "BENCH_stream.json recorded duplicate band computes"
    );
}

#[test]
fn validator_accepts_and_rejects() {
    assert!(validate_json(r#"{"a": [1, 2.5e-3, "x\"y", true, null]}"#).is_ok());
    assert!(validate_json("{\n  \"runs\": []\n}\n").is_ok());
    assert!(validate_json(r#"{"a": }"#).is_err());
    assert!(validate_json(r#"{"a": 1} trailing"#).is_err());
    assert!(validate_json(r#"["unterminated]"#).is_err());
}
