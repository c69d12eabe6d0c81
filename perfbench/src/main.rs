//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_render|pan_sessions> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Builds its inputs from `--seed`, measures
//! for `--seconds`, checks every output it can, and prints — as the last
//! line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload again with tracing
//! and reports the per-layer metrics. The line before it is the run's
//! provenance record; human-readable detail goes to standard error.
//! Exits non-zero on a wrong output, a failed reconciliation, or a
//! disagreement with `BENCHMARK.json`. See `perfbench/README.md`.

mod json;
mod layers;
mod live_feed;
mod pan_sessions;
mod paper_render;
mod report;
mod serving;
mod spec;
mod stats;
mod walk;

use report::{Outcome, Provenance, RunArgs};
use spec::Workload;

const USAGE: &str =
    "usage: perfbench --workload <paper_render|pan_sessions> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The declaration this run is recorded against.
fn read_declaration() -> Result<json::Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let declaration = match read_declaration() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let provenance = Provenance::collect();
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} on {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        provenance.fingerprint()
    );

    let mut outcome = Outcome::default();
    for problem in spec::check_declaration(&declaration) {
        outcome.failures.push(format!("BENCHMARK.json: {problem}"));
    }
    match args.workload {
        Workload::PaperRender => paper_render::run(&args, &mut outcome),
        Workload::PanSessions => pan_sessions::run(&args, &mut outcome),
    }
    outcome.metric("peak_rss_mb", stats::peak_rss_mib());

    let overhead = outcome.value("obs.trace_overhead");
    let metrics = outcome.finish(&args);
    for (m, v) in &metrics {
        let moves = m.moves.map(|mv| format!("  -> {}", mv.describe())).unwrap_or_default();
        eprintln!("  {:<34} {v:>14.6} {:<8}{moves}", m.name, m.unit);
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    let line = report::result_line(&outcome, &metrics);
    let record = provenance.to_json(&args, overhead);
    for doc in [&record, &line] {
        if let Err(at) = kdv_obs::validate_json(doc) {
            eprintln!("perfbench: produced invalid JSON at byte {at}: {doc}");
            std::process::exit(3);
        }
    }
    println!("{record}");
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation_and_rejects_bad_flags() {
        let a =
            parse_args(&args("--workload pan_sessions --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::PanSessions);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(
            parse_args(&args("--workload pan_sessions --seed 1 --seconds 0 --trace 0")).is_err()
        );
        assert!(
            parse_args(&args("--workload pan_sessions --seed 1 --seconds 1 --trace 2")).is_err()
        );
        assert!(parse_args(&args("--workload pan_sessions --seconds 1")).is_err());
    }
}
