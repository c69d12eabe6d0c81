//! Guards the regression-replay machinery itself: a `.proptest-regressions`
//! file that was silently ignored (or silently stopped parsing) would stop
//! guarding without any test going red. Two checks:
//!
//! 1. Every committed `.proptest-regressions` file has a live sibling `.rs`
//!    test source that still declares `proptest!` properties — a renamed or
//!    deleted test would orphan its recorded seeds.
//! 2. End to end, in a subprocess: a property pointed (via
//!    `PROPTEST_REGRESSIONS_FILE`) at a corrupted regressions file must
//!    fail, and pointed at a well-formed one must pass. This proves the
//!    file is read, parsed, and replayed on every `cargo test` run.

use std::path::{Path, PathBuf};
use std::process::Command;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Trivially true probe property: the subprocess checks below re-run
    /// it with `PROPTEST_REGRESSIONS_FILE` injected, so its outcome is
    /// decided purely by the replay machinery.
    #[test]
    fn replay_guard_probe(v in 0u64..1_000) {
        prop_assert!(v < 1_000);
    }
}

fn workspace_root() -> PathBuf {
    // this test belongs to the root package, so the manifest dir IS the
    // workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn find_regression_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                find_regression_files(&path, out);
            }
        } else if name.ends_with(".proptest-regressions") {
            out.push(path);
        }
    }
}

#[test]
fn every_regressions_file_has_a_live_proptest_sibling() {
    let mut files = Vec::new();
    find_regression_files(&workspace_root(), &mut files);
    assert!(!files.is_empty(), "no .proptest-regressions files found — the walk itself is broken");
    for file in files {
        let sibling = file.with_extension("rs");
        assert!(
            sibling.exists(),
            "{} has no sibling test source {} — recorded seeds are orphaned",
            file.display(),
            sibling.display()
        );
        let source = std::fs::read_to_string(&sibling).unwrap();
        assert!(
            source.contains("proptest!"),
            "{} no longer declares proptest! properties, so {} is never replayed",
            sibling.display(),
            file.display()
        );
    }
}

/// Re-runs only the probe property in a child process with the regressions
/// file overridden to `contents`, returning whether the child passed.
///
/// The child's output is captured rather than inherited: the corrupted-file
/// probe fails on purpose, and its panic and `FAILED` line would otherwise
/// show up in the parent's test log as if a real test had failed.
fn probe_with_regressions(label: &str, contents: &str) -> bool {
    let dir = std::env::temp_dir().join("kdv-replay-guard");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{label}.proptest-regressions"));
    std::fs::write(&file, contents).unwrap();
    let output = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "replay_guard_probe"])
        .env("PROPTEST_REGRESSIONS_FILE", &file)
        .output()
        .expect("spawning the test binary");
    let _ = std::fs::remove_file(&file);
    output.status.success()
}

#[test]
fn corrupted_regressions_file_fails_the_replaying_test() {
    assert!(
        probe_with_regressions("valid", "# header\ncc 00000000000000aa # fine\n"),
        "a well-formed regressions file must replay cleanly"
    );
    assert!(
        !probe_with_regressions("corrupt", "# header\ncc XYZ-not-hex # corrupted\n"),
        "a corrupted regressions file must fail the test run, not be skipped"
    );
}
