//! The crate-level caller rule: a workspace crate stays only if the CLI,
//! the tile server or the repository benchmark reaches it.
//!
//! Every package under `crates/` must be reachable through `[dependencies]`
//! edges from `kdv-cli`, `kdv-serve` or `perfbench/Cargo.toml`. Tests and
//! examples are not callers. The manifests are read with plain line
//! scanning, so the check needs no TOML dependency.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The roots whose `[dependencies]` closure must cover the workspace.
const ROOTS: [&str; 3] = ["kdv-cli", "kdv-serve", "perfbench"];

/// Harness crates that call the library but are not called by it.
const EXEMPT: [(&str, &str); 2] = [
    ("kdv-bench", "paper-figure and gate binaries over the engines, run by hand or ./ci.sh"),
    ("kdv-conformance", "the bitwise conformance matrix that ./ci.sh runs over every engine"),
];

/// The `[package]` name and the `[dependencies]` keys of one manifest.
fn scan_manifest(text: &str) -> (String, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
        match section {
            "[package]" if key == "name" => {
                name = line.split('"').nth(1).map(str::to_string);
            }
            "[dependencies]" => deps.push(key.to_string()),
            _ => {}
        }
    }
    (name.expect("manifest has a [package] name"), deps)
}

/// Every package under `crates/` with its dependencies, plus `perfbench`.
fn workspace_graph() -> BTreeMap<String, Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("perfbench/Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests.iter().map(|path| scan_manifest(&std::fs::read_to_string(path).unwrap())).collect()
}

#[test]
fn manifest_scan_reads_the_package_name_and_dependency_keys() {
    let text = "[package]\nname = \"kdv-x\"\nversion.workspace = true\n\n\
                [dependencies]\n# a comment\nkdv-core.workspace = true\n\
                kdv-obs = { path = \"../obs\" }\n\n[dev-dependencies]\nkdv-data.workspace = true\n\
                [[bin]]\nname = \"x\"\n";
    let (name, deps) = scan_manifest(text);
    assert_eq!(name, "kdv-x");
    assert_eq!(deps, ["kdv-core", "kdv-obs"]);
}

#[test]
fn every_workspace_crate_is_reached_by_the_cli_the_server_or_the_benchmark() {
    let graph = workspace_graph();
    for (exempt, reason) in EXEMPT {
        assert!(graph.contains_key(exempt), "exempt crate {exempt} ({reason}) no longer exists");
    }
    let mut reached = BTreeSet::new();
    let mut stack: Vec<&str> = ROOTS.to_vec();
    while let Some(name) = stack.pop() {
        if !reached.insert(name) {
            continue;
        }
        let deps = graph.get(name).unwrap_or_else(|| panic!("no manifest for {name}"));
        stack.extend(deps.iter().map(String::as_str).filter(|d| graph.contains_key(*d)));
    }
    let orphans: Vec<&str> = graph
        .keys()
        .map(String::as_str)
        .filter(|name| !reached.contains(name))
        .filter(|name| !EXEMPT.iter().any(|(exempt, _)| exempt == name))
        .collect();
    assert!(
        orphans.is_empty(),
        "no [dependencies] path from {ROOTS:?} reaches {orphans:?}; \
         delete the crate or give it a caller"
    );
}
