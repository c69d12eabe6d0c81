#!/usr/bin/env bash
# Local CI gate: build, tests, conformance, formatting, lints, rustdoc.
# Run before every push.
#
#   ./ci.sh            full gate (includes the quick conformance matrix
#                      and the repository benchmark's self-tests)
#   ./ci.sh soak [N]   extended differential fuzzing: N fresh seeds
#                      (default 20000) through every engine×oracle pair
#   ./ci.sh bench      timing benches: bench_envelope + bench_tiles,
#                      appending dated entries under
#                      target/bench-results/BENCH_*.json (the bench
#                      binaries' default; `--out results` records a run in
#                      the committed results/ history instead), then a
#                      smoke check that the appended JSON parses with the
#                      expected keys
#   ./ci.sh obs        observability gate: instrumented sweep + serve
#                      trace replay through the CLI export flags, JSON
#                      well-formedness smoke, the bench_obs
#                      instrumented-vs-disabled overhead assertion, and
#                      the kdv-obs unit tests run 20 times
#   ./ci.sh obs-live   live-observability gate: bench_flight (flight-
#                      recorder ring overhead <= 1.1x with bitwise
#                      responses, injected deadline-shed and SLO-breach
#                      incident dumps, prometheus/snapshot agreement),
#                      the trigger-injection tests, the prometheus
#                      golden-format tests, and a CLI serve replay
#                      through --slo-p99-ms/--incident-dir/--prom-out/
#                      --top
#   ./ci.sh serve-load concurrent serving gate: bench_serve (multi-
#                      session replay, bitwise sequential==concurrent,
#                      zero duplicate tile computes, tiles computed ==
#                      distinct tiles, p99 cap, explicit load-shed under
#                      saturation), a v2 trace replay and a live feed
#                      replay through the CLI front end (zero duplicate
#                      tile computes in both), and the serve hammer tests
#                      (the serve_frontend overlap hammer and the
#                      tile_flight_hammer column-range hammer)
#   ./ci.sh coreset    approximate-overview gate: bench_coreset at
#                      n=10^6 (sup-error <= advertised eps, deep zoom
#                      bitwise vs the exact server, >=5x cold overview
#                      speedup, appended to
#                      target/bench-results/BENCH_coreset.json),
#                      the kdv-coreset property suite, the tier-boundary
#                      regression + hammer tests, and the quick
#                      conformance matrix (four coreset pairs included)
#   ./ci.sh stream     streaming ingestion gate: bench_stream (pan trace
#                      under a live append feed, every patched response
#                      bitwise-equal to the cold recompute arm, zero
#                      duplicate tile computes, >=5x patch-vs-recompute
#                      speedup, appended to
#                      target/bench-results/BENCH_stream.json),
#                      the kdv-stream unit + property suites, the live
#                      server tests incl. the 8-thread hammer, a live
#                      feed replay through the CLI, and the quick
#                      conformance matrix (three streaming pairs
#                      included)
#
# Every bench_* gate above appends its dated entry under
# target/bench-results/ (the kdv-bench default), so running a gate leaves
# the committed results/BENCH_*.json history untouched. Each gate first
# copies that history into target/bench-results/ and afterwards runs the
# bench_results smoke tests there: they check the fresh entry, and the
# trajectory guard compares it with the last committed one.
set -euo pipefail
cd "$(dirname "$0")"

bench_out=target/bench-results

# Starts the gate's output directory from the committed history.
seed_bench_results() {
    mkdir -p "$bench_out"
    cp results/BENCH_*.json "$bench_out"/
}

# The bench_results smoke tests over the gate's output directory.
check_bench_results() {
    KDV_BENCH_RESULTS_DIR="$bench_out" cargo test -q --test bench_results
}

if [[ "${1:-}" == "soak" ]]; then
    n="${2:-20000}"
    echo "==> kdv-conformance --soak $n"
    exec cargo run --release -p kdv-conformance -- --soak "$n"
fi

if [[ "${1:-}" == "bench" ]]; then
    seed_bench_results
    echo "==> bench_envelope"
    cargo run --release -p kdv-bench --bin bench_envelope
    echo "==> bench_tiles"
    cargo run --release -p kdv-bench --bin bench_tiles
    echo "==> bench results smoke test"
    check_bench_results
    echo "==> BENCH OK"
    exit 0
fi

if [[ "${1:-}" == "obs" ]]; then
    seed_bench_results
    echo "==> bench_obs (bitwise + overhead-ratio assertions)"
    cargo run --release -p kdv-bench --bin bench_obs
    echo "==> instrumented sweep + serve replay through the CLI flags"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p kdv-cli -- generate --city seattle --scale 0.02 --out "$tmp/city.csv"
    cargo run --release -p kdv-cli -- render --input "$tmp/city.csv" --res 256x192 \
        --threads 4 --stats --out "$tmp/kdv.ppm" \
        --trace-out "$tmp/render_trace.json" --metrics-out "$tmp/render_metrics.json"
    printf '0 0 0 128 128\n1 10 10 128 128\n1 20 10 128 128\n0 0 0 128 128\n' > "$tmp/pan.txt"
    cargo run --release -p kdv-cli -- serve --input "$tmp/city.csv" --batch "$tmp/pan.txt" \
        --tile-size 64 --base-res 128x128 --max-zoom 2 --threads 2 --stats \
        --trace-out "$tmp/serve_trace.json" --metrics-out "$tmp/serve_metrics.json"
    for f in render_trace render_metrics serve_trace serve_metrics; do
        [[ -s "$tmp/$f.json" ]] || { echo "missing export $f.json" >&2; exit 1; }
    done
    echo "==> exported JSON well-formedness + schema smoke"
    cargo test -q --test obs_trace
    check_bench_results
    cargo test -q -p kdv-obs
    cargo test -q -p kdv-core --test obs_properties
    echo "==> kdv-obs unit tests, 20 runs (a span-log race fails here instead of flaking)"
    for _ in $(seq 20); do
        cargo test -q -p kdv-obs --lib
    done
    echo "==> OBS OK"
    exit 0
fi

if [[ "${1:-}" == "obs-live" ]]; then
    seed_bench_results
    echo "==> bench_flight (ring overhead, trigger injection, prometheus agreement)"
    cargo run --release -p kdv-bench --bin bench_flight
    echo "==> trigger-injection tests (incident dumps)"
    cargo test -q -p kdv-serve --test incidents
    echo "==> prometheus golden-format + parser tests"
    cargo test -q -p kdv-obs prometheus
    echo "==> CLI serve replay through the telemetry flags"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p kdv-cli -- generate --city seattle --scale 0.02 --out "$tmp/city.csv"
    printf '0 0 0 128 128\n1 10 10 128 128\n1 20 10 128 128\n0 0 0 128 128\n' > "$tmp/pan.txt"
    out="$(cargo run --release -p kdv-cli -- serve --input "$tmp/city.csv" --batch "$tmp/pan.txt" \
        --tile-size 64 --base-res 128x128 --max-zoom 2 --threads 2 \
        --slo-p99-ms 250 --incident-dir "$tmp/incidents" --prom-out "$tmp/prom.txt" --top)"
    echo "$out" | tail -4
    echo "$out" | grep -q "^\[top\] qps " \
        || { echo "missing [top] stats line" >&2; exit 1; }
    grep -q "^# TYPE kdv_" "$tmp/prom.txt" \
        || { echo "prometheus export missing or malformed" >&2; exit 1; }
    echo "==> bench results smoke test (incl. trajectory guard)"
    check_bench_results
    echo "==> OBS-LIVE OK"
    exit 0
fi

if [[ "${1:-}" == "coreset" ]]; then
    seed_bench_results
    echo "==> bench_coreset at n=10^6 (eps-certificate, deep-zoom-bitwise, >=5x speedup gates)"
    cargo run --release -p kdv-bench --bin bench_coreset -- --scale 0.5
    echo "==> coreset unit + property suites"
    cargo test -q -p kdv-coreset
    echo "==> tier boundary regression + hammer"
    cargo test -q -p kdv-serve --test tier_boundary
    echo "==> quick conformance matrix (includes the four coreset pairs)"
    cargo run --release -p kdv-conformance -- --quick
    echo "==> bench results smoke test"
    check_bench_results
    echo "==> CORESET OK"
    exit 0
fi

if [[ "${1:-}" == "stream" ]]; then
    seed_bench_results
    echo "==> bench_stream (bitwise patch-vs-recompute, zero-duplicate, >=5x speedup gates)"
    cargo run --release -p kdv-bench --bin bench_stream
    echo "==> kdv-stream unit + property suites"
    cargo test -q -p kdv-stream
    echo "==> live server tests (patch/rebuild equality, counters, 8-thread hammer)"
    cargo test -q -p kdv-serve
    echo "==> live feed replay through the CLI"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p kdv-cli -- generate --city seattle --scale 0.05 --out "$tmp/city.csv"
    out="$(cargo run --release -p kdv-cli -- serve --input "$tmp/city.csv" \
        --live traces/live_feed.trace --max-zoom 2 --cache-mb 128 --threads 2 --stats)"
    echo "$out" | tail -2
    echo "$out" | grep -Eq "bands: [1-9][0-9]* patched" \
        || { echo "live CLI replay never patched a band" >&2; exit 1; }
    echo "==> quick conformance matrix (includes the three streaming pairs)"
    cargo run --release -p kdv-conformance -- --quick
    echo "==> bench results smoke test"
    check_bench_results
    echo "==> STREAM OK"
    exit 0
fi

if [[ "${1:-}" == "serve-load" ]]; then
    seed_bench_results
    echo "==> bench_serve (bitwise, zero-duplicate-tile, p99 and load-shed assertions)"
    cargo run --release -p kdv-bench --bin bench_serve
    echo "==> v2 multi-session trace replay through the CLI front end"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p kdv-cli -- generate --city seattle --scale 0.05 --out "$tmp/city.csv"
    out="$(cargo run --release -p kdv-cli -- serve --input "$tmp/city.csv" \
        --batch traces/pan_sessions.trace --max-zoom 2 --cache-mb 128 \
        --workers 4 --queue-depth 64 --stats)"
    echo "$out" | tail -4
    echo "$out" | grep -q ", 0 duplicate compute(s)" \
        || { echo "duplicate tile computes in CLI replay" >&2; exit 1; }
    echo "$out" | grep -q ", 0 shed (0 queue-full, 0 deadline)" \
        || { echo "unexpected load shedding in unsaturated CLI replay" >&2; exit 1; }
    echo "==> live feed replay through the CLI front end"
    out="$(cargo run --release -p kdv-cli -- serve --input "$tmp/city.csv" \
        --live traces/live_feed.trace --max-zoom 2 --cache-mb 128 --threads 2 --stats)"
    echo "$out" | tail -3
    echo "$out" | grep -q ", 0 duplicate compute(s)" \
        || { echo "duplicate tile computes in live CLI replay" >&2; exit 1; }
    echo "==> serve hammers (serve_frontend, tile_flight_hammer) + front-end tests"
    cargo test -q -p kdv-serve --test serve_frontend --test tile_flight_hammer
    cargo test -q -p kdv-serve
    check_bench_results
    echo "==> SERVE-LOAD OK"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> kdv-conformance --quick"
cargo run --release -p kdv-conformance -- --quick

echo "==> perfbench self-tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> CI OK"
