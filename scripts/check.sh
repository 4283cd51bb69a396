#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
#
# The development environment has no network access, so every cargo call
# runs with --offline; the workspace is std-only (plus the vendored
# crates/bytes) and needs nothing from a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Scratch hygiene: no untracked top-level directories (stray examples_tmp/,
# scratch/, … must either be committed or cleaned up before the gate).
echo "==> no untracked top-level scratch directories"
stray=$(git status --porcelain --untracked-files=normal \
    | awk '$1 == "??" && $2 ~ /^[^\/]+\/$/ {print $2}')
if [ -n "$stray" ]; then
    echo "error: untracked top-level directories present:" >&2
    echo "$stray" >&2
    exit 1
fi

# Informational, gates nothing: the non-test line count a "net negative"
# claim is measured with.
echo "==> non-test source lines under crates/*/src: $(scripts/sloc.sh)"

run cargo build --release --offline --workspace
run cargo test --offline --workspace -q

# The Machine decomposition must hold: no runtime source file regrows into
# a monolith.
echo "==> charm source files stay under 700 lines"
oversize=$(find crates/charm/src -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 700 {print $2 " (" $1 " lines)"}')
if [ -n "$oversize" ]; then
    echo "error: crates/charm/src files exceed 700 lines:" >&2
    echo "$oversize" >&2
    exit 1
fi

# Public docs must build clean (broken intra-doc links, bad code fences).
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" run cargo doc --offline --no-deps --workspace -q

if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lints"
fi

# Racy-mutant suite: every deliberately-broken app must be *caught* by the
# happens-before sanitizer, and the correct apps must stay clean.
run cargo test --release --offline -q -p ckd-apps mutants
run cargo test --release --offline -q --test sanitizer_races

# Chaos suite: every app must survive seeded drop/corrupt/duplicate/delay
# schedules byte-identical to its fault-free run, sanitizer-clean, with
# retransmits visible only in the reliability stats.
run cargo test --release --offline -q --test fault_recovery
run cargo test --release --offline -q --test trace_determinism

# Cross-backend differential conformance: all four completion backends
# (sentinel polling, DCMF callbacks, notified puts, shared-mem flags)
# must deliver identical data/callbacks on the same apps, each with its
# own cost signature, and CQ backpressure must move no delivered byte.
run cargo test --release --offline -q --test backend_conformance

# Sweep worker pool: the 64-run acceptance grid on 4 workers must merge
# byte-identical to a serial pass and finish within 1.5x of its wall
# time; ckd-sweep checks both and writes nothing otherwise. (Every
# committed BENCH_*.json file is byte-compared in tier-1, by
# tests/bench_files.rs.)
run ./target/release/ckd-sweep sweep64 --workers 4 --out target/BENCH_sweep_fresh.json

# Benchmark lockfile: ckd-perf is built from its own manifest and lockfile
# without --locked, so a new edge between workspace crates would make Cargo
# silently rewrite crates/bench/src/bin/ckd-perf/Cargo.lock mid-benchmark.
# Resolving with --locked fails instead when the lockfile is stale.
echo "==> cargo metadata --locked (ckd-perf's Cargo.lock is current)"
cargo metadata --locked --offline \
    --manifest-path crates/bench/src/bin/ckd-perf/Cargo.toml \
    --format-version 1 >/dev/null

# Benchmark smoke: one short pass of all four ckd-perf workloads, with
# both metric sets. Every run is checked against
# crates/bench/src/bin/ckd-perf/expected/*.txt (the 64 faulty sweep64 runs
# included), so any byte drift in a run's result shows up as a non-zero
# "failed" count on the last line.
echo "==> ckd-perf --seconds 1 (expect \"failed\": 0 and a flat registry sweep)"
perf_out=$(./target/release/ckd-perf --seconds 1)
perf_last=$(echo "$perf_out" | tail -n 1)
case "$perf_last" in
    *'"failed": 0,'*) echo "ckd-perf: every run matches expected/*.txt" ;;
    *)
        echo "error: ckd-perf runs drifted from expected/*.txt:" >&2
        echo "$perf_last" | cut -c1-200 >&2
        exit 1
        ;;
esac
# Channel-storm flatness: with a fixed active window, a poll sweep's host
# cost is O(active), so growing the armed herd 100x may not grow it by
# more than 3x (plus 5 us of timer slack). An O(registered) sweep would
# show ~100x here.
sweep_ns() {
    echo "$perf_out" | awk -v k="core.registry.sweep_ns.$1" '$1 == "layer" && $3 == k { print $4 }'
}
small=$(sweep_ns armed1k)
large=$(sweep_ns armed100k)
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "error: ckd-perf printed no core.registry.sweep_ns ledger lines" >&2
    exit 1
fi
if ! awk -v s="$small" -v l="$large" 'BEGIN { exit !(l <= 3 * s + 5000) }'; then
    echo "error: registry sweep cost scales with the herd: armed100k $large ns vs armed1k $small ns" >&2
    exit 1
fi
echo "ckd-perf: registry sweep flat across a 100x herd (armed1k $small ns, armed100k $large ns)"

# Schedule-space model checker: the four paper apps must certify as
# order-independent (with the DPOR pruning ratio gated at >= 2x inside the
# binary), the emitted certificate must validate, and the
# schedule-dependent mutant — clean under the canonical schedule — must be
# caught with a replayable counterexample.
run ./target/release/ckd-check certify --budget 48 --out target/ckd-check-cert.json
run ./target/release/ckd-check validate target/ckd-check-cert.json
run ./target/release/ckd-check mutant --budget 16

# Static lifecycle check: the typestate pass over the application and
# example sources (double puts, reads outside callbacks, skipped re-arms,
# use after destroy, dropped put outcomes, swallowed direct errors, ...)
# must flag all three racy mutants and nothing outside mutants.rs. The
# mutants' deliberately discarded puts carry `ckd-check: allow(...)`
# markers; their races carry none.
run ./target/release/ckd-check lint --gate crates/apps/src examples

echo "All checks passed."
