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
# own cost signature, and the async-progress engine must be transparent.
run cargo test --release --offline -q --test backend_conformance

# Sweep engine: a tiny grid on 2 workers must merge byte-identical to the
# 1-worker pass, the committed trajectory files must parse against the
# one ckd-sweep schema (v4), and the full 64-run sweep must
# reproduce the committed virtual-time baseline within the host-tolerant
# wall and throughput budgets.
run ./target/release/ckd-sweep smoke --workers 2

# PDES smoke: a small traced Jacobi on the 2-shard conservative-lookahead
# engine must export byte-identical trace/summary/stats to the serial run
# (the one-command version of tests/pdes_determinism.rs).
run ./target/release/ckd-sweep pdes

# Backend-comparison smoke: the 16-point grid behind BENCH_backends.json
# (4 apps x 4 completion backends) must run on 2 workers and emit a valid
# v4 file; bench_gate.sh byte-compares it against the committed baseline.
run ./target/release/ckd-sweep backends --workers 2 \
    --out target/BENCH_backends_fresh.json

# Channel-storm smoke: 100k persistent channels registered on one PE with
# a 64-channel active window must complete, tear down every slab slot,
# stay byte-identical across the serial and 2-shard PDES engines, and —
# the point of the sharded poll rings — keep per-sweep host cost flat
# while the registered herd grows 100x. All asserted inside the binary.
run ./target/release/ckd-sweep channels --out target/BENCH_channels_fresh.json
run ./target/release/ckd-sweep validate \
    BENCH_table1.json BENCH_jacobi.json BENCH_matmul.json BENCH_sweep.json \
    BENCH_channels.json BENCH_backends.json
run scripts/bench_gate.sh

# Benchmark lockfile: ckd-perf is built from its own manifest and lockfile
# without --locked, so a new edge between workspace crates would make Cargo
# silently rewrite crates/bench/src/bin/ckd-perf/Cargo.lock mid-benchmark.
# Resolving with --locked fails instead when the lockfile is stale.
echo "==> cargo metadata --locked (ckd-perf's Cargo.lock is current)"
cargo metadata --locked --offline \
    --manifest-path crates/bench/src/bin/ckd-perf/Cargo.toml \
    --format-version 1 >/dev/null

# Benchmark smoke: one short untraced pass of all four ckd-perf workloads.
# Every run is checked against crates/bench/src/bin/ckd-perf/expected/*.txt
# (the 64 faulty sweep64 runs included), so any byte drift in a run's
# result shows up as a non-zero "failed" count on the last line.
echo "==> ckd-perf --seconds 1 --trace 0 (expect \"failed\": 0)"
perf_last=$(./target/release/ckd-perf --seconds 1 --trace 0 | tail -n 1)
case "$perf_last" in
    *'"failed": 0,'*) echo "ckd-perf: every run matches expected/*.txt" ;;
    *)
        echo "error: ckd-perf runs drifted from expected/*.txt:" >&2
        echo "$perf_last" | cut -c1-200 >&2
        exit 1
        ;;
esac

# Profiler smoke: the profiled smoke grid must emit structurally valid
# snapshot JSONL streams that are byte-identical across worker counts,
# then print the merged phase/queue-depth report.
run ./target/release/ckd-sweep profile --workers 2

# Schedule-space model checker: the four paper apps must certify as
# order-independent (with the DPOR pruning ratio gated at >= 2x inside the
# binary), the emitted certificate must validate, and the
# schedule-dependent mutant — clean under the canonical schedule — must be
# caught with a replayable counterexample.
run ./target/release/ckd-check certify --budget 48 --out target/ckd-check-cert.json
run ./target/release/ckd-check validate target/ckd-check-cert.json
# ...and again over the PDES safe window: exploring schedules within the
# sharded engine's round width (the IB fabric's 4550 ns minimum cross-node
# latency) must still find every interleaving result-equivalent, i.e. the
# independence certificates cover exactly the reorderings sharded rounds
# could ever expose.
run ./target/release/ckd-check certify --window-ns 4550 --budget 48 \
    --out target/ckd-check-pdes-cert.json
run ./target/release/ckd-check validate target/ckd-check-pdes-cert.json
run ./target/release/ckd-check mutant --budget 16

# Static lifecycle check: the typestate pass over the application and
# example sources (double puts, reads outside callbacks, skipped re-arms,
# use after destroy, dropped put outcomes, swallowed direct errors, ...)
# must flag all three racy mutants and nothing outside mutants.rs. The
# mutants' deliberately discarded puts carry `ckd-check: allow(...)`
# markers; their races carry none.
run ./target/release/ckd-check lint --gate crates/apps/src examples

echo "All checks passed."
