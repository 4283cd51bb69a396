//! Determinism of the parallel sweep engine: the merged output of
//! [`run_sweep`] must be a pure function of the grid — byte-identical
//! JSON and identical per-run [`MachineStats`] for every worker count,
//! and identical to a hand-rolled serial loop that never touches the
//! engine at all. Workers race for grid indices, so any divergence here
//! means host scheduling leaked into virtual-time results.

use ckd_bench::{
    backends_grid, run_sweep, run_sweep_with, smoke_grid, sweep_json, validate_sweep_json,
    RunRecord,
};
use ckd_charm::{validate_snapshot_jsonl, ProfConfig};

/// The engine's own 1-worker pass, used as the comparison baseline.
fn baseline() -> Vec<RunRecord> {
    run_sweep(&smoke_grid(), 1)
}

#[test]
fn merged_output_is_byte_identical_across_worker_counts() {
    let grid = smoke_grid();
    let base = baseline();
    let base_json = sweep_json("smoke", &base);
    validate_sweep_json(&base_json).unwrap();

    for workers in [2usize, 4, 8] {
        let records = run_sweep(&grid, workers);
        assert_eq!(
            sweep_json("smoke", &records),
            base_json,
            "{workers}-worker sweep JSON diverged from 1 worker"
        );
        // deeper than the JSON: every machine counter, including the
        // per-protocol breakdowns the JSON doesn't serialize
        for (i, (a, b)) in base.iter().zip(&records).enumerate() {
            assert_eq!(a.spec, b.spec, "run {i}: grid order not preserved");
            assert_eq!(
                a.stats, b.stats,
                "run {i}: MachineStats diverged at {workers} workers"
            );
        }
        assert_eq!(base, records, "{workers}-worker records diverged");
    }
}

#[test]
fn engine_matches_a_hand_rolled_serial_loop() {
    let grid = smoke_grid();
    // no engine: just execute each spec in order on this thread
    let by_hand: Vec<RunRecord> = grid.iter().map(|spec| spec.execute()).collect();
    for workers in [1usize, 4] {
        let engine = run_sweep(&grid, workers);
        assert_eq!(
            by_hand, engine,
            "{workers}-worker engine output != hand-rolled serial loop"
        );
    }
    assert_eq!(
        sweep_json("smoke", &by_hand),
        sweep_json("smoke", &run_sweep(&grid, 2))
    );
}

/// The backend-comparison grid behind `BENCH_backends.json` is as
/// deterministic as the smoke grid: byte-identical JSON (per-run
/// `backend`/`cq_drains` fields included) for every worker count, with
/// the notified-put points genuinely draining CQs and the forced
/// shared-memory points genuinely overridden.
#[test]
fn backend_grid_is_byte_identical_across_worker_counts() {
    let grid = backends_grid();
    let base = run_sweep(&grid, 1);
    let base_json = sweep_json("backends", &base);
    validate_sweep_json(&base_json).unwrap();
    for workers in [2usize, 4] {
        let records = run_sweep(&grid, workers);
        assert_eq!(
            sweep_json("backends", &records),
            base_json,
            "{workers}-worker backend grid diverged"
        );
        assert_eq!(base, records, "{workers}-worker records diverged");
    }
    assert!(
        base.iter()
            .any(|r| r.backend == "notified-put" && r.stats.cq_drains > 0),
        "no notified-put point ever drained"
    );
    assert!(
        base.iter().any(|r| r.backend == "shared-mem"),
        "the shared-mem override never applied"
    );
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // more workers than grid points: the extras find the counter already
    // exhausted and exit without contributing
    let grid = &smoke_grid()[..3];
    let few = run_sweep(grid, 1);
    let many = run_sweep(grid, 16);
    assert_eq!(few, many);
}

#[test]
fn profiled_sweep_is_deterministic_across_worker_counts() {
    // The profiler mixes host wall-clock into its shards, but everything
    // derived from *virtual* time — snapshot streams, the queue-depth
    // histogram and the event count — must be identical for every worker
    // count.
    let grid = smoke_grid();
    let cfg = ProfConfig { snapshot_every: 16 };
    let base = run_sweep_with(&grid, 1, Some(cfg));
    for r in &base {
        let jsonl = r.snapshots.as_deref().expect("profiled run has snapshots");
        validate_snapshot_jsonl(jsonl).unwrap();
    }

    for workers in [2usize, 4, 8] {
        let records = run_sweep_with(&grid, workers, Some(cfg));
        // RunRecord equality covers the deterministic fields, snapshot
        // streams included (its PartialEq excludes the wall-clock shard).
        assert_eq!(base, records, "{workers}-worker profiled sweep diverged");
        for (i, (a, b)) in base.iter().zip(&records).enumerate() {
            let (pa, pb) = (a.prof.as_ref().unwrap(), b.prof.as_ref().unwrap());
            assert_eq!(
                pa.queue_depth, pb.queue_depth,
                "run {i}: queue-depth histogram diverged at {workers} workers"
            );
            assert_eq!(pa.events, pb.events, "run {i}: profiled event count");
        }
    }
}

#[test]
fn profiling_does_not_change_sweep_results() {
    // Zero-observable-cost: a profiled sweep must report exactly the
    // virtual-time results of a plain one — the profiler only watches.
    let grid = smoke_grid();
    let plain = run_sweep(&grid, 2);
    let profiled = run_sweep_with(&grid, 2, Some(ProfConfig { snapshot_every: 16 }));
    for (i, (a, b)) in plain.iter().zip(&profiled).enumerate() {
        assert_eq!(a.stats, b.stats, "run {i}: stats changed under profiling");
        assert_eq!(a.metric_ps, b.metric_ps, "run {i}: metric changed");
        assert_eq!(a.total_ps, b.total_ps, "run {i}: total time changed");
        assert_eq!(a.callbacks, b.callbacks, "run {i}: callbacks changed");
        assert_eq!(a.poll_checks, b.poll_checks, "run {i}: poll checks changed");
        assert!(a.snapshots.is_none(), "plain run grew a snapshot stream");
        assert!(b.snapshots.is_some(), "profiled run lost its snapshots");
    }
    // and the v2 JSON they serialize to is identical (snapshot streams and
    // shards ride outside the sweep JSON)
    assert_eq!(sweep_json("smoke", &plain), sweep_json("smoke", &profiled));
}

#[test]
fn faulty_grid_points_are_as_deterministic_as_clean_ones() {
    // the smoke grid interleaves clean and faulty points; re-running the
    // whole sweep must reproduce the fault histories exactly
    let grid = smoke_grid();
    let a = run_sweep(&grid, 4);
    let b = run_sweep(&grid, 4);
    assert_eq!(a, b, "same grid, same workers, different results");
    assert!(
        a.iter().any(|r| r.stats.rel.retries > 0),
        "no faulty point ever retried — the fault axis is inert"
    );
    assert!(
        a.iter().any(|r| r.spec.drop_permille == 0),
        "smoke grid lost its clean points"
    );
}
