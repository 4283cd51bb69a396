//! Cross-backend differential conformance: the same application, run on
//! every put-completion backend the runtime models — Infiniband sentinel
//! polling, BG/P DCMF callbacks, Slingshot notified puts, and the
//! shared-memory flag backend — must deliver exactly the same data and
//! fire exactly the same completion callbacks. The backends may only
//! disagree about *when* things complete and *what the completion costs*:
//! polling pays sentinel checks, notified RMA pays CQ drains, callbacks
//! and flags pay neither.
//!
//! The suite drives the four apps through `ckd_bench::backends_grid()`
//! (the grid behind `BENCH_backends.json`), so what CI proves here is
//! exactly what the committed result file records.

use std::sync::OnceLock;

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_bench::{backends_grid, run_sweep, sweep_json, validate_sweep_json, RunRecord};
use ckd_charm::ProgressConfig;

/// Execute the 16-point backend grid once and share the records across
/// the whole suite (each test inspects a different invariant).
fn records() -> &'static [RunRecord] {
    static RECORDS: OnceLock<Vec<RunRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| run_sweep(&backends_grid(), 4))
}

/// The grid groups four backend points per app, in a fixed order.
fn by_app() -> Vec<&'static [RunRecord]> {
    records().chunks(4).collect()
}

#[test]
fn grid_exercises_all_four_backends() {
    for group in by_app() {
        let names: Vec<&str> = group.iter().map(|r| r.backend).collect();
        assert_eq!(
            names,
            [
                "ib-sentinel-poll",
                "dcmf-callback",
                "notified-put",
                "shared-mem"
            ],
            "each app must run once per completion backend"
        );
    }
}

#[test]
fn every_backend_delivers_identical_data() {
    for group in by_app() {
        let base = &group[0];
        let app = base.spec.app.label();
        for r in &group[1..] {
            assert_eq!(
                r.stats.puts, base.stats.puts,
                "{app}: {} issued a different number of puts than {}",
                r.backend, base.backend
            );
            assert_eq!(
                r.stats.put_bytes, base.stats.put_bytes,
                "{app}: {} delivered different bytes than {}",
                r.backend, base.backend
            );
            assert_eq!(
                r.callbacks, base.callbacks,
                "{app}: {} fired a different number of completion callbacks",
                r.backend
            );
            assert_eq!(
                r.stats.reductions, base.stats.reductions,
                "{app}: {} saw a different reduction history",
                r.backend
            );
        }
    }
}

#[test]
fn clean_runs_never_retry_or_degrade() {
    for r in records() {
        assert_eq!(r.lossy_puts, 0, "{}: clean run degraded a put", r.backend);
        assert_eq!(
            r.stats.rel.retries, 0,
            "{}: clean run retried a packet",
            r.backend
        );
    }
}

/// Each completion strategy has a distinctive cost signature — the core
/// claim of the backend abstraction. Sentinel polling is the only backend
/// that examines handles; notified puts are the only backend that drains
/// a completion queue; DCMF callbacks and shared-memory flags do neither.
#[test]
fn backends_have_their_cost_signatures() {
    for r in records() {
        let app = r.spec.app.label();
        match r.backend {
            "ib-sentinel-poll" => {
                assert!(r.poll_checks > 0, "{app}: polling backend never polled");
                assert_eq!(r.stats.cq_drains, 0, "{app}: polling backend drained a CQ");
            }
            "notified-put" => {
                assert!(
                    r.stats.cq_drains > 0,
                    "{app}: notified backend never drained"
                );
                assert_eq!(r.poll_checks, 0, "{app}: notified backend examined handles");
            }
            "dcmf-callback" | "shared-mem" => {
                assert_eq!(r.poll_checks, 0, "{app}: {} polled", r.backend);
                assert_eq!(r.stats.cq_drains, 0, "{app}: {} drained a CQ", r.backend);
            }
            other => panic!("unexpected backend {other:?} in the grid"),
        }
    }
}

/// Every notification that lands must eventually be drained: the CQ-drain
/// count of a completed notified-put run equals its completion-callback
/// count (each drained record delivers exactly one callback).
#[test]
fn notified_runs_drain_exactly_once_per_callback() {
    for r in records().iter().filter(|r| r.backend == "notified-put") {
        assert_eq!(
            r.stats.cq_drains,
            r.callbacks,
            "{}: drained notifications != delivered callbacks",
            r.spec.app.label()
        );
    }
}

#[test]
fn backend_grid_json_round_trips_the_schema() {
    let json = sweep_json("backends", records());
    validate_sweep_json(&json).unwrap();
    assert_eq!(json.matches("\"backend\": \"notified-put\"").count(), 4);
    assert_eq!(json.matches("\"platform\": \"slingshot\"").count(), 4);
}

/// The async progress engine only moves *when* CQ drains happen; the
/// application-visible outcome — numeric result, callback count, data
/// volume — is untouched. This is the conformance-suite view of the
/// transparency property `tests/proptest_invariants.rs` proves over
/// arbitrary interleavings.
#[test]
fn progress_engine_is_transparent_to_the_application() {
    let cfg = JacobiCfg {
        domain: [32, 32, 32],
        chares: [4, 2, 2],
        iters: 12,
        variant: Variant::Ckd,
        real_compute: false,
    };
    let run = |progress: bool| {
        let mut b = Platform::Slingshot.builder(8);
        if progress {
            b = b.with_progress(ProgressConfig::default());
        }
        let mut m = b.build();
        let r = run_jacobi_on(&mut m, cfg);
        (r, m.stats().clone(), m.callback_total())
    };
    let (r0, s0, cb0) = run(false);
    let (r1, s1, cb1) = run(true);
    assert_eq!(r0.iters, r1.iters);
    assert_eq!(r0.residual.to_bits(), r1.residual.to_bits());
    assert_eq!(r0.lossy_puts, r1.lossy_puts);
    assert_eq!(cb0, cb1, "progress engine changed the callback count");
    assert_eq!(s0.puts, s1.puts);
    assert_eq!(s0.put_bytes, s1.put_bytes);
    assert_eq!(s0.cq_drains, s1.cq_drains, "every notification drains once");
    assert_eq!(s0.progress_ticks, 0, "engine off must never tick");
    assert!(
        s1.progress_ticks > 0,
        "engine on never ticked — the cadence is inert"
    );
}
