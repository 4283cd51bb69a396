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

use ckd_apps::jacobi3d::{run_jacobi_grid_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_bench::{backends_grid, run_sweep, sweep_json, validate_sweep_json, RunRecord};
use ckd_charm::Backend;

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

/// CQ backpressure at machine level: with a completion queue one or two
/// records deep, landings overflow and the NIC re-attempts them after the
/// receiver's next drain. Backpressure only moves *when* data lands: the
/// grid, the residual, the put and callback counts and the number of
/// drained notifications all match the preset's 1024-deep queue, which
/// never overflows on this run.
#[test]
fn cq_backpressure_delays_landings_without_changing_results() {
    let cfg = JacobiCfg {
        domain: [16, 16, 8],
        chares: [4, 2, 2],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let run = |depth: Option<usize>| {
        let mut b = Platform::Slingshot.builder(8);
        if let Some(d) = depth {
            b = b.with_backend(Backend::notified(d));
        }
        let mut m = b.build();
        let (r, grid) = run_jacobi_grid_on(&mut m, cfg);
        let bits: Vec<u64> = grid.iter().map(|x| x.to_bits()).collect();
        let s = m.stats();
        let counts = (s.puts, m.callback_total(), s.cq_drains);
        (
            r.residual.to_bits(),
            bits,
            counts,
            m.direct_counters().cq_overflows,
        )
    };
    let (r0, g0, c0, o0) = run(None);
    assert_eq!(o0, 0, "the preset's CQ overflowed; pick a smaller run");
    for depth in [1, 2] {
        let (r, g, c, o) = run(Some(depth));
        assert!(o > 0, "depth {depth}: the CQ never overflowed");
        assert_eq!(r, r0, "depth {depth}: residual differs from the preset run");
        assert!(g == g0, "depth {depth}: grid differs from the preset run");
        assert_eq!(c, c0, "depth {depth}: (puts, callbacks, cq_drains)");
    }
}
