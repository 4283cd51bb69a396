//! End-to-end validation of the happens-before sanitizer:
//!
//! 1. every deliberately-racy mutant produces at least one diagnostic that
//!    names *two* racing events with PEs and virtual times plus the
//!    synchronization edge that would have prevented it;
//! 2. every correct application runs diagnostic-clean with the sanitizer
//!    on — the checker over-approximates happens-before, so a clean run is
//!    proof it does not invent races on the paper's own protocols;
//! 3. enabling the sanitizer is observationally free: stats, trace exports
//!    and final virtual time are byte-identical to a sanitizer-off run.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_on, MatmulCfg};
use ckd_apps::mutants::{run_mutant, MutantKind};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::pingpong::charm_pingpong_on;
use ckd_apps::{Platform, Variant};
use ckd_charm::{chrome_trace_json, Machine, TraceConfig};
use ckd_race::{RaceKind, SanitizerConfig};
use ckd_sim::Time;

const ABE2: Platform = Platform::IbAbe { cores_per_node: 2 };
const ABE4: Platform = Platform::IbAbe { cores_per_node: 4 };

fn sanitized(platform: Platform, pes: usize) -> Machine {
    platform
        .builder(pes)
        .with_sanitizer(SanitizerConfig::default())
        .build()
}

fn jacobi_cfg(variant: Variant) -> JacobiCfg {
    JacobiCfg {
        domain: [24, 24, 24],
        chares: [2, 2, 1],
        iters: 6,
        variant,
        real_compute: false,
    }
}

// ---- 1. the mutants are caught, with provenance -------------------------

#[test]
fn every_mutant_is_caught_with_full_provenance() {
    let expected = [
        (MutantKind::SkipReadyJacobi, RaceKind::OverwriteUnconsumed),
        (
            MutantKind::EarlyReadPingpong,
            RaceKind::ReadBeforeCompletion,
        ),
        (MutantKind::DoublePutMatmul, RaceKind::PutWhileInFlight),
    ];
    for (mutant, kind) in expected {
        let m = run_mutant(mutant);
        let diags = m.sanitizer().diagnostics();
        assert!(
            !diags.is_empty(),
            "{}: no diagnostics at all",
            mutant.label()
        );
        let d = diags
            .iter()
            .find(|d| d.kind == kind)
            .unwrap_or_else(|| panic!("{}: no {kind:?} in {diags:?}", mutant.label()));
        // provenance: both racing events, with PE and virtual time
        let first = d
            .first
            .as_ref()
            .unwrap_or_else(|| panic!("{}: diagnostic lacks the first event", mutant.label()));
        assert!(
            first.at > Time::ZERO,
            "{}: first event untimed",
            mutant.label()
        );
        assert!(
            d.second.at >= first.at,
            "{}: events out of order",
            mutant.label()
        );
        assert!(
            !d.missing_edge.is_empty(),
            "{}: no missing-edge explanation",
            mutant.label()
        );
        let text = d.to_string();
        assert!(text.contains("@pe"), "no PE in: {text}");
        assert!(text.contains("missing edge"), "no edge in: {text}");
    }
}

#[test]
fn mutant_report_is_human_readable() {
    let m = run_mutant(MutantKind::SkipReadyJacobi);
    let report = m.sanitizer().report();
    assert!(report.contains("overwrite-unconsumed"), "report: {report}");
    assert!(
        report.contains("t="),
        "report lacks virtual times: {report}"
    );
}

// ---- 2. correct apps are clean ------------------------------------------

#[test]
fn correct_jacobi_is_clean_on_both_platforms() {
    for platform in [ABE4, Platform::Bgp] {
        let mut m = sanitized(platform, 4);
        run_jacobi_on(&mut m, jacobi_cfg(Variant::Ckd));
        assert!(
            m.sanitizer().is_clean(),
            "{}:\n{}",
            platform.label(),
            m.sanitizer().report()
        );
    }
}

#[test]
fn correct_pingpong_is_clean() {
    for variant in [Variant::Msg, Variant::Ckd] {
        let mut m = sanitized(ABE2, 8);
        let r = charm_pingpong_on(&mut m, variant, 10_000, 20);
        assert_eq!(r.iters, 20);
        assert!(
            m.sanitizer().is_clean(),
            "{variant:?}:\n{}",
            m.sanitizer().report()
        );
    }
}

#[test]
fn correct_msg_jacobi_is_clean() {
    // the msg variant issues no direct ops at all: vacuously clean, but it
    // exercises the pure message/reduction edge plumbing
    let mut m = sanitized(ABE4, 4);
    run_jacobi_on(&mut m, jacobi_cfg(Variant::Msg));
    assert!(m.sanitizer().is_clean(), "{}", m.sanitizer().report());
}

#[test]
fn correct_matmul_is_clean() {
    let mut m = sanitized(ABE4, 8);
    run_matmul_on(
        &mut m,
        MatmulCfg {
            n: 64,
            grid: 2,
            iters: 3,
            variant: Variant::Ckd,
            real_compute: false,
        },
    );
    assert!(m.sanitizer().is_clean(), "{}", m.sanitizer().report());
}

#[test]
fn correct_openatom_is_clean_including_ready_split() {
    for ready_split in [false, true] {
        let mut m = sanitized(ABE2, 4);
        run_openatom_on(
            &mut m,
            OpenAtomCfg {
                nstates: 16,
                nplanes: 4,
                grain: 4,
                pts: 32,
                steps: 3,
                variant: Variant::Ckd,
                pc_only: false,
                ready_split,
            },
        );
        assert!(
            m.sanitizer().is_clean(),
            "ready_split={ready_split}:\n{}",
            m.sanitizer().report()
        );
    }
}

// ---- 3. the sanitizer is observationally free ---------------------------

#[test]
fn sanitizer_does_not_perturb_the_simulation() {
    let run = |sanitize: bool| -> (Machine, Time) {
        let mut b = ABE4.builder(4).with_tracing(TraceConfig::default());
        if sanitize {
            b = b.with_sanitizer(SanitizerConfig::default());
        }
        let mut m = b.build();
        let r = run_jacobi_on(&mut m, jacobi_cfg(Variant::Ckd));
        (m, r.total)
    };
    let (off, t_off) = run(false);
    let (on, t_on) = run(true);
    assert!(on.sanitizer().is_clean(), "{}", on.sanitizer().report());

    assert_eq!(t_off, t_on, "final virtual time must not move");
    assert_eq!(off.stats(), on.stats(), "aggregate stats must not move");
    assert_eq!(
        chrome_trace_json(off.tracer()).unwrap(),
        chrome_trace_json(on.tracer()).unwrap(),
        "trace export must be byte-identical"
    );
    assert_eq!(
        off.trace_summary().unwrap(),
        on.trace_summary().unwrap(),
        "summary export must be byte-identical"
    );
}
