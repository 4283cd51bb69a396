//! End-to-end checker gates, kept small enough for `cargo test -q`.

use ckd_check::cases::CheckCase;
use ckd_check::cert::{certificate_json, validate_certificate_json, CaseReport};
use ckd_check::typestate;
use ckd_sim::Time;

#[test]
fn schedule_dependent_mutant_is_caught_and_replays() {
    let case = CheckCase::SchedMutant;
    let ex = case.explore(Time::from_ns(2_000), 16);
    let cx = ex.counterexample.expect("mutant divergence found");
    // clean under every schedule — only the output diverges
    assert!(cx.canonical.clean && cx.divergent.clean);
    assert_ne!(cx.canonical.digest, cx.divergent.digest);
    // the prescription replays the divergent run exactly
    let (replayed, _) = case.run_once(Time::from_ns(2_000), &cx.prescription);
    assert_eq!(replayed.digest, cx.divergent.digest);
}

#[test]
fn pingpong_certifies_with_dpor_pruning() {
    let ex = CheckCase::Pingpong.explore(Time::ZERO, 16);
    assert!(ex.certified(), "{:?}", ex.counterexample);
    assert!(!ex.stats.budget_exhausted);
    assert!(
        ex.stats.ratio() >= 2,
        "naive={} explored={}",
        ex.stats.naive,
        ex.stats.explored
    );
}

#[test]
fn jacobi_certifies_with_real_arithmetic() {
    let ex = CheckCase::Jacobi.explore(Time::ZERO, 8);
    assert!(ex.certified(), "{:?}", ex.counterexample);
    assert!(ex.stats.ratio() >= 2);
}

#[test]
fn certificate_of_a_real_exploration_validates() {
    let ex = CheckCase::Pingpong.explore(Time::ZERO, 8);
    let doc = certificate_json(&[CaseReport {
        app: "pingpong".to_owned(),
        fabric: "ib_abe".to_owned(),
        pes: CheckCase::Pingpong.pes(),
        window_ps: 0,
        budget: 8,
        exploration: ex,
    }]);
    validate_certificate_json(&doc).unwrap();
    assert!(doc.contains("\"verdict\": \"certified\""));
}

#[test]
fn typestate_flags_exactly_the_racy_mutants_in_the_apps_tree() {
    let root = env!("CARGO_MANIFEST_DIR");
    let paths = [
        format!("{root}/../apps/src"),
        format!("{root}/../../examples"),
    ];
    let findings = typestate::analyze_paths(&paths).expect("scan apps and examples");
    typestate::typestate_gate(&findings).expect("gate holds");
}
