//! Determinism of the tracing pipeline: the simulator is a deterministic
//! discrete-event machine, so two identical traced runs must produce
//! byte-identical exports and identical metric values. The exporters only
//! iterate ordered structures (`Vec`s, `BTreeMap`s) and format timestamps
//! with integer arithmetic, so any divergence here is a real bug.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_charm::{
    chrome_trace_json, validate_snapshot_jsonl, FaultPlan, Machine, ProfConfig, TraceConfig,
};

fn cfg() -> JacobiCfg {
    JacobiCfg {
        domain: [24, 24, 24],
        chares: [2, 2, 1],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: false,
    }
}

fn traced_run() -> Machine {
    let mut m = Platform::IbAbe { cores_per_node: 4 }
        .builder(4)
        .with_tracing(TraceConfig::default())
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

fn faulty_traced_run(plan: FaultPlan) -> Machine {
    let mut m = Platform::IbAbe { cores_per_node: 4 }
        .builder(4)
        .with_tracing(TraceConfig::default())
        .with_faults(plan)
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

#[test]
fn identical_runs_export_identical_bytes() {
    let a = traced_run();
    let b = traced_run();

    let json_a = chrome_trace_json(a.tracer()).unwrap();
    let json_b = chrome_trace_json(b.tracer()).unwrap();
    assert_eq!(json_a, json_b, "chrome trace JSON must be byte-identical");

    let sum_a = a.trace_summary().unwrap();
    let sum_b = b.trace_summary().unwrap();
    assert_eq!(sum_a, sum_b, "text summary must be byte-identical");

    // metric-by-metric equality, not just formatting
    let (ma, mb) = (a.tracer().metrics().unwrap(), b.tracer().metrics().unwrap());
    assert_eq!(ma, mb, "full metrics registries must be identical");
    assert_eq!(a.tracer().dropped_total(), b.tracer().dropped_total());
    assert_eq!(a.stats(), b.stats());
}

/// The fault plane is seeded from the machine's deterministic RNG, so a
/// *faulty* run is exactly as reproducible as a clean one: same plan seed,
/// byte-identical exports — injections, backoffs and retransmits included.
#[test]
fn identical_faulty_runs_export_identical_bytes() {
    let plan = || FaultPlan::new(0x5EED).with_drop(0.12).with_corrupt(0.05);
    let a = faulty_traced_run(plan());
    let b = faulty_traced_run(plan());

    assert_eq!(
        chrome_trace_json(a.tracer()).unwrap(),
        chrome_trace_json(b.tracer()).unwrap(),
        "faulty chrome trace JSON must be byte-identical"
    );
    let sum = a.trace_summary().unwrap();
    assert_eq!(
        sum,
        b.trace_summary().unwrap(),
        "faulty text summary must be byte-identical"
    );
    assert_eq!(a.fault_counts(), b.fault_counts());
    assert_eq!(a.stats().rel, b.stats().rel);
    assert_eq!(a.stats(), b.stats());
    // the run actually exercised the recovery machinery, and the summary
    // says so
    assert!(a.stats().rel.retries > 0, "plan never bit");
    assert!(
        sum.contains("-- reliability --"),
        "summary hides the faults"
    );
}

/// Zero-cost-off, proven at the byte level: an *inert* plan (reliability
/// layer armed, nothing ever injected) produces exports byte-identical to
/// a machine that never heard of fault injection — same virtual
/// timestamps, same records, same metrics, no reliability section.
#[test]
fn inert_plan_exports_match_a_fault_free_machine() {
    let plain = traced_run();
    let inert = faulty_traced_run(FaultPlan::new(7));

    assert_eq!(
        chrome_trace_json(plain.tracer()).unwrap(),
        chrome_trace_json(inert.tracer()).unwrap(),
        "an inert plan must not perturb a single timestamp"
    );
    assert_eq!(
        plain.trace_summary().unwrap(),
        inert.trace_summary().unwrap()
    );
    assert_eq!(
        plain.tracer().metrics().unwrap(),
        inert.tracer().metrics().unwrap()
    );
    assert_eq!(inert.fault_counts().unwrap().total(), 0);
    // app-visible aggregates agree; only the ack bookkeeping differs
    assert_eq!(plain.stats().puts, inert.stats().puts);
    assert_eq!(plain.stats().msgs_sent, inert.stats().msgs_sent);
    assert_eq!(inert.stats().rel.retries, 0);
}

// ---- self-profiler determinism ----------------------------------------

fn profiled_run() -> Machine {
    let mut m = Platform::IbAbe { cores_per_node: 4 }
        .builder(4)
        .with_tracing(TraceConfig::default())
        .with_profiling(ProfConfig { snapshot_every: 64 })
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

/// Everything the profiler derives from *virtual* time is as deterministic
/// as the machine itself: two profiled runs emit byte-identical snapshot
/// JSONL and identical queue-depth histograms. (Phase wall-clock totals
/// are host noise and deliberately excluded.)
#[test]
fn profiled_runs_emit_identical_snapshots() {
    let a = profiled_run();
    let b = profiled_run();

    let snaps_a = a.profiler().snapshots_jsonl().unwrap();
    let snaps_b = b.profiler().snapshots_jsonl().unwrap();
    assert_eq!(snaps_a, snaps_b, "snapshot JSONL must be byte-identical");
    let lines = validate_snapshot_jsonl(snaps_a).unwrap();
    assert!(lines > 0, "profiled jacobi emitted no snapshots");

    let (sa, sb) = (a.profiler().shard().unwrap(), b.profiler().shard().unwrap());
    assert_eq!(sa.queue_depth, sb.queue_depth, "queue-depth histogram");
    assert_eq!(sa.events, sb.events);
    assert_eq!(sa.events, a.stats().events, "profiler missed events");
}

/// The profiler is an observer: enabling it must not perturb a single
/// virtual timestamp, trace record, or counter relative to an unprofiled
/// machine. Byte-level proof over the same exports the golden corpus
/// protects.
#[test]
fn profiling_does_not_perturb_traced_exports() {
    let plain = traced_run();
    let profiled = profiled_run();

    assert_eq!(
        chrome_trace_json(plain.tracer()).unwrap(),
        chrome_trace_json(profiled.tracer()).unwrap(),
        "profiling changed the chrome trace"
    );
    assert_eq!(
        plain.trace_summary().unwrap(),
        profiled.trace_summary().unwrap(),
        "profiling changed the text summary"
    );
    assert_eq!(
        plain.tracer().metrics().unwrap(),
        profiled.tracer().metrics().unwrap()
    );
    assert_eq!(plain.stats(), profiled.stats(), "profiling changed stats");
    assert!(plain.profiler().shard().is_none(), "profiler on by default");
}

// ---- golden comparison across refactors --------------------------------
//
// The files under `tests/golden/` were exported by the runtime *before* the
// Machine decomposition (pluggable completion backends + the runtime-layer
// stack) and are committed to the repository. Matching them byte-for-byte
// proves the refactor preserved every virtual timestamp, every trace
// record, and every counter. Regenerate deliberately with
// `CKD_BLESS=1 cargo test --test trace_determinism golden` after a change
// that is *supposed* to alter the timeline.

fn golden_check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("CKD_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name}: {e}; bless with CKD_BLESS=1"));
    assert_eq!(
        expected, actual,
        "{name} diverged from the pre-refactor runtime"
    );
}

fn bgp_traced_run() -> Machine {
    let mut m = Platform::Bgp
        .builder(4)
        .with_tracing(TraceConfig::default())
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

#[test]
fn golden_ib_run_matches_pre_refactor_runtime() {
    let m = traced_run();
    golden_check(
        "jacobi_ib.trace.json",
        &chrome_trace_json(m.tracer()).unwrap(),
    );
    golden_check("jacobi_ib.summary.txt", &m.trace_summary().unwrap());
    golden_check("jacobi_ib.stats.txt", &format!("{:#?}\n", m.stats()));
}

#[test]
fn golden_bgp_run_matches_pre_refactor_runtime() {
    let m = bgp_traced_run();
    golden_check(
        "jacobi_bgp.trace.json",
        &chrome_trace_json(m.tracer()).unwrap(),
    );
    golden_check("jacobi_bgp.summary.txt", &m.trace_summary().unwrap());
    golden_check("jacobi_bgp.stats.txt", &format!("{:#?}\n", m.stats()));
}

fn slingshot_traced_run() -> Machine {
    let mut m = Platform::Slingshot
        .builder(4)
        .with_tracing(TraceConfig::default())
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

/// The notified-put timeline: landing deposits a CQ record, a later drain
/// delivers it. These goldens pin the whole Slingshot schedule — CQ-drain
/// batching cadence included — so a regression in admission, drain order,
/// or drain costing shows up as a byte diff.
#[test]
fn golden_slingshot_run_matches_committed_corpus() {
    let m = slingshot_traced_run();
    assert_eq!(m.backend().name(), "notified-put");
    assert!(m.stats().cq_drains > 0, "run never drained a notification");
    golden_check(
        "jacobi_slingshot.trace.json",
        &chrome_trace_json(m.tracer()).unwrap(),
    );
    golden_check("jacobi_slingshot.summary.txt", &m.trace_summary().unwrap());
    golden_check("jacobi_slingshot.stats.txt", &format!("{:#?}\n", m.stats()));
}

#[test]
fn golden_faulty_run_matches_pre_refactor_runtime() {
    let m = faulty_traced_run(FaultPlan::new(0x5EED).with_drop(0.12).with_corrupt(0.05));
    golden_check(
        "jacobi_ib_faulty.trace.json",
        &chrome_trace_json(m.tracer()).unwrap(),
    );
    golden_check("jacobi_ib_faulty.summary.txt", &m.trace_summary().unwrap());
    golden_check("jacobi_ib_faulty.stats.txt", &format!("{:#?}\n", m.stats()));
    golden_check(
        "jacobi_ib_faulty.rel.txt",
        &format!("{:#?}\n", m.stats().rel),
    );
}

#[test]
fn exports_are_wellformed() {
    let m = traced_run();
    let json = chrome_trace_json(m.tracer()).unwrap();
    // Structural sanity without a JSON parser: the export is a
    // `{"traceEvents": [...]}` object with balanced delimiters.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"thread_name\""), "one named track per PE");

    let summary = m.trace_summary().unwrap();
    assert!(summary.contains("transfers by protocol"));
    assert!(summary.contains("rdma-put"));
    assert!(summary.contains("issue→callback completions"));
}
