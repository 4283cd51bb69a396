//! One quantity, one value, in every view that shows it.
//!
//! Each counter has a single owner — the machine's `MachineStats`, the
//! tracer's metrics, or the profiler's host-time shard — and every report
//! is a rendering of that owner. This suite runs one faulty, traced and
//! profiled Jacobi on Infiniband and reads each quantity back out of every
//! view that prints it: the `{:#?}` stats dump, the trace text summary,
//! the last snapshot JSONL line, the `sweep_json` run line, and the
//! profile report. Any view that counted on its own would drift here.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_bench::{smoke_grid, sweep_json, AppCase, RunSpec};
use ckd_charm::{FaultPlan, Machine, ProfConfig, TraceConfig};

/// The faulty Jacobi point of the smoke grid (IB, 8 PEs, 5% drops).
fn spec() -> RunSpec {
    smoke_grid()
        .into_iter()
        .find(|s| matches!(s.app, AppCase::Jacobi { .. }) && s.drop_permille > 0)
        .expect("smoke grid has a faulty jacobi point")
}

/// The same run as `spec().execute_with(..)`, with tracing on as well.
fn traced_profiled_run(spec: &RunSpec) -> Machine {
    let AppCase::Jacobi { domain, chares } = spec.app else {
        unreachable!("spec() picks a jacobi point")
    };
    let drop = f64::from(spec.drop_permille) / 1000.0;
    let mut m = spec
        .platform
        .builder(spec.pes)
        .with_faults(FaultPlan::new(spec.seed).with_drop(drop))
        .with_tracing(TraceConfig::default())
        .with_profiling(ProfConfig { snapshot_every: 1 })
        .build();
    run_jacobi_on(
        &mut m,
        JacobiCfg {
            domain,
            chares,
            iters: spec.iters,
            variant: spec.variant,
            real_compute: false,
        },
    );
    m
}

/// The text following the first `anchor` in `text`.
fn after<'a>(text: &'a str, anchor: &str) -> &'a str {
    let i = text
        .find(anchor)
        .unwrap_or_else(|| panic!("view lacks {anchor:?}:\n{text}"));
    &text[i + anchor.len()..]
}

/// The unsigned integer right after the first `key` in `text`.
fn num(text: &str, key: &str) -> u64 {
    let digits: String = after(text, key)
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after {key:?}"))
}

/// `(count, bytes)` of one protocol row of the trace summary (0s when the
/// summary omits the row because the protocol was never used).
fn summary_row(summary: &str, label: &str) -> (u64, u64) {
    let table = after(summary, "-- transfers by protocol --\n");
    table
        .lines()
        .take_while(|l| !l.is_empty())
        .find(|l| l.split_whitespace().next() == Some(label))
        .map_or((0, 0), |l| {
            let cols: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .take(2)
                .map(|c| c.parse().unwrap())
                .collect();
            (cols[0], cols[1])
        })
}

#[test]
fn every_view_reports_the_same_value_for_each_quantity() {
    let spec = spec();
    let m = traced_profiled_run(&spec);
    let record = spec.execute_with(Some(ProfConfig { snapshot_every: 1 }));
    assert_eq!(
        &record.stats,
        m.stats(),
        "the sweep record must be the same run as the traced machine"
    );

    let dump = format!("{:#?}", m.stats());
    let summary = m.trace_summary().unwrap();
    let snaps = m.profiler().snapshots_jsonl().unwrap();
    let snap = snaps.lines().last().expect("snapshots were emitted");
    let json = sweep_json("agree", std::slice::from_ref(&record));
    let line = after(&json, "\"runs\": [");
    let profile = m.profiler().shard().unwrap().render();
    let metrics = m.tracer().metrics().unwrap();
    // top-level `MachineStats` fields sit at four spaces of indent
    let stat = |field: &str| num(&dump, &format!("\n    {field}: "));
    let json_num = |view: &str, key: &str| num(view, &format!("\"{key}\": "));

    let retries = num(after(&dump, "rel: RelStats {"), "retries: ");
    assert!(retries > 0, "the fault plan never bit");

    // events: stats dump, snapshot, sweep line, profile report
    let events = stat("events");
    assert_eq!(json_num(snap, "events"), events);
    assert_eq!(json_num(line, "events"), events);
    assert_eq!(num(after(&profile, "throughput: "), "events/s ("), events);

    // transfers by protocol: stats dump vs the summary's rows
    let mut total = (0, 0);
    for (field, label) in [
        ("eager", "eager"),
        ("rendezvous", "rendezvous"),
        ("rdma_put", "rdma-put"),
        ("dcmf", "dcmf"),
        ("control", "control"),
    ] {
        let section = after(&dump, &format!("{field}: ProtoCounters {{"));
        let counters = (num(section, "count: "), num(section, "bytes: "));
        assert_eq!(summary_row(&summary, label), counters, "{label} row");
        total = (total.0 + counters.0, total.1 + counters.1);
    }
    assert_eq!(summary_row(&summary, "total"), total, "total row");

    // two-sided messages: stats dump, snapshot, sweep line, summary rows
    let msgs_sent = stat("msgs_sent");
    let msg_bytes = stat("msg_bytes");
    let (eager, rndv) = (
        summary_row(&summary, "eager"),
        summary_row(&summary, "rendezvous"),
    );
    assert_eq!(eager.0 + rndv.0, msgs_sent);
    assert_eq!(eager.1 + rndv.1, msg_bytes);
    assert_eq!(json_num(snap, "msgs_sent"), msgs_sent);
    assert_eq!(json_num(line, "msgs_sent"), msgs_sent);
    assert_eq!(json_num(line, "msg_bytes"), msg_bytes);

    // puts: stats dump, snapshot, sweep line, the summary's rdma-put row
    let (puts, put_bytes) = (stat("puts"), stat("put_bytes"));
    assert_eq!(summary_row(&summary, "rdma-put"), (puts, put_bytes));
    for view in [snap, line] {
        assert_eq!(json_num(view, "puts"), puts);
        assert_eq!(json_num(view, "put_bytes"), put_bytes);
    }

    // reliability: stats dump, summary, snapshot, sweep line
    let drops = num(after(&dump, "rel: RelStats {"), "drops_injected: ");
    assert_eq!(num(&summary, "drops observed: "), drops);
    assert_eq!(num(&summary, "retransmits: "), retries);
    assert_eq!(json_num(snap, "retries"), retries);
    assert_eq!(json_num(line, "retries"), retries);

    // reductions: stats dump, summary, sweep line
    let reductions = stat("reductions");
    assert_eq!(num(&summary, "contribs / "), reductions);
    assert_eq!(json_num(line, "reductions"), reductions);

    // completion-side counters: sweep line vs the trace
    assert_eq!(json_num(line, "cq_drains"), stat("cq_drains"));
    assert_eq!(
        num(&summary, "issue→callback completions: "),
        json_num(line, "callbacks")
    );
    assert_eq!(metrics.poll_checked.sum(), json_num(line, "poll_checks"));
    assert_eq!(metrics.poll_checked.count(), num(&summary, "sweeps: "));

    // virtual end time and ring drops: snapshot vs sweep line and summary
    assert_eq!(json_num(snap, "t_ps"), json_num(line, "total_ps"));
    assert_eq!(
        json_num(snap, "ring_drops"),
        num(&summary, "records dropped: ")
    );
}
