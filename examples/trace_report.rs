//! Trace a jacobi3d run on the Abe (Infiniband) preset and emit both
//! `ckd-trace` exports:
//!
//! * `target/jacobi3d.trace.json` — Chrome trace-event JSON; open it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see one
//!   timeline track per PE with message sends, put issues/landings,
//!   callback fires, poll sweeps, and busy spans.
//! * `target/jacobi3d.summary.txt` — plain-text per-protocol and
//!   per-channel breakdown.
//!
//! The summary's per-protocol counts and bytes are the machine's own
//! `MachineStats` counters; the tracer adds the latency histograms. The
//! example cross-checks that every transfer the machine counted left one
//! latency sample in the trace, and every delivered put one issue→callback
//! sample.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_charm::{chrome_trace_json, TraceConfig};
use ckd_trace::ProtoClass;

fn main() {
    let pes = 8;
    let mut m = Platform::IbAbe { cores_per_node: 8 }
        .builder(pes)
        .with_tracing(TraceConfig::default())
        .build();

    let cfg = JacobiCfg {
        domain: [48, 48, 48],
        chares: [4, 2, 2], // 2 chares per PE
        iters: 12,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let res = run_jacobi_on(&mut m, cfg);

    // --- the trace's samples cover the machine's own counters ------------
    let stats = m.stats();
    let metrics = m.tracer().metrics().expect("tracing was enabled");
    assert_eq!(stats.proto.rdma_put.count, stats.puts, "IB puts are RDMA");
    assert_eq!(stats.proto.two_sided().count, stats.msgs_sent);
    for (class, counters) in [
        (ProtoClass::Eager, stats.proto.eager),
        (ProtoClass::Rendezvous, stats.proto.rendezvous),
        (ProtoClass::RdmaPut, stats.proto.rdma_put),
        (ProtoClass::Control, stats.proto.control),
    ] {
        assert_eq!(
            metrics.proto_latency(class).count(),
            counters.count,
            "one {class:?} latency sample per counted transfer"
        );
    }
    let direct = m.direct_counters();
    assert_eq!(
        metrics.put_to_callback_ns.count(),
        direct.deliveries,
        "every delivered put closes one latency sample"
    );

    // --- emit both exports ----------------------------------------------
    let json = chrome_trace_json(m.tracer()).expect("enabled tracer exports");
    let summary = m.trace_summary().expect("enabled tracer exports");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/jacobi3d.trace.json", &json).expect("write trace json");
    std::fs::write("target/jacobi3d.summary.txt", &summary).expect("write summary");

    println!("{summary}");
    println!(
        "jacobi3d {}x{}x{} on {} PEs: {} iters, {} / iter",
        cfg.domain[0], cfg.domain[1], cfg.domain[2], pes, res.iters, res.time_per_iter
    );
    println!(
        "wrote target/jacobi3d.trace.json ({} bytes) — load it in Perfetto",
        json.len()
    );
    println!(
        "wrote target/jacobi3d.summary.txt ({} bytes)",
        summary.len()
    );
}
