//! Profile the simulator itself while it runs jacobi3d: host wall-clock
//! phase breakdown of the dispatch loop, the event-queue depth histogram,
//! and the streaming JSONL metric snapshots.
//!
//! The example then swaps the completion backend under the *same*
//! application — Infiniband sentinel polling vs DCMF callbacks vs
//! shared-memory flags — and prints the poll-batch histogram of each, the
//! shape `EXPERIMENTS.md` walks through: the polling backend's sweep-size
//! distribution against the two callback backends' empty ones. Poll batch
//! size is virtual-time data, so it comes from the tracer's metrics, not
//! the host-time profiler.
//!
//! The profiler's event count is cross-checked against the machine's own
//! counter before anything is printed.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_charm::backend::{DcmfCallback, IbSentinelPoll, SharedMem};
use ckd_charm::{validate_snapshot_jsonl, Backend, Machine, ProfConfig, TraceConfig};

fn cfg() -> JacobiCfg {
    JacobiCfg {
        domain: [48, 48, 48],
        chares: [4, 2, 2], // 2 chares per PE
        iters: 12,
        variant: Variant::Ckd,
        real_compute: true,
    }
}

fn profiled_run() -> Machine {
    let mut m = Platform::IbAbe { cores_per_node: 8 }
        .builder(8)
        .with_profiling(ProfConfig {
            snapshot_every: 256,
        })
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

fn traced_run_on(backend: Backend) -> Machine {
    let mut m = Platform::IbAbe { cores_per_node: 8 }
        .builder(8)
        .with_backend(backend)
        .with_tracing(TraceConfig::default())
        .build();
    run_jacobi_on(&mut m, cfg());
    m
}

fn main() {
    let m = profiled_run();
    let shard = m.profiler().shard().expect("profiling was enabled");

    // --- cross-check the profiler against the machine's counter ---------
    assert_eq!(
        shard.events,
        m.stats().events,
        "profiler missed dispatched events"
    );

    // --- phase table + histograms + snapshots -----------------------------
    print!("{}", shard.render());
    let snaps = m.profiler().snapshots_jsonl().expect("snapshots enabled");
    let lines = validate_snapshot_jsonl(snaps).expect("snapshot stream is valid");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/jacobi3d.profile.jsonl", snaps).expect("write snapshots");
    println!();
    println!("wrote target/jacobi3d.profile.jsonl ({lines} snapshots)");

    // --- same app, three completion backends ------------------------------
    println!();
    println!("poll batch size by completion backend (same jacobi3d run):");
    let machines = [
        ("ib-sentinel-poll", traced_run_on(IbSentinelPoll)),
        ("dcmf-callback", traced_run_on(DcmfCallback)),
        ("shared-mem", traced_run_on(SharedMem)),
    ];
    for (name, m) in &machines {
        let checked = &m.tracer().metrics().unwrap().poll_checked;
        println!();
        println!("--- {name} ---");
        if checked.count() == 0 {
            println!("  (no poll sweeps — completions are delivered, not discovered)");
        } else {
            print!("{}", checked.render("handles"));
        }
    }
}
