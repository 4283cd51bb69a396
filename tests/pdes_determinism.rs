//! The PDES proof obligation: sharding a run over OS threads with
//! conservative lookahead (`MachineBuilder::with_shards`) must not change a
//! single byte of any export. The sharded engine keeps the serial queue's
//! `(time, seq)` total order — one global sequence counter, per-shard heaps
//! drained in safe-window rounds, late arrivals merged through a spill heap
//! — so trace JSON, text summaries, and `{:#?}` stats are required to be
//! *identical*, not merely equivalent, across shards ∈ {1, 2, 4, 8}, for
//! all four apps on both fabrics, against the committed golden corpus, and
//! at a 512-PE scale the serial engine can still cross-check.

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_on, MatmulCfg};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::pingpong::charm_pingpong_on;
use ckd_apps::{Platform, Variant};
use ckd_charm::{chrome_trace_json, FaultPlan, Machine, TraceConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// 8 PEs: 4 nodes on the IB cluster (2 cores each), 2 nodes on the BG/P
/// and Slingshot machines (4 cores each) — every fabric genuinely
/// multi-node, so shard maps are non-trivial and events really cross
/// shard boundaries.
const PES: usize = 8;

/// All three completion disciplines the machine models: sentinel polling
/// (IB), callbacks (BG/P), and bounded-CQ notified puts (Slingshot) —
/// the last one routes `ProgressTick`-free CQ drains through the PDES
/// engine's `Footprint::local` path.
fn fabrics() -> [Platform; 3] {
    [
        Platform::IbAbe { cores_per_node: 2 },
        Platform::Bgp,
        Platform::Slingshot,
    ]
}

type Runner = fn(&mut Machine);

/// All four paper apps, scaled to smoke size (CkDirect variants: the
/// one-sided path exercises sentinel polling, callbacks, and handle
/// shipping on top of the plain message path).
fn apps() -> [(&'static str, Runner); 4] {
    [
        ("pingpong", |m: &mut Machine| {
            charm_pingpong_on(m, Variant::Ckd, 4096, 10);
        }),
        ("jacobi3d", |m: &mut Machine| {
            run_jacobi_on(
                m,
                JacobiCfg {
                    domain: [16, 16, 16],
                    chares: [2, 2, 2],
                    iters: 3,
                    variant: Variant::Ckd,
                    real_compute: false,
                },
            );
        }),
        ("matmul3d", |m: &mut Machine| {
            run_matmul_on(
                m,
                MatmulCfg {
                    n: 32,
                    grid: 2,
                    iters: 2,
                    variant: Variant::Ckd,
                    real_compute: false,
                },
            );
        }),
        ("openatom", |m: &mut Machine| {
            run_openatom_on(
                m,
                OpenAtomCfg {
                    nstates: 4,
                    nplanes: 2,
                    grain: 2,
                    pts: 64,
                    steps: 2,
                    variant: Variant::Ckd,
                    pc_only: false,
                    ready_split: true,
                },
            );
        }),
    ]
}

fn traced(platform: Platform, shards: usize, run: Runner) -> Machine {
    let mut m = platform
        .builder(PES)
        .with_tracing(TraceConfig::default())
        .with_shards(shards)
        .build();
    run(&mut m);
    m
}

/// Everything a run exports, as bytes.
fn exports(m: &Machine) -> (String, String, String) {
    (
        chrome_trace_json(m.tracer()).unwrap(),
        m.trace_summary().unwrap(),
        format!("{:#?}\n", m.stats()),
    )
}

#[test]
fn all_apps_shard_byte_identically_on_both_fabrics() {
    for platform in fabrics() {
        for (name, run) in apps() {
            let serial = traced(platform, 1, run);
            assert!(
                serial.pdes_stats().is_none(),
                "shards=1 must compile down to the serial loop"
            );
            let want = exports(&serial);
            for shards in SHARD_COUNTS {
                if shards == 1 {
                    continue;
                }
                let m = traced(platform, shards, run);
                let got = exports(&m);
                let tag = format!("{name} on {platform:?} at shards={shards}");
                assert_eq!(want.0, got.0, "{tag}: trace JSON diverged");
                assert_eq!(want.1, got.1, "{tag}: text summary diverged");
                assert_eq!(want.2, got.2, "{tag}: stats diverged");
                assert_eq!(serial.now(), m.now(), "{tag}: final time diverged");
                assert_eq!(
                    serial.direct_counters(),
                    m.direct_counters(),
                    "{tag}: CkDirect counters diverged"
                );
                let s = m.pdes_stats().expect("sharded run has engine stats");
                assert_eq!(s.shards, shards, "{tag}");
                assert!(s.rounds > 0, "{tag}: engine never started a round");
                assert_eq!(
                    s.window_spills, 0,
                    "{tag}: traffic violated the safe window"
                );
            }
        }
    }
}

// ---- the committed golden corpus ---------------------------------------
//
// `tests/golden/` is the byte-level contract of the serial scheduler,
// committed before the Machine decomposition. A sharded run must reproduce
// those files too — through the fault plane included. (This config runs 4
// PEs on one node, so all PEs share a shard: the degenerate-but-legal end
// of the shard spectrum, with every other shard idle.)

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

fn golden_cfg() -> JacobiCfg {
    JacobiCfg {
        domain: [24, 24, 24],
        chares: [2, 2, 1],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: false,
    }
}

#[test]
fn sharded_runs_reproduce_the_committed_golden_corpus() {
    for shards in [2, 4, 8] {
        let mut ib = Platform::IbAbe { cores_per_node: 4 }
            .builder(4)
            .with_tracing(TraceConfig::default())
            .with_shards(shards)
            .build();
        run_jacobi_on(&mut ib, golden_cfg());
        assert_eq!(
            golden("jacobi_ib.trace.json"),
            chrome_trace_json(ib.tracer()).unwrap(),
            "IB golden trace, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_ib.summary.txt"),
            ib.trace_summary().unwrap(),
            "IB golden summary, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_ib.stats.txt"),
            format!("{:#?}\n", ib.stats()),
            "IB golden stats, shards={shards}"
        );

        let mut bgp = Platform::Bgp
            .builder(4)
            .with_tracing(TraceConfig::default())
            .with_shards(shards)
            .build();
        run_jacobi_on(&mut bgp, golden_cfg());
        assert_eq!(
            golden("jacobi_bgp.trace.json"),
            chrome_trace_json(bgp.tracer()).unwrap(),
            "BG/P golden trace, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_bgp.summary.txt"),
            bgp.trace_summary().unwrap(),
            "BG/P golden summary, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_bgp.stats.txt"),
            format!("{:#?}\n", bgp.stats()),
            "BG/P golden stats, shards={shards}"
        );

        let mut ss = Platform::Slingshot
            .builder(4)
            .with_tracing(TraceConfig::default())
            .with_shards(shards)
            .build();
        run_jacobi_on(&mut ss, golden_cfg());
        assert_eq!(
            golden("jacobi_slingshot.trace.json"),
            chrome_trace_json(ss.tracer()).unwrap(),
            "Slingshot golden trace, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_slingshot.summary.txt"),
            ss.trace_summary().unwrap(),
            "Slingshot golden summary, shards={shards}"
        );
        assert_eq!(
            golden("jacobi_slingshot.stats.txt"),
            format!("{:#?}\n", ss.stats()),
            "Slingshot golden stats, shards={shards}"
        );
    }
}

#[test]
fn sharded_faulty_run_reproduces_the_committed_golden_corpus() {
    let mut m = Platform::IbAbe { cores_per_node: 4 }
        .builder(4)
        .with_tracing(TraceConfig::default())
        .with_faults(FaultPlan::new(0x5EED).with_drop(0.12).with_corrupt(0.05))
        .with_shards(4)
        .build();
    run_jacobi_on(&mut m, golden_cfg());
    assert_eq!(
        golden("jacobi_ib_faulty.trace.json"),
        chrome_trace_json(m.tracer()).unwrap()
    );
    assert_eq!(
        golden("jacobi_ib_faulty.summary.txt"),
        m.trace_summary().unwrap()
    );
    assert_eq!(
        golden("jacobi_ib_faulty.stats.txt"),
        format!("{:#?}\n", m.stats())
    );
    assert_eq!(
        golden("jacobi_ib_faulty.rel.txt"),
        format!("{:#?}\n", m.stats().rel)
    );
}

// ---- scale: past the serial engine's comfort zone ----------------------

/// 512 PEs over 64 IB nodes — the scale the paper's Abe runs need and the
/// single-threaded loop was capping. The serial engine can still run it,
/// so the sharded run is cross-checked event-for-event via stats, result,
/// and final virtual time.
#[test]
fn jacobi_at_512_pes_matches_serial() {
    let cfg = JacobiCfg {
        domain: [32, 32, 32],
        chares: [8, 8, 8],
        iters: 2,
        variant: Variant::Ckd,
        real_compute: false,
    };
    let platform = Platform::IbAbe { cores_per_node: 8 };

    let mut serial = platform.builder(512).build();
    let r1 = run_jacobi_on(&mut serial, cfg);

    let mut sharded = platform.builder(512).with_shards(8).build();
    let r8 = run_jacobi_on(&mut sharded, cfg);

    assert_eq!(format!("{r1:?}"), format!("{r8:?}"), "results diverged");
    assert_eq!(serial.now(), sharded.now(), "final virtual time diverged");
    assert_eq!(
        format!("{:#?}", serial.stats()),
        format!("{:#?}", sharded.stats()),
        "stats diverged"
    );
    assert_eq!(serial.direct_counters(), sharded.direct_counters());

    let s = sharded.pdes_stats().unwrap();
    assert_eq!(s.shards, 8);
    assert!(s.rounds > 0, "no rounds at 512 PEs");
    assert!(s.cross_shard > 0, "halo exchange never crossed a shard");
    assert_eq!(s.window_spills, 0, "IB traffic violated the safe window");
}
