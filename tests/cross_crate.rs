//! End-to-end integration tests exercising the whole stack through the
//! public API: the paper's qualitative claims must hold on the assembled
//! system, not just in per-crate units.

use ckd_apps::jacobi3d::{run_jacobi_grid, run_jacobi_on, serial_jacobi, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_verify, serial_product, MatmulCfg};
use ckd_apps::openatom::{run_openatom, OpenAtomCfg};
use ckd_apps::pingpong::{charm_pingpong, charm_pingpong_on};
use ckd_apps::{Platform, Variant};
use ckd_mpi::{flavor, pingpong_rtt, PingMode};
use ckd_net::presets;
use ckd_topo::Machine as Topo;

const ABE2: Platform = Platform::IbAbe { cores_per_node: 2 };
const ABE8: Platform = Platform::IbAbe { cores_per_node: 8 };

/// Section 3's headline: CkDirect beats default messaging *and* every MPI
/// flavor at every size on the Infiniband model.
#[test]
fn ckdirect_wins_table1_at_every_size() {
    let net = presets::ib_abe(Topo::ib_cluster(8, 2));
    for bytes in [100usize, 5_000, 40_000, 100_000, 500_000] {
        let ckd = charm_pingpong(ABE2, Variant::Ckd, bytes, 25).rtt;
        let msg = charm_pingpong(ABE2, Variant::Msg, bytes, 25).rtt;
        let vmi = pingpong_rtt(&net, flavor::mpich_vmi(), bytes, 25, PingMode::TwoSided);
        let mvapich = pingpong_rtt(&net, flavor::mvapich(), bytes, 25, PingMode::TwoSided);
        let put = pingpong_rtt(&net, flavor::mvapich(), bytes, 25, PingMode::OneSidedPscw);
        for (name, rtt) in [
            ("default", msg),
            ("MPICH-VMI", vmi),
            ("MVAPICH", mvapich),
            ("MVAPICH-Put", put),
        ] {
            assert!(ckd < rtt, "{bytes}B: CkDirect {ckd} !< {name} {rtt}");
        }
    }
}

/// Table 2's analogue on the BG/P model: CkDirect < MPI < default Charm++
/// at small sizes; CkDirect < both at all sizes.
#[test]
fn ckdirect_wins_table2_and_mpi_sits_between() {
    let net = presets::bgp_surveyor(Topo::bgp_partition(8));
    for bytes in [100usize, 10_000, 100_000] {
        let ckd = charm_pingpong(Platform::Bgp, Variant::Ckd, bytes, 25).rtt;
        let msg = charm_pingpong(Platform::Bgp, Variant::Msg, bytes, 25).rtt;
        let mpi = pingpong_rtt(&net, flavor::ibm_bgp(), bytes, 25, PingMode::TwoSided);
        assert!(ckd < mpi, "{bytes}B: ckd {ckd} !< mpi {mpi}");
        assert!(ckd < msg, "{bytes}B: ckd {ckd} !< msg {msg}");
    }
    // at 100 B the ordering CkDirect < MPI < Default holds (Table 2)
    let ckd = charm_pingpong(Platform::Bgp, Variant::Ckd, 100, 25).rtt;
    let msg = charm_pingpong(Platform::Bgp, Variant::Msg, 100, 25).rtt;
    let mpi = pingpong_rtt(&net, flavor::ibm_bgp(), 100, 25, PingMode::TwoSided);
    assert!(ckd < mpi && mpi < msg, "{ckd} < {mpi} < {msg} violated");
}

/// Both stencil transports, both platforms, one serial truth.
#[test]
fn stencil_correct_on_all_transport_platform_combinations() {
    let reference = serial_jacobi([16, 8, 8], 12);
    for platform in [ABE8, Platform::Bgp] {
        for variant in [Variant::Msg, Variant::Ckd] {
            let (_, grid) = run_jacobi_grid(
                platform,
                8,
                JacobiCfg {
                    domain: [16, 8, 8],
                    chares: [2, 2, 2],
                    iters: 12,
                    variant,
                    real_compute: true,
                },
            );
            assert_eq!(grid, reference, "{} / {:?}", platform.label(), variant);
        }
    }
}

/// Landings copy only what changed since the channel's last landing, so
/// the elision cannot switch off unnoticed. A pingpong never rewrites its
/// send windows: each of its two channels copies one full window, then
/// per landing only the sentinel word `ready` re-armed (Infiniband) or
/// nothing (Blue Gene/P, where `ready` writes nothing). A real-compute
/// stencil refills every halo before its put, so every landing copies the
/// whole window.
#[test]
fn landings_copy_only_what_changed() {
    const BYTES: u64 = 4096;
    const ITERS: u32 = 20;
    for (platform, pes, per_landing) in [
        (Platform::IbAbe { cores_per_node: 1 }, 2, 8),
        (Platform::Bgp, 4, 0),
    ] {
        let mut m = platform.machine(pes);
        charm_pingpong_on(&mut m, Variant::Ckd, BYTES as usize, ITERS);
        let c = m.direct_counters();
        assert_eq!(c.puts, 2 * u64::from(ITERS), "{}", platform.label());
        assert_eq!(
            c.landed_bytes,
            2 * BYTES + per_landing * (c.puts - 2),
            "{}",
            platform.label()
        );
    }
    let mut m = ABE8.machine(8);
    run_jacobi_on(
        &mut m,
        JacobiCfg {
            domain: [16, 8, 8],
            chares: [2, 2, 2],
            iters: 4,
            variant: Variant::Ckd,
            real_compute: true,
        },
    );
    assert!(m.stats().put_bytes > 0);
    assert_eq!(m.direct_counters().landed_bytes, m.stats().put_bytes);
}

/// Matmul correctness with an uneven machine (chares ≫ PEs and chares that
/// straddle node boundaries).
#[test]
fn matmul_correct_under_heavy_virtualization() {
    let want = serial_product(64);
    for pes in [4usize, 12] {
        let (_, c) = run_matmul_verify(
            ABE2,
            pes,
            MatmulCfg {
                n: 64,
                grid: 4, // 64 chares on 4 or 12 PEs
                iters: 3,
                variant: Variant::Ckd,
                real_compute: true,
            },
        );
        assert!(c.dist(&want) < 1e-9, "pes={pes}: {}", c.dist(&want));
    }
}

/// The simulation is fully deterministic end to end.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let j = run_jacobi_grid(
            ABE8,
            8,
            JacobiCfg {
                domain: [16, 16, 8],
                chares: [2, 2, 2],
                iters: 8,
                variant: Variant::Ckd,
                real_compute: true,
            },
        );
        let o = run_openatom(
            ABE2,
            8,
            OpenAtomCfg {
                nstates: 16,
                nplanes: 4,
                grain: 4,
                pts: 32,
                steps: 2,
                variant: Variant::Ckd,
                pc_only: false,
                ready_split: true,
            },
        );
        (j.0.total, j.0.residual, j.1, o.time_per_step, o.poll_checks)
    };
    assert_eq!(run(), run());
}

/// The BG/P backend (callback completion) and the IB backend (sentinel
/// polling) implement the same semantics: identical application results,
/// different mechanisms (poll counters differ).
#[test]
fn backends_agree_on_semantics_not_mechanism() {
    let mk = |platform| {
        run_openatom(
            platform,
            8,
            OpenAtomCfg {
                nstates: 16,
                nplanes: 4,
                grain: 4,
                pts: 32,
                steps: 3,
                variant: Variant::Ckd,
                pc_only: false,
                ready_split: false,
            },
        )
    };
    let ib = mk(ABE2);
    let bgp = mk(Platform::Bgp);
    assert_eq!(ib.steps, bgp.steps);
    assert!(ib.poll_checks > 0, "IB detects by polling");
    assert_eq!(bgp.poll_checks, 0, "BG/P delivers by callback");
}

/// Fig 2's claim at integration level: the CkDirect advantage on the
/// stencil grows from "negligible" to "substantial" as the same problem is
/// spread over more PEs.
#[test]
fn stencil_advantage_grows_with_scale() {
    let imp = |pes: usize, chares: [usize; 3]| {
        let mk = |variant| JacobiCfg {
            domain: [256, 256, 128],
            chares,
            iters: 4,
            variant,
            real_compute: false,
        };
        let msg = ckd_apps::jacobi3d::run_jacobi(ABE8, pes, mk(Variant::Msg)).time_per_iter;
        let ckd = ckd_apps::jacobi3d::run_jacobi(ABE8, pes, mk(Variant::Ckd)).time_per_iter;
        (msg.as_secs_f64() - ckd.as_secs_f64()) / msg.as_secs_f64()
    };
    let coarse = imp(8, [4, 4, 4]);
    let fine = imp(64, [8, 8, 8]);
    assert!(
        fine > coarse,
        "improvement must grow with PEs: {coarse} -> {fine}"
    );
}
