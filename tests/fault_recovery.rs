//! Chaos suite: deterministic fault injection against every application.
//!
//! Each test runs an app twice — once fault-free, once under a seeded
//! [`FaultPlan`] that drops, corrupts, duplicates and delays packets — and
//! demands the faulty run *converge to byte-identical application results*.
//! The reliability layer (acks, exponential backoff, retransmits, per-put
//! CRC, sequence-number replay filtering) is what makes that possible; the
//! happens-before sanitizer runs throughout to prove retransmission never
//! manufactures a lifecycle race.
//!
//! Everything is seed-deterministic: a failure reproduces from the printed
//! seed alone.

use ckd_apps::jacobi3d::{run_jacobi_grid_on, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_verify_on, MatmulCfg};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::pingpong::charm_pingpong_on;
use ckd_apps::{Platform, Variant};
use ckd_charm::{FaultPlan, Machine, MachineBuilder, RetryPolicy};
use ckd_race::SanitizerConfig;
use ckd_sim::Time;

const ABE4: Platform = Platform::IbAbe { cores_per_node: 4 };

/// Fixed seed matrix — `scripts/check.sh` runs the whole file, so every
/// seed here is exercised on every commit.
const SEEDS: [u64; 4] = [0xC0FFEE, 1, 42, 0xDEAD_BEEF];

/// The ISSUE's headline drop rates: moderate and brutal.
const DROP_RATES: [f64; 2] = [0.10, 0.20];

fn sanitized(pes: usize) -> MachineBuilder {
    ABE4.builder(pes).with_sanitizer(SanitizerConfig::default())
}

/// A mixed-fault plan: drops plus every non-loss fault class.
fn mixed_plan(seed: u64, drop: f64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(drop)
        .with_corrupt(0.05)
        .with_duplicate(0.05)
        .with_delay(0.05, Time::from_us(30))
}

fn assert_recovered(m: &Machine, label: &str) {
    assert!(
        m.sanitizer().is_clean(),
        "{label}: retransmission manufactured a race: {:?}",
        m.sanitizer().diagnostics()
    );
    let counts = m.fault_counts().expect("faults enabled");
    assert!(counts.total() > 0, "{label}: the plan never injected");
    let rel = m.stats().rel;
    assert!(
        rel.retries > 0,
        "{label}: drops were injected but nothing retransmitted: {counts:?}"
    );
    // every dropped or corrupted data packet must have been retransmitted
    assert!(
        rel.retries >= rel.drops_injected + rel.corrupts_injected,
        "{label}: {rel:?}"
    );
}

// ------------------------------------------------------------------ jacobi

#[test]
fn jacobi_converges_byte_identical_under_drops() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 8,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let (clean_res, clean_grid) = run_jacobi_grid_on(&mut ABE4.machine(8), cfg);
    for seed in SEEDS {
        for drop in DROP_RATES {
            let label = format!("jacobi seed={seed:#x} drop={drop}");
            let mut m = sanitized(8)
                .with_faults(FaultPlan::new(seed).with_drop(drop))
                .build();
            let (res, grid) = run_jacobi_grid_on(&mut m, cfg);
            // bit-for-bit: same residual, same every grid element
            assert_eq!(
                res.residual.to_bits(),
                clean_res.residual.to_bits(),
                "{label}"
            );
            assert_eq!(grid.len(), clean_grid.len(), "{label}");
            for (i, (a, b)) in grid.iter().zip(&clean_grid).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}: grid[{i}]");
            }
            assert_eq!(res.iters, clean_res.iters, "{label}");
            assert_recovered(&m, &label);
            assert!(
                res.lossy_puts > 0,
                "{label}: retries happened but no put reported Retried/Degraded"
            );
        }
    }
}

// ---------------------------------------------------------------- pingpong

#[test]
fn pingpong_completes_under_mixed_faults() {
    const BYTES: usize = 4096;
    const ITERS: u32 = 24;
    let clean = charm_pingpong_on(&mut ABE4.machine(8), Variant::Ckd, BYTES, ITERS);
    for seed in SEEDS {
        let label = format!("pingpong seed={seed:#x}");
        let mut m = sanitized(8).with_faults(mixed_plan(seed, 0.10)).build();
        let r = charm_pingpong_on(&mut m, Variant::Ckd, BYTES, ITERS);
        assert_eq!(r.iters, clean.iters, "{label}: lost an exchange");
        assert_recovered(&m, &label);
        // a faulty fabric can only be slower than a clean one
        assert!(r.rtt >= clean.rtt, "{label}");
    }
}

/// Regression: the receiver-side dedup table compacts retired seqnos below
/// each link's high-water mark, so a *long* faulty run retains O(links)
/// state — not one entry per message ever delivered.
#[test]
fn dedup_table_stays_o_links_over_a_long_faulty_pingpong() {
    const BYTES: usize = 1024;
    const ITERS: u32 = 400;
    let mut m = ABE4
        .builder(8)
        .with_faults(mixed_plan(0xC0FFEE, 0.10))
        .build();
    let r = charm_pingpong_on(&mut m, Variant::Ckd, BYTES, ITERS);
    assert_eq!(r.iters, ITERS);
    assert!(m.stats().rel.retries > 0, "plan never bit");
    let (links, retained) = m.rel_dedup_footprint().expect("faults enabled");
    assert!(links <= 8 * 8, "dedup table tracks {links} links");
    // thousands of messages crossed the wire; anything still retained is
    // only an unclosed reordering hole, bounded by in-flight packets
    assert!(
        retained <= 2 * links,
        "dedup table retains {retained} seqs over {links} links — compaction regressed"
    );
}

// ------------------------------------------------------------------ matmul

#[test]
fn matmul_product_byte_identical_under_drops() {
    let cfg = MatmulCfg {
        n: 16,
        grid: 2,
        iters: 2,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let (clean_res, clean_c) = run_matmul_verify_on(&mut ABE4.machine(8), cfg);
    for seed in SEEDS {
        let label = format!("matmul seed={seed:#x}");
        let mut m = sanitized(8).with_faults(mixed_plan(seed, 0.20)).build();
        let (res, c) = run_matmul_verify_on(&mut m, cfg);
        assert_eq!(c, clean_c, "{label}: product diverged");
        assert_eq!(res.iters, clean_res.iters, "{label}");
        assert_recovered(&m, &label);
    }
}

// ---------------------------------------------------------------- openatom

#[test]
fn openatom_completes_under_drops() {
    let cfg = OpenAtomCfg {
        nstates: 8,
        nplanes: 2,
        grain: 2,
        pts: 16,
        steps: 3,
        variant: Variant::Ckd,
        pc_only: false,
        ready_split: false,
    };
    let clean = run_openatom_on(&mut ABE4.machine(8), cfg);
    for seed in SEEDS {
        let label = format!("openatom seed={seed:#x}");
        let mut m = sanitized(8)
            .with_faults(FaultPlan::new(seed).with_drop(0.10))
            .build();
        let r = run_openatom_on(&mut m, cfg);
        assert_eq!(r.steps, clean.steps, "{label}: lost a step");
        // every logical put is still delivered exactly once
        let reg = m.direct_counters();
        assert_eq!(reg.deliveries, reg.puts, "{label}");
        assert_recovered(&m, &label);
    }
}

// ------------------------------------------------------------ notified put

/// The chaos matrix over the notified-RMA backend: Jacobi on the
/// Slingshot preset under the ISSUE's brutal 20 % mixed plan must
/// converge bit-identical to the fault-free run, stay sanitizer-clean,
/// and deliver every notification exactly once. Notifications ride the
/// same wire packets as the payload, so the reliability layer's seqno
/// dedup is what keeps a retransmitted put from enqueueing a second CQ
/// record.
#[test]
fn notified_jacobi_converges_byte_identical_under_chaos() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 8,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let mut clean_m = Platform::Slingshot.machine(8);
    assert_eq!(clean_m.backend().name(), "notified-put");
    let (clean_res, clean_grid) = run_jacobi_grid_on(&mut clean_m, cfg);
    for seed in SEEDS {
        let label = format!("notified jacobi seed={seed:#x}");
        let mut m = Platform::Slingshot
            .builder(8)
            .with_sanitizer(SanitizerConfig::default())
            .with_faults(mixed_plan(seed, 0.20))
            .build();
        let (res, grid) = run_jacobi_grid_on(&mut m, cfg);
        assert_eq!(
            res.residual.to_bits(),
            clean_res.residual.to_bits(),
            "{label}"
        );
        for (i, (a, b)) in grid.iter().zip(&clean_grid).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: grid[{i}]");
        }
        assert_eq!(res.iters, clean_res.iters, "{label}");
        assert_recovered(&m, &label);
        // exactly-once notification delivery under drops and duplicates
        let reg = m.direct_counters();
        assert_eq!(reg.deliveries, reg.puts, "{label}: lost or doubled a put");
        assert_eq!(
            reg.notifications, reg.deliveries,
            "{label}: notifications != deliveries"
        );
        assert_eq!(
            reg.cq_drains, reg.notifications,
            "{label}: a notification was never drained (or drained twice)"
        );
        assert_eq!(reg.poll_checks, 0, "{label}: notified backend polled");
    }
}

/// The nasty half of at-least-once delivery: the fabric *duplicates* a
/// put whose first copy already landed — payload in place, notification
/// already enqueued (and possibly already drained). The replay filter
/// must swallow the duplicate before it reaches the registry, or the CQ
/// would grow a second record for a single logical put and the app would
/// see a phantom completion callback.
#[test]
fn duplicated_packets_never_duplicate_notifications() {
    const BYTES: usize = 2048;
    const ITERS: u32 = 60;
    let mut clean_m = Platform::Slingshot.machine(8);
    let clean = charm_pingpong_on(&mut clean_m, Variant::Ckd, BYTES, ITERS);
    let clean_reg = clean_m.direct_counters();
    for seed in SEEDS {
        let label = format!("notified dup seed={seed:#x}");
        // duplicate-heavy, drop-free: every logical packet arrives, many
        // arrive more than once
        let mut m = Platform::Slingshot
            .builder(8)
            .with_sanitizer(SanitizerConfig::default())
            .with_faults(FaultPlan::new(seed).with_duplicate(0.30))
            .build();
        let r = charm_pingpong_on(&mut m, Variant::Ckd, BYTES, ITERS);
        assert_eq!(r.iters, clean.iters, "{label}: lost an exchange");
        assert!(
            m.fault_counts().unwrap().duplicates > 0,
            "{label}: the plan never duplicated"
        );
        let reg = m.direct_counters();
        assert_eq!(reg.puts, clean_reg.puts, "{label}: put count changed");
        assert_eq!(
            reg.notifications, clean_reg.notifications,
            "{label}: a duplicate packet enqueued a second notification"
        );
        assert_eq!(
            reg.cq_drains, reg.notifications,
            "{label}: drained != enqueued"
        );
        assert_eq!(
            m.callback_total(),
            clean_m.callback_total(),
            "{label}: phantom completion callback"
        );
        assert!(
            m.sanitizer().is_clean(),
            "{label}: {:?}",
            m.sanitizer().diagnostics()
        );
    }
}

// ------------------------------------------------------------ determinism

/// The fault plane is part of the deterministic machine: the same seed
/// must reproduce the identical run — same injections, same recoveries,
/// same stats — every time.
#[test]
fn same_seed_reproduces_the_identical_faulty_run() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let run = |seed: u64| {
        let mut m = ABE4.builder(8).with_faults(mixed_plan(seed, 0.15)).build();
        let (res, grid) = run_jacobi_grid_on(&mut m, cfg);
        (
            res.total,
            grid,
            m.fault_counts().unwrap(),
            m.stats().rel,
            m.stats().clone(),
        )
    };
    let (t1, g1, c1, r1, s1) = run(7);
    let (t2, g2, c2, r2, s2) = run(7);
    assert_eq!(t1, t2, "virtual completion time must reproduce");
    assert_eq!(g1, g2, "grids must reproduce bit-for-bit");
    assert_eq!(c1, c2, "injected-fault counts must reproduce");
    assert_eq!(r1, r2, "reliability stats must reproduce");
    assert_eq!(s1, s2, "machine stats must reproduce");
    // ...and a different seed is genuinely a different schedule
    let (_, _, c3, _, _) = run(8);
    assert_ne!(c1, c3, "different seeds should inject differently");
}

// ------------------------------------------------------- stats reconciliation

/// App-visible aggregates count each logical transfer once however many
/// times the fabric forced it back onto the wire; the wire-level truth
/// lives in `rel_stats` alone.
#[test]
fn retransmits_never_inflate_app_visible_aggregates() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let mut clean_m = ABE4.machine(8);
    run_jacobi_grid_on(&mut clean_m, cfg);
    let mut m = ABE4
        .builder(8)
        .with_faults(FaultPlan::new(3).with_drop(0.15))
        .build();
    run_jacobi_grid_on(&mut m, cfg);
    let (cs, fs) = (clean_m.stats(), m.stats());
    assert!(m.stats().rel.retries > 0, "plan never bit");
    assert_eq!(fs.puts, cs.puts, "a retransmitted put still counts once");
    assert_eq!(fs.msgs_sent, cs.msgs_sent, "a retransmitted message too");
    assert_eq!(fs.msg_bytes, cs.msg_bytes);
    assert_eq!(fs.put_bytes, cs.put_bytes);
    let (creg, freg) = (clean_m.direct_counters(), m.direct_counters());
    assert_eq!(freg.puts, creg.puts);
    assert_eq!(freg.deliveries, creg.deliveries);
}

// ----------------------------------------------------------- degradation

/// A degradation threshold of 1 flips a channel to rendezvous timing at
/// its first retransmission: later puts on it report
/// `PutOutcome::Degraded` (counted in `degraded_puts`), each channel is
/// counted once in `degraded_channels` however many retransmits follow,
/// and the data still matches the fault-free run. `u32::MAX` never
/// degrades.
#[test]
fn degradation_threshold_flips_flaky_channels_to_rendezvous() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 8,
        variant: Variant::Ckd,
        real_compute: true,
    };
    // a 2x2x2 chare grid has 12 neighbour pairs: one inbound channel each way
    const CHANNELS: u64 = 24;
    let (clean_res, clean_grid) = run_jacobi_grid_on(&mut ABE4.machine(8), cfg);
    let run = |degrade_after: u32| {
        let mut m = sanitized(8)
            .with_faults_policy(
                FaultPlan::new(0xC0FFEE).with_drop(0.20),
                RetryPolicy::default(),
                degrade_after,
            )
            .build();
        let (res, grid) = run_jacobi_grid_on(&mut m, cfg);
        assert_eq!(grid, clean_grid, "degrade_after={degrade_after}");
        assert_eq!(res.residual.to_bits(), clean_res.residual.to_bits());
        assert_recovered(&m, &format!("degrade_after={degrade_after}"));
        (res, m.stats().rel)
    };

    let (res, rel) = run(1);
    assert!(rel.degraded_channels > 0, "{rel:?}");
    assert!(rel.degraded_channels <= CHANNELS, "{rel:?}");
    assert!(
        rel.degraded_channels < rel.retries,
        "a channel must be counted once, not per retransmit: {rel:?}"
    );
    assert!(rel.degraded_puts > 0, "no put reported Degraded: {rel:?}");
    assert!(
        res.lossy_puts >= rel.degraded_puts,
        "every Degraded outcome reaches the app: {} < {rel:?}",
        res.lossy_puts
    );

    let (_, rel) = run(u32::MAX);
    assert!(rel.retries > 0, "{rel:?}");
    assert_eq!(rel.degraded_channels, 0, "{rel:?}");
    assert_eq!(rel.degraded_puts, 0, "{rel:?}");
}

// ---------------------------------------------------------------- stalls

/// A NIC-stall window delays traffic but loses nothing: the app still
/// converges to the clean answer.
#[test]
fn nic_stall_window_only_delays() {
    let cfg = JacobiCfg {
        domain: [16, 8, 8],
        chares: [2, 2, 2],
        iters: 6,
        variant: Variant::Ckd,
        real_compute: true,
    };
    let (clean_res, clean_grid) = run_jacobi_grid_on(&mut ABE4.machine(8), cfg);
    let mut m = sanitized(8)
        .with_faults(FaultPlan::new(11).with_stall(None, Time::from_us(50), Time::from_us(400)))
        .build();
    let (res, grid) = run_jacobi_grid_on(&mut m, cfg);
    assert_eq!(grid, clean_grid, "stall must not lose data");
    assert_eq!(res.residual.to_bits(), clean_res.residual.to_bits());
    assert!(m.fault_counts().unwrap().stalls > 0, "window never matched");
    assert!(
        m.sanitizer().is_clean(),
        "{:?}",
        m.sanitizer().diagnostics()
    );
    assert!(
        res.total >= clean_res.total,
        "a stall can only slow the run"
    );
}
