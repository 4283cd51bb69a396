//! The per-layer ledger: one timed function per layer, each driving only
//! public APIs, reporting the median of 7 batches after one warm-up batch.
//! Memory metrics run in a fresh child process (`ckd-perf mem-child`) so
//! the allocator has no freed memory to hand back: they read the `VmRSS`
//! delta across building and holding the objects.

use std::hint::black_box;
use std::time::Instant;

use ckd_apps::Platform;
use ckd_charm::Machine;
use ckd_net::{presets, LinkSeqs, NetModel};
use ckd_sim::{EventQueue, FaultOp, FaultPlan, Time};
use ckd_topo::{Machine as Topo, Pe};
use ckdirect::{DirectBackend, DirectConfig, DirectRegistry, HandleId, LandOutcome, Region};

use crate::host::XorShift;

const BATCHES: usize = 7;

/// Window bytes and out-of-band pattern of the registry benchmarks (the
/// channel storm's shape).
const WINDOW: usize = 32;
const OOB: u64 = u64::MAX;

/// Median of `BATCHES` samples, after one discarded warm-up sample.
fn median_sample(mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let mut v: Vec<f64> = (0..BATCHES).map(|_| sample()).collect();
    crate::median(&mut v)
}

/// Median nanoseconds per operation of a batch of `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    median_sample(|| {
        let t0 = Instant::now();
        batch();
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Every in-process ledger metric, in `crate::LAYERS` order.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut m = vec![
        ("sim.events.hold_ns.d16", hold_ns(16)),
        ("sim.events.hold_ns.d1k", hold_ns(1 << 10)),
        ("sim.events.hold_ns.d64k", hold_ns(1 << 16)),
        ("sim.fault.decide_ns", decide_ns()),
        ("net.proto.seq_ns.inorder", seq_ns(1)),
        ("net.proto.seq_ns.reorder", seq_ns(8)),
    ];
    let ib = presets::ib_abe(Topo::ib_cluster(4096, 8)).with_nic_loopback();
    let bgp = presets::bgp_surveyor(Topo::bgp_partition(4096)).with_nic_loopback();
    m.push((
        "net.model.put_ns.ib",
        model_ns(&ib, |n, s, d, b| n.put(s, d, b)),
    ));
    m.push((
        "net.model.put_ns.bgp",
        model_ns(&bgp, |n, s, d, b| n.put(s, d, b)),
    ));
    m.push((
        "net.model.two_sided_ns.ib",
        model_ns(&ib, |n, s, d, b| n.two_sided(s, d, b, 20 * 1024, false).0),
    ));
    m.push((
        "core.registry.cycle_ns.ib-poll",
        cycle_ns(DirectConfig::ib()),
    ));
    m.push((
        "core.registry.cycle_ns.dcmf-callback",
        cycle_ns(DirectConfig::bgp()),
    ));
    m.push((
        "core.registry.cycle_ns.notified-put",
        cycle_ns(DirectConfig::notified(1024)),
    ));
    m.push(("core.registry.sweep_ns.armed1k", sweep_ns(1_000)));
    m.push(("core.registry.sweep_ns.armed100k", sweep_ns(100_000)));
    let (create, destroy) = create_destroy_ns();
    m.push(("core.registry.create_ns", create));
    m.push(("core.registry.destroy_ns", destroy));
    m.push((
        "charm.machine.build_us.pes8",
        build_us(Platform::IbAbe { cores_per_node: 2 }, 8),
    ));
    m.push((
        "charm.machine.build_us.pes4096",
        build_us(Platform::IbAbe { cores_per_node: 8 }, 4096),
    ));
    m
}

/// `EventQueue` pop + push at a steady depth (the classic hold model).
fn hold_ns(depth: usize) -> f64 {
    const OPS: u64 = 200_000;
    const SPREAD_PS: u64 = 1 << 20;
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut q = EventQueue::<u64>::with_capacity(depth);
    for i in 0..depth {
        q.push(Time::from_ps(rng.next() % SPREAD_PS), i as u64);
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, ev) = q.pop().expect("steady depth");
            let at = t.saturating_add(Time::from_ps(1 + rng.next() % SPREAD_PS));
            q.push(at, black_box(ev));
        }
    })
}

/// `FaultPlan::decide` under sweep64's 2% drop plan.
fn decide_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut plan = FaultPlan::new(0x5EED).with_drop(0.02);
    let mut now = 0u64;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            now += 1;
            let link = ((i % 8) as u32, ((i + 1) % 8) as u32);
            black_box(plan.decide(Time::from_ns(now), link, FaultOp::Put));
        }
    })
}

/// `LinkSeqs` alloc + accept per packet; the receiver accepts each block
/// of `window` packets in reverse, so `window > 1` exercises the
/// reordering window.
fn seq_ns(window: usize) -> f64 {
    const OPS: u64 = 800_000;
    let mut seqs = LinkSeqs::new();
    let mut block = vec![0u64; window];
    ns_per_op(OPS, || {
        for i in 0..OPS / window as u64 {
            let link = ((i % 8) as u32, 8);
            for s in block.iter_mut() {
                *s = seqs.alloc(link);
            }
            for &s in block.iter().rev() {
                black_box(seqs.accept(link, s));
            }
        }
    })
}

/// One `NetModel` timing call over random PE pairs and sizes of a
/// 4096-PE machine.
fn model_ns(net: &NetModel, f: impl Fn(&NetModel, Pe, Pe, usize) -> ckd_net::Timing) -> f64 {
    const OPS: u64 = 400_000;
    let mut rng = XorShift(0xC0FF_EE00_5EED);
    let inputs: Vec<(Pe, Pe, usize)> = (0..4096)
        .map(|_| {
            let src = Pe((rng.next() % 4096) as u32);
            let dst = Pe((rng.next() % 4096) as u32);
            (src, dst, 64 + (rng.next() % 65_536) as usize)
        })
        .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let (s, d, b) = inputs[i % inputs.len()];
            black_box(f(net, s, d, b));
        }
    })
}

/// A registry on two PEs with `n` channels received on PE 0, the first
/// `active` of them fed by one send region on PE 1.
fn registry(cfg: DirectConfig, n: usize, active: usize) -> (DirectRegistry<u32>, Vec<HandleId>) {
    let mut reg = DirectRegistry::new(2, cfg);
    let send = Region::alloc(WINDOW);
    send.set_last_word(!OOB);
    let mut handles = Vec::with_capacity(active);
    for i in 0..n {
        let h = reg
            .create_handle(Pe(0), Region::alloc(WINDOW), OOB, i as u32)
            .expect("create");
        if i < active {
            reg.assoc_local(h, Pe(1), send.clone()).expect("assoc");
            handles.push(h);
        }
    }
    (reg, handles)
}

/// Put and land every handle of `handles`, then collect the deliveries
/// the way the backend completes them.
fn wave(reg: &mut DirectRegistry<u32>, handles: &[HandleId], out: &mut Vec<(HandleId, u32)>) {
    for &h in handles {
        reg.put(h, Pe(1)).expect("put");
        if let LandOutcome::Deliver(cb) = reg.land(h).expect("land") {
            out.push((h, cb));
        }
    }
}

/// Put → land → sweep or CQ drain → ready, per channel, over 64 channels.
fn cycle_ns(cfg: DirectConfig) -> f64 {
    const CH: usize = 64;
    const WAVES: u64 = 2_000;
    let (mut reg, handles) = registry(cfg, CH, CH);
    let mut out = Vec::with_capacity(CH);
    ns_per_op(WAVES * CH as u64, || {
        for _ in 0..WAVES {
            wave(&mut reg, &handles, &mut out);
            match reg.backend() {
                DirectBackend::IbPoll => {
                    reg.poll_sweep_into(Pe(0), &mut out);
                }
                DirectBackend::NotifiedPut => while reg.cq_drain_into(Pe(0), 8, &mut out) > 0 {},
                DirectBackend::DcmfCallback => {}
            }
            assert_eq!(out.len(), CH, "every put completes once");
            for (h, _) in out.drain(..) {
                reg.ready(h).expect("ready");
            }
        }
    })
}

/// One IB poll sweep delivering a 64-channel wave with `armed` channels
/// armed; only the sweep call is timed.
fn sweep_ns(armed: usize) -> f64 {
    const ACTIVE: usize = 64;
    const SWEEPS: u32 = 1_000;
    let (mut reg, handles) = registry(DirectConfig::ib(), armed, ACTIVE);
    let mut out = Vec::with_capacity(ACTIVE);
    median_sample(|| {
        let mut ns = 0u128;
        for _ in 0..SWEEPS {
            wave(&mut reg, &handles, &mut out);
            let t0 = Instant::now();
            reg.poll_sweep_into(Pe(0), &mut out);
            ns += t0.elapsed().as_nanos();
            assert_eq!(out.len(), ACTIVE, "every landed channel delivered");
            for (h, _) in out.drain(..) {
                reg.ready(h).expect("ready");
            }
        }
        ns as f64 / f64::from(SWEEPS)
    })
}

/// `create_handle` and `destroy_handle` over a 100k-channel herd, each
/// timed separately per batch (regions are allocated outside the timing).
fn create_destroy_ns() -> (f64, f64) {
    const N: usize = 100_000;
    let regions: Vec<Region> = (0..N).map(|_| Region::alloc(WINDOW)).collect();
    let mut reg = DirectRegistry::<u32>::new(2, DirectConfig::ib());
    let mut handles = Vec::with_capacity(N);
    let mut destroy = Vec::new();
    let create = median_sample(|| {
        let t0 = Instant::now();
        for (i, r) in regions.iter().enumerate() {
            handles.push(
                reg.create_handle(Pe(0), r.clone(), OOB, i as u32)
                    .expect("create"),
            );
        }
        let t1 = Instant::now();
        for h in handles.drain(..) {
            reg.destroy_handle(h).expect("destroy");
        }
        destroy.push(t1.elapsed().as_nanos() as f64 / N as f64);
        t1.duration_since(t0).as_nanos() as f64 / N as f64
    });
    destroy.remove(0); // the warm-up sample
    (create, crate::median(&mut destroy))
}

/// Microseconds per `Platform::builder(pes).build()`, dropping outside
/// the timing; small machines are built in batches of 100.
fn build_us(platform: Platform, pes: usize) -> f64 {
    let per_batch = if pes <= 64 { 100 } else { 1 };
    median_sample(|| {
        let t0 = Instant::now();
        let ms: Vec<Machine> = (0..per_batch)
            .map(|_| platform.builder(pes).build())
            .collect();
        let us = t0.elapsed().as_nanos() as f64 / 1e3 / per_batch as f64;
        drop(ms);
        us
    })
}

/// Resident set size of this process in bytes (`VmRSS`), or its peak
/// (`VmHWM`).
pub fn status_bytes(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}

/// The memory metrics, measured in this (fresh) process: bytes per
/// registered channel over a 100k herd, and bytes per PE of 512- and
/// 4096-PE machines. Each object is held while the next is measured, so
/// no measurement reuses memory another freed.
pub fn memory() -> Result<Vec<(&'static str, f64)>, String> {
    const N: usize = 100_000;
    let rss = || status_bytes("VmRSS").map(|b| b as f64);
    let regions: Vec<Region> = (0..N).map(|_| Region::alloc(WINDOW)).collect();
    let r0 = rss()?;
    let mut reg = DirectRegistry::<u32>::new(2, DirectConfig::ib());
    for (i, r) in regions.iter().enumerate() {
        reg.create_handle(Pe(0), r.clone(), OOB, i as u32)
            .expect("create");
    }
    let r1 = rss()?;
    let m512 = Platform::IbAbe { cores_per_node: 8 }.builder(512).build();
    let r2 = rss()?;
    let m4096 = Platform::IbAbe { cores_per_node: 8 }.builder(4096).build();
    let r3 = rss()?;
    black_box((&reg, &m512, &m4096));
    Ok(vec![
        ("core.registry.bytes_per_channel", (r1 - r0) / N as f64),
        ("charm.machine.bytes_per_pe.pes512", (r2 - r1) / 512.0),
        ("charm.machine.bytes_per_pe.pes4096", (r3 - r2) / 4096.0),
    ])
}
