//! Randomized (but fully deterministic) tests of the core invariants,
//! spanning crates.
//!
//! Each test drives many seeded cases through `ckd_sim::DetRng` instead of
//! an external property-testing framework, so the suite builds offline and
//! every failure is reproducible from the printed case index.

use ckd_sim::{DetRng, Time};
use ckd_topo::{Dims, Machine as Topo, Mapper, NodeId, Pe, Topology, Torus3D};
use ckdirect::{direct, DirectConfig, DirectError, DirectRegistry, Region};

const CASES: usize = 64;

// ------------------------------------------------------------------- time

#[test]
fn time_addition_is_associative_and_monotone() {
    let mut rng = DetRng::new(0xA11CE).stream("time-add");
    for _ in 0..CASES * 4 {
        let (a, b, c) = (
            rng.range(0, 1 << 40),
            rng.range(0, 1 << 40),
            rng.range(0, 1 << 40),
        );
        let (ta, tb, tc) = (Time::from_ps(a), Time::from_ps(b), Time::from_ps(c));
        assert_eq!((ta + tb) + tc, ta + (tb + tc));
        assert!(ta + tb >= ta);
        assert_eq!(ta.saturating_sub(tb), Time::from_ps(a.saturating_sub(b)));
    }
}

#[test]
fn time_us_roundtrip() {
    let mut rng = DetRng::new(0xA11CE).stream("time-roundtrip");
    for _ in 0..CASES * 4 {
        let us = rng.range_f64(0.0, 1e9);
        let t = Time::from_us_f64(us);
        // picosecond quantization: within half a picosecond relative
        assert!((t.as_us_f64() - us).abs() <= us * 1e-9 + 1e-6);
    }
}

// -------------------------------------------------------------- event queue

#[test]
fn event_queue_is_a_stable_time_sort() {
    let mut rng = DetRng::new(0xE1E2).stream("event-queue");
    for case in 0..CASES {
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range(0, 1000)).collect();
        let mut q = ckd_sim::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t, i));
        }
        // sorted by time…
        assert!(
            out.windows(2).all(|w| w[0].0 <= w[1].0),
            "case {case}: not time-sorted"
        );
        // …stable for equal timestamps…
        assert!(
            out.windows(2).all(|w| w[0].0 != w[1].0 || w[0].1 < w[1].1),
            "case {case}: unstable for equal timestamps"
        );
        // …and a permutation of the input
        let mut seen: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    }
}

/// Reference implementation: the naive `BinaryHeap<Reverse<(Time, seq)>>`
/// the optimized queue replaced. The run-coalescing queue must pop in
/// *exactly* this `(time, seqno)` order for arbitrary interleaved
/// push/pop/`pop_before` streams. The generator draws timestamps in three
/// shapes: spread over a 50 ns window; clustered on a few instants, so
/// long same-timestamp runs form; and spread so wide that more timestamps
/// are pending than the queue's run table has slots (256), so table
/// collisions are certain. Every shape also pushes at the horizon, i.e.
/// into the run that is draining, where only the seqno tiebreak separates
/// events.
#[test]
fn event_queue_matches_the_reference_binary_heap() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut rng = DetRng::new(0xBEEF_CAFE).stream("event-queue-reference");
    for case in 0..CASES * 3 {
        let shape = case % 3;
        let mut q = ckd_sim::EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64; // horizon in ns, to keep pushes causal
        let mut next_id = 0u32;
        let ops = match shape {
            2 => rng.range(600, 1500),
            _ => rng.range(10, 300),
        };
        for _ in 0..ops {
            let roll = rng.range(0, 100);
            if roll < 60 || reference.is_empty() {
                // same-timestamp bursts: several events at one instant
                let burst = if rng.chance(0.3) { rng.range(2, 20) } else { 1 };
                let ahead = match shape {
                    0 => rng.range(0, 50),
                    1 => rng.range(0, 4) * 10,
                    _ => rng.range(0, 1 << 14),
                };
                let ahead = if rng.chance(0.15) { 0 } else { ahead };
                let at = Time::from_ns(now + ahead);
                for _ in 0..burst {
                    q.push(at, next_id);
                    reference.push(Reverse((at, seq, next_id)));
                    seq += 1;
                    next_id += 1;
                }
            } else {
                // a plain pop, or the scheduler's bounded pop
                let limit = if roll < 85 {
                    Time::MAX
                } else {
                    Time::from_ns(now + rng.range(0, 30))
                };
                let got = q.pop_before(limit);
                let want = match reference.peek() {
                    Some(Reverse((t, _, _))) if *t <= limit => {
                        reference.pop().map(|Reverse((t, _, id))| (t, id))
                    }
                    _ => None,
                };
                assert_eq!(got, want, "case {case}: pop order diverged");
                if let Some((t, _)) = got {
                    now = t.as_ps() / 1000; // ns
                }
            }
            assert_eq!(q.len(), reference.len(), "case {case}");
        }
        // drain both completely
        loop {
            let got = q.pop();
            let want = reference.pop().map(|Reverse((t, _, id))| (t, id));
            assert_eq!(got, want, "case {case}: drain order diverged");
            if got.is_none() {
                break;
            }
        }
    }
}

/// `pop_before` is the scheduler's fast path: it must behave exactly like
/// `peek_time` + `pop` under a limit, against the same reference heap.
#[test]
fn event_queue_pop_before_matches_peek_then_pop() {
    let mut rng = DetRng::new(0x11F0).stream("event-queue-pop-before");
    for case in 0..CASES {
        let mut fast = ckd_sim::EventQueue::new();
        let mut slow = ckd_sim::EventQueue::new();
        let n = rng.range(1, 100);
        for i in 0..n {
            let at = Time::from_ns(rng.range(0, 200));
            fast.push(at, i);
            slow.push(at, i);
        }
        let mut limit = 0u64;
        while !slow.is_empty() {
            limit += rng.range(0, 60);
            let lim = Time::from_ns(limit);
            loop {
                let want = match slow.peek_time() {
                    Some(t) if t <= lim => slow.pop(),
                    _ => None,
                };
                let got = fast.pop_before(lim);
                assert_eq!(got, want, "case {case}: pop_before(limit) diverged");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(fast.len(), slow.len());
            assert_eq!(fast.horizon(), slow.horizon(), "case {case}");
        }
        assert!(fast.pop_before(Time::MAX).is_none());
    }
}

// ------------------------------------------------------------------- topo

#[test]
fn torus_hops_form_a_metric() {
    let mut rng = DetRng::new(0x7020).stream("torus-metric");
    for _ in 0..CASES * 2 {
        let dims = [
            rng.range(1, 8) as usize,
            rng.range(1, 8) as usize,
            rng.range(1, 8) as usize,
        ];
        let t = Torus3D::new(dims);
        let n = t.nodes() as u64;
        let x = NodeId(rng.range(0, n) as u32);
        let y = NodeId(rng.range(0, n) as u32);
        let z = NodeId(rng.range(0, n) as u32);
        assert_eq!(t.hops(x, x), 0);
        assert_eq!(t.hops(x, y), t.hops(y, x));
        assert!(
            t.hops(x, z) <= t.hops(x, y) + t.hops(y, z),
            "triangle inequality"
        );
        assert!(t.hops(x, y) <= t.diameter());
    }
}

#[test]
fn block_mapper_is_monotone_and_balanced() {
    let mut rng = DetRng::new(0x7021).stream("block-mapper");
    for _ in 0..CASES {
        let total = rng.range(1, 500) as usize;
        let npes = rng.range(1, 64) as usize;
        let mut counts = vec![0usize; npes];
        let mut last = 0;
        for lin in 0..total {
            let pe = Mapper::Block.pe_for(lin, total, npes).idx();
            assert!(pe < npes);
            assert!(pe >= last);
            last = pe;
            counts[pe] += 1;
        }
        let mx = counts.iter().max().unwrap();
        let mn = counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(mx - mn <= 1);
    }
}

#[test]
fn dims_linearize_bijective() {
    let mut rng = DetRng::new(0x7022).stream("dims-bijective");
    for _ in 0..CASES {
        let dims = Dims::d4(
            rng.range(1, 6) as usize,
            rng.range(1, 6) as usize,
            rng.range(1, 6) as usize,
            rng.range(1, 4) as usize,
        );
        for lin in 0..dims.len() {
            assert_eq!(dims.linear(dims.unlinear(lin)), lin);
        }
    }
}

// -------------------------------------------------------------- net model

#[test]
fn transfer_delays_are_monotone_in_size() {
    use ckd_net::{presets, Protocol};
    let net = presets::ib_abe(Topo::ib_cluster(4, 1));
    let mut rng = DetRng::new(0x4E7).stream("delay-monotone");
    for _ in 0..CASES / 4 {
        let n = rng.range(2, 20) as usize;
        let mut sorted: Vec<usize> = (0..n).map(|_| rng.range(0, 1 << 20) as usize).collect();
        sorted.sort_unstable();
        for proto in [
            Protocol::Eager,
            Protocol::RdmaPut,
            Protocol::Rendezvous { reg_cached: false },
        ] {
            let mut last = Time::ZERO;
            for &b in &sorted {
                let t = net.timing(Pe(0), Pe(2), b, proto);
                assert!(t.delay >= last);
                last = t.delay;
            }
        }
    }
}

#[test]
fn put_never_uses_receiver_cpu_on_rdma() {
    use ckd_net::presets;
    let net = presets::ib_abe(Topo::ib_cluster(4, 1));
    let mut rng = DetRng::new(0x4E8).stream("put-rdma");
    for _ in 0..CASES * 4 {
        let bytes = rng.range(0, 1 << 22) as usize;
        let t = net.put(Pe(0), Pe(3), bytes);
        assert_eq!(t.recv_cpu, Time::ZERO);
        assert_eq!(t.overlap_cpu, Time::ZERO);
    }
}

// --------------------------------------------------- registry state machine

/// Operations a fuzzer can throw at one CkDirect channel.
#[derive(Clone, Copy, Debug)]
enum Op {
    Put,
    Land,
    Sweep,
    Ready,
    Mark,
    PollQ,
}

const OPS: [Op; 6] = [Op::Put, Op::Land, Op::Sweep, Op::Ready, Op::Mark, Op::PollQ];

/// Arbitrary operation sequences never panic, never corrupt the channel,
/// and deliveries never outnumber puts.
#[test]
fn registry_state_machine_is_total() {
    let mut rng = DetRng::new(0x5EED).stream("registry-fuzz");
    for case in 0..CASES * 2 {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let send = Region::alloc(32);
        send.set_last_word(0x1234_5678_9ABC_DEF0);
        let h = reg
            .create_handle(Pe(1), Region::alloc(32), u64::MAX, 9)
            .unwrap();
        reg.assoc_local(h, Pe(0), send).unwrap();

        let n_ops = rng.range(0, 60) as usize;
        let mut in_flight = false;
        for _ in 0..n_ops {
            let op = OPS[rng.range(0, OPS.len() as u64) as usize];
            match op {
                Op::Put => {
                    if reg.put(h, Pe(0)).is_ok() {
                        in_flight = true;
                    }
                }
                Op::Land => {
                    if in_flight {
                        reg.land(h).unwrap();
                        in_flight = false;
                    }
                }
                Op::Sweep => {
                    let mut delivered = Vec::new();
                    reg.poll_sweep_into(Pe(1), &mut delivered);
                    assert!(delivered.len() <= 1);
                }
                Op::Ready => {
                    let _ = reg.ready(h);
                }
                Op::Mark => {
                    let _ = reg.ready_mark(h);
                }
                Op::PollQ => {
                    let _ = reg.ready_poll_q(h);
                }
            }
            let c = reg.counters();
            assert!(
                c.deliveries <= c.puts,
                "case {case}: deliveries {} > puts {}",
                c.deliveries,
                c.puts
            );
            assert!(reg.pollq_len(Pe(1)) <= 1, "handle duplicated in pollq");
        }
    }
}

/// Every delivered payload is exactly the bytes of the matching put — no
/// loss, no reordering, no tearing — for any interleaving of
/// ready/put/land/sweep that respects the channel contract.
#[test]
fn registry_delivers_every_put_intact() {
    let mut rng = DetRng::new(0x5EEE).stream("registry-intact");
    for _ in 0..CASES {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let recv = Region::alloc(16);
        let send = Region::alloc(16);
        let h = reg.create_handle(Pe(1), recv.clone(), u64::MAX, 0).unwrap();
        reg.assoc_local(h, Pe(0), send.clone()).unwrap();
        let n = rng.range(1, 20) as usize;
        for i in 0..n {
            let seed = rng.range(0, u64::MAX - 1); // never the OOB pattern
            send.write_f64s(0, &[i as f64]);
            send.set_last_word(seed);
            reg.put(h, Pe(0)).unwrap();
            reg.land(h).unwrap();
            let mut delivered = Vec::new();
            reg.poll_sweep_into(Pe(1), &mut delivered);
            assert_eq!(delivered.len(), 1);
            assert_eq!(recv.last_word(), seed);
            assert_eq!(recv.read_f64s(0, 1)[0], i as f64);
            reg.ready(h).unwrap();
        }
    }
}

/// Reference model for the slab registry: the naive storage the slab
/// replaced — a `HashMap` from packed handle to logical channel phase plus
/// a `Vec` modelling the per-PE poll queue in enqueue order. Arbitrary
/// create/destroy/put/land/ready/sweep interleavings must behave
/// identically: same per-op verdicts, same delivery order, same live and
/// destroyed counts, and every stale (destroyed) handle must answer
/// `BadHandle` to every operation forever — generation tags make slot
/// reuse unobservable.
#[test]
fn slab_registry_matches_a_naive_reference_model() {
    use std::collections::HashMap;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Phase {
        Empty,
        InFlight,
        Landed,
        Delivered,
    }

    let mut rng = DetRng::new(0x51AB).stream("slab-reference");
    for case in 0..CASES {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let send = Region::alloc(32);
        send.set_last_word(0x1234_5678_9ABC_DEF0);
        let mut model: HashMap<u64, Phase> = HashMap::new();
        let mut pollq: Vec<ckdirect::HandleId> = Vec::new(); // enqueue order
        let mut live: Vec<ckdirect::HandleId> = Vec::new();
        let mut stale: Vec<ckdirect::HandleId> = Vec::new();
        let mut destroyed = 0usize;
        let mut next_cb = 0u32;

        for step in 0..rng.range(20, 120) {
            // ~every 6th op goes to a stale handle, which must always be
            // rejected as BadHandle no matter what now occupies the slot
            if !stale.is_empty() && rng.chance(0.15) {
                let h = stale[rng.range(0, stale.len() as u64) as usize];
                let err = match rng.range(0, 4) {
                    0 => reg.put(h, Pe(0)).map(|_| ()).unwrap_err(),
                    1 => reg.land(h).map(|_| ()).unwrap_err(),
                    2 => reg.ready(h).map(|_| ()).unwrap_err(),
                    _ => reg.destroy_handle(h).unwrap_err(),
                };
                assert_eq!(
                    err,
                    DirectError::BadHandle,
                    "case {case} step {step}: stale handle accepted"
                );
                continue;
            }
            match rng.range(0, 6) {
                0 => {
                    // create + assoc: a fresh armed channel at the back of
                    // the poll queue
                    let h = reg
                        .create_handle(Pe(1), Region::alloc(32), u64::MAX, next_cb)
                        .unwrap();
                    next_cb += 1;
                    reg.assoc_local(h, Pe(0), send.clone()).unwrap();
                    assert!(
                        model.insert(h.0 as u64, Phase::Empty).is_none(),
                        "case {case}: live handle id reused"
                    );
                    pollq.push(h);
                    live.push(h);
                }
                1 if !live.is_empty() => {
                    let h = live[rng.range(0, live.len() as u64) as usize];
                    let want = model[&(h.0 as u64)];
                    let got = reg.put(h, Pe(0)).map(|_| ());
                    match want {
                        Phase::Empty => {
                            got.unwrap();
                            model.insert(h.0 as u64, Phase::InFlight);
                        }
                        Phase::InFlight | Phase::Landed => {
                            assert_eq!(got.unwrap_err(), DirectError::PutInFlight);
                        }
                        Phase::Delivered => {
                            assert_eq!(got.unwrap_err(), DirectError::Overwrite);
                        }
                    }
                }
                2 if !live.is_empty() => {
                    let h = live[rng.range(0, live.len() as u64) as usize];
                    if model[&(h.0 as u64)] == Phase::InFlight {
                        reg.land(h).unwrap();
                        model.insert(h.0 as u64, Phase::Landed);
                    }
                }
                3 => {
                    // sweep: the ring plane must deliver exactly the landed
                    // channels, in enqueue order, and check every armed one
                    let armed = pollq.len();
                    let mut delivered = Vec::new();
                    let checked = reg.poll_sweep_into(Pe(1), &mut delivered);
                    assert_eq!(checked, armed, "case {case} step {step}");
                    let want: Vec<ckdirect::HandleId> = pollq
                        .iter()
                        .copied()
                        .filter(|h| model[&(h.0 as u64)] == Phase::Landed)
                        .collect();
                    let got: Vec<ckdirect::HandleId> = delivered.iter().map(|&(h, _)| h).collect();
                    assert_eq!(got, want, "case {case} step {step}: delivery order");
                    for h in &want {
                        model.insert(h.0 as u64, Phase::Delivered);
                    }
                    pollq.retain(|h| model[&(h.0 as u64)] != Phase::Delivered);
                }
                4 if !live.is_empty() => {
                    let h = live[rng.range(0, live.len() as u64) as usize];
                    let got = reg.ready(h).map(|_| ());
                    if model[&(h.0 as u64)] == Phase::Delivered {
                        got.unwrap();
                        model.insert(h.0 as u64, Phase::Empty);
                        pollq.push(h); // re-armed at the back
                    } else {
                        assert_eq!(got.unwrap_err(), DirectError::NotDelivered);
                    }
                }
                5 if !live.is_empty() => {
                    let at = rng.range(0, live.len() as u64) as usize;
                    let h = live[at];
                    let got = reg.destroy_handle(h);
                    match model[&(h.0 as u64)] {
                        Phase::InFlight | Phase::Landed => {
                            assert_eq!(got.unwrap_err(), DirectError::PutInFlight);
                        }
                        Phase::Empty | Phase::Delivered => {
                            got.unwrap();
                            model.remove(&(h.0 as u64));
                            pollq.retain(|&q| q != h);
                            live.swap_remove(at);
                            stale.push(h);
                            destroyed += 1;
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(reg.live_channels(), live.len(), "case {case} step {step}");
            assert_eq!(reg.destroyed_channels(), destroyed, "case {case}");
            assert_eq!(reg.pollq_len(Pe(1)), pollq.len(), "case {case} step {step}");
        }
    }
}

/// Delivery-order equivalence of the per-PE ready list against the naive
/// `Vec`-scan poll queue it replaced: for arbitrary landing subsets, landed
/// in shuffled order, with re-arms and interleaved sweeps, the list
/// delivers exactly what a linear scan of the arming-ordered `Vec` would —
/// the byte-identity argument for the whole poll-plane swap, in isolation.
/// Landing order is not arming order, so a list that delivered in landing
/// order would fail here.
#[test]
fn ring_sweep_order_matches_the_vec_pollq_reference() {
    let mut rng = DetRng::new(0x9106).stream("ring-vs-vec");
    for case in 0..CASES {
        let n = rng.range(2, 150) as usize;
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let send = Region::alloc(16);
        send.set_last_word(0x0DDC_0FFE_E0DD_F00D);
        let mut vec_pollq: Vec<ckdirect::HandleId> = (0..n)
            .map(|cb| {
                let h = reg
                    .create_handle(Pe(1), Region::alloc(16), u64::MAX, cb as u32)
                    .unwrap();
                reg.assoc_local(h, Pe(0), send.clone()).unwrap();
                h
            })
            .collect();
        let mut idle: Vec<ckdirect::HandleId> = Vec::new(); // delivered, un-rearmed
        for round in 0..rng.range(2, 12) {
            // a random subset of armed channels receives a put; the puts
            // land in a shuffled order (Fisher-Yates)
            let landed: Vec<ckdirect::HandleId> = vec_pollq
                .iter()
                .copied()
                .filter(|_| rng.chance(0.3))
                .collect();
            let mut landing_order = landed.clone();
            for i in (1..landing_order.len()).rev() {
                let j = rng.range(0, i as u64 + 1) as usize;
                landing_order.swap(i, j);
            }
            for &h in &landing_order {
                reg.put(h, Pe(0)).unwrap();
                reg.land(h).unwrap();
            }
            let mut delivered = Vec::new();
            let checked = reg.poll_sweep_into(Pe(1), &mut delivered);
            assert_eq!(checked, vec_pollq.len(), "case {case} round {round}");
            // the reference scan: walk the Vec in insertion order, deliver
            // landed channels, compact the rest in place
            let got: Vec<ckdirect::HandleId> = delivered.iter().map(|&(h, _)| h).collect();
            assert_eq!(got, landed, "case {case} round {round}: order diverged");
            vec_pollq.retain(|h| !landed.contains(h));
            idle.extend(landed);
            // re-arm a random subset of delivered channels (back of queue)
            let mut still_idle = Vec::new();
            for h in idle.drain(..) {
                if rng.chance(0.6) {
                    reg.ready(h).unwrap();
                    vec_pollq.push(h);
                } else {
                    still_idle.push(h);
                }
            }
            idle = still_idle;
            assert_eq!(reg.pollq_len(Pe(1)), vec_pollq.len(), "case {case}");
        }
    }
}

// -------------------------------------------------- real-thread channel

/// Any payload that does not end with the pattern survives a put/recv
/// roundtrip bit for bit.
#[test]
fn direct_channel_roundtrips_any_payload() {
    let mut rng = DetRng::new(0xD1EC7).stream("direct-roundtrip");
    for case in 0..CASES * 2 {
        let len = rng.range(1, 32) as usize;
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        // every ~8th case: force an OOB collision in the final word
        if case % 8 == 7 {
            while !payload.len().is_multiple_of(8) {
                payload.push(0);
            }
            let n = payload.len();
            payload[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        // round up to a whole number of words
        while !payload.len().is_multiple_of(8) {
            payload.push(0);
        }
        let n = payload.len();
        let oob = u64::MAX;
        let last = u64::from_le_bytes(payload[n - 8..].try_into().unwrap());
        let (mut tx, mut rx) = direct::channel(n, oob);
        let res = tx.put(&payload);
        if last == oob {
            assert_eq!(res.unwrap_err(), DirectError::OobCollision);
        } else {
            res.unwrap();
            assert_eq!(rx.try_recv().unwrap(), payload);
        }
    }
}

// ------------------------------------------------------------ fault plane

/// Two identically-built plans fed the identical submission sequence make
/// the identical decisions, and the injection counters reconcile: one
/// decision per packet, at most one fault per decision.
#[test]
fn fault_plan_is_deterministic_and_counts_reconcile() {
    use ckd_sim::{FaultOp, FaultPlan};
    let mut rng = DetRng::new(0xFA017).stream("fault-plan-det");
    for case in 0..CASES {
        let seed = rng.range(0, u64::MAX - 1);
        let drop = rng.range_f64(0.0, 0.3);
        let corrupt = rng.range_f64(0.0, 0.2);
        let dup = rng.range_f64(0.0, 0.2);
        let n = rng.range(1, 400);
        let subs: Vec<(u64, (u32, u32), FaultOp)> = (0..n)
            .map(|_| {
                (
                    rng.range(0, 1_000_000),
                    (rng.range(0, 4) as u32, rng.range(0, 4) as u32),
                    match rng.range(0, 3) {
                        0 => FaultOp::Msg,
                        1 => FaultOp::Put,
                        _ => FaultOp::Ack,
                    },
                )
            })
            .collect();
        let mk = || {
            FaultPlan::new(seed)
                .with_drop(drop)
                .with_corrupt(corrupt)
                .with_duplicate(dup)
        };
        let (mut a, mut b) = (mk(), mk());
        for &(t, link, op) in &subs {
            let ra = a.decide(Time::from_ns(t), link, op);
            let rb = b.decide(Time::from_ns(t), link, op);
            assert_eq!(ra, rb, "case {case}: same seed, divergent decision");
        }
        assert_eq!(a.counts(), b.counts(), "case {case}");
        let c = a.counts();
        assert_eq!(c.decisions, n, "case {case}");
        assert!(c.total() <= c.decisions, "case {case}: >1 fault per packet");
    }
}

/// A plan with no probabilities, triggers or stalls is inert: every packet
/// delivers, nothing is ever counted.
#[test]
fn inert_fault_plan_always_delivers() {
    use ckd_sim::{FaultAction, FaultOp, FaultPlan};
    let mut rng = DetRng::new(0xFA018).stream("fault-plan-inert");
    for _ in 0..CASES {
        let mut plan = FaultPlan::new(rng.range(0, u64::MAX - 1));
        assert!(plan.is_inert());
        for _ in 0..rng.range(1, 50) {
            let link = (rng.range(0, 8) as u32, rng.range(0, 8) as u32);
            let at = Time::from_ns(rng.range(0, 1 << 30));
            assert_eq!(plan.decide(at, link, FaultOp::Put), FaultAction::Deliver);
        }
        assert_eq!(plan.counts().total(), 0);
    }
}

// ----------------------------------------------------- checked channel

/// Arbitrary interleavings of damaged landings, retransmits and replays:
/// the checked channel delivers every logical message exactly once, bit
/// for bit, and its counters account for every injected fault.
#[test]
fn checked_channel_delivers_exactly_once_under_arbitrary_faults() {
    use ckdirect::direct::channel_checked;
    use ckdirect::CheckedRecv;
    let mut rng = DetRng::new(0xC4C).stream("checked-chaos");
    for case in 0..CASES {
        let words = rng.range(1, 8) as usize;
        let (mut tx, mut rx) = channel_checked(words * 8, u64::MAX);
        let msgs = rng.range(1, 30);
        let (mut corrupts, mut dups) = (0u64, 0u64);
        for i in 1..=msgs {
            let mut payload = vec![0u8; words * 8];
            rng.fill_bytes(&mut payload);
            if rng.chance(0.4) {
                // the first copy arrives damaged: bit-flip somewhere in the
                // payload, a damaged protocol word, or a torn write
                if rng.chance(0.5) {
                    let dmg = rng.range(0, words as u64 + 1) as usize;
                    tx.put_corrupted(&payload, dmg).unwrap();
                } else {
                    let miss = rng.range(0, words as u64) as usize;
                    tx.put_torn(&payload, miss).unwrap();
                }
                assert_eq!(
                    rx.try_recv(),
                    CheckedRecv::Corrupt,
                    "case {case} msg {i}: damage undetected"
                );
                corrupts += 1;
                tx.retransmit().unwrap();
            } else {
                tx.put(&payload).unwrap();
            }
            assert_eq!(
                rx.try_recv(),
                CheckedRecv::Data(payload.clone()),
                "case {case} msg {i}"
            );
            rx.arm();
            if rng.chance(0.3) {
                // the fabric replays the consumed put; the seq filter eats it
                tx.put_duplicate().unwrap();
                assert_eq!(rx.try_recv(), CheckedRecv::Duplicate, "case {case} msg {i}");
                dups += 1;
            }
        }
        let s = rx.stats();
        assert_eq!(s.delivered, msgs, "case {case}");
        assert_eq!(s.corrupt_detected, corrupts, "case {case}");
        assert_eq!(s.dups_suppressed, dups, "case {case}");
    }
}

// ---------------------------------------------------------- region safety

#[test]
fn region_writes_stay_inside_their_window() {
    let mut rng = DetRng::new(0x8E61).stream("region-window");
    for _ in 0..CASES * 2 {
        let off = rng.range(0, 64) as usize;
        let len = rng.range(8, 64) as usize;
        let buf = ckdirect::region::shared_buf(128);
        let Ok(r) = Region::new(buf.clone(), off, len) else {
            assert!(off + len > 128);
            continue;
        };
        r.fill(0xEE);
        let all = buf.borrow();
        for (i, &b) in all.iter().enumerate() {
            let inside = i >= off && i < off + len;
            assert_eq!(b == 0xEE, inside, "byte {i} leaked");
        }
    }
}

// ------------------------------------------------------------- misuse API

#[test]
fn misuse_is_reported_not_corrupted() {
    let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
    let h = reg
        .create_handle(Pe(1), Region::alloc(16), u64::MAX, 0)
        .unwrap();
    // not associated yet
    assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::NotAssociated);
    reg.assoc_local(h, Pe(0), Region::alloc(16)).unwrap();
    // double put
    reg.put(h, Pe(0)).unwrap();
    assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::PutInFlight);
    reg.land(h).unwrap();
    reg.poll_sweep_into(Pe(1), &mut Vec::new());
    // overwrite before ready
    assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::Overwrite);
    reg.ready(h).unwrap();
    reg.put(h, Pe(0)).unwrap();
}

// ------------------------------------------------------------- strided

/// gather ∘ scatter is the identity on the strided window and never touches
/// bytes outside it, for arbitrary valid layouts.
#[test]
fn strided_gather_scatter_roundtrip() {
    use ckdirect::StridedSpec;
    let mut rng = DetRng::new(0x57D1).stream("strided-roundtrip");
    for _ in 0..CASES {
        let offset = rng.range(0, 32) as usize;
        let block_len = rng.range(1, 16) as usize;
        let extra_stride = rng.range(0, 16) as usize;
        let count = rng.range(1, 8) as usize;
        let spec = StridedSpec {
            offset,
            block_len,
            stride: block_len + extra_stride,
            count,
        };
        let backing_len = spec.span() + 8;
        let src = Region::alloc(backing_len);
        src.with_mut(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i as u8).wrapping_mul(31).wrapping_add(7);
            }
        });
        assert!(spec.validate(&src).is_ok());

        let wire = Region::alloc(spec.payload_len());
        spec.gather(&src, &wire);
        let dst = Region::alloc(backing_len);
        spec.scatter(&wire, &dst);

        let sv = src.to_vec();
        let dv = dst.to_vec();
        for i in 0..backing_len {
            let in_window = i >= spec.offset
                && i < spec.span()
                && (i - spec.offset) % spec.stride < spec.block_len;
            if in_window {
                assert_eq!(dv[i], sv[i], "window byte {i} lost");
            } else {
                assert_eq!(dv[i], 0, "byte {i} leaked outside the window");
            }
        }
    }
}

/// A strided channel delivers exactly the strided window of the source for
/// arbitrary layouts (full put→land→sweep cycle).
#[test]
fn strided_channel_moves_exactly_the_window() {
    use ckdirect::StridedSpec;
    let mut rng = DetRng::new(0x57D2).stream("strided-channel");
    for _ in 0..CASES {
        let block_words = rng.range(1, 4) as usize;
        let gap_words = rng.range(0, 3) as usize;
        let count = rng.range(2, 6) as usize;
        let block_len = block_words * 8;
        let spec = StridedSpec {
            offset: 0,
            block_len,
            stride: block_len + gap_words * 8,
            count,
        };
        let backing_len = spec.span();
        let src = Region::alloc(backing_len);
        src.with_mut(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 251) as u8 + 1; // never 0, never 0xFF-runs
            }
        });
        let dst = Region::alloc(backing_len);
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let h = reg
            .create_handle_strided(Pe(1), dst.clone(), spec, u64::MAX, 0)
            .unwrap();
        reg.assoc_local_strided(h, Pe(0), src.clone(), spec)
            .unwrap();
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        let mut delivered = Vec::new();
        reg.poll_sweep_into(Pe(1), &mut delivered);
        assert_eq!(delivered.len(), 1);
        let sv = src.to_vec();
        let dv = dst.to_vec();
        for i in 0..backing_len {
            let in_window = i % spec.stride < block_len;
            if in_window {
                assert_eq!(dv[i], sv[i]);
            } else {
                assert_eq!(dv[i], 0);
            }
        }
    }
}

// ------------------------------------------------------- landing elision

/// Landings copy only what changed since the channel's last landing, yet
/// every landing leaves the receive window holding exactly the bytes an
/// always-copy landing would: the source as it stands just before `land`
/// (for a strided channel, the wire image its `put` gathered). Arbitrary
/// interleavings of application writes to every buffer (sources in flight
/// included), put, land, sweep, the `ready` family, corrupt landings and
/// replayed duplicates run over several window shapes at once — two
/// receive windows carved from one buffer, a loopback channel whose
/// (possibly overlapping) send and receive windows share one buffer, and a
/// strided channel, each sized on both sides of the inline-buffer limit —
/// on all three backends. The run must also reach each
/// kind of landing: nothing copied, the re-armed last word, a full window.
#[test]
fn landings_match_the_always_copy_reference() {
    use ckdirect::region::shared_buf;
    use ckdirect::{HandleId, StridedSpec};

    struct Lane {
        h: HandleId,
        /// The window landings write (a strided channel's wire image).
        recv: Region,
        /// The source window, or a strided channel's source backing.
        src: Region,
        strided: Option<StridedSpec>,
        /// The wire image a strided put gathered.
        gathered: Vec<u8>,
        seq: u64,
        in_flight: bool,
        landed: u64,
    }

    let mut rng = DetRng::new(0x1A4D).stream("landing-elision");
    // landings that copied nothing, only the last word, a full window
    let mut seen = [0u32; 3];
    for case in 0..CASES * 4 {
        let cfg = match case % 3 {
            0 => DirectConfig::ib(),
            1 => DirectConfig::bgp(),
            _ => DirectConfig::notified(64),
        };
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, cfg);
        let lane = |h, recv, src, strided| Lane {
            h,
            recv,
            src,
            strided,
            gathered: Vec::new(),
            seq: 0,
            in_flight: false,
            landed: 0,
        };
        // (receive, source) windows of the contiguous channels
        let mut windows = Vec::new();
        // every buffer the application may write, whole
        let mut writable = Vec::new();
        // Windows of 8..=96 B in buffers of 64 B (inline) or 160 B (boxed),
        // so every kind of window falls on both sides of the inline limit.
        let cap = [64, 160][case / 12 % 2];
        let window = |buf: &ckdirect::region::SharedBuf, rng: &mut DetRng| {
            let len = rng.range(8, cap.min(96) as u64 + 1) as usize;
            let off = rng.range(0, (cap - len + 1) as u64) as usize;
            Region::new(buf.clone(), off, len).unwrap()
        };

        // two receive windows carved from one buffer, separate sources
        let shared = shared_buf(cap);
        writable.push(Region::new(shared.clone(), 0, cap).unwrap());
        for _ in 0..2 {
            let recv = window(&shared, &mut rng);
            let src = Region::alloc(recv.len());
            writable.push(src.clone());
            windows.push((recv, src));
        }
        // loopback: both windows in one buffer, overlap allowed
        let lo = shared_buf(cap);
        writable.push(Region::new(lo.clone(), 0, cap).unwrap());
        let recv = window(&lo, &mut rng);
        let off = rng.range(0, (cap - recv.len() + 1) as u64) as usize;
        let src = Region::new(lo, off, recv.len()).unwrap();
        windows.push((recv, src));

        let mut lanes = Vec::new();
        for (recv, src) in windows {
            let h = reg.create_handle(Pe(1), recv.clone(), u64::MAX, 0).unwrap();
            reg.assoc_local(h, Pe(0), src.clone()).unwrap();
            lanes.push(lane(h, recv, src, None));
        }
        // a strided channel
        let spec = StridedSpec {
            offset: rng.range(0, 8) as usize,
            block_len: 8,
            stride: 8 + rng.range(0, 3) as usize * 8,
            count: rng.range(2, 13) as usize,
        };
        let (src, dst) = (Region::alloc(spec.span()), Region::alloc(spec.span()));
        writable.push(src.clone());
        writable.push(dst.clone());
        let h = reg
            .create_handle_strided(Pe(1), dst, spec, u64::MAX, 0)
            .unwrap();
        reg.assoc_local_strided(h, Pe(0), src.clone(), spec)
            .unwrap();
        lanes.push(lane(h, reg.recv_region(h).unwrap(), src, Some(spec)));

        // Cases vary how often the application writes and whether one
        // channel gets most of the traffic, so the run reaches long clean
        // stretches (where landings elide) as well as dirty ones.
        let write_pct = [0, 3, 10, 30][case / 3 % 4];
        let focus = rng.range(0, 6) as usize;
        for step in 0..rng.range(0, 400) {
            let pick = if focus < 4 && rng.chance(0.8) {
                focus
            } else {
                rng.range(0, 4) as usize
            };
            let lane = &mut lanes[pick];
            let op = if rng.range(0, 100) < write_pct {
                0
            } else {
                rng.range(1, 9)
            };
            match op {
                0 => {
                    // never 0xFF: no write completes the all-ones pattern
                    let w = &writable[rng.range(0, writable.len() as u64) as usize];
                    let at = rng.range(0, w.len() as u64) as usize;
                    let v = rng.range(0, 0xFF) as u8;
                    w.with_mut(|b| b[at] = v);
                }
                1 => {
                    if let Ok(req) = reg.put(lane.h, Pe(0)) {
                        lane.seq = req.seq;
                        lane.in_flight = true;
                        if let Some(spec) = lane.strided {
                            let wire = Region::alloc(spec.payload_len());
                            spec.gather(&lane.src, &wire);
                            lane.gathered = wire.to_vec();
                        }
                    }
                }
                2 => {
                    if lane.in_flight && reg.accept_landing(lane.h, lane.seq).unwrap() {
                        let expect = match lane.strided {
                            Some(_) => lane.gathered.clone(),
                            None => lane.src.to_vec(),
                        };
                        let before = reg.counters().landed_bytes;
                        reg.land(lane.h).unwrap();
                        assert_eq!(
                            lane.recv.to_vec(),
                            expect,
                            "case {case} step {step}: landing diverged from a full copy"
                        );
                        let copied = reg.counters().landed_bytes - before;
                        let kind = match copied {
                            c if c == lane.recv.len() as u64 => 2,
                            8 => 1,
                            0 => 0,
                            c => panic!("case {case} step {step}: landing copied {c} B"),
                        };
                        seen[kind] += 1;
                        lane.in_flight = false;
                        lane.landed = lane.seq;
                    }
                }
                3 => {
                    if lane.in_flight {
                        assert!(reg.corrupt_landing(lane.h, lane.seq).unwrap());
                    } else if lane.landed > 0 {
                        assert!(!reg.accept_landing(lane.h, lane.landed).unwrap());
                    }
                }
                4 => {
                    let mut out = Vec::new();
                    match reg.backend() {
                        ckdirect::DirectBackend::IbPoll => {
                            reg.poll_sweep_into(Pe(1), &mut out);
                        }
                        ckdirect::DirectBackend::NotifiedPut => {
                            reg.cq_drain_into(Pe(1), usize::MAX, &mut out);
                        }
                        ckdirect::DirectBackend::DcmfCallback => {}
                    }
                }
                5 => {
                    let _ = reg.ready_mark(lane.h);
                }
                6 => {
                    let _ = reg.ready_poll_q(lane.h);
                }
                _ => {
                    let _ = reg.ready(lane.h);
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "landing kinds (none, last word, full) never all reached: {seen:?}"
    );
}

// ----------------------------------------------------------- reorder policy

/// A policy that picks a pseudo-random candidate at every choice point —
/// the harshest schedule the seam can produce.
struct ChaosPolicy {
    rng: DetRng,
    window: Time,
}

impl ckd_sim::ReorderPolicy for ChaosPolicy {
    fn window(&self) -> Time {
        self.window
    }

    fn choose(&mut self, cands: &[ckd_sim::EventMeta]) -> usize {
        self.rng.range(0, cands.len() as u64) as usize
    }
}

#[test]
fn any_reorder_policy_schedule_is_a_valid_in_window_permutation() {
    let mut rng = DetRng::new(0xC0DE).stream("reorder-permutation");
    for case in 0..CASES {
        let n = rng.range(1, 150) as usize;
        let window = Time::from_ns(rng.range(0, 20));
        let times: Vec<u64> = (0..n).map(|_| rng.range(0, 40)).collect();
        let mut q = ckd_sim::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push_tagged(Time::from_ns(t), i as u64 + 1, i);
        }
        q.set_policy(Box::new(ChaosPolicy {
            rng: DetRng::new(0xBAD5EED ^ case as u64).stream("chaos"),
            window,
        }));
        let mut remaining: Vec<Time> = times.iter().map(|&t| Time::from_ns(t)).collect();
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            // every pop stays inside the window anchored at the current min
            let min = *remaining.iter().min().expect("queue and model agree");
            assert!(
                t.as_ps() <= min.as_ps() + window.as_ps(),
                "case {case}: popped {}ps with min {}ps window {}ps",
                t.as_ps(),
                min.as_ps(),
                window.as_ps()
            );
            let at = remaining
                .iter()
                .position(|&r| r == t)
                .expect("popped time was pending");
            remaining.swap_remove(at);
            popped.push(i);
        }
        // …and the drain is a permutation of the input
        assert!(remaining.is_empty(), "case {case}");
        popped.sort_unstable();
        assert_eq!(popped, (0..n).collect::<Vec<_>>(), "case {case}");
    }
}

/// [`ChaosPolicy`] over clustered input: few instants, long same-time
/// runs, and pushes landing in the run being drained (at or behind the
/// high-water mark, as a reordered handler may schedule them). Every pop
/// must stay in the window anchored at the pending minimum, and the drain
/// must be a permutation of everything pushed.
#[test]
fn reorder_policy_permutes_clustered_runs_validly() {
    let mut rng = DetRng::new(0xC1C5).stream("reorder-clustered");
    for case in 0..CASES {
        let window = Time::from_ns(rng.range(0, 3) * 10);
        let mut q = ckd_sim::EventQueue::new();
        q.set_policy(Box::new(ChaosPolicy {
            rng: DetRng::new(0x5EED ^ case as u64).stream("chaos"),
            window,
        }));
        let mut remaining: Vec<Time> = Vec::new();
        let mut popped = Vec::new();
        let mut pushed = 0usize;
        let mut last = 0u64;
        for _ in 0..rng.range(20, 200) {
            if rng.chance(0.55) || remaining.is_empty() {
                let ns = if rng.chance(0.3) {
                    last
                } else {
                    last + rng.range(0, 4) * 10
                };
                for _ in 0..rng.range(1, 12) {
                    q.push_tagged(Time::from_ns(ns), pushed as u64 + 1, pushed);
                    remaining.push(Time::from_ns(ns));
                    pushed += 1;
                }
            } else {
                let (t, i) = q.pop().expect("queue and model agree");
                let min = *remaining.iter().min().expect("non-empty");
                assert!(
                    t.as_ps() <= min.as_ps() + window.as_ps(),
                    "case {case}: popped {}ps with min {}ps window {}ps",
                    t.as_ps(),
                    min.as_ps(),
                    window.as_ps()
                );
                let at = remaining.iter().position(|&r| r == t).expect("pending");
                remaining.swap_remove(at);
                popped.push(i);
                last = t.as_ps() / 1000;
            }
        }
        while let Some((t, i)) = q.pop() {
            let at = remaining.iter().position(|&r| r == t).expect("pending");
            remaining.swap_remove(at);
            popped.push(i);
        }
        assert!(remaining.is_empty(), "case {case}");
        popped.sort_unstable();
        assert_eq!(popped, (0..pushed).collect::<Vec<_>>(), "case {case}");
    }
}

#[test]
fn identity_policy_is_byte_identical_to_the_min_heap_order() {
    let mut rng = DetRng::new(0x1DE7).stream("identity-policy");
    for case in 0..CASES {
        let n = rng.range(1, 150) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range(0, 40)).collect();
        let mut plain = ckd_sim::EventQueue::new();
        let mut scripted = ckd_sim::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            plain.push(Time::from_ns(t), i);
            scripted.push_tagged(Time::from_ns(t), i as u64 + 1, i);
        }
        scripted.set_policy(Box::new(ckd_sim::IdentityPolicy {
            window: Time::from_ns(rng.range(0, 20)),
        }));
        loop {
            let (a, b) = (plain.pop(), scripted.pop());
            assert_eq!(a, b, "case {case}: identity policy diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

// --------------------------------------------------- notified-put CQ model

/// Reference model for the bounded notification CQ of the `NotifiedPut`
/// backend: a naive *unbounded* per-PE `VecDeque` plus explicit depth
/// accounting. For arbitrary interleavings of put/land/drain/ready across
/// a herd of channels, the registry must agree with the model on every
/// observable: each landing's verdict (admitted vs `CqOverflow`), the
/// exact FIFO drain order, the backlog length after every step, and the
/// final notification/overflow/drain counters — which together give
/// exactly-once notification per landed put.
#[test]
fn bounded_cq_matches_an_unbounded_reference_model() {
    use ckdirect::{HandleId, LandOutcome};
    use std::collections::VecDeque;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum St {
        Idle,
        InFlight,
        Queued,
        Delivered,
    }

    let mut rng = DetRng::new(0xCC_C0DE).stream("cq-reference");
    for case in 0..CASES {
        let depth = rng.range(1, 6) as usize;
        let nchan = rng.range(1, 8) as usize;
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::notified(depth));
        let mut handles: Vec<HandleId> = Vec::new();
        let mut st: Vec<St> = Vec::new();
        for i in 0..nchan {
            let h = reg
                .create_handle(Pe(1), Region::alloc(32), u64::MAX, i as u32)
                .unwrap();
            reg.assoc_local(h, Pe(0), Region::alloc(32)).unwrap();
            handles.push(h);
            st.push(St::Idle);
        }
        let mut model: VecDeque<HandleId> = VecDeque::new(); // unbounded
        let (mut enqueued, mut overflows, mut drained) = (0u64, 0u64, 0u64);

        for step in 0..rng.range(30, 200) {
            match rng.range(0, 3) {
                0 => {
                    // advance one random channel's lifecycle a step
                    let i = rng.range(0, nchan as u64) as usize;
                    match st[i] {
                        St::Idle => {
                            reg.put(handles[i], Pe(0)).unwrap();
                            st[i] = St::InFlight;
                        }
                        St::InFlight => {
                            // admission-first landing, judged against the
                            // model's own depth accounting
                            if model.len() >= depth {
                                match reg.land(handles[i]) {
                                    Err(DirectError::CqOverflow) => overflows += 1,
                                    other => panic!(
                                        "case {case} step {step}: full CQ admitted \
                                         a landing: {other:?}"
                                    ),
                                }
                                // refused: channel must still be retryable
                            } else {
                                match reg.land(handles[i]).unwrap() {
                                    LandOutcome::Notified => {}
                                    other => panic!(
                                        "case {case} step {step}: notified landing \
                                         returned {other:?}"
                                    ),
                                }
                                model.push_back(handles[i]);
                                enqueued += 1;
                                st[i] = St::Queued;
                            }
                        }
                        St::Queued => {} // waits for a drain
                        St::Delivered => {
                            reg.ready(handles[i]).unwrap();
                            st[i] = St::Idle;
                        }
                    }
                }
                1 => {
                    // drain a batch; order must be exactly the model's FIFO
                    let batch = rng.range(1, 5) as usize;
                    let mut got = Vec::new();
                    reg.cq_drain_into(Pe(1), batch, &mut got);
                    assert_eq!(
                        got.len(),
                        batch.min(model.len()),
                        "case {case} step {step}: drain size"
                    );
                    for (gh, cb) in got {
                        let wh = model.pop_front().unwrap();
                        assert_eq!(gh, wh, "case {case} step {step}: drain order");
                        let i = handles.iter().position(|&h| h == gh).unwrap();
                        assert_eq!(cb, i as u32, "case {case} step {step}: callback");
                        assert_eq!(
                            st[i],
                            St::Queued,
                            "case {case} step {step}: drained a non-queued channel"
                        );
                        st[i] = St::Delivered;
                        drained += 1;
                    }
                }
                _ => {
                    // release one delivered channel, if any
                    if let Some(i) = (0..nchan).find(|&i| st[i] == St::Delivered) {
                        reg.ready(handles[i]).unwrap();
                        st[i] = St::Idle;
                    }
                }
            }
            assert_eq!(
                reg.cq_len(Pe(1)),
                model.len(),
                "case {case} step {step}: backlog diverged"
            );
            assert!(model.len() <= depth, "case {case}: model overflowed depth");
        }
        let c = reg.counters();
        assert_eq!(c.notifications, enqueued, "case {case}: enqueue count");
        assert_eq!(c.cq_overflows, overflows, "case {case}: overflow count");
        assert_eq!(c.cq_drains, drained, "case {case}: drain count");
        // exactly-once: everything enqueued is either drained or still queued
        assert_eq!(
            c.notifications,
            c.cq_drains + reg.cq_len(Pe(1)) as u64,
            "case {case}: a notification was lost or doubled"
        );
    }
}
