//! Integration tests of the message-driven runtime: scheduling, arrays,
//! reductions, broadcasts, and the CkDirect wiring.

use ckd_charm::{Chare, Ctx, EntryId, Machine, Msg, Payload, PutOutcome, RedOp, RedTarget, RedVal};
use ckd_net::presets;
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Machine as Topo, Mapper};
use ckdirect::{HandleId, Region};

const EP_START: EntryId = EntryId(0);
const EP_PING: EntryId = EntryId(1);
const EP_DONE: EntryId = EntryId(2);

fn ib_machine(pes: usize, cores: usize) -> Machine {
    Machine::builder(presets::ib_abe(Topo::ib_cluster(pes, cores))).build()
}

fn bgp_machine(pes: usize) -> Machine {
    Machine::builder(presets::bgp_surveyor(Topo::bgp_partition(pes))).build()
}

// ---------------------------------------------------------------- messaging

/// Two chares bouncing a counter back and forth a fixed number of times.
struct Bouncer {
    peer_lin: usize,
    bounces_seen: u32,
    limit: u32,
    last_time_us: f64,
}

impl Chare for Bouncer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        self.last_time_us = ctx.now().as_us_f64();
        let peer = ctx.element(ctx.me().array, Idx::i1(self.peer_lin));
        match msg.ep {
            EP_START => ctx.send(peer, Msg::value(EP_PING, 1u32, 8)),
            EP_PING => {
                let hop = *msg.payload.downcast::<u32>().unwrap();
                self.bounces_seen += 1;
                if hop < self.limit {
                    ctx.send(peer, Msg::value(EP_PING, hop + 1, 8));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn messages_bounce_and_time_advances() {
    // one core per node so the two chares are on different nodes
    let mut m = ib_machine(4, 1);
    let arr = m.create_array("bounce", Dims::d1(2), Mapper::RoundRobin, |idx| {
        Box::new(Bouncer {
            peer_lin: 1 - idx.at(0),
            bounces_seen: 0,
            limit: 10,
            last_time_us: 0.0,
        })
    });
    let first = m.element(arr, Idx::i1(0));
    m.seed(first, Msg::signal(EP_START));
    let end = m.run();
    assert!(end > Time::ZERO);
    let a = m.chare::<Bouncer>(m.element(arr, Idx::i1(0))).unwrap();
    let b = m.chare::<Bouncer>(m.element(arr, Idx::i1(1))).unwrap();
    assert_eq!(a.bounces_seen + b.bounces_seen, 10); // ten one-way hops
    assert_eq!(m.stats().msgs_sent, 10);
    // PEs on different nodes: each hop is several microseconds
    assert!(end.as_us_f64() > 50.0, "end = {end}");
}

#[test]
fn runtime_is_deterministic() {
    let run = || {
        let mut m = ib_machine(8, 2);
        let arr = m.create_array("bounce", Dims::d1(2), Mapper::RoundRobin, |idx| {
            Box::new(Bouncer {
                peer_lin: 1 - idx.at(0),
                bounces_seen: 0,
                limit: 25,
                last_time_us: 0.0,
            })
        });
        let first = m.element(arr, Idx::i1(0));
        m.seed(first, Msg::signal(EP_START));
        (m.run(), m.stats().events)
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------- reductions

/// Contributes its own value, counts completed generations.
struct Summer {
    value: f64,
    generations: u32,
    last_total: f64,
    rounds: u32,
}

impl Chare for Summer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                ctx.contribute(
                    RedVal::F64(self.value),
                    RedOp::SumF64,
                    RedTarget::Broadcast(EP_DONE),
                );
            }
            EP_DONE => {
                self.generations += 1;
                self.last_total = msg.payload.downcast::<RedVal>().unwrap().f64().unwrap();
                if self.generations < self.rounds {
                    ctx.contribute(
                        RedVal::F64(self.value),
                        RedOp::SumF64,
                        RedTarget::Broadcast(EP_DONE),
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn sum_reduction_broadcasts_to_all() {
    let mut m = ib_machine(8, 2);
    let n = 37usize; // deliberately not a multiple of the PE count
    let arr = m.create_array("sum", Dims::d1(n), Mapper::Block, |idx| {
        Box::new(Summer {
            value: idx.at(0) as f64,
            generations: 0,
            last_total: 0.0,
            rounds: 3,
        })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();
    let expected: f64 = (0..n).map(|i| i as f64).sum();
    for lin in 0..n {
        let c = m.chare::<Summer>(m.element(arr, Idx::i1(lin))).unwrap();
        assert_eq!(c.generations, 3, "element {lin}");
        assert_eq!(c.last_total, expected, "element {lin}");
    }
    assert_eq!(m.stats().reductions, 3);
}

#[test]
fn reduction_works_on_bgp_machine_too() {
    let mut m = bgp_machine(16);
    let arr = m.create_array("sum", Dims::d2(4, 4), Mapper::RoundRobin, |_| {
        Box::new(Summer {
            value: 1.0,
            generations: 0,
            last_total: 0.0,
            rounds: 1,
        })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();
    let c = m.chare::<Summer>(m.element(arr, Idx::i2(3, 3))).unwrap();
    assert_eq!(c.last_total, 16.0);
}

/// Min/max reductions delivered to a single chare.
struct Extremist {
    value: f64,
    got: Option<f64>,
    op: RedOp,
}

impl Chare for Extremist {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                let root = ctx.element(ctx.me().array, Idx::i1(0));
                ctx.contribute(
                    RedVal::F64(self.value),
                    self.op,
                    RedTarget::Single(root, EP_DONE),
                );
            }
            EP_DONE => {
                self.got = msg.payload.downcast::<RedVal>().unwrap().f64();
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn min_reduction_to_single_target() {
    let mut m = ib_machine(4, 2);
    let arr = m.create_array("min", Dims::d1(9), Mapper::Block, |idx| {
        Box::new(Extremist {
            value: (idx.at(0) as f64 - 4.0).abs() + 0.5,
            got: None,
            op: RedOp::MinF64,
        })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();
    let root = m.chare::<Extremist>(m.element(arr, Idx::i1(0))).unwrap();
    assert_eq!(root.got, Some(0.5));
    // non-root elements never saw the result
    let other = m.chare::<Extremist>(m.element(arr, Idx::i1(5))).unwrap();
    assert_eq!(other.got, None);
}

// ---------------------------------------------------------------- ckdirect

const OOB: u64 = u64::MAX;
const TAG_DATA: u32 = 1;

/// Receiver side of a CkDirect channel: creates the handle, ships it to the
/// sender, counts deliveries, re-arms each time.
struct DirectRecv {
    sender: Option<ckd_charm::ChareRef>,
    handle: Option<HandleId>,
    region: Region,
    deliveries: u32,
    sums: Vec<f64>,
    rounds: u32,
}

/// Sender side: receives the handle, associates a local buffer, puts a
/// fresh payload each round when poked.
struct DirectSend {
    handle: Option<HandleId>,
    region: Region,
    round: u32,
}

#[derive(Clone, Copy)]
struct HandleMsg(HandleId);

const EP_HANDLE: EntryId = EntryId(10);
const EP_POKE: EntryId = EntryId(11);

impl Chare for DirectRecv {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                let h = ctx
                    .direct_create_handle(self.region.clone(), OOB, TAG_DATA)
                    .unwrap();
                self.handle = Some(h);
                let sender = self.sender.unwrap();
                ctx.send(sender, Msg::value(EP_HANDLE, HandleMsg(h), 16));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, tag: u32, handle: HandleId) {
        assert_eq!(tag, TAG_DATA);
        self.deliveries += 1;
        // read the landed doubles straight out of the registered buffer
        let vals = self.region.read_f64s(0, 4);
        self.sums.push(vals.iter().sum());
        if self.deliveries < self.rounds {
            ctx.direct_ready(handle).unwrap();
            let sender = self.sender.unwrap();
            ctx.send(sender, Msg::signal(EP_POKE));
        }
    }
}

impl Chare for DirectSend {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_HANDLE => {
                let h = msg.payload.downcast::<HandleMsg>().unwrap().0;
                self.handle = Some(h);
                ctx.direct_assoc_local(h, self.region.clone()).unwrap();
                self.fire(ctx);
            }
            EP_POKE => self.fire(ctx),
            other => panic!("unexpected {other:?}"),
        }
    }
}

impl DirectSend {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        let base = self.round as f64;
        self.region
            .write_f64s(0, &[base, base * 2.0, base * 3.0, base * 4.0]);
        assert_eq!(
            ctx.direct_put(self.handle.unwrap()).unwrap(),
            PutOutcome::Sent,
            "no faults enabled, so every put is clean"
        );
    }
}

// Wiring: the receiver learns its sender from the start message.
struct Wired {
    inner: DirectRecv,
}

impl Chare for Wired {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.ep == EP_START {
            self.inner.sender = Some(*msg.payload.downcast::<ckd_charm::ChareRef>().unwrap());
        }
        self.inner.entry(ctx, msg);
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, tag: u32, handle: HandleId) {
        self.inner.direct_callback(ctx, tag, handle);
    }
}

fn run_direct_cycle_n(mut m: Machine, rounds: u32) -> (u32, Vec<f64>, Time) {
    let recv_arr = m.create_array("recv", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Wired {
            inner: DirectRecv {
                sender: None,
                handle: None,
                region: Region::alloc(4 * 8),
                deliveries: 0,
                sums: Vec::new(),
                rounds,
            },
        })
    });
    // home the sender on the last PE so the channel crosses the network
    let npes = m.npes();
    let send_arr = m.create_array("send", Dims::d1(npes), Mapper::Block, |_| {
        Box::new(DirectSend {
            handle: None,
            region: Region::alloc(4 * 8),
            round: 0,
        })
    });
    let sender_ref = m.element(send_arr, Idx::i1(npes - 1));
    let recv_ref = m.element(recv_arr, Idx::i1(0));
    m.seed(recv_ref, Msg::value(EP_START, sender_ref, 8));
    let end = m.run();
    let w = m.chare::<Wired>(recv_ref).unwrap();
    (w.inner.deliveries, w.inner.sums.clone(), end)
}

fn run_direct_cycle(m: Machine) -> (u32, Vec<f64>, Time) {
    run_direct_cycle_n(m, 5)
}

#[test]
fn ckdirect_cycle_on_ib() {
    let (deliveries, sums, end) = run_direct_cycle(ib_machine(4, 2));

    assert_eq!(deliveries, 5);
    assert_eq!(sums, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
    assert!(end > Time::ZERO);
}

#[test]
fn ckdirect_cycle_on_bgp() {
    let (deliveries, sums, _) = run_direct_cycle(bgp_machine(8));
    assert_eq!(deliveries, 5);
    assert_eq!(sums, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
}

#[test]
fn ckdirect_beats_messages_on_latency() {
    // one-way data delivery: put+poll+callback must be cheaper than
    // alloc+envelope+wire+sched for the same payload on the IB machine.
    let (_, _, end_direct) = run_direct_cycle_n(ib_machine(4, 1), 40);

    // message-based equivalent: 80 one-way small sends, matching the 40
    // direct rounds of put+poke (2 one-way hops each).
    let mut m = ib_machine(4, 1);
    let arr = m.create_array("bounce", Dims::d1(2), Mapper::RoundRobin, |idx| {
        Box::new(Bouncer {
            peer_lin: 1 - idx.at(0),
            bounces_seen: 0,
            limit: 80,
            last_time_us: 0.0,
        })
    });
    let first = m.element(arr, Idx::i1(0));
    m.seed(first, Msg::signal(EP_START));
    let end_msg = m.run();
    // Both run 80 one-way hops of small payloads (40 puts + 40 pokes vs 80
    // sends); the direct version also pays one-time setup (registration +
    // handle shipping), yet must still win.
    assert!(
        end_direct < end_msg,
        "direct {end_direct} !< messages {end_msg}"
    );
}

#[test]
fn poll_checks_are_counted() {
    let (_, _, _) = run_direct_cycle(ib_machine(4, 2));
    // counters live on the machine consumed by the helper; re-run inline:
    let mut m = ib_machine(4, 2);
    let recv_arr = m.create_array("recv", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Wired {
            inner: DirectRecv {
                sender: None,
                handle: None,
                region: Region::alloc(4 * 8),
                deliveries: 0,
                sums: Vec::new(),
                rounds: 3,
            },
        })
    });
    let npes = m.npes();
    let send_arr = m.create_array("send", Dims::d1(npes), Mapper::Block, |_| {
        Box::new(DirectSend {
            handle: None,
            region: Region::alloc(4 * 8),
            round: 0,
        })
    });
    let sender_ref = m.element(send_arr, Idx::i1(npes - 1));
    let recv_ref = m.element(recv_arr, Idx::i1(0));
    m.seed(recv_ref, Msg::value(EP_START, sender_ref, 8));
    m.run();
    let c = m.direct_counters();
    assert_eq!(c.puts, 3);
    assert_eq!(c.deliveries, 3);
    assert!(
        c.poll_checks >= c.deliveries,
        "every delivery needs at least one check"
    );
}

// ------------------------------------------------------- broadcast payloads

struct Echo {
    seen: u32,
}

impl Chare for Echo {
    fn entry(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        assert!(matches!(msg.payload, Payload::Empty));
        self.seen += 1;
    }
}

#[test]
fn seed_broadcast_reaches_every_element() {
    let mut m = bgp_machine(8);
    let arr = m.create_array("echo", Dims::d3(2, 3, 2), Mapper::RoundRobin, |_| {
        Box::new(Echo { seen: 0 })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();
    for idx in [Idx::i3(0, 0, 0), Idx::i3(1, 2, 1), Idx::i3(0, 1, 1)] {
        assert_eq!(m.chare::<Echo>(m.element(arr, idx)).unwrap().seen, 1);
    }
}

#[test]
fn run_until_limits_time() {
    let mut m = ib_machine(4, 2);
    let arr = m.create_array("bounce", Dims::d1(2), Mapper::RoundRobin, |idx| {
        Box::new(Bouncer {
            peer_lin: 1 - idx.at(0),
            bounces_seen: 0,
            limit: 1_000_000,
            last_time_us: 0.0,
        })
    });
    let first = m.element(arr, Idx::i1(0));
    m.seed(first, Msg::signal(EP_START));
    let end = m.run_until(Time::from_us(200));
    assert!(end <= Time::from_us(200));
    let a = m.chare::<Bouncer>(m.element(arr, Idx::i1(0))).unwrap();
    assert!(a.bounces_seen > 2, "some progress happened");
    assert!(a.bounces_seen < 1000, "but not the whole run");
}

// ------------------------------------------------------------- strided API

/// Exchange a matrix column one-sided: the put gathers column `1` of the
/// sender's 4x4 matrix and scatters into column `2` of the receiver's —
/// no application pack/unpack on either side.
struct StridedRecv {
    sender: Option<ckd_charm::ChareRef>,
    matrix: Region,
    deliveries: u32,
}

struct StridedSend {
    matrix: Region,
    handle: Option<HandleId>,
}

const EP_SHANDLE: EntryId = EntryId(20);

fn col_spec(c: usize) -> ckdirect::StridedSpec {
    ckdirect::StridedSpec {
        offset: c * 8,
        block_len: 8,
        stride: 4 * 8,
        count: 4,
    }
}

impl Chare for StridedRecv {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        assert_eq!(msg.ep, EP_START);
        self.sender = Some(*msg.payload.downcast::<ckd_charm::ChareRef>().unwrap());
        let h = ctx
            .direct_create_handle_strided(self.matrix.clone(), col_spec(2), OOB, 1)
            .unwrap();
        ctx.send(self.sender.unwrap(), Msg::value(EP_SHANDLE, h, 16));
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        self.deliveries += 1;
        if self.deliveries < 3 {
            ctx.direct_ready(handle).unwrap();
            let sender = self.sender.unwrap();
            ctx.send(sender, Msg::signal(EP_POKE));
        }
    }
}

impl Chare for StridedSend {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_SHANDLE => {
                let h = *msg.payload.downcast::<HandleId>().unwrap();
                ctx.direct_assoc_local_strided(h, self.matrix.clone(), col_spec(1))
                    .unwrap();
                self.handle = Some(h);
                self.fire(ctx, 1.0);
            }
            EP_POKE => {
                // later rounds send updated column values
                let round = 2.0;
                self.fire(ctx, round);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

impl StridedSend {
    fn fire(&mut self, ctx: &mut Ctx<'_>, scale: f64) {
        for r in 0..4 {
            self.matrix
                .write_f64s(r * 4 * 8 + 8, &[scale * (r as f64 + 1.0)]);
        }
        assert_eq!(
            ctx.direct_put(self.handle.unwrap()).unwrap(),
            PutOutcome::Sent,
            "no faults enabled, so every put is clean"
        );
    }
}

#[test]
fn strided_column_exchange_through_the_runtime() {
    let mut m = ib_machine(4, 1);
    let recv_arr = m.create_array("srecv", Dims::d1(1), Mapper::Block, |_| {
        Box::new(StridedRecv {
            sender: None,
            matrix: Region::alloc(4 * 4 * 8),
            deliveries: 0,
        })
    });
    let send_arr = m.create_array("ssend", Dims::d1(4), Mapper::Block, |_| {
        Box::new(StridedSend {
            matrix: Region::alloc(4 * 4 * 8),
            handle: None,
        })
    });
    let r = m.element(recv_arr, Idx::i1(0));
    let s = m.element(send_arr, Idx::i1(3));
    m.seed(r, Msg::value(EP_START, s, 8));
    m.run();
    let recv = m.chare::<StridedRecv>(r).unwrap();
    assert_eq!(recv.deliveries, 3);
    // column 2 of the receiver holds the last round's column 1 values;
    // every other cell is untouched
    for row in 0..4 {
        let vals = recv.matrix.read_f64s(row * 4 * 8, 4);
        assert_eq!(vals[2], 2.0 * (row as f64 + 1.0), "row {row}");
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 0.0);
        assert_eq!(vals[3], 0.0);
    }
}

// -------------------------------------------------------------- get API

#[test]
fn get_pulls_through_the_runtime() {
    // reuse the Wired pair but drive a get from the receiver side
    struct Puller {
        source: Option<ckd_charm::ChareRef>,
        region: Region,
        got: Vec<f64>,
    }
    struct Holder {
        region: Region,
    }
    const EP_GHANDLE: EntryId = EntryId(30);

    impl Chare for Puller {
        fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            match msg.ep {
                EP_START => {
                    self.source = Some(*msg.payload.downcast::<ckd_charm::ChareRef>().unwrap());
                    let h = ctx
                        .direct_create_handle(self.region.clone(), OOB, 2)
                        .unwrap();
                    let source = self.source.unwrap();
                    ctx.send(source, Msg::value(EP_GHANDLE, h, 16));
                }
                EP_POKE => {
                    // the source says its data is ready: pull it
                    let h = *msg.payload.downcast::<HandleId>().unwrap();
                    ctx.direct_get(h).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        fn direct_callback(&mut self, _ctx: &mut Ctx<'_>, tag: u32, _handle: HandleId) {
            assert_eq!(tag, 2);
            self.got = self.region.read_f64s(0, 2);
        }
    }

    impl Chare for Holder {
        fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            assert_eq!(msg.ep, EP_GHANDLE);
            let h = *msg.payload.downcast::<HandleId>().unwrap();
            ctx.direct_assoc_local(h, self.region.clone()).unwrap();
            self.region.write_f64s(0, &[2.5, 7.5]);
            // notify the puller that the data is ready (the extra
            // synchronization §2 says gets cannot avoid)
            let from = *msg.payload.downcast::<HandleId>().unwrap();
            let puller = ckd_charm::ChareRef {
                array: ckd_charm::ArrayId(2),
                lin: 0,
            };
            let _ = from;
            ctx.send(puller, Msg::value(EP_POKE, h, 16));
        }
    }

    let mut m = ib_machine(4, 1);
    // array ids are assigned in creation order: holder=0? create puller
    // third so its ArrayId(2) reference above resolves
    let _pad = m.create_array("pad", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Echo { seen: 0 }) as Box<dyn Chare>
    });
    let holder_arr = m.create_array("holder", Dims::d1(4), Mapper::Block, |_| {
        Box::new(Holder {
            region: Region::alloc(16),
        })
    });
    let puller_arr = m.create_array("puller", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Puller {
            source: None,
            region: Region::alloc(16),
            got: Vec::new(),
        })
    });
    assert_eq!(puller_arr, ckd_charm::ArrayId(2));
    let h = m.element(holder_arr, Idx::i1(3));
    let p = m.element(puller_arr, Idx::i1(0));
    m.seed(p, Msg::value(EP_START, h, 8));
    m.run();
    assert_eq!(m.chare::<Puller>(p).unwrap().got, vec![2.5, 7.5]);
}

// -------------------------------------------------------- runtime services

/// `Ctx::broadcast` reaches every element of another array, through the
/// participant tree, exactly once per call.
struct BcastDriver {
    target_array: Option<ckd_charm::ArrayId>,
}

impl Chare for BcastDriver {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        assert_eq!(msg.ep, EP_START);
        let arr = self.target_array.unwrap();
        ctx.broadcast(arr, Msg::signal(EP_PING));
        ctx.broadcast(arr, Msg::signal(EP_PING));
    }
}

struct BcastSink {
    hits: u32,
}

impl Chare for BcastSink {
    fn entry(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        assert_eq!(msg.ep, EP_PING);
        self.hits += 1;
    }
}

#[test]
fn user_broadcast_reaches_every_element_per_call() {
    let mut m = ib_machine(8, 2);
    let sink = m.create_array("sink", Dims::d2(3, 5), Mapper::RoundRobin, |_| {
        Box::new(BcastSink { hits: 0 })
    });
    let driver = m.create_array("driver", Dims::d1(1), Mapper::Block, |_| {
        Box::new(BcastDriver { target_array: None })
    });
    let d = m.element(driver, Idx::i1(0));
    m.with_chare_mut::<BcastDriver>(d, |c| c.target_array = Some(sink));
    m.seed(d, Msg::signal(EP_START));
    m.run();
    for lin in 0..15 {
        let c = m
            .chare::<BcastSink>(ckd_charm::ChareRef { array: sink, lin })
            .unwrap();
        assert_eq!(c.hits, 2, "element {lin}");
    }
}

/// `send_local` delivers on the same PE with no wire cost: cheaper than a
/// remote send and still scheduler-ordered.
struct SelfSender {
    steps: u32,
    t_start: Time,
    t_end: Time,
}

const EP_SELF: EntryId = EntryId(40);

impl Chare for SelfSender {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                self.t_start = ctx.now();
                let me = ctx.me();
                ctx.send_local(me, Msg::signal(EP_SELF));
            }
            EP_SELF => {
                self.steps += 1;
                if self.steps < 10 {
                    let me = ctx.me();
                    ctx.send_local(me, Msg::signal(EP_SELF));
                } else {
                    self.t_end = ctx.now();
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn send_local_is_cheap_and_ordered() {
    let mut m = ib_machine(4, 1);
    let arr = m.create_array("selfish", Dims::d1(1), Mapper::Block, |_| {
        Box::new(SelfSender {
            steps: 0,
            t_start: Time::ZERO,
            t_end: Time::ZERO,
        })
    });
    let a = m.element(arr, Idx::i1(0));
    m.seed(a, Msg::signal(EP_START));
    m.run();
    let c = m.chare::<SelfSender>(a).unwrap();
    assert_eq!(c.steps, 10);
    let per_hop = (c.t_end - c.t_start).as_us_f64() / 10.0;
    // alloc (0.7us) + sched (2.5us), and crucially no wire latency (~5.9us)
    assert!(per_hop < 4.0, "local enqueue costs {per_hop}us per hop");
    assert!(
        per_hop > 2.0,
        "scheduler cost must still be paid: {per_hop}us"
    );
}
