//! Reconciliation tests: the per-protocol breakdown in `MachineStats` must
//! agree with the aggregate counters it was derived from, and the tracer's
//! own quantities (rendezvous handshakes, latency samples, reduction
//! contributions) must line up with the machine counters they accompany.
//! That every view renders the same value for one quantity is
//! `tests/view_agreement.rs`.

use bytes::Bytes;
use ckd_charm::{
    Chare, ChareRef, Ctx, EntryId, FaultPlan, LearnConfig, Machine, Msg, RedOp, RedTarget, RedVal,
    TraceConfig,
};
use ckd_net::presets;
use ckd_topo::{Dims, Idx, Machine as Topo, Mapper};

const EP_START: EntryId = EntryId(0);
const EP_SMALL: EntryId = EntryId(1);
const EP_BIG: EntryId = EntryId(2);
const EP_DONE: EntryId = EntryId(3);
const EP_DATA: EntryId = EntryId(4);
const EP_ACK: EntryId = EntryId(5);

const SMALL: usize = 64; // well under eager_max
const BIG: usize = 64 * 1024; // well over eager_max -> rendezvous

fn ib_builder(pes: usize, cores: usize) -> ckd_charm::MachineBuilder {
    Machine::builder(presets::ib_abe(Topo::ib_cluster(pes, cores)))
}

fn ib_machine(pes: usize, cores: usize) -> Machine {
    ib_builder(pes, cores).build()
}

// ------------------------------------------------- two-sided reconciliation

/// Each round sends one eager-sized and one rendezvous-sized message to the
/// peer, then both contribute to a barrier (control traffic).
struct Exchanger {
    peer_lin: usize,
    rounds_left: u32,
    small_seen: u32,
    big_seen: u32,
}

impl Chare for Exchanger {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let peer = ctx.element(ctx.me().array, Idx::i1(self.peer_lin));
        match msg.ep {
            EP_START | EP_DONE => {
                if msg.ep == EP_DONE && self.rounds_left == 0 {
                    return;
                }
                if self.rounds_left > 0 {
                    self.rounds_left -= 1;
                    ctx.send(peer, Msg::value(EP_SMALL, 7u32, SMALL));
                    ctx.send(peer, Msg::value(EP_BIG, 9u32, BIG));
                }
                ctx.barrier(EP_DONE);
            }
            EP_SMALL => self.small_seen += 1,
            EP_BIG => self.big_seen += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn two_sided_breakdown_reconciles_with_aggregates() {
    const ROUNDS: u32 = 6;
    let mut m = ib_builder(4, 1)
        .with_tracing(TraceConfig::default())
        .build();
    let arr = m.create_array("x", Dims::d1(2), Mapper::RoundRobin, |idx| {
        Box::new(Exchanger {
            peer_lin: 1 - idx.at(0),
            rounds_left: ROUNDS,
            small_seen: 0,
            big_seen: 0,
        })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();

    let s = m.stats();
    // both chares ran all rounds
    for lin in 0..2 {
        let c = m.chare::<Exchanger>(m.element(arr, Idx::i1(lin))).unwrap();
        assert_eq!(c.small_seen, ROUNDS);
        assert_eq!(c.big_seen, ROUNDS);
    }
    // protocol split is exact: one eager + one rendezvous per round per chare
    assert_eq!(s.proto.eager.count, 2 * ROUNDS as u64);
    assert_eq!(s.proto.rendezvous.count, 2 * ROUNDS as u64);
    assert_eq!(s.proto.rdma_put.count, 0);
    assert_eq!(s.proto.dcmf.count, 0);
    assert!(
        s.proto.control.count > 0,
        "barriers produce control packets"
    );
    // ...and reconciles with the aggregates
    assert_eq!(s.proto.two_sided().count, s.msgs_sent);
    assert_eq!(s.proto.two_sided().bytes, s.msg_bytes);
    assert_eq!(s.proto.eager.bytes, 2 * (ROUNDS as u64) * SMALL as u64);
    assert_eq!(s.proto.rendezvous.bytes, 2 * (ROUNDS as u64) * BIG as u64);
    // every rendezvous transfer produced one reconstructed RTS and CTS
    let metrics = m.tracer().metrics().unwrap();
    assert_eq!(metrics.rts, s.proto.rendezvous.count);
    assert_eq!(metrics.cts, s.proto.rendezvous.count);
}

// ------------------------------------------------------- put reconciliation

struct Producer {
    consumer: Option<ChareRef>,
    round: u32,
    rounds: u32,
}

impl Chare for Producer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                self.consumer = Some(*msg.payload.downcast::<ChareRef>().unwrap());
                self.fire(ctx);
            }
            EP_ACK => {
                if self.round < self.rounds {
                    self.fire(ctx);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

impl Producer {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        let payload = vec![0x5au8; 4096];
        let consumer = self.consumer.unwrap();
        ctx.send_learned(consumer, Msg::bytes(EP_DATA, Bytes::from(payload)));
    }
}

struct AckingConsumer {
    producer: Option<ChareRef>,
    received: u32,
}

impl Chare for AckingConsumer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => self.producer = Some(*msg.payload.downcast::<ChareRef>().unwrap()),
            EP_DATA => {
                self.received += 1;
                ctx.send(self.producer.unwrap(), Msg::signal(EP_ACK));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn put_breakdown_reconciles_with_aggregates() {
    const ROUNDS: u32 = 16;
    let mut m = ib_builder(4, 1)
        .with_learning(LearnConfig { threshold: 3 })
        .with_tracing(TraceConfig::default())
        .build();
    let prod = m.create_array("p", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Producer {
            consumer: None,
            round: 0,
            rounds: ROUNDS,
        })
    });
    let cons = m.create_array("c", Dims::d1(4), Mapper::Block, |_| {
        Box::new(AckingConsumer {
            producer: None,
            received: 0,
        })
    });
    let p = m.element(prod, Idx::i1(0));
    let c = m.element(cons, Idx::i1(3));
    m.seed(c, Msg::value(EP_START, p, 8));
    m.seed(p, Msg::value(EP_START, c, 8));
    m.run();

    let s = m.stats();
    let totals = m.learning_totals();
    assert_eq!(totals.installed, 1);
    assert!(totals.hits > 0, "learned channel never went one-sided");
    // on the RDMA fabric every put is an rdma-put; counts and bytes match
    assert_eq!(s.proto.rdma_put.count, s.puts);
    assert_eq!(s.proto.rdma_put.bytes, s.put_bytes);
    assert_eq!(s.puts, totals.hits);
    assert_eq!(s.proto.two_sided().count, s.msgs_sent);
    assert_eq!(s.proto.two_sided().bytes, s.msg_bytes);
    // the registry agrees, and each delivery closed one trace latency sample
    let metrics = m.tracer().metrics().unwrap();
    let reg = m.direct_counters();
    assert_eq!(reg.puts, s.puts);
    assert_eq!(
        metrics.put_to_callback_ns.count(),
        reg.deliveries,
        "each delivered put closes one issue→callback latency sample"
    );
}

/// Under an injected-fault plan a retransmitted put still counts exactly
/// once in every app-visible aggregate — `puts`, `put_bytes`, the
/// per-protocol breakdown, and the registry all match a fault-free run of
/// the same program. The replays surface only in the reliability stats.
#[test]
fn retransmitted_puts_count_once_with_retries_separate() {
    const ROUNDS: u32 = 16;
    let run = |plan: Option<FaultPlan>| {
        let mut b = ib_builder(4, 1).with_learning(LearnConfig { threshold: 3 });
        if let Some(p) = plan {
            b = b.with_faults(p);
        }
        let mut m = b.build();
        let prod = m.create_array("p", Dims::d1(1), Mapper::Block, |_| {
            Box::new(Producer {
                consumer: None,
                round: 0,
                rounds: ROUNDS,
            })
        });
        let cons = m.create_array("c", Dims::d1(4), Mapper::Block, |_| {
            Box::new(AckingConsumer {
                producer: None,
                received: 0,
            })
        });
        let p = m.element(prod, Idx::i1(0));
        let c = m.element(cons, Idx::i1(3));
        m.seed(c, Msg::value(EP_START, p, 8));
        m.seed(p, Msg::value(EP_START, c, 8));
        m.run();
        let received = m.chare::<AckingConsumer>(c).unwrap().received;
        (m, received)
    };
    let (clean, clean_rx) = run(None);
    let (faulty, faulty_rx) = run(Some(
        FaultPlan::new(0xACED).with_drop(0.15).with_corrupt(0.05),
    ));

    let rel = faulty.stats().rel;
    assert!(rel.retries > 0, "the plan never bit a put or message");
    // the program itself is oblivious: every payload arrived exactly once
    assert_eq!(clean_rx, ROUNDS);
    assert_eq!(faulty_rx, ROUNDS);
    // app-visible aggregates are identical to the fault-free run — each
    // logical put counted once no matter how often the fabric replayed it
    let (cs, fs) = (clean.stats(), faulty.stats());
    assert_eq!(fs.puts, cs.puts, "retransmits inflated `puts`");
    assert_eq!(
        fs.put_bytes, cs.put_bytes,
        "retransmits inflated `put_bytes`"
    );
    assert_eq!(
        fs.msgs_sent, cs.msgs_sent,
        "retransmits inflated `msgs_sent`"
    );
    assert_eq!(fs.proto.rdma_put, cs.proto.rdma_put);
    assert_eq!(fs.proto.two_sided().count, cs.proto.two_sided().count);
    // the registry agrees: one landing consumed per logical put
    let (creg, freg) = (clean.direct_counters(), faulty.direct_counters());
    assert_eq!(freg.puts, creg.puts);
    assert_eq!(freg.deliveries, creg.deliveries);
    assert_eq!(freg.puts, fs.puts);
}

#[test]
fn tracing_is_off_by_default() {
    let m = ib_machine(2, 1);
    assert!(!m.tracer().is_enabled());
    assert!(m.tracer().metrics().is_none());
}

#[test]
fn contributes_show_up_in_reduce_counters() {
    const ROUNDS: u32 = 4;
    let mut m = ib_builder(4, 1)
        .with_tracing(TraceConfig::default())
        .build();
    let arr = m.create_array("x", Dims::d1(4), Mapper::Block, |_| {
        Box::new(Reducer {
            generations: 0,
            rounds: ROUNDS,
        })
    });
    m.seed_broadcast(arr, Msg::signal(EP_START));
    m.run();
    let metrics = m.tracer().metrics().unwrap();
    // one contribute per element per generation, one completion per generation
    assert_eq!(metrics.reduce_contribs, 4 * ROUNDS as u64);
    assert_eq!(m.stats().reductions, ROUNDS as u64);
}

struct Reducer {
    generations: u32,
    rounds: u32,
}

impl Chare for Reducer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => ctx.contribute(
                RedVal::F64(1.0),
                RedOp::SumF64,
                RedTarget::Broadcast(EP_DONE),
            ),
            EP_DONE => {
                self.generations += 1;
                if self.generations < self.rounds {
                    ctx.contribute(
                        RedVal::F64(1.0),
                        RedOp::SumF64,
                        RedTarget::Broadcast(EP_DONE),
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
