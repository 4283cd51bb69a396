//! Completion-backend selection and the paper's completion-cost split.
//!
//! The fabric decides the default backend ([`ckd_charm::Backend::matching`]):
//! Infiniband completes puts by *polling* a sentinel word (the receiver
//! pays per-handle sweep cost between handler executions), Blue Gene/P's
//! DCMF completes them by *callback* (the messaging layer interrupts, no
//! sweeps). Same API, same delivered bytes — different cost structure,
//! which is the paper's Table 3 story.

use ckd_charm::backend::{DcmfCallback, IbSentinelPoll, SharedMem};
use ckd_charm::{Chare, ChareRef, Ctx, EntryId, Machine, Msg, PutOutcome};
use ckd_net::presets;
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Machine as Topo, Mapper};
use ckdirect::{HandleId, Region};

// ---- selection -----------------------------------------------------------

#[test]
fn builder_defaults_follow_the_fabric() {
    // sentinel polling on Infiniband
    let ib = Machine::builder(presets::ib_abe(Topo::ib_cluster(4, 2))).build();
    assert_eq!(ib.backend().name(), IbSentinelPoll.name());
    assert!(ib.backend().polls());
    // delivery callbacks on Blue Gene/P's DCMF
    let bgp = Machine::builder(presets::bgp_surveyor(Topo::bgp_partition(8))).build();
    assert_eq!(bgp.backend().name(), DcmfCallback.name());
    assert!(!bgp.backend().polls());
}

// ---- one put workload, two completion mechanisms -------------------------

const EP_START: EntryId = EntryId(0);
const EP_HANDLE: EntryId = EntryId(1);
const EP_POKE: EntryId = EntryId(2);
const OOB: u64 = u64::MAX;
const ROUNDS: u32 = 8;

#[derive(Clone, Copy)]
struct HandleMsg(HandleId);

struct Recv {
    sender: Option<ChareRef>,
    region: Region,
    deliveries: u32,
    sums: Vec<f64>,
}

impl Chare for Recv {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                self.sender = Some(*msg.payload.downcast::<ChareRef>().unwrap());
                let h = ctx
                    .direct_create_handle(self.region.clone(), OOB, 0)
                    .unwrap();
                let sender = self.sender.unwrap();
                ctx.send(sender, Msg::value(EP_HANDLE, HandleMsg(h), 16));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        self.deliveries += 1;
        self.sums.push(self.region.read_f64s(0, 4).iter().sum());
        if self.deliveries < ROUNDS {
            ctx.direct_ready(handle).unwrap();
            let sender = self.sender.unwrap();
            ctx.send(sender, Msg::signal(EP_POKE));
        }
    }
}

struct Send {
    handle: Option<HandleId>,
    region: Region,
    round: u32,
}

impl Chare for Send {
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

impl Send {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        let base = self.round as f64;
        self.region
            .write_f64s(0, &[base, base * 2.0, base * 3.0, base * 4.0]);
        assert_eq!(
            ctx.direct_put(self.handle.unwrap()).unwrap(),
            PutOutcome::Sent
        );
    }
}

/// Run the put cycle on a machine; return (poll checks, sums, end time).
fn put_cycle(mut m: Machine) -> (u64, Vec<f64>, Time) {
    let recv_arr = m.create_array("recv", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Recv {
            sender: None,
            region: Region::alloc(4 * 8),
            deliveries: 0,
            sums: Vec::new(),
        }) as Box<dyn Chare>
    });
    let npes = m.npes();
    let send_arr = m.create_array("send", Dims::d1(npes), Mapper::Block, |_| {
        Box::new(Send {
            handle: None,
            region: Region::alloc(4 * 8),
            round: 0,
        }) as Box<dyn Chare>
    });
    let sender = m.element(send_arr, Idx::i1(npes - 1));
    let recv = m.element(recv_arr, Idx::i1(0));
    m.seed(recv, Msg::value(EP_START, sender, 8));
    let end = m.run();
    let sums = m.chare::<Recv>(recv).unwrap().sums.clone();
    let polls = (0..m.npes())
        .map(|pe| m.pe_stats(ckd_topo::Pe(pe as u32)).poll_checks)
        .sum();
    (polls, sums, end)
}

fn expected_sums() -> Vec<f64> {
    (1..=ROUNDS).map(|r| r as f64 * 10.0).collect()
}

#[test]
fn completion_cost_splits_by_backend_as_in_the_paper() {
    // sentinel polling on Infiniband: the receiver's scheduler loop sweeps
    // registered handles, so completions cost poll checks
    let (ib_polls, ib_sums, ib_end) =
        put_cycle(Machine::builder(presets::ib_abe(Topo::ib_cluster(4, 1))).build());
    // DCMF callbacks on Blue Gene/P: the messaging layer upcalls, no sweeps
    let (bgp_polls, bgp_sums, _) =
        put_cycle(Machine::builder(presets::bgp_surveyor(Topo::bgp_partition(4))).build());

    assert_eq!(ib_sums, expected_sums(), "IB delivered wrong data");
    assert_eq!(bgp_sums, expected_sums(), "BGP delivered wrong data");
    assert!(ib_polls > 0, "sentinel backend never polled");
    assert_eq!(bgp_polls, 0, "callback backend must not poll");
    assert!(ib_end > Time::ZERO);
}

#[test]
fn swapping_backends_on_one_fabric_shifts_the_completion_cost() {
    // same Infiniband fabric, same workload: sentinel polling vs the
    // callback-completing shared-memory backend
    let net = || presets::ib_abe(Topo::ib_cluster(4, 1));
    let (poll_checks, poll_sums, poll_end) =
        put_cycle(Machine::builder(net()).with_backend(IbSentinelPoll).build());
    let (cb_checks, cb_sums, cb_end) =
        put_cycle(Machine::builder(net()).with_backend(SharedMem).build());

    assert_eq!(poll_sums, expected_sums());
    assert_eq!(cb_sums, expected_sums(), "backend swap changed the data");
    assert!(poll_checks > 0 && cb_checks == 0);
    // polling waits for the next sweep and pays registration; callback
    // delivery is immediate — the same program finishes earlier
    assert!(
        cb_end < poll_end,
        "callback completion should be cheaper: {cb_end} vs {poll_end}"
    );
}
