//! Channel storm: the §5.2 polling-window pathology at modern scale.
//!
//! OpenAtom's problem was a few thousand persistent channels per PE; the
//! modern incarnation (memory channels over Slingshot, notifiable RMA) is
//! hundreds of thousands of *registered* channels of which only a handful
//! are *active* in any phase. This workload makes that shape explicit:
//!
//! * a receiver PE registers `registered` persistent channels once,
//!   ships all the handles to the sender in one setup message, and keeps
//!   every channel armed in the polling queue for the whole run;
//! * each iteration, the sender puts into a rotating window of `active`
//!   channels; the receiver re-arms each delivery in its completion
//!   callback and acks the wave, which releases the next one (the ack is
//!   the application-level synchronization CkDirect requires);
//! * at the end the receiver tears every channel down with
//!   `destroy_handle`, exercising the registry's slab recycling at scale.
//!
//! The *virtual-time* polling cost still scales with `registered` — each
//! sweep charges `poll_per_handle` per armed handle, faithfully modeling
//! the paper — but the simulator's *host* cost per sweep is O(`active`):
//! only the ready list is walked. `ckd-sweep channels` runs this
//! workload across 1k→100k registered channels with a fixed active count
//! (`BENCH_channels.json`, virtual-time results only); `ckd-perf` times
//! the sweep itself at 1k and 100k armed channels, and `scripts/check.sh`
//! gates on that pair staying flat.

use ckd_charm::{ArrayId, Chare, Ctx, EntryId, Machine, Msg, PutOutcome};
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Mapper};
use ckdirect::{HandleId, Region};

use crate::common::{Platform, OOB_PATTERN};

const EP_SETUP: EntryId = EntryId(0);
const EP_HANDLES: EntryId = EntryId(1);
const EP_ACK: EntryId = EntryId(2);
const EP_TEARDOWN: EntryId = EntryId(3);

/// Bytes of each channel's (real) receive window; the interesting scale
/// here is channel *count*, not payload size.
const WINDOW_BYTES: usize = 32;

/// Configuration of one channel-storm run.
#[derive(Clone, Copy, Debug)]
pub struct ChanstormCfg {
    /// Persistent channels registered on the receiver PE.
    pub registered: usize,
    /// Channels actually put into per iteration (the rotating window).
    pub active: usize,
    /// Iterations (waves of `active` puts).
    pub iters: u32,
}

/// Result of one channel-storm run.
#[derive(Clone, Copy, Debug)]
pub struct ChanstormResult {
    /// Channels registered.
    pub registered: usize,
    /// Active window size.
    pub active: usize,
    /// Iterations completed.
    pub iters: u32,
    /// Virtual time at completion.
    pub total: Time,
    /// Puts issued (== `active × iters`).
    pub puts: u64,
    /// Completion callbacks delivered.
    pub deliveries: u64,
    /// Sentinel checks charged by poll sweeps (scales with `registered`).
    pub poll_checks: u64,
    /// Scheduler events dispatched.
    pub events: u64,
    /// Channels destroyed at teardown (== `registered`).
    pub destroyed: u64,
}

/// The receiver (array element 0, PE 0) and sender (element 1, PE 1).
struct Storm {
    cfg: ChanstormCfg,
    /// This element's role: 0 = receiver, 1 = sender.
    lin: usize,
    array: Option<ArrayId>,
    // receiver state
    in_handles: Vec<HandleId>,
    in_regions: Vec<Region>,
    arrived: usize,
    destroyed: u64,
    // sender state
    out_handles: Vec<HandleId>,
    send_region: Option<Region>,
    iter: u32,
    window_start: usize,
}

impl Storm {
    fn peer(&self, ctx: &mut Ctx<'_>) -> ckd_charm::ChareRef {
        let other = 1 - self.lin;
        ctx.element(self.array.expect("wired"), Idx::i1(other))
    }

    /// Sender: put one wave into the current rotating window.
    fn put_wave(&mut self, ctx: &mut Ctx<'_>) {
        let region = self.send_region.as_ref().expect("associated");
        region.write_f64s(0, &[self.iter as f64 + 1.0]);
        for k in 0..self.cfg.active {
            let h = self.out_handles[(self.window_start + k) % self.cfg.registered];
            match ctx.direct_put(h).expect("storm put") {
                PutOutcome::Sent | PutOutcome::Retried { .. } | PutOutcome::Degraded => {}
            }
        }
        self.window_start = (self.window_start + self.cfg.active) % self.cfg.registered;
    }
}

impl Chare for Storm {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_SETUP => {
                if self.lin != 0 {
                    return; // the sender waits for the handle shipment
                }
                // Receiver: register the whole herd once and ship every
                // handle in a single batched setup message.
                for tag in 0..self.cfg.registered {
                    let region = Region::alloc(WINDOW_BYTES);
                    let h = ctx
                        .direct_create_handle_wire(
                            region.clone(),
                            OOB_PATTERN,
                            tag as u32,
                            WINDOW_BYTES,
                        )
                        .expect("create storm channel");
                    self.in_regions.push(region);
                    self.in_handles.push(h);
                }
                let peer = self.peer(ctx);
                let bytes = self.in_handles.len() * 4;
                ctx.send(peer, Msg::value(EP_HANDLES, self.in_handles.clone(), bytes));
            }
            EP_HANDLES => {
                // Sender: one send region multicast-associated with every
                // channel (the paper's shared-source idiom), then wave 0.
                let handles = msg
                    .payload
                    .downcast::<Vec<HandleId>>()
                    .expect("handle shipment")
                    .clone();
                let region = Region::alloc(WINDOW_BYTES);
                region.set_last_word(!OOB_PATTERN);
                for &h in &handles {
                    ctx.direct_assoc_local(h, region.clone()).expect("assoc");
                }
                self.send_region = Some(region);
                self.out_handles = handles;
                self.put_wave(ctx);
            }
            EP_ACK => {
                // Sender: the wave was fully consumed and re-armed; the
                // ack is the happens-before edge that legalizes reusing
                // those channels a lap later.
                self.iter += 1;
                if self.iter < self.cfg.iters {
                    self.put_wave(ctx);
                } else {
                    let peer = self.peer(ctx);
                    ctx.send(peer, Msg::signal(EP_TEARDOWN));
                }
            }
            EP_TEARDOWN => {
                // Receiver: the storm is over — tear down all `registered`
                // channels, recycling every slab slot.
                for i in 0..self.in_handles.len() {
                    ctx.direct_destroy(self.in_handles[i]).expect("destroy");
                    self.destroyed += 1;
                }
                ctx.exit();
            }
            other => panic!("storm: unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        // Receiver: consume and immediately re-arm, so the channel goes
        // straight back into the polling queue and the armed population
        // stays at `registered` for the whole run.
        ctx.direct_ready(handle).expect("re-arm");
        self.arrived += 1;
        if self.arrived == self.cfg.active {
            self.arrived = 0;
            let peer = self.peer(ctx);
            ctx.send(peer, Msg::signal(EP_ACK));
        }
    }
}

/// Run the channel storm on a caller-built machine (2+ PEs).
pub fn run_chanstorm_on(m: &mut Machine, cfg: ChanstormCfg) -> ChanstormResult {
    assert!(m.npes() >= 2, "storm needs a sender PE and a receiver PE");
    assert!(cfg.registered >= cfg.active && cfg.active > 0);
    let array = m.create_array("storm", Dims::d1(2), Mapper::Block, |idx| {
        Box::new(Storm {
            cfg,
            lin: idx.at(0),
            array: None,
            in_handles: Vec::new(),
            in_regions: Vec::new(),
            arrived: 0,
            destroyed: 0,
            out_handles: Vec::new(),
            send_region: None,
            iter: 0,
            window_start: 0,
        })
    });
    for lin in 0..2u32 {
        m.with_chare_mut::<Storm>(ckd_charm::ChareRef { array, lin }, |c| {
            c.array = Some(array);
        });
    }
    m.seed_broadcast(array, Msg::signal(EP_SETUP));
    let total = m.run();

    let recv = m
        .chare::<Storm>(ckd_charm::ChareRef { array, lin: 0 })
        .unwrap();
    let destroyed = recv.destroyed;
    assert_eq!(destroyed as usize, cfg.registered, "incomplete teardown");
    let send = m
        .chare::<Storm>(ckd_charm::ChareRef { array, lin: 1 })
        .unwrap();
    assert_eq!(send.iter, cfg.iters, "incomplete run");
    let counters = m.direct_counters();
    assert_eq!(counters.puts, cfg.active as u64 * cfg.iters as u64);
    assert_eq!(counters.deliveries, counters.puts, "every put delivered");
    ChanstormResult {
        registered: cfg.registered,
        active: cfg.active,
        iters: cfg.iters,
        total,
        puts: counters.puts,
        deliveries: counters.deliveries,
        poll_checks: counters.poll_checks,
        events: m.stats().events,
        destroyed,
    }
}

/// Run the channel storm on the Infiniband testbed (the polling backend is
/// the whole point).
pub fn run_chanstorm(pes: usize, cfg: ChanstormCfg) -> ChanstormResult {
    let mut m = Platform::IbAbe { cores_per_node: 2 }.machine(pes);
    run_chanstorm_on(&mut m, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_charm::{chrome_trace_json, TraceConfig};

    fn cfg(registered: usize, active: usize, iters: u32) -> ChanstormCfg {
        ChanstormCfg {
            registered,
            active,
            iters,
        }
    }

    #[test]
    fn storm_completes_and_tears_down() {
        let r = run_chanstorm(2, cfg(500, 4, 6));
        assert_eq!(r.puts, 24);
        assert_eq!(r.deliveries, 24);
        assert_eq!(r.destroyed, 500);
        assert!(r.total > Time::ZERO);
        // every sweep while the storm runs charges the whole herd
        assert!(
            r.poll_checks >= 500,
            "herd-scale polling cost missing: {}",
            r.poll_checks
        );
    }

    #[test]
    fn poll_checks_scale_with_registered_not_active() {
        // Fixed activity, 8× the registered herd → the modeled polling
        // cost must grow while puts/deliveries stay identical.
        let small = run_chanstorm(2, cfg(100, 4, 5));
        let large = run_chanstorm(2, cfg(800, 4, 5));
        assert_eq!(small.puts, large.puts);
        assert_eq!(small.deliveries, large.deliveries);
        assert!(
            large.poll_checks > 4 * small.poll_checks,
            "large {} !> 4× small {}",
            large.poll_checks,
            small.poll_checks
        );
    }

    #[test]
    fn storm_is_deterministic_across_repeats() {
        // Stats debug bytes and the chrome trace must be byte-identical
        // across repeated runs of the same storm.
        let run = || {
            let mut m = Platform::IbAbe { cores_per_node: 2 }
                .builder(2)
                .with_tracing(TraceConfig::default())
                .build();
            let r = run_chanstorm_on(&mut m, cfg(300, 4, 5));
            (
                format!("{:#?}", m.stats()),
                chrome_trace_json(m.tracer()).expect("traced run"),
                r.poll_checks,
            )
        };
        let (stats1, trace1, checks1) = run();
        let (stats2, trace2, checks2) = run();
        assert_eq!(stats1, stats2, "stats diverged across repeats");
        assert_eq!(trace1, trace2, "trace diverged across repeats");
        assert_eq!(checks1, checks2);
    }
}
