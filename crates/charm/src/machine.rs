//! The simulated parallel machine: PEs, arrays, the event queue, and the
//! composition points — the completion backend and the runtime-layer
//! stack. Event execution lives in `exec.rs`; reliable delivery in
//! `rel.rs`.
//!
//! # Execution model
//!
//! Each PE runs the classic message-driven scheduler loop, reproduced here
//! as discrete events:
//!
//! ```text
//! loop {
//!     poll CkDirect handles          // polling backends: sentinel checks,
//!                                    // callbacks as plain function calls
//!     dequeue one message            // charge `sched`
//!     run its entry method           // user code charges compute
//! }
//! ```
//!
//! A message send pays allocation + envelope + the network model's
//! two-sided cost and lands in the destination's scheduler queue. A
//! CkDirect put pays only the RDMA issue cost and lands *directly in the
//! receiver's registered buffer*; on a polling backend the receiving
//! scheduler notices it at its next sweep (or, if idle, after
//! `idle_poll_gap`), and the completion callback runs without any envelope,
//! allocation, or scheduling overhead — the entire point of the paper.

use std::collections::VecDeque;

use ckd_net::{NetModel, Protocol, RetryPolicy};
use ckd_race::{Footprint, Sanitizer, SanitizerConfig};
use ckd_sim::{EventQueue, FaultCounts, FaultPlan, ReorderPolicy, Time};
use ckd_topo::{Dims, Idx, Mapper, Pe};
use ckd_trace::{
    text_summary, Phase, ProfConfig, Profiler, ProtoClass, Snapshot, TraceConfig, Tracer,
};
use ckdirect::{DirectRegistry, HandleId, RegistryCounters};

use crate::array::{ArrayId, ArrayInfo};
use crate::backend::Backend;
use crate::builder::MachineBuilder;
use crate::chare::{Chare, ChareRef};
use crate::config::RtsConfig;
use crate::layer::LayerStack;
use crate::learn::{LearnConfig, LearningTotals};
use crate::msg::{EntryId, Msg, Payload};
use crate::reduction::{RedOp, RedPeState, RedTarget, RedVal};
use crate::rel::ReliableLayer;
use crate::stats::{MachineStats, PeStats};

/// CkDirect completion-callback token: which chare to poke, and how.
#[derive(Clone, Copy, Debug)]
pub struct DirectCb {
    /// The receiving chare.
    pub target: ChareRef,
    /// What delivery means for this channel.
    pub kind: CbKind,
}

/// Delivery style of a CkDirect channel.
#[derive(Clone, Copy, Debug)]
pub enum CbKind {
    /// Application-created channel: invoke `Chare::direct_callback(tag)`.
    User(u32),
    /// Channel installed by the learning framework: synthesize a message
    /// for this entry point from the landed bytes and invoke the entry
    /// method directly (callback cost, no scheduler trip), then re-arm.
    Learned(EntryId),
}

pub(crate) enum Ev {
    /// A two-sided message finished arriving at `pe`.
    MsgArrive {
        pe: Pe,
        target: ChareRef,
        msg: Msg,
        recv_cpu: Time,
        /// Receiver CPU consumed during the wire protocol (rendezvous
        /// registration): backdated capacity, see `ckd_net::Timing`.
        overlap_cpu: Time,
        /// PE the message left from (trace attribution only).
        from: Pe,
        /// Protocol family the model chose for the transfer. The tracer
        /// emits a pseudo-CTS on arrival for rendezvous transfers — the net
        /// model collapses the RTS/CTS handshake into one `Timing`, so the
        /// handshake legs are reconstructed, not separately simulated.
        proto: ProtoClass,
        /// Sanitizer happens-before edge token (0 when disabled).
        edge: u64,
    },
    /// A CkDirect put finished landing in its receive buffer.
    DirectLand { handle: HandleId, recv_cpu: Time },
    /// A CkDirect get completed back at its initiator.
    DirectGetLand { handle: HandleId, recv_cpu: Time },
    /// One scheduler iteration on `pe`.
    PeLoop { pe: Pe },
    /// Reduction partial result moving up the PE tree.
    ReduceUp {
        array: ArrayId,
        to: Pe,
        value: RedVal,
        count: usize,
        op: RedOp,
        target: RedTarget,
        recv_cpu: Time,
        /// Sanitizer happens-before edge token carrying the child subtree's
        /// contributions (0 when disabled).
        edge: u64,
    },
    /// Broadcast propagating down the PE tree.
    BcastDown {
        array: ArrayId,
        to: Pe,
        ep: EntryId,
        payload: Payload,
        size: usize,
        recv_cpu: Time,
        /// Sanitizer happens-before edge token (0 when disabled).
        edge: u64,
    },
    /// Fault-plane arrival of a reliable packet: the protocol header alone.
    /// The delivery event stays in the sender's pending entry under
    /// `token`. Fresh and intact ⇒ move it out and dispatch it at this very
    /// instant (identical timing to the unfaulted run); corrupted or
    /// duplicated ⇒ discard. `handle` is the channel of a one-sided put,
    /// `None` for a message.
    RelDeliver {
        token: u64,
        link: (u32, u32),
        seq: u64,
        corrupted: bool,
        handle: Option<HandleId>,
    },
    /// A reliability ack reached the sender: retire the pending packet.
    /// Charges no PE time and emits no trace record — pure NIC protocol.
    RelAck { token: u64 },
    /// Retransmission timer: if the packet is still pending at this exact
    /// attempt, resend it through the fault plane with backoff.
    RelTimer { token: u64, attempt: u32 },
}

pub(crate) struct PeState {
    pub queue: VecDeque<(ChareRef, Msg)>,
    pub busy_until: Time,
    pub loop_scheduled: bool,
    pub stats: PeStats,
}

/// The whole simulated machine.
pub struct Machine {
    pub(crate) net: NetModel,
    pub(crate) cfg: RtsConfig,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) now: Time,
    pub(crate) pes: Vec<PeState>,
    pub(crate) arrays: Vec<ArrayInfo>,
    /// Elements of each array homed on each PE: `[array][pe] -> lins`.
    pub(crate) locals: Vec<Vec<Vec<u32>>>,
    pub(crate) chares: Vec<Vec<Option<Box<dyn Chare>>>>,
    pub(crate) direct: DirectRegistry<DirectCb>,
    pub(crate) red: Vec<Vec<RedPeState>>,
    /// How put completion is detected (see [`Backend`]).
    pub(crate) backend: Backend,
    /// The composed runtime-layer stack (tracer, sanitizer, learner,
    /// reliable delivery).
    pub(crate) stack: LayerStack,
    /// Host-side self-profiler (disabled unless profiling was enabled);
    /// disabled it costs one branch per seam, and `run_until` never even
    /// enters the profiled dispatch loop.
    pub(crate) prof: Profiler,
    pub(crate) stats: MachineStats,
    pub(crate) stop: bool,
    /// Recycled callback-delivery buffers: the scheduler hands these to
    /// entry methods and completion callbacks instead of allocating a
    /// fresh `Vec` per invocation (see `exec::run_callbacks`).
    pub(crate) cb_pool: Vec<Vec<(DirectCb, HandleId)>>,
    /// Recycled poll-sweep delivery buffers, pooled the same way so the
    /// per-iteration sweep allocates nothing in steady state.
    pub(crate) sweep_pool: Vec<Vec<(HandleId, DirectCb)>>,
}

impl Machine {
    /// Start building a machine over `net`: pick layers and a backend,
    /// then [`MachineBuilder::build`]. Defaults match the fabric — see
    /// [`MachineBuilder`].
    pub fn builder(net: NetModel) -> MachineBuilder {
        MachineBuilder::new(net)
    }

    pub(crate) fn with_backend(net: NetModel, cfg: RtsConfig, backend: Backend) -> Machine {
        let npes = net.machine().npes();
        Machine {
            net,
            cfg,
            events: EventQueue::new(),
            now: Time::ZERO,
            pes: (0..npes)
                .map(|_| PeState {
                    queue: VecDeque::new(),
                    busy_until: Time::ZERO,
                    loop_scheduled: false,
                    stats: PeStats::default(),
                })
                .collect(),
            arrays: Vec::new(),
            locals: Vec::new(),
            chares: Vec::new(),
            direct: DirectRegistry::new(npes, backend.direct_config()),
            red: Vec::new(),
            backend,
            stack: LayerStack::new(),
            prof: Profiler::disabled(),
            stats: MachineStats::default(),
            stop: false,
            cb_pool: Vec::new(),
            sweep_pool: Vec::new(),
        }
    }

    /// Borrow a recycled callback buffer (empty, capacity retained).
    pub(crate) fn take_cb_buf(&mut self) -> Vec<(DirectCb, HandleId)> {
        self.cb_pool.pop().unwrap_or_default()
    }

    /// Return a drained callback buffer to the pool.
    pub(crate) fn recycle_cb_buf(&mut self, mut buf: Vec<(DirectCb, HandleId)>) {
        buf.clear();
        if self.cb_pool.len() < 8 {
            self.cb_pool.push(buf);
        }
    }

    /// Borrow a recycled sweep-delivery buffer (empty, capacity retained).
    pub(crate) fn take_sweep_buf(&mut self) -> Vec<(HandleId, DirectCb)> {
        self.sweep_pool.pop().unwrap_or_default()
    }

    /// Return a drained sweep-delivery buffer to the pool.
    pub(crate) fn recycle_sweep_buf(&mut self, mut buf: Vec<(HandleId, DirectCb)>) {
        buf.clear();
        if self.sweep_pool.len() < 8 {
            self.sweep_pool.push(buf);
        }
    }

    // ---- layer installation (the builder's back end) -----------------------

    pub(crate) fn install_tracing(&mut self, cfg: TraceConfig) {
        self.stack.tracer = Tracer::enabled(cfg, self.npes());
    }

    pub(crate) fn install_sanitizer(&mut self, cfg: SanitizerConfig) {
        self.stack.san = Sanitizer::enabled(cfg, self.npes());
        self.direct
            .set_probe(self.stack.san.probe().expect("sanitizer just enabled"));
    }

    pub(crate) fn install_faults(&mut self, plan: FaultPlan, policy: RetryPolicy, degrade: u32) {
        self.stack.rel = Some(Box::new(ReliableLayer::new(plan, policy, degrade)));
    }

    pub(crate) fn install_learning(&mut self, cfg: LearnConfig) {
        self.stack.learner.cfg = Some(cfg);
    }

    pub(crate) fn install_profiling(&mut self, cfg: ProfConfig) {
        self.prof = Profiler::enabled(cfg);
    }

    pub(crate) fn install_checker(&mut self, policy: Box<dyn ReorderPolicy>) {
        self.events.set_policy(policy);
    }

    // ---- observability accessors ------------------------------------------

    /// Learning-framework totals across all observed streams.
    pub fn learning_totals(&self) -> LearningTotals {
        self.stack.learner.totals()
    }

    /// The tracing handle (disabled unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.stack.tracer
    }

    /// The sanitizer handle (disabled unless race checking was enabled).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.stack.san
    }

    /// The trace's text summary, rendering the machine's own transfer,
    /// reliability and reduction counters beside the tracer's histograms
    /// (`None` unless tracing was enabled).
    pub fn trace_summary(&self) -> Option<String> {
        let s = &self.stats;
        text_summary(&self.stack.tracer, &s.proto, &s.rel, s.reductions)
    }

    /// The self-profiling handle (disabled unless profiling was enabled).
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// CkDirect completion callbacks delivered, summed over every PE.
    pub fn callback_total(&self) -> u64 {
        self.pes.iter().map(|p| p.stats.callbacks).sum()
    }

    /// CkDirect handles examined by poll sweeps, summed over every PE.
    pub fn poll_check_total(&self) -> u64 {
        self.pes.iter().map(|p| p.stats.poll_checks).sum()
    }

    /// What the fault plane injected, when faults are enabled.
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.stack.rel.as_ref().map(|r| r.plan.counts())
    }

    /// Footprint of the reliability layer's per-link dedup table as
    /// `(links, seqs retained above the high-water marks)`, when faults
    /// are enabled. Regression hook: `retained` must stay bounded by the
    /// reordering window, not grow with run length.
    pub fn rel_dedup_footprint(&self) -> Option<(usize, usize)> {
        self.stack
            .rel
            .as_ref()
            .map(|r| (r.seqs.links(), r.seqs.retained()))
    }

    /// The put-completion backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Number of PEs.
    pub fn npes(&self) -> usize {
        self.pes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Machine-wide statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Statistics for one PE.
    pub fn pe_stats(&self, pe: Pe) -> &PeStats {
        &self.pes[pe.idx()].stats
    }

    /// Lifetime CkDirect counters across every channel.
    pub fn direct_counters(&self) -> RegistryCounters {
        self.direct.counters()
    }

    /// The runtime cost configuration.
    pub fn config(&self) -> &RtsConfig {
        &self.cfg
    }

    /// The network model in use.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    // ---- arrays and elements ----------------------------------------------

    /// Create a chare array: `factory` is called once per index, elements
    /// are homed by `mapper`. Must run before [`Machine::run`].
    pub fn create_array(
        &mut self,
        name: &str,
        dims: Dims,
        mapper: Mapper,
        mut factory: impl FnMut(Idx) -> Box<dyn Chare>,
    ) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        let info = ArrayInfo::new(name, dims, mapper, self.npes());
        let mut locals = vec![Vec::new(); self.npes()];
        let mut elems = Vec::with_capacity(dims.len());
        for lin in 0..dims.len() {
            let idx = dims.unlinear(lin);
            locals[info.home(lin, self.npes()).idx()].push(lin as u32);
            elems.push(Some(factory(idx)));
        }
        self.arrays.push(info);
        self.locals.push(locals);
        self.chares.push(elems);
        self.red
            .push((0..self.npes()).map(|_| RedPeState::new()).collect());
        id
    }

    /// Static facts about an array.
    pub fn array_info(&self, array: ArrayId) -> &ArrayInfo {
        &self.arrays[array.idx()]
    }

    /// Reference to the element of `array` at `idx`.
    pub fn element(&self, array: ArrayId, idx: Idx) -> ChareRef {
        ChareRef {
            array,
            lin: self.arrays[array.idx()].dims.linear(idx) as u32,
        }
    }

    /// Inspect a chare's concrete state (testing / result extraction).
    pub fn chare<T: Chare>(&self, aref: ChareRef) -> Option<&T> {
        self.chares[aref.array.idx()][aref.lin as usize]
            .as_deref()
            .and_then(|c| c.downcast_ref::<T>())
    }

    /// Mutate a chare's concrete state before the run starts (topology
    /// wiring that factories cannot do because the array is still being
    /// built when they execute).
    pub fn with_chare_mut<T: Chare>(&mut self, aref: ChareRef, f: impl FnOnce(&mut T)) {
        let c = self.chares[aref.array.idx()][aref.lin as usize]
            .as_deref_mut()
            .and_then(|c| c.downcast_mut::<T>())
            .expect("chare exists and has the expected type");
        f(c);
    }

    /// Home PE of an element.
    pub fn home_pe(&self, aref: ChareRef) -> Pe {
        self.arrays[aref.array.idx()].home(aref.lin as usize, self.pes.len())
    }

    // ---- seeding and running ----------------------------------------------

    /// Inject an initial message (delivered at time zero, free of wire
    /// costs — the analogue of `main::main` firing the first entries).
    pub fn seed(&mut self, target: ChareRef, msg: Msg) {
        let pe = self.home_pe(target);
        self.push_ev(
            Time::ZERO,
            Ev::MsgArrive {
                pe,
                target,
                msg,
                recv_cpu: Time::ZERO,
                overlap_cpu: Time::ZERO,
                from: pe,
                proto: ProtoClass::Control,
                edge: 0,
            },
        );
    }

    /// Inject an initial message to every element of an array.
    pub fn seed_broadcast(&mut self, array: ArrayId, msg: Msg) {
        for lin in 0..self.arrays[array.idx()].dims.len() {
            self.seed(
                ChareRef {
                    array,
                    lin: lin as u32,
                },
                msg.clone(),
            );
        }
    }

    /// Run to quiescence (or until a chare calls [`Ctx::exit`](crate::Ctx::exit)). Returns
    /// the final virtual time.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Run until quiescence, exit, or `limit` virtual time.
    pub fn run_until(&mut self, limit: Time) -> Time {
        if self.prof.is_enabled() {
            return self.run_until_profiled(limit);
        }
        while !self.stop {
            let Some((t, ev)) = self.events.pop_before(limit) else {
                break;
            };
            self.now = t;
            self.stats.events += 1;
            self.dispatch(ev);
        }
        self.debug_assert_quiescent();
        self.now
    }

    /// [`Machine::run_until`] with the self-profiler collecting: times
    /// each dispatch by scheduler phase, samples the event-queue depth,
    /// and emits a JSONL snapshot every `snapshot_every` events. Kept as
    /// a separate loop so the unprofiled hot path pays nothing.
    fn run_until_profiled(&mut self, limit: Time) -> Time {
        let loop_t0 = std::time::Instant::now();
        let every = self.prof.snapshot_every();
        while !self.stop {
            let Some((t, ev)) = self.events.pop_before(limit) else {
                break;
            };
            self.now = t;
            self.stats.events += 1;
            self.prof.event_dispatched(self.events.len() as u64);
            let phase = phase_of(&ev);
            let t0 = self.prof.begin();
            self.dispatch(ev);
            self.prof.end(phase, t0);
            if let Some(every) = every {
                if self.stats.events.is_multiple_of(every) {
                    self.emit_snapshot();
                }
            }
        }
        self.prof.add_host_ns(loop_t0.elapsed().as_nanos() as u64);
        self.debug_assert_quiescent();
        self.now
    }

    /// Sample the machine's deterministic counters into the profiler's
    /// snapshot stream (keyed by the current virtual time).
    fn emit_snapshot(&mut self) {
        let snap = Snapshot {
            t_ps: self.now.as_ps(),
            events: self.stats.events,
            msgs_sent: self.stats.msgs_sent,
            puts: self.stats.puts,
            put_bytes: self.stats.put_bytes,
            queue_depth: self.events.len() as u64,
            pollq: self.direct.pollq_total() as u64,
            ready: self.direct.ready_total() as u64,
            cq_backlog: self.direct.cq_total() as u64,
            ring_drops: self.stack.tracer.dropped_total(),
            retries: self.stats.rel.retries,
        };
        self.prof.record_snapshot(&snap);
    }

    // ---- shared accounting helpers ----------------------------------------

    /// Account one control packet in the per-protocol breakdown
    /// (reduction hops, broadcast forwarding, handle shipping).
    /// `delay` is the wire latency the packet was charged.
    pub(crate) fn record_control(&mut self, delay: Time) {
        let bytes = self.net.control_bytes() as u64;
        self.stats.proto.record(Protocol::Control, bytes);
        self.stack.tracer.control_transfer(delay);
    }

    /// Schedule a scheduler iteration on `pe` if none is pending.
    pub(crate) fn ensure_loop(&mut self, pe: Pe, extra_gap: Time) {
        let st = &mut self.pes[pe.idx()];
        if !st.loop_scheduled {
            st.loop_scheduled = true;
            let at = st.busy_until.max(self.now) + extra_gap;
            self.push_ev(at, Ev::PeLoop { pe });
        }
    }

    /// Every runtime event enters the queue through here. On the canonical
    /// path (no checker) this is exactly `events.push`; with a
    /// `ReorderPolicy` installed it additionally stamps the event with its
    /// independence footprint so the checker can tell which pending events
    /// commute (see `ckd_race::independence`).
    pub(crate) fn push_ev(&mut self, at: Time, ev: Ev) {
        if self.events.reordering() {
            let tag = self.footprint_of(&ev).tag();
            self.events.push_tagged(at, tag, ev);
        } else {
            self.events.push(at, ev);
        }
    }

    /// The independence footprint of a pending event: which PE its
    /// dispatch mutates, whether it is an arrival-class remote delivery
    /// (reorderable inside the checker's commutation window), and which
    /// channel it completes on. Reliability-plane events keep the reserved unknown
    /// footprint: the checker never runs under fault injection, and
    /// unknown conservatively conflicts with everything.
    fn footprint_of(&self, ev: &Ev) -> Footprint {
        match ev {
            Ev::MsgArrive { pe, .. } => Footprint::arrival(pe.idx()),
            Ev::DirectLand { handle, .. } | Ev::DirectGetLand { handle, .. } => self
                .direct
                .recv_pe(*handle)
                .map_or(Footprint::UNKNOWN, |pe| {
                    Footprint::arrival_on(pe.idx(), handle.0)
                }),
            Ev::PeLoop { pe } => Footprint::local(pe.idx()),
            Ev::ReduceUp { to, .. } | Ev::BcastDown { to, .. } => Footprint::arrival(to.idx()),
            Ev::RelDeliver { .. } | Ev::RelAck { .. } | Ev::RelTimer { .. } => Footprint::UNKNOWN,
        }
    }
}

/// Host-profiling phase an event's dispatch is charged to: scheduler
/// work, completion-backend work, or the reliability plane. The poll
/// sweep and the layer fan-out are timed as nested sub-spans at their
/// own seams (see [`Phase`]).
fn phase_of(ev: &Ev) -> Phase {
    match ev {
        Ev::MsgArrive { .. } | Ev::PeLoop { .. } | Ev::ReduceUp { .. } | Ev::BcastDown { .. } => {
            Phase::Sched
        }
        Ev::DirectLand { .. } | Ev::DirectGetLand { .. } => Phase::Backend,
        Ev::RelDeliver { .. } | Ev::RelAck { .. } | Ev::RelTimer { .. } => Phase::Rel,
    }
}
