//! The CkDirect channel registry: the runtime-facing implementation of the
//! paper's API, independent of any particular executor.
//!
//! The registry owns every channel of a simulated machine. An executor (the
//! `ckd-charm` scheduler) drives it:
//!
//! * user code calls `create_handle` / `assoc_local` / `put` / `ready*`
//!   through the runtime, which forwards here for state transitions;
//! * the executor schedules the wire delay returned by its network model
//!   and calls [`DirectRegistry::land`] when the data arrives;
//! * on the `IbPoll` backend the executor calls
//!   [`DirectRegistry::poll_sweep_into`] between scheduler iterations and invokes
//!   the callbacks it returns; on `DcmfCallback`, `land` itself hands the
//!   callback back.
//!
//! # Storage: a freelist slab with generation-tagged handles
//!
//! Channels live in a slab: a `Vec` of slots threaded by a freelist, so
//! [`DirectRegistry::destroy_handle`] recycles storage in O(1) and a
//! million-channel registry does not grow without bound. Each slot carries
//! a generation tag that is bumped on destroy and packed into the
//! [`HandleId`], so a stale handle held across a destroy is rejected with
//! `BadHandle` instead of aliasing the slot's next tenant.
//!
//! # Poll plane: one ready list per PE
//!
//! The historical poll plane kept one `Vec<HandleId>` per PE and rescanned
//! it linearly every sweep — O(all armed channels) of *host* work per
//! sweep, which is exactly the OpenAtom pathology (§5.2) transplanted into
//! the simulator's own inner loop. The registry now keeps, per PE:
//!
//! * an `armed` counter — how many channels are in the (conceptual)
//!   polling queue, which is still what a sweep *charges* in virtual time
//!   (`poll_per_handle × armed`, the paper's modeled cost);
//! * one **ready list** — an intrusive doubly-linked list holding only
//!   channels whose data has landed detectably; a channel is linked by
//!   [`DirectRegistry::land`] and unlinked at delivery.
//!
//! A sweep therefore visits only landed channels: O(1) amortized host cost
//! per delivery, independent of how many idle channels sit registered on
//! the PE. Channels join the list in landing order, so the sweep sorts what
//! it drains by each channel's arming sequence before delivering. Delivery
//! order and every virtual-time cost are byte-identical to the linear scan
//! — proven by the golden corpus and the determinism suites. Per-channel
//! counters are not kept; [`DirectRegistry::counters`] holds the totals.
//!
//! The registry is generic over the callback token `C` so this crate stays
//! free of runtime types.

use ckd_topo::Pe;

use crate::channel::{Channel, DataPhase, DirectBackend, HandleId, NO_SLOT};
use crate::error::DirectError;
use crate::region::Region;
use crate::strided::StridedSpec;

/// Registry-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct DirectConfig {
    /// Completion-detection style of the machine. On `IbPoll`, a put whose
    /// payload ends with the channel's out-of-band pattern is rejected with
    /// [`DirectError::OobCollision`]: it would land undetectably.
    pub backend: DirectBackend,
    /// Per-PE completion-queue depth (`NotifiedPut` backend only; 0
    /// elsewhere). A landing that would push the queue past this depth is
    /// refused with [`DirectError::CqOverflow`] and nothing changes.
    pub cq_depth: usize,
}

impl DirectConfig {
    /// Infiniband-style sentinel-polling backend.
    pub fn ib() -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::IbPoll,
            cq_depth: 0,
        }
    }

    /// Blue Gene/P-style callback backend.
    pub fn bgp() -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::DcmfCallback,
            cq_depth: 0,
        }
    }

    /// Notified-RMA backend: puts deposit records in a bounded per-PE
    /// completion queue of `cq_depth` entries (clamped to at least 1).
    /// There is no sentinel, so no payload can collide with one.
    pub fn notified(cq_depth: usize) -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::NotifiedPut,
            cq_depth: cq_depth.max(1),
        }
    }
}

/// One observed channel-lifecycle transition, reported to an installed
/// [`LifecycleProbe`] at the exact point the registry commits it.
///
/// This is the ground-truth feed for external checkers (the `ckd-race`
/// sanitizer mirrors its per-handle state machine from these), so the
/// vocabulary is the registry's own: only *successful* operations emit a
/// transition — a rejected `put` changes no state and fires nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// `create_handle` succeeded: the receive window exists and is armed.
    Created,
    /// `assoc_local` succeeded: the channel has a bound send buffer.
    Associated,
    /// `put` was accepted; bytes are now (logically) on the wire.
    PutIssued,
    /// `get` was accepted; the pull is in flight.
    GetIssued,
    /// The payload landed in the receive window (IbPoll: not yet noticed).
    Landed,
    /// The completion callback was handed to the executor for delivery.
    Delivered,
    /// `ready_mark` (or the BG/P `ready` release) re-armed the channel.
    Marked,
    /// `destroy_handle` succeeded: the channel is gone and its slot will be
    /// recycled under a new generation.
    Destroyed,
}

/// Observer invoked on every committed lifecycle transition.
pub type LifecycleProbe = Box<dyn FnMut(HandleId, Transition)>;

/// What a successful `put` asks the executor to do: move `bytes` from
/// `src` to `dst` and call [`DirectRegistry::land`] on arrival.
#[derive(Clone, Copy, Debug)]
pub struct PutRequest {
    /// The channel being driven.
    pub handle: HandleId,
    /// Sender PE.
    pub src: Pe,
    /// Receiver PE.
    pub dst: Pe,
    /// Payload size (the full registered window).
    pub bytes: usize,
    /// Per-channel put sequence number (1-based; `ch.puts` at issue). A
    /// reliability layer stamps it on the wire so [`DirectRegistry::
    /// accept_landing`] can suppress duplicated or retransmit-raced
    /// landings idempotently.
    pub seq: u64,
}

/// What `land` tells the executor.
#[derive(Debug)]
pub enum LandOutcome<C> {
    /// IbPoll backend: data is in the buffer; a future poll sweep will
    /// detect it. Nothing to do now.
    AwaitPoll,
    /// DcmfCallback backend: invoke this callback on the receiver PE now.
    Deliver(C),
    /// NotifiedPut backend: the payload landed and a notification record
    /// was deposited in the receiver's completion queue; a future
    /// [`DirectRegistry::cq_drain_into`] will deliver it.
    Notified,
}

/// Lifetime counters of a [`DirectRegistry`], named so metrics consumers
/// never rely on positional tuple fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Puts issued across all channels.
    pub puts: u64,
    /// Callbacks delivered across all channels.
    pub deliveries: u64,
    /// Sentinel checks performed by poll sweeps.
    pub poll_checks: u64,
    /// Duplicate landings suppressed by [`DirectRegistry::accept_landing`].
    pub dup_landings: u64,
    /// Corrupted landings reported via [`DirectRegistry::corrupt_landing`].
    pub corrupt_landings: u64,
    /// Notification records deposited in completion queues (`NotifiedPut`).
    pub notifications: u64,
    /// Notification records drained from completion queues (`NotifiedPut`).
    pub cq_drains: u64,
    /// Landings refused because the receiver's CQ was full (backpressure).
    pub cq_overflows: u64,
    /// Bytes landings actually copied into receive windows: a full window
    /// when either side was written since the channel's last landing, its
    /// last 8 bytes when only `ready_mark`'s re-arm was, else nothing.
    pub landed_bytes: u64,
}

/// One slab slot: an occupied channel or a freelist link, plus the
/// generation tag that outlives both.
struct SlotEntry<C> {
    /// Bumped every time the slot is recycled; packed into handles.
    gen: u8,
    state: SlotState<C>,
}

// Channels live *inline* in the slab deliberately: boxing them would put
// a pointer chase on every chan()/sweep access, and a freed slot's spare
// bytes are reclaimed the moment the freelist recycles it. The one
// exception is a channel's strided sides: no paper app uses them, so they
// sit behind one `Option<Box<_>>` (8 B) instead of 112 B inline in every
// contiguous channel, and only strided puts and deliveries chase it.
#[allow(clippy::large_enum_variant)]
enum SlotState<C> {
    Occupied(Channel<C>),
    Free { next_free: u32 },
}

/// Per-PE poll plane: the counters that replace the historical
/// `Vec<HandleId>` polling queue, plus the ready list.
struct PePoll {
    /// Head of the intrusive ready list ([`NO_SLOT`] = empty).
    head: u32,
    /// Channels in the (conceptual) polling queue — what a sweep charges.
    armed: usize,
    /// Channels currently linked in the ready list (deliverable backlog).
    ready: usize,
    /// Next poll-queue insertion sequence (delivery ordering).
    next_seq: u64,
    /// Bounded completion queue of landed-but-undelivered notification
    /// records (`NotifiedPut` backend only): the slots whose channels wait
    /// for a drain, in landing order.
    cq: std::collections::VecDeque<u32>,
}

impl PePoll {
    fn new() -> PePoll {
        PePoll {
            head: NO_SLOT,
            armed: 0,
            ready: 0,
            next_seq: 0,
            cq: std::collections::VecDeque::new(),
        }
    }

    /// Enter `ch` into this PE's polling queue (it is not already there).
    fn enqueue<C>(&mut self, ch: &mut Channel<C>) {
        debug_assert!(!ch.in_pollq);
        ch.in_pollq = true;
        ch.pollq_seq = self.next_seq;
        self.next_seq += 1;
        self.armed += 1;
    }
}

/// The channel occupying `slot` (ready-list maintenance only touches live
/// slots).
fn occupied_mut<C>(slots: &mut [SlotEntry<C>], slot: u32) -> &mut Channel<C> {
    match &mut slots[slot as usize].state {
        SlotState::Occupied(ch) => ch,
        SlotState::Free { .. } => unreachable!("ready-list member in a free slot"),
    }
}

/// Link `slot` (landed, detectable, armed) into its PE's ready list.
fn ring_link<C>(pp: &mut PePoll, slots: &mut [SlotEntry<C>], slot: u32) {
    let head = pp.head;
    {
        let ch = occupied_mut(slots, slot);
        debug_assert!(!ch.ready_linked);
        ch.ready_linked = true;
        ch.ready_prev = NO_SLOT;
        ch.ready_next = head;
    }
    if head != NO_SLOT {
        occupied_mut(slots, head).ready_prev = slot;
    }
    pp.head = slot;
    pp.ready += 1;
}

/// Unlink `slot` from its PE's ready list (delivery raced ahead of the
/// sweep).
fn ring_unlink<C>(pp: &mut PePoll, slots: &mut [SlotEntry<C>], slot: u32) {
    let (prev, next) = {
        let ch = occupied_mut(slots, slot);
        debug_assert!(ch.ready_linked);
        ch.ready_linked = false;
        let links = (ch.ready_prev, ch.ready_next);
        ch.ready_prev = NO_SLOT;
        ch.ready_next = NO_SLOT;
        links
    };
    if prev != NO_SLOT {
        occupied_mut(slots, prev).ready_next = next;
    }
    if next != NO_SLOT {
        occupied_mut(slots, next).ready_prev = prev;
    }
    if prev == NO_SLOT {
        pp.head = next;
    }
    pp.ready -= 1;
}

/// All CkDirect channels of one simulated machine.
pub struct DirectRegistry<C> {
    cfg: DirectConfig,
    /// The channel slab: slots threaded by `free_head`.
    slots: Vec<SlotEntry<C>>,
    /// First recycled slot to hand out, [`NO_SLOT`] when the freelist is
    /// empty (then the slab bump-allocates, preserving the historical
    /// dense-index handle sequence for never-destroying workloads).
    free_head: u32,
    /// Slots the slab may grow to (lowered by capacity tests).
    slot_cap: usize,
    /// Live (occupied) channels.
    live: usize,
    /// Channels ever created.
    created: u64,
    /// Channels destroyed.
    destroyed: u64,
    /// Per-PE poll planes (IbPoll backend only).
    polls: Vec<PePoll>,
    /// Sweep scratch: (pollq_seq, slot) of drained ready channels, pooled
    /// so steady-state sweeps allocate nothing.
    scratch: Vec<(u64, u32)>,
    total_puts: u64,
    total_deliveries: u64,
    total_poll_checks: u64,
    total_dup_landings: u64,
    total_corrupt_landings: u64,
    total_notifications: u64,
    total_cq_drains: u64,
    total_cq_overflows: u64,
    total_landed_bytes: u64,
    /// Lifecycle observer (the ckd-race sanitizer); `None` costs one branch
    /// per committed transition.
    probe: Option<LifecycleProbe>,
}

impl<C: Clone> DirectRegistry<C> {
    /// A registry for a machine with `npes` PEs.
    pub fn new(npes: usize, cfg: DirectConfig) -> DirectRegistry<C> {
        DirectRegistry {
            cfg,
            slots: Vec::new(),
            free_head: NO_SLOT,
            slot_cap: HandleId::MAX_SLOTS,
            live: 0,
            created: 0,
            destroyed: 0,
            polls: (0..npes).map(|_| PePoll::new()).collect(),
            scratch: Vec::new(),
            total_puts: 0,
            total_deliveries: 0,
            total_poll_checks: 0,
            total_dup_landings: 0,
            total_corrupt_landings: 0,
            total_notifications: 0,
            total_cq_drains: 0,
            total_cq_overflows: 0,
            total_landed_bytes: 0,
            probe: None,
        }
    }

    /// Install (or replace) the lifecycle probe. Every state transition the
    /// registry commits from now on is reported through it.
    pub fn set_probe(&mut self, probe: LifecycleProbe) {
        self.probe = Some(probe);
    }

    /// Remove the lifecycle probe, returning the registry to its
    /// zero-observer configuration.
    pub fn clear_probe(&mut self) {
        self.probe = None;
    }

    #[inline]
    fn emit(&mut self, handle: HandleId, t: Transition) {
        if let Some(p) = self.probe.as_mut() {
            p(handle, t);
        }
    }

    /// The configured backend.
    pub fn backend(&self) -> DirectBackend {
        self.cfg.backend
    }

    /// Lower the slab's slot capacity so tests can exercise
    /// `TooManyHandles` without creating 2^24 channels.
    #[doc(hidden)]
    pub fn set_slot_cap_for_tests(&mut self, cap: usize) {
        self.slot_cap = cap.min(HandleId::MAX_SLOTS);
    }

    /// `CkDirect_createHandle`: register `recv` (on `recv_pe`) as the
    /// destination window, arm the out-of-band pattern in its last 8 bytes,
    /// and — on the polling backend — enqueue the handle for polling.
    ///
    /// `callback` is the token the runtime will use to notify the receiver;
    /// the paper passes a C function pointer plus user data.
    pub fn create_handle(
        &mut self,
        recv_pe: Pe,
        recv: Region,
        oob: u64,
        callback: C,
    ) -> Result<HandleId, DirectError> {
        if recv.len() < 8 {
            return Err(DirectError::BufferTooSmall);
        }
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            let SlotState::Free { next_free } = self.slots[slot as usize].state else {
                unreachable!("freelist points at an occupied slot")
            };
            self.free_head = next_free;
            slot
        } else {
            if self.slots.len() >= self.slot_cap {
                return Err(DirectError::TooManyHandles);
            }
            self.slots.push(SlotEntry {
                gen: 0,
                state: SlotState::Free { next_free: NO_SLOT },
            });
            (self.slots.len() - 1) as u32
        };
        let id = HandleId::new(slot, self.slots[slot as usize].gen);
        recv.set_last_word(oob);
        let mut ch = Channel::new(recv_pe, recv, oob, callback);
        if self.cfg.backend == DirectBackend::IbPoll {
            self.polls[recv_pe.idx()].enqueue(&mut ch);
        }
        self.slots[slot as usize].state = SlotState::Occupied(ch);
        self.live += 1;
        self.created += 1;
        self.emit(id, Transition::Created);
        Ok(id)
    }

    /// [`Self::create_handle`] with an explicit wire size: the put still
    /// moves the (possibly truncated) region's real bytes, but the network
    /// is charged for `wire_bytes` — how figure-scale runs model full-size
    /// application buffers without allocating them.
    pub fn create_handle_wire(
        &mut self,
        recv_pe: Pe,
        recv: Region,
        oob: u64,
        callback: C,
        wire_bytes: usize,
    ) -> Result<HandleId, DirectError> {
        let id = self.create_handle(recv_pe, recv, oob, callback)?;
        self.chan_mut(id).expect("just created").wire_bytes = wire_bytes.max(8);
        Ok(id)
    }

    /// The wire size charged per put on this channel.
    pub fn wire_bytes(&self, handle: HandleId) -> Result<usize, DirectError> {
        Ok(self.chan(handle)?.wire_bytes)
    }

    /// Strided `create_handle` (the paper's proposed extension): the put
    /// lands as `spec` describes within `backing` — e.g. a matrix column —
    /// with the runtime scattering from a contiguous wire image at
    /// delivery. Returns the handle; the wire image (including the
    /// sentinel) is managed internally.
    pub fn create_handle_strided(
        &mut self,
        recv_pe: Pe,
        backing: Region,
        spec: StridedSpec,
        oob: u64,
        callback: C,
    ) -> Result<HandleId, DirectError> {
        spec.validate(&backing)?;
        if spec.payload_len() < 8 {
            return Err(DirectError::BufferTooSmall);
        }
        let wire = Region::alloc(spec.payload_len());
        let id = self.create_handle(recv_pe, wire, oob, callback)?;
        self.chan_mut(id)
            .expect("just created")
            .strided
            .get_or_insert_with(Box::default)
            .recv = Some((backing, spec));
        Ok(id)
    }

    /// Strided `assoc_local`: the put gathers `spec`'s blocks out of
    /// `backing` into the wire image before transfer.
    pub fn assoc_local_strided(
        &mut self,
        handle: HandleId,
        send_pe: Pe,
        backing: Region,
        spec: StridedSpec,
    ) -> Result<(), DirectError> {
        spec.validate(&backing)?;
        let wire = Region::alloc(spec.payload_len());
        // gathered images never accidentally carry the pattern until the
        // first gather fills them; seed the last word away from `oob`
        let ch_oob = self.chan(handle)?.oob;
        wire.set_last_word(!ch_oob);
        self.assoc_local(handle, send_pe, wire)?;
        self.chan_mut(handle)?
            .strided
            .get_or_insert_with(Box::default)
            .send = Some((backing, spec));
        Ok(())
    }

    /// Bytes scattered on the receive side at delivery (None for
    /// contiguous channels) — the executor charges the copy.
    pub fn strided_recv_bytes(&self, handle: HandleId) -> Result<Option<usize>, DirectError> {
        Ok(self
            .chan(handle)?
            .scatter_side()
            .map(|(_, s)| s.payload_len()))
    }

    /// Bytes gathered on the send side at put (None for contiguous
    /// channels) — the executor charges the copy.
    pub fn strided_send_bytes(&self, handle: HandleId) -> Result<Option<usize>, DirectError> {
        Ok(self
            .chan(handle)?
            .gather_side()
            .map(|(_, s)| s.payload_len()))
    }

    /// The strided receive backing (reading it after delivery *is* reading
    /// the landed data in its application layout).
    pub fn recv_backing(&self, handle: HandleId) -> Result<Option<Region>, DirectError> {
        Ok(self.chan(handle)?.scatter_side().map(|(r, _)| r.clone()))
    }

    /// `CkDirect_assocLocal`: bind the sender-side buffer. The same local
    /// buffer (same backing storage) may be associated with *different*
    /// handles — the paper uses this to multicast one source to many
    /// receivers without copies — but each handle gets exactly one source.
    pub fn assoc_local(
        &mut self,
        handle: HandleId,
        send_pe: Pe,
        send: Region,
    ) -> Result<(), DirectError> {
        let ch = self.chan_mut(handle)?;
        if ch.send.is_some() {
            return Err(DirectError::AlreadyAssociated);
        }
        if send.len() != ch.recv.len() {
            return Err(DirectError::SizeMismatch);
        }
        ch.send_pe = send_pe;
        ch.send = Some(send);
        self.emit(handle, Transition::Associated);
        Ok(())
    }

    /// `CkDirect_put`: request the one-sided transfer. Validates the
    /// channel contract and returns the transfer for the executor to time;
    /// the bytes move when the executor later calls [`Self::land`].
    pub fn put(&mut self, handle: HandleId, from_pe: Pe) -> Result<PutRequest, DirectError> {
        let backend = self.cfg.backend;
        let ch = self.chan_mut(handle)?;
        let send_pe = ch.send_pe()?;
        if send_pe != from_pe {
            return Err(DirectError::WrongPe);
        }
        match ch.phase {
            DataPhase::InFlight | DataPhase::Landed => return Err(DirectError::PutInFlight),
            DataPhase::Delivered => return Err(DirectError::Overwrite),
            DataPhase::Empty => {}
        }
        // strided source: gather the blocks into the wire image now
        ch.gather();
        if backend == DirectBackend::IbPoll {
            // The receiver must have re-armed the sentinel (create_handle or
            // ready_mark) or the put could land undetectably.
            if !ch.marked {
                return Err(DirectError::Overwrite);
            }
            if ch.send.as_ref().expect("associated").last_word() == ch.oob {
                return Err(DirectError::OobCollision);
            }
        }
        ch.phase = DataPhase::InFlight;
        ch.puts += 1;
        let seq = ch.puts;
        let dst = ch.recv_pe;
        let bytes = ch.wire_bytes;
        self.total_puts += 1;
        self.emit(handle, Transition::PutIssued);
        Ok(PutRequest {
            handle,
            src: send_pe,
            dst,
            bytes,
            seq,
        })
    }

    /// `CkDirect_get` (comparison variant, §2): the *receiver* pulls the
    /// sender's buffer. Must be issued from the receiving PE; completion is
    /// known to the initiator (its read completes), so there is no
    /// sentinel/polling — the executor calls [`Self::land_get`] when the
    /// data is back and delivers the callback immediately.
    pub fn get(&mut self, handle: HandleId, from_pe: Pe) -> Result<PutRequest, DirectError> {
        let ch = self.chan_mut(handle)?;
        let send_pe = ch.send_pe()?;
        if ch.recv_pe != from_pe {
            return Err(DirectError::WrongPe);
        }
        match ch.phase {
            DataPhase::InFlight | DataPhase::Landed => return Err(DirectError::PutInFlight),
            DataPhase::Delivered => return Err(DirectError::Overwrite),
            DataPhase::Empty => {}
        }
        ch.gather();
        ch.phase = DataPhase::InFlight;
        ch.puts += 1;
        let seq = ch.puts;
        let bytes = ch.wire_bytes;
        self.total_puts += 1;
        self.emit(handle, Transition::GetIssued);
        Ok(PutRequest {
            handle,
            src: send_pe,
            dst: from_pe,
            bytes,
            seq,
        })
    }

    /// Executor callback for a completed get: land the bytes (as
    /// [`Self::land`] does) and hand back the callback for immediate
    /// delivery at the initiator.
    pub fn land_get(&mut self, handle: HandleId) -> Result<C, DirectError> {
        let ch = self.chan_mut(handle)?;
        debug_assert_eq!(ch.phase, DataPhase::InFlight);
        let copied = ch.land_bytes()?;
        let cb = ch.deliver();
        self.total_landed_bytes += copied as u64;
        self.total_deliveries += 1;
        self.emit(handle, Transition::Delivered);
        Ok(cb)
    }

    /// Executor callback: the wire delay has elapsed; move the bytes into
    /// the receive window (the simulated RDMA write / DCMF delivery).
    ///
    /// The receive window ends up holding the send window's bytes as they
    /// stand *now*, at landing — a source rewritten in flight lands its new
    /// bytes. Only what the buffers' write stamps say can differ since the
    /// channel's last landing is copied: nothing for an unwritten pair, the
    /// last word after a bare `ready_mark` re-arm
    /// ([`RegistryCounters::landed_bytes`] counts it).
    ///
    /// On `NotifiedPut`, a landing whose notification record would overflow
    /// the receiver's bounded CQ is refused with
    /// [`DirectError::CqOverflow`] *before anything changes*: no bytes move,
    /// the channel stays `InFlight`, and the executor retries the landing
    /// after the receiver has drained (NIC backpressure, not data loss).
    pub fn land(&mut self, handle: HandleId) -> Result<LandOutcome<C>, DirectError> {
        let backend = self.cfg.backend;
        if backend == DirectBackend::NotifiedPut {
            let pe = self.chan(handle)?.recv_pe;
            if self.polls[pe.idx()].cq.len() >= self.cfg.cq_depth.max(1) {
                self.total_cq_overflows += 1;
                return Err(DirectError::CqOverflow);
            }
        }
        let ch = self.chan_mut(handle)?;
        debug_assert_eq!(ch.phase, DataPhase::InFlight, "{handle:?} landed twice?");
        let copied = ch.land_bytes()?;
        let outcome = match backend {
            DirectBackend::IbPoll => {
                ch.phase = DataPhase::Landed;
                let detectable = ch.recv.last_word() != ch.oob;
                if !detectable {
                    // Payload ends with the pattern: the poller will never
                    // see the sentinel change. Record the pathology.
                    ch.collided = true;
                }
                let pe = ch.recv_pe;
                // A detectable landing on an armed channel is exactly what
                // the next sweep will deliver: expose it to the ready list
                // so the sweep finds it without scanning the idle herd.
                if detectable && ch.in_pollq {
                    ring_link(&mut self.polls[pe.idx()], &mut self.slots, handle.slot());
                }
                self.emit(handle, Transition::Landed);
                LandOutcome::AwaitPoll
            }
            DirectBackend::DcmfCallback => {
                let cb = ch.deliver();
                self.total_deliveries += 1;
                self.emit(handle, Transition::Landed);
                self.emit(handle, Transition::Delivered);
                LandOutcome::Deliver(cb)
            }
            DirectBackend::NotifiedPut => {
                // Admission was checked above: the CQ has room. Land the
                // payload and deposit the notification record; delivery
                // happens at the next drain, in landing order.
                ch.phase = DataPhase::Landed;
                let pe = ch.recv_pe;
                self.polls[pe.idx()].cq.push_back(handle.slot());
                self.total_notifications += 1;
                self.emit(handle, Transition::Landed);
                LandOutcome::Notified
            }
        };
        self.total_landed_bytes += copied as u64;
        Ok(outcome)
    }

    /// Reliability-layer gate, called *before* [`Self::land`] when fault
    /// injection is active: is put `seq` a fresh landing on this channel?
    ///
    /// Returns `Ok(true)` for a first arrival (recording the high-water
    /// mark) and `Ok(false)` for a duplicated or retransmit-raced copy,
    /// which the caller must discard without touching channel state — the
    /// idempotent-replay half of "exactly one delivery per put". A
    /// suppressed duplicate emits no [`Transition`], so lifecycle probes
    /// (the race sanitizer) never see a double landing.
    pub fn accept_landing(&mut self, handle: HandleId, seq: u64) -> Result<bool, DirectError> {
        let ch = self.chan_mut(handle)?;
        if seq <= ch.landed_seq {
            self.total_dup_landings += 1;
            return Ok(false);
        }
        ch.landed_seq = seq;
        Ok(true)
    }

    /// Reliability-layer gate: a put arrived corrupted (its CRC, folded
    /// into the sentinel word on the wire, failed at the receiver). The
    /// payload is discarded, the sentinel stays armed, and the channel
    /// remains `InFlight` awaiting the sender's retransmission — the
    /// receiver never consumes the damaged bytes.
    /// Returns `false` (and changes nothing) when `seq` is a replay of an
    /// already-consumed put — a damaged duplicate of data the receiver has
    /// long since delivered protects nothing.
    pub fn corrupt_landing(&mut self, handle: HandleId, seq: u64) -> Result<bool, DirectError> {
        let ch = self.chan_mut(handle)?;
        if seq <= ch.landed_seq {
            return Ok(false);
        }
        debug_assert_eq!(ch.phase, DataPhase::InFlight, "corruption outside a put?");
        self.total_corrupt_landings += 1;
        Ok(true)
    }

    /// One scan of `pe`'s polling queue (IbPoll backend): charge every
    /// armed handle's sentinel check, collect the callbacks of channels
    /// whose data has landed, and drop them from the queue.
    ///
    /// The `checked` count is returned so the scheduler can charge
    /// `poll_per_handle × checked` — the overhead that §5.2 of the paper
    /// shows swamping OpenAtom when thousands of channels stay queued. The
    /// *host* cost, by contrast, is O(deliveries): only the ready list is
    /// walked, never the armed herd.
    ///
    /// Allocation-free variant: deliveries are appended to `out` (cleared
    /// buffers are pooled by the executor); returns `checked`.
    pub fn poll_sweep_into(&mut self, pe: Pe, out: &mut Vec<(HandleId, C)>) -> usize {
        debug_assert_eq!(self.cfg.backend, DirectBackend::IbPoll);
        let pp = &mut self.polls[pe.idx()];
        let checked = pp.armed;
        self.total_poll_checks += checked as u64;

        let mut ready = std::mem::take(&mut self.scratch);
        debug_assert!(ready.is_empty());
        let mut slot = std::mem::replace(&mut pp.head, NO_SLOT);
        while slot != NO_SLOT {
            let ch = occupied_mut(&mut self.slots, slot);
            debug_assert!(ch.ready_linked);
            let next = ch.ready_next;
            ch.ready_linked = false;
            ch.ready_prev = NO_SLOT;
            ch.ready_next = NO_SLOT;
            ready.push((ch.pollq_seq, slot));
            slot = next;
        }
        debug_assert_eq!(pp.ready, ready.len());
        pp.ready = 0;
        pp.armed -= ready.len();
        // The list holds landing order; replay arming order instead:
        // byte-identical delivery order to the historical linear scan.
        ready.sort_unstable();

        for &(_, slot) in &ready {
            let entry = &mut self.slots[slot as usize];
            let id = HandleId::new(slot, entry.gen);
            let SlotState::Occupied(ch) = &mut entry.state else {
                unreachable!("ready channel in a free slot")
            };
            debug_assert!(ch.phase == DataPhase::Landed && ch.recv.last_word() != ch.oob);
            ch.in_pollq = false;
            let cb = ch.deliver();
            self.total_deliveries += 1;
            out.push((id, cb));
            if let Some(p) = self.probe.as_mut() {
                p(id, Transition::Delivered);
            }
        }
        ready.clear();
        self.scratch = ready;
        checked
    }

    /// Drain up to `max_batch` notification records from `pe`'s completion
    /// queue (`NotifiedPut` backend), appending the callbacks to `out` in
    /// landing order and returning how many were drained.
    ///
    /// This is the notified-RMA replacement for [`Self::poll_sweep_into`]:
    /// cost is O(records drained), never a function of how many idle
    /// channels sit registered on the PE, and draining is what releases CQ
    /// space for backpressured landings to retry into.
    pub fn cq_drain_into(
        &mut self,
        pe: Pe,
        max_batch: usize,
        out: &mut Vec<(HandleId, C)>,
    ) -> usize {
        debug_assert_eq!(self.cfg.backend, DirectBackend::NotifiedPut);
        let mut drained = 0;
        while drained < max_batch {
            let Some(slot) = self.polls[pe.idx()].cq.pop_front() else {
                break;
            };
            let entry = &mut self.slots[slot as usize];
            let id = HandleId::new(slot, entry.gen);
            let SlotState::Occupied(ch) = &mut entry.state else {
                // destroy_handle refuses InFlight|Landed channels, so a CQ
                // record can never outlive its channel.
                unreachable!("CQ record for a free slot")
            };
            debug_assert_eq!(ch.phase, DataPhase::Landed, "{id:?} drained twice?");
            let cb = ch.deliver();
            self.total_deliveries += 1;
            self.total_cq_drains += 1;
            out.push((id, cb));
            if let Some(p) = self.probe.as_mut() {
                p(id, Transition::Delivered);
            }
            drained += 1;
        }
        drained
    }

    /// Undelivered notification records waiting in `pe`'s completion queue.
    pub fn cq_len(&self, pe: Pe) -> usize {
        self.polls[pe.idx()].cq.len()
    }

    /// Undelivered notification records across every PE's completion queue
    /// (the machine-wide CQ backlog telemetry snapshots report).
    pub fn cq_total(&self) -> usize {
        self.polls.iter().map(|p| p.cq.len()).sum()
    }

    /// `CkDirect_ReadyMark`: the receiver is done with the data; re-arm the
    /// out-of-band pattern so the *next* put can be detected. Performs no
    /// communication and no synchronization. No-op on the BG/P backend;
    /// on `NotifiedPut` there is no sentinel either — the call just
    /// releases the data, like BG/P.
    pub fn ready_mark(&mut self, handle: HandleId) -> Result<(), DirectError> {
        if matches!(
            self.cfg.backend,
            DirectBackend::DcmfCallback | DirectBackend::NotifiedPut
        ) {
            return self.ready_noop_bgp(handle);
        }
        let ch = self.chan_mut(handle)?;
        match ch.phase {
            DataPhase::Delivered => {
                ch.rearm();
                ch.phase = DataPhase::Empty;
                self.emit(handle, Transition::Marked);
                Ok(())
            }
            _ => Err(DirectError::NotDelivered),
        }
    }

    /// `CkDirect_ReadyPollQ`: start polling the handle again. If the next
    /// put already landed between `ready_mark` and this call, the callback
    /// is returned for immediate delivery instead (the paper: "inserts the
    /// handle into the polling queue **if new data has not already been
    /// received**"). No-op on the BG/P backend.
    pub fn ready_poll_q(&mut self, handle: HandleId) -> Result<Option<C>, DirectError> {
        if matches!(
            self.cfg.backend,
            DirectBackend::DcmfCallback | DirectBackend::NotifiedPut
        ) {
            self.ready_noop_bgp(handle)?;
            return Ok(None);
        }
        let (phase, detectable, linked, pe) = {
            let ch = self.chan(handle)?;
            (
                ch.phase,
                ch.recv.last_word() != ch.oob,
                ch.ready_linked,
                ch.recv_pe,
            )
        };
        match phase {
            DataPhase::Landed if detectable => {
                // Data raced ahead of the poll-queue insertion: deliver now
                // (and retract it from the ready list — no sweep may see it).
                if linked {
                    ring_unlink(&mut self.polls[pe.idx()], &mut self.slots, handle.slot());
                }
                let cb = occupied_mut(&mut self.slots, handle.slot()).deliver();
                self.total_deliveries += 1;
                self.emit(handle, Transition::Delivered);
                Ok(Some(cb))
            }
            DataPhase::Empty | DataPhase::InFlight | DataPhase::Landed => {
                let pp = &mut self.polls[pe.idx()];
                let ch = occupied_mut(&mut self.slots, handle.slot());
                if !ch.marked {
                    return Err(DirectError::NotMarked);
                }
                if !ch.in_pollq {
                    pp.enqueue(ch);
                }
                Ok(None)
            }
            // The current data was already detected and its callback fired:
            // "inserts the handle into the polling queue if new data has not
            // already been received" — nothing to do until `ready_mark`.
            DataPhase::Delivered => Ok(None),
        }
    }

    /// `CkDirect_ready`: the unsplit form — mark and start polling at once.
    pub fn ready(&mut self, handle: HandleId) -> Result<Option<C>, DirectError> {
        self.ready_mark(handle)?;
        self.ready_poll_q(handle)
    }

    /// BG/P `ready` semantics: "no effect in the current Blue Gene/P
    /// implementation" — but the handle must still exist, and the receiver
    /// releases the data so the next put is legal.
    fn ready_noop_bgp(&mut self, handle: HandleId) -> Result<(), DirectError> {
        let ch = self.chan_mut(handle)?;
        if ch.phase == DataPhase::Delivered {
            ch.phase = DataPhase::Empty;
            ch.marked = true;
            self.emit(handle, Transition::Marked);
        }
        Ok(())
    }

    /// `CkDirect_destroyHandle`: tear the channel down and recycle its
    /// slab slot under a new generation, so the stale handle (and any copy
    /// of it still held by a sender) is rejected with `BadHandle` from now
    /// on.
    ///
    /// Refused with `PutInFlight` while a transfer is outstanding
    /// (`InFlight` or `Landed`-but-undelivered): destroying a window the
    /// NIC may still write into is exactly the misuse the lifecycle
    /// sanitizer exists to catch, and the rejection is reported to it
    /// through the failed-op path. A `Delivered` channel may be destroyed —
    /// the receiver owns the data and is declaring the channel dead.
    pub fn destroy_handle(&mut self, handle: HandleId) -> Result<(), DirectError> {
        let (phase, pe, in_pollq) = {
            let ch = self.chan(handle)?;
            (ch.phase, ch.recv_pe, ch.in_pollq)
        };
        if matches!(phase, DataPhase::InFlight | DataPhase::Landed) {
            return Err(DirectError::PutInFlight);
        }
        let slot = handle.slot();
        // Not Landed ⇒ never linked in a ready list.
        debug_assert!(!self.chan(handle).expect("validated").ready_linked);
        if in_pollq {
            self.polls[pe.idx()].armed -= 1;
        }
        let entry = &mut self.slots[slot as usize];
        entry.gen = entry.gen.wrapping_add(1);
        entry.state = SlotState::Free {
            next_free: self.free_head,
        };
        self.free_head = slot;
        self.live -= 1;
        self.destroyed += 1;
        self.emit(handle, Transition::Destroyed);
        Ok(())
    }

    /// Current data phase (tests and runtime assertions).
    pub fn phase(&self, handle: HandleId) -> Result<DataPhase, DirectError> {
        Ok(self.chan(handle)?.phase)
    }

    /// The receive window of a channel (how the receiving chare reads the
    /// landed data — it's the same storage it registered).
    pub fn recv_region(&self, handle: HandleId) -> Result<Region, DirectError> {
        Ok(self.chan(handle)?.recv.clone())
    }

    /// Receiver PE of a channel.
    pub fn recv_pe(&self, handle: HandleId) -> Result<Pe, DirectError> {
        Ok(self.chan(handle)?.recv_pe)
    }

    /// Whether a landed payload collided with the out-of-band pattern.
    pub fn collided(&self, handle: HandleId) -> Result<bool, DirectError> {
        Ok(self.chan(handle)?.collided)
    }

    /// Number of handles currently being polled on `pe` (O(1): a counter,
    /// not a queue walk).
    pub fn pollq_len(&self, pe: Pe) -> usize {
        self.polls[pe.idx()].armed
    }

    /// Handles currently enqueued for polling across every PE — the
    /// machine-wide poll occupancy the telemetry snapshots report (always
    /// 0 on callback backends).
    pub fn pollq_total(&self) -> usize {
        self.polls.iter().map(|p| p.armed).sum()
    }

    /// Armed channels whose data has landed detectably and awaits the next
    /// sweep — the machine-wide deliverable backlog (ready-list occupancy).
    pub fn ready_total(&self) -> usize {
        self.polls.iter().map(|p| p.ready).sum()
    }

    /// Total channels ever created.
    pub fn channel_count(&self) -> usize {
        self.created as usize
    }

    /// Channels currently live (created minus destroyed).
    pub fn live_channels(&self) -> usize {
        self.live
    }

    /// Channels destroyed over the registry's lifetime.
    pub fn destroyed_channels(&self) -> usize {
        self.destroyed as usize
    }

    /// Lifetime counters across all channels.
    pub fn counters(&self) -> RegistryCounters {
        RegistryCounters {
            puts: self.total_puts,
            deliveries: self.total_deliveries,
            poll_checks: self.total_poll_checks,
            dup_landings: self.total_dup_landings,
            corrupt_landings: self.total_corrupt_landings,
            notifications: self.total_notifications,
            cq_drains: self.total_cq_drains,
            cq_overflows: self.total_cq_overflows,
            landed_bytes: self.total_landed_bytes,
        }
    }

    fn chan(&self, handle: HandleId) -> Result<&Channel<C>, DirectError> {
        match self.slots.get(handle.idx()) {
            Some(SlotEntry {
                gen,
                state: SlotState::Occupied(ch),
            }) if *gen == handle.generation() => Ok(ch),
            _ => Err(DirectError::BadHandle),
        }
    }

    fn chan_mut(&mut self, handle: HandleId) -> Result<&mut Channel<C>, DirectError> {
        match self.slots.get_mut(handle.idx()) {
            Some(SlotEntry {
                gen,
                state: SlotState::Occupied(ch),
            }) if *gen == handle.generation() => Ok(ch),
            _ => Err(DirectError::BadHandle),
        }
    }
}

/// Test driver: one poll sweep on `pe`, returning its deliveries.
#[cfg(test)]
fn sweep<C: Clone>(reg: &mut DirectRegistry<C>, pe: Pe) -> Vec<(HandleId, C)> {
    let mut out = Vec::new();
    reg.poll_sweep_into(pe, &mut out);
    out
}

/// Test driver: drain up to `max` CQ records on `pe`.
#[cfg(test)]
fn drain<C: Clone>(reg: &mut DirectRegistry<C>, pe: Pe, max: usize) -> Vec<(HandleId, C)> {
    let mut out = Vec::new();
    reg.cq_drain_into(pe, max, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    type Reg = DirectRegistry<u32>;

    fn setup(cfg: DirectConfig) -> (Reg, HandleId, Region, Region) {
        let mut reg = Reg::new(2, cfg);
        let recv = Region::alloc(64);
        let send = Region::alloc(64);
        let h = reg.create_handle(Pe(1), recv.clone(), u64::MAX, 7).unwrap();
        reg.assoc_local(h, Pe(0), send.clone()).unwrap();
        (reg, h, send, recv)
    }

    fn land_and_sweep(reg: &mut Reg, h: HandleId) -> Vec<(HandleId, u32)> {
        match reg.land(h).unwrap() {
            LandOutcome::AwaitPoll => sweep(reg, Pe(1)),
            LandOutcome::Deliver(cb) => vec![(h, cb)],
            LandOutcome::Notified => drain(reg, Pe(1), usize::MAX),
        }
    }

    #[test]
    fn full_cycle_ib() {
        let (mut reg, h, send, recv) = setup(DirectConfig::ib());
        assert_eq!(recv.last_word(), u64::MAX, "sentinel armed at create");
        send.fill(9);
        let req = reg.put(h, Pe(0)).unwrap();
        assert_eq!(req.bytes, 64);
        assert_eq!(reg.phase(h).unwrap(), DataPhase::InFlight);
        let delivered = land_and_sweep(&mut reg, h);
        assert_eq!(delivered, vec![(h, 7)]);
        assert_eq!(recv.to_vec(), vec![9u8; 64], "payload landed in place");
        assert_eq!(reg.phase(h).unwrap(), DataPhase::Delivered);
        assert_eq!(reg.pollq_len(Pe(1)), 0, "delivered handle left the queue");
        // re-arm and go again
        assert!(reg.ready(h).unwrap().is_none());
        assert_eq!(recv.last_word(), u64::MAX, "sentinel re-armed");
        assert_eq!(reg.pollq_len(Pe(1)), 1);
        send.fill(4);
        reg.put(h, Pe(0)).unwrap();
        let delivered = land_and_sweep(&mut reg, h);
        assert_eq!(delivered.len(), 1);
        assert_eq!(recv.to_vec()[0], 4);
        let c = reg.counters();
        assert_eq!((c.puts, c.deliveries), (2, 2));
        assert_eq!(c.poll_checks, 2, "one armed channel, two sweeps");
    }

    #[test]
    fn full_cycle_bgp_callback_immediate() {
        let (mut reg, h, send, _recv) = setup(DirectConfig::bgp());
        assert_eq!(reg.pollq_len(Pe(1)), 0, "no polling on BG/P");
        send.fill(5);
        reg.put(h, Pe(0)).unwrap();
        match reg.land(h).unwrap() {
            LandOutcome::Deliver(cb) => assert_eq!(cb, 7),
            other => panic!("BG/P must deliver via callback, got {other:?}"),
        }
        // ready is a no-op but releases the data for the next put
        reg.ready_mark(h).unwrap();
        assert!(reg.ready_poll_q(h).unwrap().is_none());
        reg.put(h, Pe(0)).unwrap();
    }

    #[test]
    fn one_message_in_flight_enforced() {
        let (mut reg, h, _send, _recv) = setup(DirectConfig::ib());
        reg.put(h, Pe(0)).unwrap();
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::PutInFlight);
        reg.land(h).unwrap();
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::PutInFlight);
        sweep(&mut reg, Pe(1));
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::Overwrite);
    }

    #[test]
    fn accept_landing_suppresses_replays_idempotently() {
        let (mut reg, h, _send, _recv) = setup(DirectConfig::ib());
        let req = reg.put(h, Pe(0)).unwrap();
        assert_eq!(req.seq, 1, "put seqs are 1-based");
        assert!(
            reg.accept_landing(h, req.seq).unwrap(),
            "first arrival lands"
        );
        let delivered = land_and_sweep(&mut reg, h);
        assert_eq!(delivered.len(), 1);
        reg.ready(h).unwrap();
        // the fabric replays the old put after delivery: suppressed, state
        // untouched, counted once per copy
        assert!(!reg.accept_landing(h, req.seq).unwrap());
        assert!(!reg.accept_landing(h, req.seq).unwrap());
        assert_eq!(reg.phase(h).unwrap(), DataPhase::Empty);
        assert_eq!(reg.counters().dup_landings, 2);
        // the next genuine put is fresh
        let req2 = reg.put(h, Pe(0)).unwrap();
        assert_eq!(req2.seq, 2);
        assert!(reg.accept_landing(h, req2.seq).unwrap());
    }

    #[test]
    fn corrupt_landing_keeps_channel_armed_for_retransmit() {
        let (mut reg, h, send, recv) = setup(DirectConfig::ib());
        send.fill(6);
        let req = reg.put(h, Pe(0)).unwrap();
        // The wire damaged the payload: CRC fails at the receiver, the
        // bytes are discarded, and the channel waits for the retransmit.
        assert!(reg.corrupt_landing(h, req.seq).unwrap());
        assert_eq!(reg.phase(h).unwrap(), DataPhase::InFlight);
        assert_eq!(recv.last_word(), u64::MAX, "sentinel still armed");
        assert_eq!(reg.counters().corrupt_landings, 1);
        // The retransmission of the same seq is a fresh landing.
        assert!(reg.accept_landing(h, req.seq).unwrap());
        let delivered = land_and_sweep(&mut reg, h);
        assert_eq!(delivered, vec![(h, 7)]);
        assert_eq!(recv.to_vec(), vec![6u8; 64]);
        assert_eq!(reg.counters().puts, 1, "one logical put despite the retry");
        assert_eq!(reg.counters().corrupt_landings, 1);
        // a damaged *replay* of the already-consumed put protects nothing:
        // ignored, whatever phase the channel is in by now
        assert!(!reg.corrupt_landing(h, req.seq).unwrap());
        assert_eq!(reg.counters().corrupt_landings, 1);
    }

    #[test]
    fn put_requires_assoc() {
        let mut reg = Reg::new(2, DirectConfig::ib());
        let h = reg
            .create_handle(Pe(1), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::NotAssociated);
    }

    #[test]
    fn assoc_size_and_duplication_checks() {
        let mut reg = Reg::new(2, DirectConfig::ib());
        let h = reg
            .create_handle(Pe(1), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        assert_eq!(
            reg.assoc_local(h, Pe(0), Region::alloc(8)).unwrap_err(),
            DirectError::SizeMismatch
        );
        reg.assoc_local(h, Pe(0), Region::alloc(16)).unwrap();
        assert_eq!(
            reg.assoc_local(h, Pe(0), Region::alloc(16)).unwrap_err(),
            DirectError::AlreadyAssociated
        );
    }

    #[test]
    fn tiny_buffer_rejected() {
        let mut reg = Reg::new(1, DirectConfig::ib());
        assert_eq!(
            reg.create_handle(Pe(0), Region::alloc(7), 1, 0)
                .unwrap_err(),
            DirectError::BufferTooSmall
        );
    }

    #[test]
    fn wrong_pe_put_rejected() {
        let (mut reg, h, _s, _r) = setup(DirectConfig::ib());
        assert_eq!(reg.put(h, Pe(1)).unwrap_err(), DirectError::WrongPe);
    }

    #[test]
    fn oob_collision_detected_at_put() {
        let (mut reg, h, send, _recv) = setup(DirectConfig::ib());
        send.set_last_word(u64::MAX); // payload ends with the pattern
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::OobCollision);
    }

    #[test]
    fn oob_collision_unchecked_is_silent_loss() {
        // The paper's failure mode, past the put-time check: the source is
        // read at landing (as a NIC DMA-reads it in flight), so a sender
        // that rewrites its window to end with the pattern after `put`
        // lands a payload that polling never notices.
        let (mut reg, h, send, _recv) = setup(DirectConfig::ib());
        send.fill(1);
        reg.put(h, Pe(0)).unwrap();
        send.set_last_word(u64::MAX); // the pattern, written in flight
        reg.land(h).unwrap();
        let mut delivered = Vec::new();
        assert_eq!(reg.poll_sweep_into(Pe(1), &mut delivered), 1);
        assert!(delivered.is_empty(), "undetectable arrival");
        assert!(reg.collided(h).unwrap());
    }

    /// One clean put → land → sweep → `ready` cycle.
    fn cycle(reg: &mut Reg, h: HandleId) {
        reg.put(h, Pe(0)).unwrap();
        assert_eq!(land_and_sweep(reg, h).len(), 1);
        reg.ready(h).unwrap();
    }

    #[test]
    fn source_written_in_flight_lands_its_new_bytes() {
        // A warmed-up channel whose source nobody writes copies only the
        // re-armed word per landing; a byte rewritten between `put` and
        // `land` is still what lands, because the write stamped the source.
        let (mut reg, h, send, recv) = setup(DirectConfig::ib());
        send.fill(1);
        cycle(&mut reg, h);
        cycle(&mut reg, h);
        assert_eq!(reg.counters().landed_bytes, 64 + 8);
        reg.put(h, Pe(0)).unwrap();
        send.with_mut(|b| b[30] = 0xAB);
        land_and_sweep(&mut reg, h);
        assert_eq!(recv.to_vec()[30], 0xAB, "the in-flight rewrite landed");
        assert_eq!(recv.to_vec(), send.to_vec());
        assert_eq!(reg.counters().landed_bytes, 64 + 8 + 64);
    }

    #[test]
    fn elided_landing_is_still_detected_by_the_sweep() {
        // The only write since the last landing is `ready_mark`'s re-arm,
        // so the landing copies just the last word — which is exactly what
        // the sentinel poll reads.
        let (mut reg, h, send, recv) = setup(DirectConfig::ib());
        send.fill(3);
        cycle(&mut reg, h);
        assert_eq!(recv.last_word(), u64::MAX, "re-armed");
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        assert_eq!(reg.counters().landed_bytes, 64 + 8);
        assert_eq!(recv.to_vec(), vec![3u8; 64]);
        assert_eq!(sweep(&mut reg, Pe(1)), vec![(h, 7)]);
        // on the callback backend nothing re-arms, so nothing is copied
        let (mut reg, h, send, recv) = setup(DirectConfig::bgp());
        send.fill(3);
        cycle(&mut reg, h);
        cycle(&mut reg, h);
        assert_eq!(reg.counters().landed_bytes, 64);
        assert_eq!(recv.to_vec(), vec![3u8; 64]);
    }

    #[test]
    fn ready_mark_requires_delivery() {
        let (mut reg, h, _send, _recv) = setup(DirectConfig::ib());
        assert_eq!(reg.ready_mark(h).unwrap_err(), DirectError::NotDelivered);
        reg.put(h, Pe(0)).unwrap();
        assert_eq!(reg.ready_mark(h).unwrap_err(), DirectError::NotDelivered);
    }

    #[test]
    fn split_ready_bounds_polling_window() {
        let (mut reg, h, send, _recv) = setup(DirectConfig::ib());
        send.fill(1);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        assert_eq!(sweep(&mut reg, Pe(1)).len(), 1);
        // mark early …
        reg.ready_mark(h).unwrap();
        assert_eq!(reg.pollq_len(Pe(1)), 0, "not polled until ReadyPollQ");
        // … sender puts during another phase …
        send.fill(2);
        reg.put(h, Pe(0)).unwrap();
        // sweeps in between cost nothing for this handle
        assert_eq!(reg.poll_sweep_into(Pe(1), &mut Vec::new()), 0);
        reg.land(h).unwrap();
        // … and ReadyPollQ discovers the already-landed data immediately.
        let cb = reg.ready_poll_q(h).unwrap();
        assert_eq!(cb, Some(7), "raced put delivered at ReadyPollQ");
        assert_eq!(reg.pollq_len(Pe(1)), 0);
    }

    #[test]
    fn ready_poll_q_before_landing_polls_later() {
        let (mut reg, h, send, _r) = setup(DirectConfig::ib());
        send.fill(1);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        reg.ready_mark(h).unwrap();
        send.fill(2);
        reg.put(h, Pe(0)).unwrap();
        // pollq re-armed while the put is still in flight
        assert!(reg.ready_poll_q(h).unwrap().is_none());
        assert_eq!(reg.pollq_len(Pe(1)), 1);
        reg.land(h).unwrap();
        assert_eq!(sweep(&mut reg, Pe(1)).len(), 1);
    }

    #[test]
    fn ready_poll_q_on_delivered_is_a_noop() {
        // "inserts the handle into the polling queue if new data has not
        // already been received": data was received *and* delivered, so the
        // call does nothing — the receiver must still ready_mark later.
        let (mut reg, h, _s, _r) = setup(DirectConfig::ib());
        _s.fill(1);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        assert_eq!(reg.ready_poll_q(h).unwrap(), None);
        assert_eq!(reg.pollq_len(Pe(1)), 0, "not queued while delivered");
        // the channel is still released only by ready_mark
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::Overwrite);
    }

    #[test]
    fn ready_poll_q_delivery_while_queued_keeps_the_slot_armed() {
        // ready_poll_q during the InFlight window, then a second
        // ready_poll_q after the landing: the raced delivery must retract
        // the channel from the ready list (no sweep may double-deliver)
        // while the handle stays in the polling queue, exactly like the
        // historical Vec-based plane.
        let (mut reg, h, send, _r) = setup(DirectConfig::ib());
        send.fill(1);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        reg.ready_mark(h).unwrap();
        send.fill(2);
        reg.put(h, Pe(0)).unwrap();
        assert!(
            reg.ready_poll_q(h).unwrap().is_none(),
            "re-queued in flight"
        );
        reg.land(h).unwrap();
        // landing on a queued channel: deliverable backlog of 1
        assert_eq!(reg.ready_total(), 1);
        let cb = reg.ready_poll_q(h).unwrap();
        assert_eq!(cb, Some(7), "raced landing delivered at ReadyPollQ");
        assert_eq!(reg.ready_total(), 0, "retracted from the ready list");
        // historical semantics: the queue entry (and its sweep charge)
        // survives the raced delivery until the handle cycles again
        assert_eq!(reg.pollq_len(Pe(1)), 1);
        let mut delivered = Vec::new();
        assert_eq!(
            reg.poll_sweep_into(Pe(1), &mut delivered),
            1,
            "still charged while queued"
        );
        assert!(delivered.is_empty(), "but never double-delivered");
    }

    #[test]
    fn bad_handle() {
        let mut reg = Reg::new(1, DirectConfig::ib());
        assert_eq!(
            reg.put(HandleId(3), Pe(0)).unwrap_err(),
            DirectError::BadHandle
        );
        assert_eq!(reg.phase(HandleId(0)).unwrap_err(), DirectError::BadHandle);
    }

    #[test]
    fn one_source_many_receivers() {
        // the paper: "the same local send buffer can be associated with
        // multiple different handles" — multicast without copies.
        let mut reg = Reg::new(3, DirectConfig::ib());
        let src = Region::alloc(32);
        let r1 = Region::alloc(32);
        let r2 = Region::alloc(32);
        let h1 = reg.create_handle(Pe(1), r1.clone(), u64::MAX, 1).unwrap();
        let h2 = reg.create_handle(Pe(2), r2.clone(), u64::MAX, 2).unwrap();
        reg.assoc_local(h1, Pe(0), src.clone()).unwrap();
        reg.assoc_local(h2, Pe(0), src.clone()).unwrap();
        src.fill(0x5A);
        reg.put(h1, Pe(0)).unwrap();
        reg.put(h2, Pe(0)).unwrap();
        reg.land(h1).unwrap();
        reg.land(h2).unwrap();
        assert_eq!(sweep(&mut reg, Pe(1)), vec![(h1, 1)]);
        assert_eq!(sweep(&mut reg, Pe(2)), vec![(h2, 2)]);
        assert_eq!(r1.to_vec(), vec![0x5A; 32]);
        assert_eq!(r2.to_vec(), vec![0x5A; 32]);
    }

    #[test]
    fn probe_sees_the_whole_lifecycle_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(u32, Transition)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut reg = Reg::new(2, DirectConfig::ib());
        let sink = Rc::clone(&seen);
        reg.set_probe(Box::new(move |h, t| sink.borrow_mut().push((h.0, t))));
        let recv = Region::alloc(64);
        let send = Region::alloc(64);
        let h = reg.create_handle(Pe(1), recv, u64::MAX, 7).unwrap();
        reg.assoc_local(h, Pe(0), send.clone()).unwrap();
        send.fill(3);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        reg.ready(h).unwrap();
        assert_eq!(
            seen.borrow().as_slice(),
            &[
                (h.0, Transition::Created),
                (h.0, Transition::Associated),
                (h.0, Transition::PutIssued),
                (h.0, Transition::Landed),
                (h.0, Transition::Delivered),
                (h.0, Transition::Marked),
            ]
        );
        // rejected operations commit nothing and report nothing
        let before = seen.borrow().len();
        assert!(reg.assoc_local(h, Pe(0), send.clone()).is_err());
        assert_eq!(seen.borrow().len(), before);
        reg.clear_probe();
        reg.put(h, Pe(0)).unwrap();
        assert_eq!(seen.borrow().len(), before, "cleared probe is silent");
    }

    #[test]
    fn sweep_checks_every_armed_handle() {
        // polling cost scales with queue length — the OpenAtom pathology.
        // (The *charged* cost, that is; the host only walks the ready list,
        // which holds landed channels alone.)
        let mut reg = Reg::new(1, DirectConfig::ib());
        for _ in 0..50 {
            reg.create_handle(Pe(0), Region::alloc(16), u64::MAX, 0)
                .unwrap();
        }
        let mut delivered = Vec::new();
        assert_eq!(reg.poll_sweep_into(Pe(0), &mut delivered), 50);
        assert!(delivered.is_empty());
        assert_eq!(reg.pollq_len(Pe(0)), 50, "undelivered handles stay queued");
    }

    #[test]
    fn sweeps_charge_armed_channels_until_delivery() {
        // Every sweep charges one check per armed channel, the delivering
        // sweep included; a delivered channel stops being charged until it
        // is re-armed — exactly the linear scan's counts.
        let mut reg = Reg::new(1, DirectConfig::ib());
        let send = Region::alloc(16);
        reg.create_handle(Pe(0), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        let busy = reg
            .create_handle(Pe(0), Region::alloc(16), u64::MAX, 1)
            .unwrap();
        reg.assoc_local(busy, Pe(0), send.clone()).unwrap();
        sweep(&mut reg, Pe(0));
        sweep(&mut reg, Pe(0));
        assert_eq!(reg.counters().poll_checks, 4);
        send.fill(3);
        reg.put(busy, Pe(0)).unwrap();
        reg.land(busy).unwrap();
        assert_eq!(sweep(&mut reg, Pe(0)).len(), 1);
        assert_eq!(
            reg.counters().poll_checks,
            6,
            "delivering sweep charged both"
        );
        sweep(&mut reg, Pe(0));
        assert_eq!(reg.counters().poll_checks, 7, "only the idle one is armed");
        assert_eq!(reg.counters().deliveries, 1);
    }

    #[test]
    fn sweep_host_cost_is_proportional_to_deliveries() {
        // The structural O(active) claim, testable without a clock: a
        // sweep's ready-list drain touches only landed channels, so the
        // deliverable backlog (ready_total) — not the armed herd — bounds
        // the walk. 10_000 armed idlers, 3 landed: backlog is 3.
        let mut reg = Reg::new(1, DirectConfig::ib());
        for _ in 0..10_000 {
            reg.create_handle(Pe(0), Region::alloc(16), u64::MAX, 0)
                .unwrap();
        }
        let send = Region::alloc(16);
        send.fill(1);
        let mut active = Vec::new();
        for i in 0..3 {
            let recv = Region::alloc(16);
            let h = reg.create_handle(Pe(0), recv, u64::MAX, 100 + i).unwrap();
            reg.assoc_local(h, Pe(0), send.clone()).unwrap();
            active.push(h);
        }
        for &h in &active {
            reg.put(h, Pe(0)).unwrap();
            reg.land(h).unwrap();
        }
        assert_eq!(reg.ready_total(), 3, "only landed channels are listed");
        let mut delivered = Vec::new();
        assert_eq!(
            reg.poll_sweep_into(Pe(0), &mut delivered),
            10_003,
            "virtual charge covers the herd"
        );
        assert_eq!(
            delivered.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            active,
            "delivered in queue-insertion order"
        );
        assert_eq!(reg.ready_total(), 0);
    }

    #[test]
    fn destroy_recycles_slots_under_a_new_generation() {
        let mut reg = Reg::new(2, DirectConfig::ib());
        let h0 = reg
            .create_handle(Pe(1), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        let h1 = reg
            .create_handle(Pe(1), Region::alloc(16), u64::MAX, 1)
            .unwrap();
        assert_eq!((h0.slot(), h0.generation()), (0, 0));
        assert_eq!(reg.pollq_len(Pe(1)), 2);
        reg.destroy_handle(h0).unwrap();
        assert_eq!(reg.live_channels(), 1);
        assert_eq!(reg.destroyed_channels(), 1);
        assert_eq!(reg.pollq_len(Pe(1)), 1, "destroy leaves the poll queue");
        // every op on the stale handle is rejected
        assert_eq!(reg.phase(h0).unwrap_err(), DirectError::BadHandle);
        assert_eq!(reg.put(h0, Pe(0)).unwrap_err(), DirectError::BadHandle);
        assert_eq!(reg.destroy_handle(h0).unwrap_err(), DirectError::BadHandle);
        // the slot is recycled under a bumped generation
        let h2 = reg
            .create_handle(Pe(1), Region::alloc(16), u64::MAX, 2)
            .unwrap();
        assert_eq!((h2.slot(), h2.generation()), (0, 1));
        assert_ne!(h2, h0, "stale handle cannot alias the new tenant");
        assert_eq!(reg.phase(h0).unwrap_err(), DirectError::BadHandle);
        assert_eq!(reg.phase(h2).unwrap(), DataPhase::Empty);
        assert_eq!(reg.phase(h1).unwrap(), DataPhase::Empty, "bystander lives");
        assert_eq!(reg.channel_count(), 3, "creations, not live channels");
        assert_eq!(reg.live_channels(), 2);
    }

    #[test]
    fn stale_handles_alias_at_exactly_the_256th_recycle() {
        let mut reg = Reg::new(2, DirectConfig::ib());
        let mk = |reg: &mut Reg| {
            reg.create_handle(Pe(1), Region::alloc(16), u64::MAX, 0)
                .unwrap()
        };
        let h0 = mk(&mut reg);
        let mut cur = h0;
        for recycle in 1..=255u32 {
            reg.destroy_handle(cur).unwrap();
            cur = mk(&mut reg);
            assert_eq!((cur.slot(), u32::from(cur.generation())), (0, recycle));
            assert_eq!(reg.phase(h0).unwrap_err(), DirectError::BadHandle);
        }
        // the 8-bit tag wraps: the 256th tenant of the slot is h0 again
        reg.destroy_handle(cur).unwrap();
        let tenant = mk(&mut reg);
        assert_eq!(tenant, h0);
        assert_eq!(reg.phase(h0).unwrap(), DataPhase::Empty);
    }

    #[test]
    fn destroy_while_in_flight_is_refused() {
        let (mut reg, h, _send, _recv) = setup(DirectConfig::ib());
        reg.put(h, Pe(0)).unwrap();
        assert_eq!(reg.destroy_handle(h).unwrap_err(), DirectError::PutInFlight);
        reg.land(h).unwrap();
        assert_eq!(
            reg.destroy_handle(h).unwrap_err(),
            DirectError::PutInFlight,
            "landed-but-undelivered is still outstanding"
        );
        sweep(&mut reg, Pe(1));
        // delivered data belongs to the receiver; it may destroy now
        reg.destroy_handle(h).unwrap();
        assert_eq!(reg.live_channels(), 0);
    }

    #[test]
    fn destroy_emits_the_lifecycle_transition() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(u32, Transition)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut reg = Reg::new(1, DirectConfig::ib());
        let sink = Rc::clone(&seen);
        reg.set_probe(Box::new(move |h, t| sink.borrow_mut().push((h.0, t))));
        let h = reg
            .create_handle(Pe(0), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        reg.destroy_handle(h).unwrap();
        assert_eq!(
            seen.borrow().as_slice(),
            &[(h.0, Transition::Created), (h.0, Transition::Destroyed)]
        );
    }

    #[test]
    fn too_many_handles_is_reported_not_wrapped() {
        let mut reg = Reg::new(1, DirectConfig::ib());
        reg.set_slot_cap_for_tests(2);
        let h0 = reg
            .create_handle(Pe(0), Region::alloc(16), u64::MAX, 0)
            .unwrap();
        reg.create_handle(Pe(0), Region::alloc(16), u64::MAX, 1)
            .unwrap();
        assert_eq!(
            reg.create_handle(Pe(0), Region::alloc(16), u64::MAX, 2)
                .unwrap_err(),
            DirectError::TooManyHandles
        );
        // destroying frees a slot; creation works again (recycled, not grown)
        reg.destroy_handle(h0).unwrap();
        let h2 = reg
            .create_handle(Pe(0), Region::alloc(16), u64::MAX, 2)
            .unwrap();
        assert_eq!(h2.slot(), h0.slot());
        assert_eq!(h2.generation(), 1);
    }

    #[test]
    fn channel_and_poll_plane_stay_lean() {
        // `[u32; 4]` stands in for the runtime's 16-B `DirectCb` token.
        let channel = std::mem::size_of::<Channel<[u32; 4]>>();
        let poll = std::mem::size_of::<PePoll>();
        assert!(channel <= 128, "Channel grew to {channel} B");
        assert_eq!(std::mem::size_of::<Region>(), 16, "Region grew");
        assert!(poll <= 64, "PePoll grew to {poll} B");
    }

    #[test]
    fn handle_packing_round_trips() {
        let h = HandleId::new(0x00AB_CDEF & 0x00FF_FFFF, 0x7F);
        assert_eq!(h.slot(), 0x00AB_CDEF);
        assert_eq!(h.generation(), 0x7F);
        assert_eq!(h.idx(), 0x00AB_CDEF);
        // generation 0 packs to the bare slot — the historical dense index
        let g0 = HandleId::new(42, 0);
        assert_eq!(g0.0, 42);
    }
}

#[cfg(test)]
mod strided_tests {
    use super::*;
    use crate::region::Region;
    use crate::strided::StridedSpec;
    use ckd_topo::Pe;

    /// Move a column of a 4x4 f64 matrix into a column of another matrix,
    /// one-sided, no application pack/unpack.
    #[test]
    fn strided_column_to_column() {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let src_mat = Region::alloc(4 * 4 * 8);
        let dst_mat = Region::alloc(4 * 4 * 8);
        for r in 0..4 {
            src_mat.write_f64s(
                r * 4 * 8,
                &[r as f64, 10.0 + r as f64, 20.0 + r as f64, 30.0 + r as f64],
            );
        }
        // column 1 of the source → column 2 of the destination
        let col = |c: usize| StridedSpec {
            offset: c * 8,
            block_len: 8,
            stride: 4 * 8,
            count: 4,
        };
        let h = reg
            .create_handle_strided(Pe(1), dst_mat.clone(), col(2), u64::MAX, 7)
            .unwrap();
        reg.assoc_local_strided(h, Pe(0), src_mat.clone(), col(1))
            .unwrap();
        assert_eq!(reg.strided_send_bytes(h).unwrap(), Some(32));
        assert_eq!(reg.strided_recv_bytes(h).unwrap(), Some(32));
        assert_eq!(reg.wire_bytes(h).unwrap(), 32);

        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        let delivered = sweep(&mut reg, Pe(1));
        assert_eq!(delivered.len(), 1);
        // column 2 of dst == column 1 of src; other columns untouched
        for r in 0..4 {
            let row = dst_mat.read_f64s(r * 4 * 8, 4);
            assert_eq!(row, vec![0.0, 0.0, 10.0 + r as f64, 0.0], "row {r}");
        }

        // second iteration: re-arm, change source, go again
        reg.ready(h).unwrap();
        src_mat.write_f64s(8, &[-1.0]); // src[0][1] = -1
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        assert_eq!(dst_mat.read_f64s(2 * 8, 1), vec![-1.0]);
    }

    #[test]
    fn unchanged_strided_source_is_not_regathered() {
        // An unwritten backing leaves the wire image as the last gather
        // left it, so after the first full landing only the re-armed word
        // lands; a backing write re-gathers and lands the whole window.
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let (src, dst) = (Region::alloc(64), Region::alloc(64));
        src.fill(5);
        let spec = StridedSpec {
            offset: 0,
            block_len: 8,
            stride: 16,
            count: 4,
        };
        let h = reg
            .create_handle_strided(Pe(1), dst.clone(), spec, u64::MAX, 0)
            .unwrap();
        reg.assoc_local_strided(h, Pe(0), src.clone(), spec)
            .unwrap();
        let mut landed = Vec::new();
        for _ in 0..3 {
            reg.put(h, Pe(0)).unwrap();
            reg.land(h).unwrap();
            assert_eq!(sweep(&mut reg, Pe(1)).len(), 1);
            reg.ready(h).unwrap();
            landed.push(reg.counters().landed_bytes);
        }
        assert_eq!(landed, [32, 40, 48]);
        src.with_mut(|b| b[16] = 6);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        sweep(&mut reg, Pe(1));
        assert_eq!(reg.counters().landed_bytes, 48 + 32);
        assert_eq!(dst.to_vec()[16], 6, "the rewritten block landed");
    }

    #[test]
    fn strided_works_on_callback_backend_too() {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::bgp());
        let src = Region::alloc(64);
        let dst = Region::alloc(64);
        src.fill(9);
        let spec = StridedSpec {
            offset: 0,
            block_len: 8,
            stride: 16,
            count: 4,
        };
        let h = reg
            .create_handle_strided(Pe(1), dst.clone(), spec, u64::MAX, 0)
            .unwrap();
        reg.assoc_local_strided(h, Pe(0), src, spec).unwrap();
        reg.put(h, Pe(0)).unwrap();
        match reg.land(h).unwrap() {
            LandOutcome::Deliver(_) => {}
            other => panic!("BG/P delivers by callback, got {other:?}"),
        }
        for (i, &b) in dst.to_vec().iter().enumerate() {
            let in_block = (i % 16) < 8;
            assert_eq!(b == 9, in_block, "byte {i}");
        }
    }

    #[test]
    fn strided_layout_validation_at_api_boundary() {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let small = Region::alloc(16);
        let too_big = StridedSpec {
            offset: 0,
            block_len: 8,
            stride: 16,
            count: 4,
        };
        assert_eq!(
            reg.create_handle_strided(Pe(1), small, too_big, u64::MAX, 0)
                .unwrap_err(),
            DirectError::RegionOutOfBounds
        );
        let tiny_payload = StridedSpec {
            offset: 0,
            block_len: 2,
            stride: 4,
            count: 2,
        };
        assert_eq!(
            reg.create_handle_strided(Pe(1), Region::alloc(16), tiny_payload, u64::MAX, 0)
                .unwrap_err(),
            DirectError::BufferTooSmall
        );
    }
}

#[cfg(test)]
mod get_tests {
    use super::*;
    use crate::region::Region;
    use ckd_topo::Pe;

    fn setup() -> (DirectRegistry<u32>, HandleId, Region, Region) {
        let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, DirectConfig::ib());
        let recv = Region::alloc(32);
        let send = Region::alloc(32);
        let h = reg.create_handle(Pe(1), recv.clone(), u64::MAX, 5).unwrap();
        reg.assoc_local(h, Pe(0), send.clone()).unwrap();
        (reg, h, send, recv)
    }

    #[test]
    fn get_pulls_the_source_and_delivers_immediately() {
        let (mut reg, h, send, recv) = setup();
        send.fill(0x3C);
        // only the receiving PE may initiate
        assert_eq!(reg.get(h, Pe(0)).unwrap_err(), DirectError::WrongPe);
        let req = reg.get(h, Pe(1)).unwrap();
        assert_eq!((req.src, req.dst), (Pe(0), Pe(1)));
        let cb = reg.land_get(h).unwrap();
        assert_eq!(cb, 5);
        assert_eq!(recv.to_vec(), vec![0x3C; 32]);
        // state machine: delivered until ready_mark
        assert_eq!(reg.get(h, Pe(1)).unwrap_err(), DirectError::Overwrite);
        reg.ready_mark(h).unwrap();
        reg.get(h, Pe(1)).unwrap();
    }

    #[test]
    fn get_and_put_share_the_one_in_flight_rule() {
        let (mut reg, h, _send, _recv) = setup();
        reg.get(h, Pe(1)).unwrap();
        assert_eq!(reg.put(h, Pe(0)).unwrap_err(), DirectError::PutInFlight);
        assert_eq!(reg.get(h, Pe(1)).unwrap_err(), DirectError::PutInFlight);
    }
}

#[cfg(test)]
mod notified_tests {
    use super::*;
    use crate::region::Region;
    use ckd_topo::Pe;

    type Reg = DirectRegistry<u32>;

    fn channel(reg: &mut Reg, cb: u32) -> (HandleId, Region, Region) {
        let recv = Region::alloc(32);
        let send = Region::alloc(32);
        let h = reg
            .create_handle(Pe(1), recv.clone(), u64::MAX, cb)
            .unwrap();
        reg.assoc_local(h, Pe(0), send.clone()).unwrap();
        (h, send, recv)
    }

    #[test]
    fn full_cycle_notified() {
        let mut reg = Reg::new(2, DirectConfig::notified(8));
        let (h, send, recv) = channel(&mut reg, 7);
        assert_eq!(reg.pollq_len(Pe(1)), 0, "no polling queue on NotifiedPut");
        send.fill(9);
        reg.put(h, Pe(0)).unwrap();
        match reg.land(h).unwrap() {
            LandOutcome::Notified => {}
            other => panic!("expected Notified, got {other:?}"),
        }
        assert_eq!(reg.cq_len(Pe(1)), 1, "one record awaiting drain");
        assert_eq!(reg.phase(h).unwrap(), DataPhase::Landed);
        let delivered = drain(&mut reg, Pe(1), 16);
        assert_eq!(delivered, vec![(h, 7)]);
        assert_eq!(recv.to_vec(), vec![9u8; 32], "payload landed in place");
        assert_eq!(reg.cq_len(Pe(1)), 0);
        assert_eq!(reg.phase(h).unwrap(), DataPhase::Delivered);
        // release and go again: the ready family behaves like BG/P
        reg.ready(h).unwrap();
        send.fill(4);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        assert_eq!(drain(&mut reg, Pe(1), 16).len(), 1);
        let c = reg.counters();
        assert_eq!((c.puts, c.deliveries), (2, 2));
        assert_eq!((c.notifications, c.cq_drains), (2, 2));
        assert_eq!(c.poll_checks, 0, "sentinel sweeps never ran");
        assert_eq!(c.cq_overflows, 0);
    }

    #[test]
    fn cq_overflow_backpressures_without_landing() {
        let mut reg = Reg::new(2, DirectConfig::notified(1));
        let (h0, s0, _r0) = channel(&mut reg, 0);
        let (h1, s1, r1) = channel(&mut reg, 1);
        s0.fill(1);
        s1.fill(2);
        reg.put(h0, Pe(0)).unwrap();
        reg.put(h1, Pe(0)).unwrap();
        reg.land(h0).unwrap();
        // CQ depth 1 is occupied: the second landing is held at the NIC
        assert_eq!(reg.land(h1).unwrap_err(), DirectError::CqOverflow);
        assert_eq!(
            reg.phase(h1).unwrap(),
            DataPhase::InFlight,
            "nothing landed"
        );
        assert_ne!(r1.to_vec(), vec![2u8; 32], "payload NOT copied");
        assert_eq!(reg.counters().cq_overflows, 1);
        assert_eq!(reg.counters().notifications, 1);
        // draining releases CQ space; the retry then lands normally
        assert_eq!(drain(&mut reg, Pe(1), 16), vec![(h0, 0)]);
        match reg.land(h1).unwrap() {
            LandOutcome::Notified => {}
            other => panic!("retry should land, got {other:?}"),
        }
        assert_eq!(drain(&mut reg, Pe(1), 16), vec![(h1, 1)]);
        assert_eq!(r1.to_vec(), vec![2u8; 32]);
    }

    #[test]
    fn cq_drains_in_landing_order_with_bounded_batches() {
        let mut reg = Reg::new(2, DirectConfig::notified(8));
        let mut hs = Vec::new();
        for i in 0..3u32 {
            let (h, s, _r) = channel(&mut reg, i);
            s.fill(i as u8 + 1);
            hs.push(h);
        }
        // land out of creation order: 2, 0, 1
        for &i in &[2usize, 0, 1] {
            reg.put(hs[i], Pe(0)).unwrap();
            reg.land(hs[i]).unwrap();
        }
        assert_eq!(reg.cq_total(), 3);
        let first = drain(&mut reg, Pe(1), 2);
        assert_eq!(
            first.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            vec![hs[2], hs[0]],
            "FIFO landing order, batch-bounded"
        );
        assert_eq!(reg.cq_len(Pe(1)), 1);
        let rest = drain(&mut reg, Pe(1), 2);
        assert_eq!(
            rest.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            vec![hs[1]]
        );
        assert_eq!(reg.cq_total(), 0);
    }

    #[test]
    fn duplicate_landings_notify_exactly_once() {
        // The reliability gate is backend-generic: a retransmit-raced copy
        // of an already-landed put is suppressed before `land`, so the CQ
        // never carries a second record for the same logical put.
        let mut reg = Reg::new(2, DirectConfig::notified(8));
        let (h, s, _r) = channel(&mut reg, 7);
        s.fill(3);
        let req = reg.put(h, Pe(0)).unwrap();
        assert!(reg.accept_landing(h, req.seq).unwrap());
        reg.land(h).unwrap();
        assert!(
            !reg.accept_landing(h, req.seq).unwrap(),
            "replay suppressed"
        );
        assert_eq!(reg.cq_len(Pe(1)), 1, "exactly one notification");
        assert_eq!(drain(&mut reg, Pe(1), 16).len(), 1);
        assert_eq!(reg.counters().dup_landings, 1);
        assert_eq!(reg.counters().notifications, 1);
    }

    #[test]
    fn destroy_refuses_channels_with_live_cq_records() {
        // A Landed channel's CQ record must never dangle: destroy is
        // refused until the record is drained (same PutInFlight contract
        // the polling backend enforces).
        let mut reg = Reg::new(2, DirectConfig::notified(8));
        let (h, _s, _r) = channel(&mut reg, 7);
        reg.put(h, Pe(0)).unwrap();
        reg.land(h).unwrap();
        assert_eq!(reg.destroy_handle(h).unwrap_err(), DirectError::PutInFlight);
        drain(&mut reg, Pe(1), 16);
        reg.destroy_handle(h).unwrap();
        assert_eq!(reg.cq_total(), 0);
    }
}
