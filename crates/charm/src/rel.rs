//! The reliable-delivery layer: what survives the fault plane.
//!
//! When faults are enabled ([`crate::MachineBuilder::with_faults`]), every
//! remote message and every CkDirect put passes through this layer instead
//! of being scheduled directly:
//!
//! * the sender records a **pending entry** (the delivery event, its link,
//!   its sequence number) in a ring indexed by packet token and submits a
//!   header-only packet to the [`FaultPlan`](ckd_sim::FaultPlan), which
//!   may deliver, drop, corrupt, duplicate, or delay it;
//! * the receiver acks every intact arrival (acks traverse the fault plane
//!   too), dedups by sequence number — [`ckd_net::LinkSeqs`] for messages,
//!   [`DirectRegistry::accept_landing`](ckdirect::DirectRegistry::accept_landing)
//!   for puts — and detects corruption (link CRC for messages, the per-put
//!   CRC folded into the sentinel word for one-sided puts), discarding the
//!   damaged landing so the channel stays armed for the retransmission; the
//!   fresh arrival moves the delivery event out of the sender's entry and
//!   dispatches it, so no copy of it ever crosses the wire;
//! * an unacked packet's timer fires with exponential backoff
//!   ([`ckd_net::RetryPolicy`]) and the sender retransmits — *without*
//!   re-running the application-visible issue path, so a put is counted
//!   once in `MachineStats::puts` no matter how many times it crosses the
//!   wire, and the race sanitizer's lifecycle probe never sees a double
//!   `PutIssued`;
//! * a channel whose puts keep needing retransmission degrades to
//!   rendezvous-style timing (`PutOutcome::Degraded`), the reproduction's
//!   stand-in for tearing down a flaky RDMA path and falling back to the
//!   default two-sided protocol.
//!
//! With faults never enabled the machine holds `rel: None` and every hook
//! is one branch — runs are bit-identical to the pre-fault-plane runtime.

use std::collections::VecDeque;

use ckd_net::{LinkSeqs, RetryPolicy};
use ckd_sim::{FaultAction, FaultOp, FaultPlan, Time};
use ckd_topo::Pe;
use ckdirect::HandleId;

use crate::machine::{Ev, Machine};

/// One unacked packet, owned by the (conceptual) sender NIC.
pub(crate) struct Pending {
    /// The delivery event, moved out by the packet's fresh arrival (see
    /// [`Machine::rel_deliver`]); `None` once delivered, while the ack is
    /// still outstanding.
    pub ev: Option<Ev>,
    /// Directed link `(from, to)` the packet travels.
    pub link: (u32, u32),
    /// Sequence number on the wire (per-link for messages, per-channel for
    /// puts).
    pub seq: u64,
    /// Transmission attempt counter (0 = original send).
    pub attempt: u32,
    /// Wire delay of one transmission (constant per packet; re-used by
    /// retransmissions).
    pub wire_delay: Time,
    /// What the fault plane sees this packet as (message or put).
    pub kind: FaultOp,
    /// The channel, when this packet is a one-sided put.
    pub handle: Option<HandleId>,
}

/// Unacked packets keyed by token. Tokens are allocated monotonically, so
/// the table is a ring indexed by `token - base`: the slot of an acked
/// packet empties, and the head advances past every empty slot. A packet
/// held at the head (say, by repeated drops) only keeps the ring long;
/// later tokens stay one index away.
pub(crate) struct PendingRing<T> {
    /// Token of `slots[0]`; every token below it has been acked.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> PendingRing<T> {
    pub(crate) fn new() -> Self {
        PendingRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Record a new packet under the next token.
    pub(crate) fn push(&mut self, p: T) -> u64 {
        self.slots.push_back(Some(p));
        self.base + self.slots.len() as u64 - 1
    }

    fn index(&self, token: u64) -> Option<usize> {
        token.checked_sub(self.base).map(|i| i as usize)
    }

    pub(crate) fn get(&self, token: u64) -> Option<&T> {
        self.slots.get(self.index(token)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let i = self.index(token)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Retire `token`, returning its entry; `None` for a duplicate or
    /// stale token (already acked, or below the head).
    pub(crate) fn ack(&mut self, token: u64) -> Option<T> {
        let i = self.index(token)?;
        let p = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(p)
    }

    /// Whether every packet has been acked.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// All reliability state of a machine with fault injection enabled.
pub(crate) struct ReliableLayer {
    /// The fault schedule packets are submitted to.
    pub plan: FaultPlan,
    /// Retransmission backoff policy.
    pub policy: RetryPolicy,
    /// Cumulative retransmits on one channel at which it degrades to
    /// rendezvous timing (at least 1: only a retransmit degrades).
    /// `u32::MAX` disables degradation.
    pub degrade_after: u32,
    /// Unacked packets.
    pub pending: PendingRing<Pending>,
    /// Message-path sequence numbers + receiver dedup.
    pub seqs: LinkSeqs,
    /// Cumulative retransmits per channel, indexed by slab slot and
    /// tagged with the full handle: a slot's entry counts for its current
    /// tenant only. A channel is degraded iff its count has reached
    /// `degrade_after`.
    handle_retries: Vec<(HandleId, u32)>,
}

impl ReliableLayer {
    pub(crate) fn new(plan: FaultPlan, policy: RetryPolicy, degrade_after: u32) -> ReliableLayer {
        ReliableLayer {
            plan,
            policy,
            degrade_after: degrade_after.max(1),
            pending: PendingRing::new(),
            seqs: LinkSeqs::new(),
            handle_retries: Vec::new(),
        }
    }

    /// Cumulative retransmits charged to `handle` so far, and whether
    /// they have degraded it to rendezvous timing.
    pub(crate) fn health_of(&self, handle: HandleId) -> (u32, bool) {
        let retries = self
            .handle_retries
            .get(handle.idx())
            .filter(|(h, _)| *h == handle)
            .map_or(0, |&(_, r)| r);
        (retries, retries >= self.degrade_after)
    }

    /// Charge one retransmit to `handle`; returns its new count. A handle
    /// new to its slot starts from zero: the slot's earlier tenant was
    /// destroyed and can put no more.
    pub(crate) fn charge_retry(&mut self, handle: HandleId) -> u32 {
        let i = handle.idx();
        if i >= self.handle_retries.len() {
            self.handle_retries.resize(i + 1, (handle, 0));
        }
        let entry = &mut self.handle_retries[i];
        if entry.0 != handle {
            *entry = (handle, 0);
        }
        entry.1 += 1;
        entry.1
    }
}

// ---- the machine's wire path through the fault plane -----------------------
//
// These run *below* the runtime-layer seams: acks and timers charge no PE
// time and no layer observes them (the tracer's drop/retry records are NIC
// telemetry, emitted here directly).

impl Machine {
    /// Quiescence invariant, checked where a run returns: if the event
    /// queue drained, every reliable packet was acked. A pending packet
    /// always owns a live retransmission timer, so it keeps the queue
    /// non-empty until its ack retires it.
    pub(crate) fn debug_assert_quiescent(&self) {
        debug_assert!(
            !self.events.is_empty() || self.stack.rel.as_ref().is_none_or(|r| r.pending.is_empty()),
            "event queue drained with unacked reliable packets"
        );
    }

    /// Schedule a remote delivery event, routing it through the fault plane
    /// when faults are enabled. `begin` is the issue instant on the sender
    /// and `delay` the one-way wire latency: an unfaulted packet delivers at
    /// `begin + delay`, bit-identically to a direct `events.push` — which is
    /// exactly what happens when faults are off or the traffic never crosses
    /// the fabric (same-PE links). `put` carries `(handle, put_seq)` so
    /// duplicated one-sided puts can be replayed idempotently.
    pub(crate) fn rel_push(
        &mut self,
        begin: Time,
        delay: Time,
        link: (u32, u32),
        kind: FaultOp,
        put: Option<(HandleId, u64)>,
        ev: Ev,
    ) {
        if self.stack.rel.is_none() || link.0 == link.1 {
            self.push_ev(begin + delay, ev);
            return;
        }
        let rel = self.stack.rel.as_mut().expect("checked above");
        let seq = match put {
            Some((_, s)) => s,
            None => rel.seqs.alloc(link),
        };
        let token = rel.pending.push(Pending {
            ev: Some(ev),
            link,
            seq,
            attempt: 0,
            wire_delay: delay,
            kind,
            handle: put.map(|(h, _)| h),
        });
        self.rel_transmit(token, begin);
    }

    /// Submit pending packet `token` to the fault plane at `at`, schedule
    /// the consequences, and arm its retransmission timer. Every copy on
    /// the wire is the protocol header alone; the delivery event stays in
    /// the sender's entry.
    fn rel_transmit(&mut self, token: u64, at: Time) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let Some(p) = rel.pending.get(token) else {
            return; // acked in the meantime
        };
        let (link, kind, seq, wire_delay, attempt, handle) =
            (p.link, p.kind, p.seq, p.wire_delay, p.attempt, p.handle);
        let action = rel.plan.decide(at, link, kind);
        let timeout = rel.policy.timeout(attempt);
        let mk = |corrupted: bool| Ev::RelDeliver {
            token,
            link,
            seq,
            corrupted,
            handle,
        };
        match action {
            FaultAction::Deliver => self.push_ev(at + wire_delay, mk(false)),
            FaultAction::Drop => {
                self.stats.rel.drops_injected += 1;
                self.stack.tracer.rel_drop(link.0 as usize, at, link.1);
            }
            FaultAction::Corrupt => {
                self.stats.rel.corrupts_injected += 1;
                self.push_ev(at + wire_delay, mk(true));
            }
            FaultAction::Duplicate { extra } => {
                self.stats.rel.dups_injected += 1;
                self.push_ev(at + wire_delay, mk(false));
                self.push_ev(at + wire_delay + extra, mk(false));
            }
            FaultAction::Delay { extra } => {
                self.stats.rel.delays_injected += 1;
                self.push_ev(at + wire_delay + extra, mk(false));
            }
        }
        self.push_ev(at + timeout, Ev::RelTimer { token, attempt });
    }

    /// A reliable packet arrived: verify, dedup, ack, and (when fresh and
    /// intact) dispatch the real delivery event at this very instant.
    ///
    /// A put's header names its channel (`handle`), which is all the
    /// corrupt and duplicate paths need; only the fresh arrival touches
    /// the sender's entry, to move the delivery event out.
    pub(crate) fn rel_deliver(
        &mut self,
        token: u64,
        link: (u32, u32),
        seq: u64,
        corrupted: bool,
        handle: Option<HandleId>,
    ) {
        if corrupted {
            // Receiver-side detection — the NIC's link CRC for messages,
            // the per-put CRC folded into the sentinel word for one-sided
            // puts. The damaged landing is discarded (for a put, the
            // sentinel stays armed), no ack is sent, and the sender's
            // timer will retransmit.
            self.stats.rel.corrupt_detected += 1;
            if let Some(h) = handle {
                self.direct.corrupt_landing(h, seq).expect("live channel");
            }
            return;
        }
        let fresh = match handle {
            Some(h) => self.direct.accept_landing(h, seq).expect("live channel"),
            None => self
                .stack
                .rel
                .as_mut()
                .expect("rel enabled")
                .seqs
                .accept(link, seq),
        };
        // Ack every intact arrival — a duplicate re-acks, in case the
        // original ack was the packet that died.
        self.rel_send_ack(token, link);
        if !fresh {
            self.stats.rel.dups_suppressed += 1;
            return;
        }
        // Invariant: a fresh arrival finds its entry with the event still
        // in it. Only an ack retires an entry, acks are only sent for
        // intact arrivals, and the first intact arrival of a token is its
        // fresh one (every later copy dedups) — so no ack for this token
        // can have landed yet, and no earlier arrival took the event.
        let ev = self
            .stack
            .rel
            .as_mut()
            .expect("rel enabled")
            .pending
            .get_mut(token)
            .and_then(|p| p.ev.take())
            .expect("fresh arrival of an unacked, undelivered packet");
        self.dispatch(ev);
    }

    /// Emit the reliability ack for `token` back across the fault plane.
    /// Acks are NIC-level protocol: they charge no PE time, carry no trace
    /// record, and are invisible to the scheduler — only their loss has a
    /// consequence (a spurious retransmission, suppressed by seqno dedup).
    fn rel_send_ack(&mut self, token: u64, link: (u32, u32)) {
        let t = self.net.control(Pe(link.1), Pe(link.0));
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        match rel.plan.decide(self.now, (link.1, link.0), FaultOp::Ack) {
            FaultAction::Deliver => self.push_ev(self.now + t.delay, Ev::RelAck { token }),
            FaultAction::Drop | FaultAction::Corrupt => {
                // a corrupted ack fails its CRC at the sender NIC — lost
                // either way
                self.stats.rel.acks_lost += 1;
            }
            FaultAction::Duplicate { extra } => {
                self.push_ev(self.now + t.delay, Ev::RelAck { token });
                self.push_ev(self.now + t.delay + extra, Ev::RelAck { token });
            }
            FaultAction::Delay { extra } => {
                self.push_ev(self.now + t.delay + extra, Ev::RelAck { token });
            }
        }
    }

    /// An ack reached the sender: retire the pending packet. A stale ack
    /// (duplicate, or late after retransmission already re-acked) is a
    /// no-op.
    pub(crate) fn rel_ack(&mut self, token: u64) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        if rel.pending.ack(token).is_some() {
            self.stats.rel.acks += 1;
        }
    }

    /// Retransmission timer fired: if the packet is still pending at this
    /// exact attempt, resend it with exponentially backed-off timeout.
    /// Retries are unbounded — a probabilistic plan delivers eventually
    /// (with probability 1), explicit triggers are one-shot, and stall
    /// windows end.
    pub(crate) fn rel_timer(&mut self, token: u64, attempt: u32) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let Some(p) = rel.pending.get_mut(token) else {
            return; // acked: the common case for every timer of a clean run
        };
        if p.attempt != attempt {
            return; // a newer transmission owns the live timer
        }
        p.attempt += 1;
        let next_attempt = p.attempt;
        let handle = p.handle;
        let sender = p.link.0;
        self.stats.rel.timeouts += 1;
        self.stats.rel.retries += 1;
        if let Some(h) = handle {
            // degradation bookkeeping: after `degrade_after` cumulative
            // retransmits, this channel's future puts pay rendezvous timing
            if rel.charge_retry(h) == rel.degrade_after {
                self.stats.rel.degraded_channels += 1;
            }
        }
        let backoff = rel.policy.timeout(next_attempt);
        self.stack
            .tracer
            .rel_retry(sender as usize, self.now, next_attempt, backoff);
        self.rel_transmit(token, self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::PendingRing;

    fn ring_of(n: u32) -> PendingRing<u32> {
        let mut r = PendingRing::new();
        for i in 0..n {
            assert_eq!(r.push(i), u64::from(i), "tokens are allocated in order");
        }
        r
    }

    #[test]
    fn out_of_order_acks_compact_the_head() {
        let mut r = ring_of(4);
        assert_eq!(r.ack(2), Some(2));
        assert_eq!(r.ack(1), Some(1));
        // the head (0) is still pending: nothing compacts yet
        assert_eq!((r.base, r.slots.len()), (0, 4));
        assert_eq!(r.ack(0), Some(0));
        // 0, 1 and 2 all retire at once; 3 becomes the head
        assert_eq!((r.base, r.slots.len()), (3, 1));
        assert_eq!(r.get(3), Some(&3));
        assert_eq!(r.push(4), 4, "the next token follows the last one issued");
    }

    #[test]
    fn duplicate_and_stale_acks_are_no_ops() {
        let mut r = ring_of(3);
        assert_eq!(r.ack(0), Some(0));
        assert_eq!(r.ack(0), None, "below base");
        assert_eq!(r.ack(2), Some(2));
        assert_eq!(r.ack(2), None, "slot already empty");
        assert_eq!(r.ack(7), None, "never issued");
        assert_eq!((r.base, r.slots.len()), (1, 2));
        assert_eq!(r.get(0), None);
        assert_eq!(r.get_mut(2), None);
        assert_eq!(r.get(1), Some(&1));
    }

    #[test]
    fn a_held_head_keeps_later_tokens_reachable() {
        let mut r = ring_of(1);
        // token 0 keeps being dropped while 1000 later packets come and go
        for t in 1..=1000u32 {
            assert_eq!(r.push(t), u64::from(t));
            *r.get_mut(0).expect("head still pending") += 1;
            assert_eq!(r.get(u64::from(t)), Some(&t));
            if t % 2 == 0 {
                assert_eq!(r.ack(u64::from(t)), Some(t));
            }
        }
        assert_eq!(r.base, 0);
        assert_eq!(r.get(0), Some(&1000));
        assert_eq!(r.get(999), Some(&999));
        assert_eq!(r.get(1000), None);
        assert_eq!(r.ack(0), Some(1000));
        assert_eq!(r.base, 1, "token 1 (odd, unacked) is the new head");
    }

    #[test]
    fn the_ring_is_empty_once_every_token_is_acked() {
        let mut r = ring_of(64);
        for t in (0..64).rev() {
            assert!(!r.is_empty());
            assert_eq!(r.ack(t), Some(t as u32));
        }
        assert!(r.is_empty());
        assert_eq!(r.base, 64);
        assert_eq!(r.push(0), 64);
    }
}
