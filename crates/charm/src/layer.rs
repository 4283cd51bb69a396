//! The runtime-layer stack: the scheduler's observer seams.
//!
//! The tracer and the race sanitizer watch the run through four hooks,
//! fed from fixed points on the hot path:
//!
//! ```text
//!            dispatch ──► on_event     (scheduler-visible event popped)
//!        Ctx put/get  ──► on_put_issue (one-sided transfer leaves a PE)
//!   DirectLand/GetLand ──► on_landing   (bytes hit the receive window)
//!   scheduler/callback ──► on_deliver   (handler about to run)
//! ```
//!
//! Observers may keep arbitrary state of their own but cannot perturb
//! virtual time, which is how the stack preserves the machine's
//! byte-identical determinism: a run with tracing and race checking on
//! produces the same timestamps as a run with both off (the exports
//! prove it in `tests/trace_determinism.rs`). The learner and reliable
//! delivery also live in the stack, but they *do* shape the timeline, so
//! they act inline on their own fast paths (`Ctx::send_learned`,
//! `Machine::rel_push`) rather than through these hooks.
//!
//! Reliability-protocol traffic (acks, retransmission timers) is NIC-level
//! and deliberately below these seams: it charges no PE time and nothing
//! observes it.

use ckd_race::Sanitizer;
use ckd_sim::Time;
use ckd_trace::{ProtoClass, Tracer};
use ckdirect::HandleId;

use crate::learn::Learner;
use crate::rel::ReliableLayer;

/// What kind of scheduler-visible event [`LayerStack::on_event`] is
/// reporting, with the attribution its observers need.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// A two-sided message finished arriving at the PE.
    MsgArrive {
        /// Sending PE.
        from: u32,
        /// Protocol family the transfer used.
        proto: ProtoClass,
        /// Happens-before edge token (0 when no sanitizer is attached).
        edge: u64,
    },
    /// A scheduler iteration is about to run on the PE.
    PeLoop {
        /// Messages queued at iteration start.
        depth: u32,
    },
    /// A reduction partial arrived from a child subtree.
    ReduceUp {
        /// The reducing array.
        array: u32,
        /// Happens-before edge token carrying the subtree's contributions.
        edge: u64,
    },
    /// A broadcast leg arrived at a spanning-tree node.
    BcastDown {
        /// Happens-before edge token.
        edge: u64,
    },
}

/// A scheduler-visible event, handed to [`LayerStack::on_event`] before
/// its handler runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventInfo {
    /// PE the event executes on.
    pub(crate) pe: usize,
    /// Virtual time the event was popped.
    pub(crate) at: Time,
    /// What happened.
    pub(crate) kind: EventKind,
}

/// A one-sided transfer (put, learned put, or get) leaving its initiator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PutIssueInfo {
    /// Initiating PE.
    pub(crate) pe: usize,
    /// Issue instant.
    pub(crate) at: Time,
    /// Destination PE.
    pub(crate) dst: u32,
    /// The channel.
    pub(crate) handle: HandleId,
    /// Payload bytes on the wire.
    pub(crate) bytes: u64,
    /// Protocol family charged (rendezvous for a degraded put).
    pub(crate) proto: ProtoClass,
    /// One-way wire latency the model predicted.
    pub(crate) wire_delay: Time,
}

/// One-sided bytes hitting a receive window (put landing at the receiver,
/// or a get returning to its initiator).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LandingInfo {
    /// PE owning the window.
    pub(crate) pe: usize,
    /// Landing instant.
    pub(crate) at: Time,
    /// The channel.
    pub(crate) handle: HandleId,
    /// Payload bytes that landed.
    pub(crate) bytes: u64,
}

/// What [`LayerStack::on_deliver`] is reporting: a handler invocation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Delivery {
    /// The scheduler dequeued a message for an entry method.
    Message {
        /// Destination entry point.
        ep: u32,
        /// Message payload size.
        bytes: u64,
    },
    /// A CkDirect completion callback is firing.
    Callback {
        /// The completed channel.
        handle: HandleId,
    },
}

/// A handler invocation on a PE.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliverInfo {
    /// Executing PE.
    pub(crate) pe: usize,
    /// Invocation instant.
    pub(crate) at: Time,
    /// What is being delivered.
    pub(crate) what: Delivery,
}

/// The machine's composed stack: the tracer first, so its records carry
/// timestamps unperturbed by any other observer, then the sanitizer.
pub(crate) struct LayerStack {
    pub tracer: Tracer,
    pub san: Sanitizer,
    pub learner: Learner,
    /// Fault injection + reliable delivery; `None` (the default) costs one
    /// branch per send/put and leaves event flow bit-identical to a build
    /// without the fault plane.
    pub rel: Option<Box<ReliableLayer>>,
}

impl LayerStack {
    pub(crate) fn new() -> LayerStack {
        LayerStack {
            tracer: Tracer::disabled(),
            san: Sanitizer::disabled(),
            learner: Learner::default(),
            rel: None,
        }
    }

    /// Whether any observer is watching the hook seams. False for a bare
    /// machine, which keeps every seam at one branch.
    #[inline]
    pub(crate) fn observing(&self) -> bool {
        self.tracer.is_enabled() || self.san.is_enabled()
    }

    pub(crate) fn on_event(&mut self, ev: &EventInfo) {
        match ev.kind {
            EventKind::MsgArrive { from, proto, edge } => {
                if proto == ProtoClass::Rendezvous {
                    // reconstructed handshake leg: the receiver cleared the
                    // sender to write (see `Ev::MsgArrive::proto`)
                    self.tracer.cts(ev.pe, ev.at, from);
                }
                self.san.edge_in(ev.pe, edge);
            }
            EventKind::PeLoop { depth } => {
                if self.tracer.is_enabled() {
                    self.tracer.queue_depth(ev.pe, ev.at, depth);
                }
                // the poll sweep sets the sanitizer context itself, at the
                // PE's busy horizon rather than the event timestamp
            }
            EventKind::ReduceUp { array, edge } => self.san.red_absorb(array, ev.pe, edge),
            EventKind::BcastDown { edge } => self.san.edge_in(ev.pe, edge),
        }
    }

    pub(crate) fn on_put_issue(&mut self, put: &PutIssueInfo) {
        self.tracer.put_issue(
            put.pe,
            put.at,
            put.dst,
            put.handle.0,
            put.bytes,
            put.proto,
            put.wire_delay,
        );
    }

    pub(crate) fn on_landing(&mut self, landing: &LandingInfo) {
        self.tracer
            .put_land(landing.pe, landing.at, landing.handle.0, landing.bytes);
        // point the virtual clock at the receiving PE so the registry's
        // lifecycle transitions are attributed correctly
        self.san.set_ctx(landing.pe, landing.at);
    }

    pub(crate) fn on_deliver(&mut self, deliver: &DeliverInfo) {
        let (pe, at) = (deliver.pe, deliver.at);
        match deliver.what {
            Delivery::Message { ep, bytes } => self.tracer.msg_deliver(pe, at, ep, bytes),
            Delivery::Callback { handle } => self.tracer.callback_fire(pe, at, handle.0),
        }
    }
}
