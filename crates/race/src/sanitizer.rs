//! The dynamic happens-before sanitizer.
//!
//! [`Sanitizer`] is the handle the runtime instruments against, mirroring
//! the zero-cost-when-disabled shape of `ckd-trace`'s `Tracer`: a disabled
//! sanitizer is a single `Option` discriminant check per hook. An enabled
//! sanitizer owns [`SanCore`] behind `Rc<RefCell<…>>` so the registry's
//! [`LifecycleProbe`] closure can share state with the machine-owned handle.
//!
//! Two mechanisms cooperate:
//!
//! * **Vector clocks** (one per PE) advanced by every scheduler event and
//!   joined along every happens-before edge the runtime models: message
//!   delivery ([`Sanitizer::edge_out`] / [`Sanitizer::edge_in`]), reduction
//!   and broadcast trees (`red_*`), and put completion (the in-flight clock
//!   joined at delivery).
//! * **A per-handle lifecycle state machine** (Created → Assoc'd → Armed →
//!   InFlight → Landed → Consumed) fed by the registry's ground-truth
//!   [`Transition`] stream, with the last event of each kind remembered so a
//!   violation can name both racing events and their virtual times.
//!
//! Rejected operations never reach the probe (the registry commits no
//! transition), so the runtime reports them via [`Sanitizer::op_failed`];
//! successful-but-unsynchronized puts are caught by the clock comparison in
//! the `PutIssued` handler.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ckd_sim::Time;
use ckdirect::{DirectError, HandleId, LifecycleProbe, Transition};

use crate::clock::VectorClock;
use crate::diag::{Diagnostic, EventRef, RaceKind};

/// Sanitizer configuration.
#[derive(Clone, Copy, Debug)]
pub struct SanitizerConfig {
    /// Keep at most this many diagnostics; later ones are counted but
    /// dropped so a pathological run cannot exhaust memory.
    pub max_diagnostics: usize,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            max_diagnostics: 1024,
        }
    }
}

/// Which user-facing channel operation a rejected call was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectOp {
    /// `create_handle` and variants.
    Create,
    /// `assoc_local` and variants.
    Assoc,
    /// `put`.
    Put,
    /// `get`.
    Get,
    /// `ready_mark`.
    ReadyMark,
    /// `ready_poll_q`.
    ReadyPollQ,
    /// The unsplit `ready`.
    Ready,
    /// `destroy_handle`.
    Destroy,
}

impl DirectOp {
    fn label(self) -> &'static str {
        match self {
            DirectOp::Create => "create_handle",
            DirectOp::Assoc => "assoc_local",
            DirectOp::Put => "put",
            DirectOp::Get => "get",
            DirectOp::ReadyMark => "ready_mark",
            DirectOp::ReadyPollQ => "ready_poll_q",
            DirectOp::Ready => "ready",
            DirectOp::Destroy => "destroy_handle",
        }
    }
}

/// Lifecycle phases the sanitizer tracks per handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Window registered, no sender bound yet.
    Created,
    /// Sender bound; armed by construction (the sentinel was set at
    /// create), so a first put is legal from here.
    Assocd,
    /// Re-armed by `ready_mark` after a consume.
    Armed,
    /// A put or get is on the wire.
    InFlight,
    /// Payload landed (IbPoll: sentinel overwritten, not yet noticed).
    Landed,
    /// Completion callback handed to the executor; receiver owns the data
    /// until it re-arms.
    Consumed,
}

/// Everything the sanitizer remembers about one channel.
#[derive(Clone, Debug)]
struct HandleInfo {
    state: Phase,
    /// Runtime-managed (learning fast path): exempt from the
    /// unsynchronized-put clock check.
    managed: bool,
    created: Option<EventRef>,
    associated: Option<EventRef>,
    last_put: Option<EventRef>,
    last_land: Option<EventRef>,
    last_deliver: Option<EventRef>,
    last_mark: Option<EventRef>,
    /// Receiver clock at the last re-arm (create or `ready_mark`): a put is
    /// synchronized iff this happened-before it.
    armed_clock: VectorClock,
    /// Sender clock at the last accepted put; joined into the receiver at
    /// delivery (the completion edge).
    inflight_clock: VectorClock,
    /// Receiver clock at the last delivery.
    deliver_clock: VectorClock,
}

impl HandleInfo {
    fn new(armed_clock: VectorClock, created: EventRef) -> HandleInfo {
        HandleInfo {
            state: Phase::Created,
            managed: false,
            created: Some(created),
            associated: None,
            last_put: None,
            last_land: None,
            last_deliver: None,
            last_mark: None,
            armed_clock,
            inflight_clock: VectorClock::default(),
            deliver_clock: VectorClock::default(),
        }
    }
}

/// Shared state of an enabled sanitizer.
pub struct SanCore {
    cfg: SanitizerConfig,
    clocks: Vec<VectorClock>,
    /// In-flight happens-before edges (messages, broadcasts), keyed by the
    /// token carried through the event queue. Token 0 is reserved for "no
    /// edge" so a disabled sanitizer can hand out zeros for free.
    edges: BTreeMap<u64, VectorClock>,
    next_edge: u64,
    /// Per-reduction accumulation slots keyed by (array id, PE): the join of
    /// every contribution that has flowed into this PE's subtree.
    red: BTreeMap<(u32, usize), VectorClock>,
    handles: BTreeMap<u32, HandleInfo>,
    diags: Vec<Diagnostic>,
    dropped: u64,
    /// Scheduler context the next probe transitions are attributed to.
    ctx: (usize, Time),
}

impl SanCore {
    fn new(cfg: SanitizerConfig, npes: usize) -> SanCore {
        SanCore {
            cfg,
            clocks: (0..npes).map(|_| VectorClock::new(npes)).collect(),
            edges: BTreeMap::new(),
            next_edge: 1,
            red: BTreeMap::new(),
            handles: BTreeMap::new(),
            diags: Vec::new(),
            dropped: 0,
            ctx: (0, Time::ZERO),
        }
    }

    fn push_diag(&mut self, d: Diagnostic) {
        if self.diags.len() < self.cfg.max_diagnostics {
            self.diags.push(d);
        } else {
            self.dropped += 1;
        }
    }

    fn ev(&self, what: &'static str) -> EventRef {
        EventRef {
            pe: self.ctx.0,
            at: self.ctx.1,
            what,
        }
    }

    fn clock(&mut self, pe: usize) -> &mut VectorClock {
        if pe >= self.clocks.len() {
            let n = self.clocks.len().max(1);
            self.clocks.resize(pe + 1, VectorClock::new(n));
        }
        &mut self.clocks[pe]
    }

    /// Apply one registry-committed transition under the current context.
    fn apply(&mut self, handle: HandleId, t: Transition) {
        let (pe, _) = self.ctx;
        self.clock(pe).tick(pe);
        let snapshot = self.clock(pe).clone();
        match t {
            Transition::Created => {
                let ev = self.ev("create_handle");
                self.handles.insert(handle.0, HandleInfo::new(snapshot, ev));
            }
            Transition::Associated => {
                let ev = self.ev("assoc_local");
                if let Some(h) = self.handles.get_mut(&handle.0) {
                    h.associated = Some(ev);
                    if h.state == Phase::Created {
                        h.state = Phase::Assocd;
                    }
                }
            }
            Transition::PutIssued | Transition::GetIssued => {
                let what = if t == Transition::PutIssued {
                    "put"
                } else {
                    "get"
                };
                let ev = self.ev(what);
                let mut diag = None;
                if let Some(h) = self.handles.get_mut(&handle.0) {
                    if !h.managed && t == Transition::PutIssued && !h.armed_clock.leq(&snapshot) {
                        diag = Some(Diagnostic {
                            kind: RaceKind::UnsynchronizedPut,
                            handle: handle.0,
                            first: h.last_mark.or(h.created),
                            second: ev,
                            missing_edge:
                                "receiver's re-arm (ready_mark) must happen-before the sender's put",
                            hb_ordered: Some(false),
                        });
                    }
                    h.last_put = Some(ev);
                    h.inflight_clock = snapshot;
                    h.state = Phase::InFlight;
                }
                if let Some(d) = diag {
                    self.push_diag(d);
                }
            }
            Transition::Landed => {
                let ev = self.ev("land");
                if let Some(h) = self.handles.get_mut(&handle.0) {
                    h.last_land = Some(ev);
                    h.state = Phase::Landed;
                }
            }
            Transition::Delivered => {
                // completion edge: the sender's clock at put-issue flows to
                // the receiver together with the payload
                let inflight = self
                    .handles
                    .get(&handle.0)
                    .map(|h| h.inflight_clock.clone());
                if let Some(c) = inflight {
                    self.clock(pe).join(&c);
                }
                let ev = self.ev("delivery");
                let snapshot = self.clock(pe).clone();
                if let Some(h) = self.handles.get_mut(&handle.0) {
                    h.last_deliver = Some(ev);
                    h.deliver_clock = snapshot;
                    h.state = Phase::Consumed;
                }
            }
            Transition::Marked => {
                let ev = self.ev("ready_mark");
                if let Some(h) = self.handles.get_mut(&handle.0) {
                    h.last_mark = Some(ev);
                    h.armed_clock = snapshot;
                    h.state = Phase::Armed;
                }
            }
            Transition::Destroyed => {
                // The registry only commits a destroy with no transfer
                // outstanding (destroy-while-in-flight is rejected and
                // surfaces through `op_failed`), so the handle's record can
                // simply be dropped; a stale-handle op later arrives as a
                // failed BadHandle op, not a transition.
                self.handles.remove(&handle.0);
            }
        }
    }

    fn op_failed(&mut self, pe: usize, at: Time, handle: u32, op: DirectOp, err: DirectError) {
        self.ctx = (pe, at);
        self.clock(pe).tick(pe);
        let second = self.ev(op.label());
        let here = self.clock(pe).clone();
        let h = self.handles.get(&handle);
        let ordered = |c: &VectorClock| Some(c.leq(&here));
        let (kind, first, missing_edge, hb_ordered) = match err {
            DirectError::Overwrite => (
                RaceKind::OverwriteUnconsumed,
                h.and_then(|h| h.last_deliver.or(h.last_land).or(h.last_put)),
                "receiver's ready_mark must happen-before the next put",
                h.and_then(|h| ordered(&h.deliver_clock)),
            ),
            DirectError::PutInFlight => (
                RaceKind::PutWhileInFlight,
                h.and_then(|h| h.last_put),
                "completion callback must happen-before the next put",
                h.and_then(|h| ordered(&h.inflight_clock)),
            ),
            DirectError::NotAssociated => (
                RaceKind::PutUnassociated,
                h.and_then(|h| h.created),
                "assoc_local must happen-before the first put",
                None,
            ),
            DirectError::AlreadyAssociated => (
                RaceKind::DoubleAssoc,
                h.and_then(|h| h.associated),
                "each handle takes exactly one assoc_local",
                None,
            ),
            DirectError::OobCollision => (
                RaceKind::OobCollision,
                h.and_then(|h| h.created),
                "payload must never end with the out-of-band pattern",
                None,
            ),
            DirectError::NotDelivered => (
                RaceKind::ReadyNeverCompleted,
                h.and_then(|h| h.last_put.or(h.last_mark).or(h.created)),
                "completion callback must happen-before ready_mark",
                h.and_then(|h| h.last_put.map(|_| h.inflight_clock.leq(&here))),
            ),
            DirectError::NotMarked => (
                RaceKind::PollWithoutMark,
                h.and_then(|h| h.last_deliver),
                "ready_mark must happen-before ready_poll_q",
                None,
            ),
            DirectError::WrongPe => (
                RaceKind::WrongPe,
                h.and_then(|h| h.associated.or(h.created)),
                "channel operations are bound to the PEs that registered them",
                None,
            ),
            _ => (
                RaceKind::ProtocolError,
                None,
                "well-formed channel usage",
                None,
            ),
        };
        self.push_diag(Diagnostic {
            kind,
            handle,
            first,
            second,
            missing_edge,
            hb_ordered,
        });
    }

    fn read_region(&mut self, pe: usize, at: Time, handle: u32) {
        self.ctx = (pe, at);
        self.clock(pe).tick(pe);
        let second = self.ev("recv_region read");
        let here = self.clock(pe).clone();
        let Some(h) = self.handles.get(&handle) else {
            return;
        };
        if matches!(h.state, Phase::InFlight | Phase::Landed) {
            let d = Diagnostic {
                kind: RaceKind::ReadBeforeCompletion,
                handle,
                first: h.last_land.or(h.last_put),
                second,
                missing_edge: "completion callback must happen-before the receiver reads",
                hb_ordered: Some(h.inflight_clock.leq(&here) && h.state != Phase::InFlight),
            };
            self.push_diag(d);
        }
    }
}

/// Zero-cost-when-disabled sanitizer handle.
#[derive(Default)]
pub struct Sanitizer {
    inner: Option<Rc<RefCell<SanCore>>>,
}

impl Sanitizer {
    /// A sanitizer that checks nothing and costs one branch per hook.
    pub fn disabled() -> Sanitizer {
        Sanitizer { inner: None }
    }

    /// An enabled sanitizer for `npes` PEs.
    pub fn enabled(cfg: SanitizerConfig, npes: usize) -> Sanitizer {
        Sanitizer {
            inner: Some(Rc::new(RefCell::new(SanCore::new(cfg, npes)))),
        }
    }

    /// True when checking is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A registry lifecycle probe sharing this sanitizer's state, or `None`
    /// when disabled (install nothing: the registry stays zero-observer).
    pub fn probe(&self) -> Option<LifecycleProbe> {
        let core = Rc::clone(self.inner.as_ref()?);
        Some(Box::new(move |h, t| core.borrow_mut().apply(h, t)))
    }

    /// Attribute the upcoming registry transitions to `pe` at virtual time
    /// `at`. Call before any registry operation that can commit transitions.
    #[inline]
    pub fn set_ctx(&self, pe: usize, at: Time) {
        if let Some(core) = &self.inner {
            core.borrow_mut().ctx = (pe, at);
        }
    }

    /// A message (or broadcast hop) leaves `pe`: snapshot its clock and
    /// return the edge token to carry in the event. 0 when disabled.
    #[inline]
    pub fn edge_out(&self, pe: usize) -> u64 {
        let Some(core) = &self.inner else {
            return 0;
        };
        let mut core = core.borrow_mut();
        core.clock(pe).tick(pe);
        let snap = core.clock(pe).clone();
        let id = core.next_edge;
        core.next_edge += 1;
        core.edges.insert(id, snap);
        id
    }

    /// The event carrying edge token `edge` is dispatched on `pe`: join the
    /// sender's snapshot into `pe`'s clock. Token 0 is a no-op.
    #[inline]
    pub fn edge_in(&self, pe: usize, edge: u64) {
        let Some(core) = &self.inner else {
            return;
        };
        if edge == 0 {
            return;
        }
        let mut core = core.borrow_mut();
        if let Some(snap) = core.edges.remove(&edge) {
            core.clock(pe).join(&snap);
        }
        core.clock(pe).tick(pe);
    }

    /// A chare on `pe` contributed to reduction `array`: fold `pe`'s clock
    /// into the subtree slot.
    #[inline]
    pub fn red_contribute(&self, array: u32, pe: usize) {
        let Some(core) = &self.inner else {
            return;
        };
        let mut core = core.borrow_mut();
        core.clock(pe).tick(pe);
        let snap = core.clock(pe).clone();
        core.red.entry((array, pe)).or_default().join(&snap);
    }

    /// `pe`'s subtree for `array` is complete and flows to its parent:
    /// drain the slot into an edge token for the `ReduceUp` event.
    #[inline]
    pub fn red_up(&self, array: u32, pe: usize) -> u64 {
        let Some(core) = &self.inner else {
            return 0;
        };
        let mut core = core.borrow_mut();
        let snap = core.red.remove(&(array, pe)).unwrap_or_default();
        let id = core.next_edge;
        core.next_edge += 1;
        core.edges.insert(id, snap);
        id
    }

    /// A `ReduceUp` carrying `edge` arrived at parent `pe`: fold the child
    /// subtree into the parent's slot (not the parent's clock — the reduced
    /// value is not visible to application code until completion).
    #[inline]
    pub fn red_absorb(&self, array: u32, pe: usize, edge: u64) {
        let Some(core) = &self.inner else {
            return;
        };
        if edge == 0 {
            return;
        }
        let mut core = core.borrow_mut();
        if let Some(snap) = core.edges.remove(&edge) {
            core.red.entry((array, pe)).or_default().join(&snap);
        }
    }

    /// Reduction `array` completed at root `pe`: every contribution
    /// happened-before whatever the root does next (deliver to the client,
    /// broadcast the barrier release).
    #[inline]
    pub fn red_complete(&self, array: u32, pe: usize) {
        let Some(core) = &self.inner else {
            return;
        };
        let mut core = core.borrow_mut();
        if let Some(snap) = core.red.remove(&(array, pe)) {
            core.clock(pe).join(&snap);
        }
        core.clock(pe).tick(pe);
    }

    /// A channel operation was rejected by the registry: record the
    /// violation with provenance. The error still propagates to the caller.
    #[inline]
    pub fn op_failed(&self, pe: usize, at: Time, handle: HandleId, op: DirectOp, err: DirectError) {
        if let Some(core) = &self.inner {
            core.borrow_mut().op_failed(pe, at, handle.0, op, err);
        }
    }

    /// The receiver is reading the landing window at `at`: flag it if the
    /// current payload has not completed delivery.
    #[inline]
    pub fn read_region(&self, pe: usize, at: Time, handle: HandleId) {
        if let Some(core) = &self.inner {
            core.borrow_mut().read_region(pe, at, handle.0);
        }
    }

    /// Exempt `handle` from the unsynchronized-put check: the runtime
    /// manages its re-arm/fallback discipline itself (learning fast path).
    #[inline]
    pub fn mark_runtime_managed(&self, handle: HandleId) {
        if let Some(core) = &self.inner {
            if let Some(h) = core.borrow_mut().handles.get_mut(&handle.0) {
                h.managed = true;
            }
        }
    }

    /// All diagnostics collected so far (empty when disabled).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().diags.clone())
    }

    /// Diagnostics beyond `max_diagnostics` that were counted but dropped.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.borrow().dropped)
    }

    /// True when no violations were observed (vacuously true when
    /// disabled).
    pub fn is_clean(&self) -> bool {
        match &self.inner {
            None => true,
            Some(c) => {
                let core = c.borrow();
                core.diags.is_empty() && core.dropped == 0
            }
        }
    }

    /// Human-readable report, one diagnostic per line.
    pub fn report(&self) -> String {
        let diags = self.diagnostics();
        let mut out = String::new();
        if diags.is_empty() {
            out.push_str("sanitizer: clean (no diagnostics)\n");
            return out;
        }
        out.push_str(&format!("sanitizer: {} diagnostic(s)\n", diags.len()));
        for d in &diags {
            out.push_str(&format!("  {d}\n"));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("  … and {dropped} more dropped at the cap\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled2() -> Sanitizer {
        Sanitizer::enabled(SanitizerConfig::default(), 2)
    }

    /// Drive a registry-shaped transition stream by hand.
    fn apply(s: &Sanitizer, pe: usize, at_us: u64, h: u32, t: Transition) {
        s.set_ctx(pe, Time::from_us(at_us));
        if let Some(core) = &s.inner {
            core.borrow_mut().apply(HandleId(h), t);
        }
    }

    #[test]
    fn disabled_sanitizer_is_inert() {
        let s = Sanitizer::disabled();
        assert!(!s.is_enabled());
        assert!(s.probe().is_none());
        assert_eq!(s.edge_out(0), 0);
        s.edge_in(1, 0);
        s.op_failed(
            0,
            Time::ZERO,
            HandleId(0),
            DirectOp::Put,
            DirectError::Overwrite,
        );
        assert!(s.is_clean());
        assert!(s.diagnostics().is_empty());
        assert!(s.report().contains("clean"));
    }

    #[test]
    fn synchronized_cycle_is_clean() {
        let s = enabled2();
        // receiver (pe1) creates; handle ships to sender (pe0) by message
        apply(&s, 1, 0, 0, Transition::Created);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        apply(&s, 1, 5, 0, Transition::Landed);
        apply(&s, 1, 6, 0, Transition::Delivered);
        apply(&s, 1, 7, 0, Transition::Marked);
        // the mark flows back to the sender (ack message) before re-put
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 9, 0, Transition::PutIssued);
        assert!(s.is_clean(), "{}", s.report());
    }

    #[test]
    fn notified_drain_delay_between_landing_and_delivery_is_clean() {
        // Notified-put backend: the landing only deposits a CQ record;
        // delivery happens at the *drain*, arbitrarily later (a progress
        // tick or a busy scheduler finally getting around to it). The
        // lifecycle machine must accept a long Landed→Delivered gap as
        // long as the mark still synchronizes the next put.
        let s = enabled2();
        apply(&s, 1, 0, 0, Transition::Created);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        apply(&s, 1, 5, 0, Transition::Landed);
        // drain fires 495 µs later — no transition in between
        apply(&s, 1, 500, 0, Transition::Delivered);
        apply(&s, 1, 501, 0, Transition::Marked);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 600, 0, Transition::PutIssued);
        assert!(s.is_clean(), "{}", s.report());
    }

    #[test]
    fn unsynchronized_put_is_flagged_even_when_registry_allows_it() {
        let s = enabled2();
        apply(&s, 1, 0, 0, Transition::Created);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        apply(&s, 1, 5, 0, Transition::Landed);
        apply(&s, 1, 6, 0, Transition::Delivered);
        apply(&s, 1, 7, 0, Transition::Marked);
        // no edge back: the sender's second put is concurrent with the mark
        apply(&s, 0, 9, 0, Transition::PutIssued);
        let diags = s.diagnostics();
        assert_eq!(diags.len(), 1, "{}", s.report());
        let d = &diags[0];
        assert_eq!(d.kind, RaceKind::UnsynchronizedPut);
        assert_eq!(d.first.unwrap().what, "ready_mark");
        assert_eq!(d.first.unwrap().pe, 1);
        assert_eq!(d.second.what, "put");
        assert_eq!(d.second.pe, 0);
        assert_eq!(d.hb_ordered, Some(false));
    }

    #[test]
    fn managed_handles_skip_the_unsynchronized_check() {
        let s = enabled2();
        apply(&s, 0, 0, 0, Transition::Created);
        s.mark_runtime_managed(HandleId(0));
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        apply(&s, 1, 5, 0, Transition::Landed);
        apply(&s, 1, 6, 0, Transition::Delivered);
        apply(&s, 1, 7, 0, Transition::Marked);
        apply(&s, 0, 9, 0, Transition::PutIssued);
        assert!(s.is_clean(), "{}", s.report());
    }

    #[test]
    fn overwrite_failure_names_the_delivery_it_races() {
        let s = enabled2();
        apply(&s, 1, 0, 0, Transition::Created);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        apply(&s, 1, 5, 0, Transition::Landed);
        apply(&s, 1, 6, 0, Transition::Delivered);
        // receiver never re-arms; the next put is rejected by the registry
        s.op_failed(
            0,
            Time::from_us(9),
            HandleId(0),
            DirectOp::Put,
            DirectError::Overwrite,
        );
        let diags = s.diagnostics();
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.kind, RaceKind::OverwriteUnconsumed);
        assert_eq!(d.first.unwrap().what, "delivery");
        assert_eq!(d.first.unwrap().at, Time::from_us(6));
        assert_eq!(d.second.at, Time::from_us(9));
        assert!(d.to_string().contains("ready_mark"));
    }

    #[test]
    fn read_before_completion_is_flagged_only_in_flight() {
        let s = enabled2();
        apply(&s, 1, 0, 0, Transition::Created);
        let e = s.edge_out(1);
        s.edge_in(0, e);
        apply(&s, 0, 1, 0, Transition::Associated);
        apply(&s, 0, 2, 0, Transition::PutIssued);
        s.read_region(1, Time::from_us(3), HandleId(0));
        apply(&s, 1, 5, 0, Transition::Landed);
        s.read_region(1, Time::from_us(5), HandleId(0));
        apply(&s, 1, 6, 0, Transition::Delivered);
        s.read_region(1, Time::from_us(7), HandleId(0));
        let diags = s.diagnostics();
        assert_eq!(diags.len(), 2, "{}", s.report());
        assert!(diags
            .iter()
            .all(|d| d.kind == RaceKind::ReadBeforeCompletion));
    }

    #[test]
    fn diagnostic_cap_counts_overflow() {
        let s = Sanitizer::enabled(SanitizerConfig { max_diagnostics: 2 }, 1);
        for i in 0..5 {
            s.op_failed(
                0,
                Time::from_us(i),
                HandleId(0),
                DirectOp::Put,
                DirectError::BadHandle,
            );
        }
        assert_eq!(s.diagnostics().len(), 2);
        assert_eq!(s.dropped(), 3);
        assert!(!s.is_clean());
        assert!(s.report().contains("3 more dropped"));
    }

    #[test]
    fn reduction_slots_carry_contributions_to_the_root() {
        let s = enabled2();
        // pe0 contributes, subtree flows to root pe1, root completes
        s.red_contribute(7, 0);
        let e = s.red_up(7, 0);
        s.red_absorb(7, 1, e);
        s.red_contribute(7, 1);
        s.red_complete(7, 1);
        let core = s.inner.as_ref().unwrap().borrow();
        assert!(
            core.clocks[0].leq(&core.clocks[1]),
            "root saw both subtrees"
        );
        assert!(core.red.is_empty(), "slots drained at completion");
    }
}
