//! Deliberately-racy mutants of the application protocols, used to prove
//! the happens-before sanitizer (`ckd-race`) catches real lifecycle races.
//!
//! Each mutant reproduces a bug class the paper's unsynchronized put model
//! makes possible when the application skips its side of the contract:
//!
//! * [`MutantKind::SkipReadyJacobi`] — a halo-exchange-style ring where the
//!   receiver "forgets" one `CkDirect_ready` re-arm, so the next put finds
//!   the landing window still holding unconsumed data;
//! * [`MutantKind::EarlyReadPingpong`] — a pingpong where the receiver reads
//!   the landing window on a hint message, *before* the completion callback
//!   says the payload finished landing;
//! * [`MutantKind::DoublePutMatmul`] — a matmul-style producer that issues
//!   two back-to-back puts on the same channel without waiting for the
//!   first to complete.
//! * [`MutantKind::SchedDependentPingpong`] — a referee/racer protocol
//!   whose channel re-arm rides on the reply the developer *assumed* would
//!   always finish each round. The canonical schedule honors that
//!   assumption, so the single-seed sanitizer sees a clean run; only
//!   schedule exploration (`ckd-check`) surfaces the interleaving where
//!   the replies swap and the re-arm is silently skipped.
//!
//! The mutants intentionally swallow the runtime's rejections (the bug is
//! that the app *ignores* the contract), so each discarded put carries a
//! `ckd-check: allow(..)` marker for the two discard rules. Their races
//! carry none: `ckd-check lint --gate` is required to flag them.

use ckd_charm::{ArrayId, Chare, ChareRef, Ctx, EntryId, Machine, Msg};
use ckd_race::SanitizerConfig;
use ckd_topo::{Dims, Idx, Mapper};
use ckdirect::{HandleId, Region};

use crate::common::{Platform, OOB_PATTERN};

const EP_START: EntryId = EntryId(0);
const EP_HANDSHAKE: EntryId = EntryId(1);
const EP_HINT: EntryId = EntryId(2);
const EP_KICK: EntryId = EntryId(3);
const EP_REPLY: EntryId = EntryId(4);
const EP_ARMED: EntryId = EntryId(5);
const EP_GO: EntryId = EntryId(6);

/// Which deliberately-broken protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutantKind {
    /// Receiver skips one `ready` re-arm; the next put overwrites an
    /// unconsumed buffer.
    SkipReadyJacobi,
    /// Receiver reads the landing window before the completion callback.
    EarlyReadPingpong,
    /// Sender issues a second put while the first is still in flight.
    DoublePutMatmul,
    /// The re-arm rides on message arrival order; only a reordered
    /// schedule exposes the missing `ready`.
    SchedDependentPingpong,
}

impl MutantKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MutantKind::SkipReadyJacobi => "skip-ready-jacobi",
            MutantKind::EarlyReadPingpong => "early-read-pingpong",
            MutantKind::DoublePutMatmul => "double-put-matmul",
            MutantKind::SchedDependentPingpong => "schedule_dependent_pingpong",
        }
    }
}

/// One endpoint of a bidirectional CkDirect exchange, with the mutant's
/// specific misbehavior switched in by `kind`.
struct MutantPeer {
    kind: MutantKind,
    peer: Option<ChareRef>,
    initiator: bool,
    iters: u32,
    bounces: u32,
    recv_region: Region,
    send_region: Region,
    recv_handle: Option<HandleId>,
    send_handle: Option<HandleId>,
}

impl MutantPeer {
    fn new(kind: MutantKind, bytes: usize, iters: u32, initiator: bool) -> MutantPeer {
        let len = bytes.max(8);
        let send_region = Region::alloc(len);
        send_region.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
        MutantPeer {
            kind,
            peer: None,
            initiator,
            iters,
            bounces: 0,
            recv_region: Region::alloc(len),
            send_region,
            recv_handle: None,
            send_handle: None,
        }
    }

    /// Put toward the peer, deliberately ignoring a rejection — the mutant
    /// models an app that does not check the runtime's verdict.
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let h = self.send_handle.expect("handshake done");
        if self.kind == MutantKind::EarlyReadPingpong {
            // hint the peer that data is on the way *before* the put
            // completes — the peer will read the window on this hint
            ctx.send(self.peer.unwrap(), Msg::signal(EP_HINT));
        }
        // ckd-check: allow(swallowed-direct-error) ckd-check: allow(ignored-put-outcome)
        let _ = ctx.direct_put(h); // bug under test: rejection ignored
        if self.kind == MutantKind::DoublePutMatmul && self.bounces == 0 {
            // second put without waiting for the first completion
            // ckd-check: allow(swallowed-direct-error) ckd-check: allow(ignored-put-outcome)
            let _ = ctx.direct_put(h);
        }
    }
}

impl Chare for MutantPeer {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                self.peer = Some(*msg.payload.downcast::<ChareRef>().unwrap());
                let h = ctx
                    .direct_create_handle(self.recv_region.clone(), OOB_PATTERN, 0)
                    .expect("create");
                self.recv_handle = Some(h);
                ctx.send(self.peer.unwrap(), Msg::value(EP_HANDSHAKE, h, 16));
            }
            EP_HANDSHAKE => {
                let h = *msg.payload.downcast::<HandleId>().unwrap();
                ctx.direct_assoc_local(h, self.send_region.clone())
                    .expect("assoc");
                self.send_handle = Some(h);
                if self.initiator {
                    self.serve(ctx);
                }
            }
            EP_HINT => {
                // bug under test: peek at the landing window before the
                // completion callback has fired
                let h = self.recv_handle.expect("created");
                let r = ctx.direct_recv_region(h).expect("region");
                let _ = r.len();
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        self.bounces += 1;
        let skip = self.kind == MutantKind::SkipReadyJacobi
            && !self.initiator
            && self.bounces == self.iters / 2;
        if skip {
            // bug under test: this iteration's re-arm is forgotten, so the
            // initiator's next put lands on an unconsumed window
        } else {
            ctx.direct_ready(handle).expect("ready");
        }
        if self.bounces < self.iters {
            self.serve(ctx);
        }
    }
}

/// Rounds the schedule-dependent mutant plays.
const SCHED_ROUNDS: u32 = 4;

/// Which part a [`SchedPinger`] element plays.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SchedRole {
    /// Kicks both racers each round, tallies their replies, re-arms the
    /// channel, and tells the left racer to put.
    Referee,
    /// Replies to kicks; `0` (left) additionally owns the put channel.
    Racer(u8),
    /// Unused array slot (keeps element index == home PE).
    Idle,
}

/// The schedule-dependent mutant: a referee on PE 0 races two workers on
/// PEs 2 and 3 (equidistant, cross-node) every round. The referee's
/// channel re-arm lives on the code path that handles the *round-closing*
/// reply, and the developer assumed the right racer always closes the
/// round (its kick is sent second, so canonically its reply lands second).
/// Swap the two replies — legal for any commutation window that covers
/// their few-ns arrival gap — and the left racer's reply closes the round
/// instead: no re-arm, and the next put lands on an unconsumed window.
struct SchedPinger {
    role: SchedRole,
    referee: Option<ChareRef>,
    left: Option<ChareRef>,
    right: Option<ChareRef>,
    /// Rounds completed (a put delivered per round).
    rounds: u32,
    /// Rounds the *right* racer's reply arrived first — always 0 on the
    /// canonical schedule.
    right_first: u32,
    got: [bool; 2],
    recv_region: Region,
    send_region: Region,
    recv_handle: Option<HandleId>,
    send_handle: Option<HandleId>,
}

impl SchedPinger {
    fn new(role: SchedRole) -> SchedPinger {
        let send_region = Region::alloc(256);
        send_region.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
        SchedPinger {
            role,
            referee: None,
            left: None,
            right: None,
            rounds: 0,
            right_first: 0,
            got: [false; 2],
            recv_region: Region::alloc(256),
            send_region,
            recv_handle: None,
            send_handle: None,
        }
    }

    /// Start a round: kick the left racer, then the right one. The two
    /// sends leave back-to-back, so the replies arrive left-first by a
    /// few nanoseconds on the canonical schedule.
    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        self.got = [false; 2];
        ctx.send(self.left.unwrap(), Msg::signal(EP_KICK));
        ctx.send(self.right.unwrap(), Msg::signal(EP_KICK));
    }
}

impl Chare for SchedPinger {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                let h = ctx
                    .direct_create_handle(self.recv_region.clone(), OOB_PATTERN, 0)
                    .expect("create");
                self.recv_handle = Some(h);
                ctx.send(self.left.unwrap(), Msg::value(EP_HANDSHAKE, h, 16));
            }
            EP_HANDSHAKE => {
                let h = *msg.payload.downcast::<HandleId>().unwrap();
                ctx.direct_assoc_local(h, self.send_region.clone())
                    .expect("assoc");
                self.send_handle = Some(h);
                ctx.send(self.referee.unwrap(), Msg::signal(EP_ARMED));
            }
            EP_ARMED => self.kick(ctx),
            EP_KICK => {
                let SchedRole::Racer(id) = self.role else {
                    panic!("kick sent to a non-racer");
                };
                ctx.send(self.referee.unwrap(), Msg::value(EP_REPLY, id, 8));
            }
            EP_REPLY => {
                let id = *msg.payload.downcast::<u8>().unwrap() as usize;
                let first = !self.got[0] && !self.got[1];
                if first && id == 1 {
                    self.right_first += 1;
                }
                self.got[id] = true;
                if self.got[0] && self.got[1] {
                    if id == 1 {
                        // the right racer closed the round, as the
                        // developer assumed it always would
                        if self.rounds > 0 {
                            ctx.direct_ready(self.recv_handle.unwrap()).expect("ready");
                        }
                    } else {
                        // bug under test: the round closed on the *left*
                        // reply and this path forgets the re-arm — it is
                        // unreachable on the canonical schedule
                    }
                    ctx.send(self.left.unwrap(), Msg::signal(EP_GO));
                }
            }
            EP_GO => {
                // ckd-check: allow(swallowed-direct-error) ckd-check: allow(ignored-put-outcome)
                let _ = ctx.direct_put(self.send_handle.unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, _handle: HandleId) {
        // the re-arm is deliberately deferred to the reply path of the
        // next round (that deferral is the mutant's bug surface)
        self.rounds += 1;
        if self.rounds < SCHED_ROUNDS {
            self.kick(ctx);
        }
    }
}

/// The platform every mutant runs on (4 PEs, 2 cores per node — so PEs 2
/// and 3 sit together on the far node).
pub fn mutant_platform() -> Platform {
    Platform::IbAbe { cores_per_node: 2 }
}

/// Seed and run `kind` on a caller-built machine (sanitizer and, for
/// `ckd-check`, a reorder policy already installed via the builder).
pub fn run_mutant_on(m: &mut Machine, kind: MutantKind) {
    if kind == MutantKind::SchedDependentPingpong {
        let arr = m.create_array("sched", Dims::d1(4), Mapper::Block, |idx| {
            let role = match idx.at(0) {
                0 => SchedRole::Referee,
                2 => SchedRole::Racer(0),
                3 => SchedRole::Racer(1),
                _ => SchedRole::Idle,
            };
            Box::new(SchedPinger::new(role)) as Box<dyn Chare>
        });
        let r = m.element(arr, Idx::i1(0));
        let l = m.element(arr, Idx::i1(2));
        let rt = m.element(arr, Idx::i1(3));
        m.with_chare_mut::<SchedPinger>(r, |c| {
            c.left = Some(l);
            c.right = Some(rt);
        });
        for racer in [l, rt] {
            m.with_chare_mut::<SchedPinger>(racer, |c| c.referee = Some(r));
        }
        m.seed(r, Msg::signal(EP_START));
        m.run();
        return;
    }
    let (iters, bytes) = match kind {
        // large payloads so the hint message outruns the landing put
        MutantKind::EarlyReadPingpong => (4, 100_000),
        _ => (6, 1_000),
    };
    let npes = m.npes();
    let arr = m.create_array("mutant", Dims::d1(npes), Mapper::Block, |idx| {
        Box::new(MutantPeer::new(kind, bytes, iters, idx.at(0) == 0)) as Box<dyn Chare>
    });
    let a = m.element(arr, Idx::i1(0));
    let b = m.element(arr, Idx::i1(1));
    m.seed(a, Msg::value(EP_START, b, 8));
    m.seed(b, Msg::value(EP_START, a, 8));
    m.run();
}

/// Application-level observation for schedule-equivalence checking: the
/// protocol counters that must not depend on delivery order (chare state
/// the `MachineStats` digest cannot see).
pub fn mutant_digest(m: &Machine, kind: MutantKind) -> String {
    let arr = ArrayId(0);
    if kind == MutantKind::SchedDependentPingpong {
        let r: &SchedPinger = m.chare(m.element(arr, Idx::i1(0))).expect("referee exists");
        return format!("rounds={} right_first={}", r.rounds, r.right_first);
    }
    let a: &MutantPeer = m.chare(m.element(arr, Idx::i1(0))).expect("peer exists");
    let b: &MutantPeer = m.chare(m.element(arr, Idx::i1(1))).expect("peer exists");
    format!("bounces={}/{}", a.bounces, b.bounces)
}

/// Build, run, and return the machine for `kind` with the sanitizer on.
/// The caller inspects `machine.sanitizer()` for the diagnostics the race
/// produced.
pub fn run_mutant(kind: MutantKind) -> Machine {
    let mut m = mutant_platform()
        .builder(4)
        .with_sanitizer(SanitizerConfig::default())
        .build();
    run_mutant_on(&mut m, kind);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_race::RaceKind;

    fn kinds(m: &Machine) -> Vec<RaceKind> {
        m.sanitizer().diagnostics().iter().map(|d| d.kind).collect()
    }

    #[test]
    fn skip_ready_is_caught_as_overwrite() {
        let m = run_mutant(MutantKind::SkipReadyJacobi);
        assert!(
            kinds(&m).contains(&RaceKind::OverwriteUnconsumed),
            "got {:?}",
            kinds(&m)
        );
    }

    #[test]
    fn early_read_is_caught() {
        let m = run_mutant(MutantKind::EarlyReadPingpong);
        assert!(
            kinds(&m).contains(&RaceKind::ReadBeforeCompletion),
            "got {:?}",
            kinds(&m)
        );
    }

    #[test]
    fn schedule_dependent_mutant_is_clean_on_the_canonical_schedule() {
        // The whole point of this mutant: the single-seed sanitizer run is
        // spotless and the protocol completes every round — only schedule
        // exploration (ckd-check) exposes the missing re-arm.
        let m = run_mutant(MutantKind::SchedDependentPingpong);
        assert!(m.sanitizer().is_clean(), "{}", m.sanitizer().report());
        assert_eq!(
            mutant_digest(&m, MutantKind::SchedDependentPingpong),
            format!("rounds={SCHED_ROUNDS} right_first=0")
        );
    }

    #[test]
    fn double_put_is_caught_as_in_flight() {
        let m = run_mutant(MutantKind::DoublePutMatmul);
        assert!(
            kinds(&m).contains(&RaceKind::PutWhileInFlight),
            "got {:?}",
            kinds(&m)
        );
    }
}
