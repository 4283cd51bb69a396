//! The automatic channel-learning framework — the paper's final proposed
//! extension: "the eventual inclusion of CkDirect into an automatic
//! learning framework which will create persistent channels where
//! appropriate".
//!
//! Applications opt in by routing sends through [`crate::Ctx::send_learned`]
//! instead of [`crate::Ctx::send`]. The runtime watches each
//! `(sender, receiver, entry point, size)` stream; after
//! [`LearnConfig::threshold`] consecutive identical sends it installs a
//! persistent CkDirect channel behind the pair's back:
//!
//! * a receive window is registered on the receiver's PE, a send window on
//!   the sender's (both registration costs charged where they occur), and
//!   the handle "ships" with a modeled control round trip before the
//!   channel activates;
//! * subsequent matching sends become puts: the payload is copied into the
//!   send window (charged) and lands one-sided; delivery invokes the
//!   receiver's ordinary entry method as a plain function call — no
//!   envelope, no allocation, no scheduler trip — and the runtime re-arms
//!   the channel itself;
//! * anything that does not fit the learned pattern — a different size, a
//!   non-bytes payload, or a put that would violate the one-in-flight rule
//!   (the receiver has not consumed the previous iteration yet) — falls
//!   back to an ordinary message, transparently.
//!
//! The receiver cannot tell the transport changed: it sees the same entry
//! point with the same bytes either way.

use std::collections::HashMap;

use ckd_race::DirectOp;
use ckd_sim::{FaultOp, Time};
use ckdirect::{HandleId, Region};

use crate::chare::ChareRef;
use crate::ctx::Ctx;
use crate::machine::{CbKind, DirectCb, Ev};
use crate::msg::{EntryId, Msg, Payload};

/// Learning-framework settings.
#[derive(Clone, Copy, Debug)]
pub struct LearnConfig {
    /// Consecutive identical sends before a channel is installed.
    pub threshold: u32,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig { threshold: 3 }
    }
}

/// Identity of one learnable communication stream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LearnKey {
    /// Sending chare.
    pub from: ChareRef,
    /// Receiving chare.
    pub to: ChareRef,
    /// Entry point the messages target.
    pub ep: EntryId,
    /// Payload size in bytes (patterns are size-stable by definition).
    pub size: usize,
}

/// Per-stream learning state.
pub struct LearnState {
    /// Identical sends observed so far (resets on a mismatch… in this
    /// design a mismatch simply uses a different key, so this only grows).
    pub observed: u32,
    /// Installed channel, once learning triggered.
    pub handle: Option<HandleId>,
    /// Sender-side window for the channel.
    pub send_region: Option<Region>,
    /// The channel may be used once the modeled handle-shipping round trip
    /// has elapsed.
    pub active_at: Time,
    /// Puts that went one-sided.
    pub hits: u64,
    /// Sends that fell back to messages after installation.
    pub misses: u64,
}

impl LearnState {
    pub(crate) fn new() -> LearnState {
        LearnState {
            observed: 0,
            handle: None,
            send_region: None,
            active_at: Time::MAX,
            hits: 0,
            misses: 0,
        }
    }
}

/// Aggregate learning-framework results across all streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearningTotals {
    /// Streams for which a persistent channel has been installed.
    pub installed: usize,
    /// Sends that went one-sided through a learned channel.
    pub hits: u64,
    /// Post-installation sends that fell back to ordinary messages.
    pub misses: u64,
}

/// All learning state of a machine.
#[derive(Default)]
pub struct Learner {
    pub(crate) cfg: Option<LearnConfig>,
    pub(crate) streams: HashMap<LearnKey, LearnState>,
}

impl Learner {
    /// Totals across streams.
    pub fn totals(&self) -> LearningTotals {
        LearningTotals {
            installed: self.streams.values().filter(|s| s.handle.is_some()).count(),
            hits: self.streams.values().map(|s| s.hits).sum(),
            misses: self.streams.values().map(|s| s.misses).sum(),
        }
    }
}

// ---- the learned-send path --------------------------------------------
//
// Lives here rather than in `ctx.rs` because everything it does — stream
// observation, channel installation, the put fast path — is the learner's
// policy; `Ctx` only lends it the invocation clock.

impl Ctx<'_> {
    /// Like [`Ctx::send`], but routed through the automatic
    /// channel-learning framework (when enabled on the machine): after a
    /// few identical sends the runtime installs a persistent CkDirect
    /// channel and subsequent sends become one-sided puts, transparently.
    /// Non-bytes payloads and pattern mismatches always use messages.
    pub fn send_learned(&mut self, to: ChareRef, msg: Msg) {
        let Some(cfg) = self.m.stack.learner.cfg else {
            return self.send(to, msg);
        };
        let Payload::Bytes(data) = &msg.payload else {
            return self.send(to, msg);
        };
        if data.len() < 8 || data.len() != msg.size {
            return self.send(to, msg);
        }
        let key = LearnKey {
            from: self.me,
            to,
            ep: msg.ep,
            size: msg.size,
        };
        let now = self.start + self.elapsed;
        let st = self
            .m
            .stack
            .learner
            .streams
            .entry(key)
            .or_insert_with(LearnState::new);
        st.observed += 1;
        let observed = st.observed;
        let installed = st.handle.is_some();
        let active = if now >= st.active_at {
            st.handle.zip(st.send_region.clone())
        } else {
            None
        };

        // fast path: an active channel
        if let Some((h, region)) = active {
            region.copy_from_slice(data);
            self.m.stack.san.set_ctx(self.pe.idx(), now);
            match self.m.direct.put(h, self.pe) {
                Ok(req) => {
                    // pack into the window: the copy an RDMA path still pays
                    self.charge_bytes(2 * req.bytes as u64);
                    let t = self.m.net.put(req.src, req.dst, req.bytes);
                    let begin = self.start + self.elapsed;
                    self.elapsed += t.send_cpu;
                    let proto = self.m.backend.put_proto();
                    self.record_put(h, &req, &t, begin, proto);
                    self.m.rel_push(
                        begin,
                        t.delay,
                        (req.src.0, req.dst.0),
                        FaultOp::Put,
                        Some((h, req.seq)),
                        Ev::DirectLand {
                            handle: h,
                            recv_cpu: t.recv_cpu,
                        },
                    );
                    if let Some(st) = self.m.stack.learner.streams.get_mut(&key) {
                        st.hits += 1;
                    }
                }
                Err(_) => {
                    // receiver still holds the previous iteration (or the
                    // payload collides with the pattern): fall back. This is
                    // the protocol's designed escape hatch, not a race — the
                    // sanitizer exempts runtime-managed channels for the same
                    // reason.
                    if let Some(st) = self.m.stack.learner.streams.get_mut(&key) {
                        st.misses += 1;
                    }
                    self.send(to, msg);
                }
            }
            return;
        }

        // observation path: maybe install a channel for next time
        if !installed && observed >= cfg.threshold {
            self.install_learned_channel(to, key, msg.ep, msg.size, now);
        }
        self.send(to, msg);
    }

    /// Create and wire up a learned channel for `key`. A failure is reported
    /// to the sanitizer (when enabled) and otherwise absorbed: the stream
    /// simply keeps using plain messages.
    fn install_learned_channel(
        &mut self,
        to: ChareRef,
        key: LearnKey,
        ep: EntryId,
        size: usize,
        now: Time,
    ) {
        let dst_pe = self.m.home_pe(to);
        let recv = Region::alloc(size);
        let send = Region::alloc(size);
        send.set_last_word(!u64::MAX); // anything but the pattern
        self.m.stack.san.set_ctx(self.pe.idx(), now);
        let h = match self.m.direct.create_handle(
            dst_pe,
            recv,
            u64::MAX,
            DirectCb {
                target: to,
                kind: CbKind::Learned(ep),
            },
        ) {
            Ok(h) => h,
            Err(_) => return, // could not create a channel: keep messaging
        };
        // the runtime owns this channel's re-arm protocol and falls back to
        // a plain message whenever a put is rejected, so its unsynchronized
        // puts are safe by construction
        self.m.stack.san.mark_runtime_managed(h);
        if let Err(e) = self.m.direct.assoc_local(h, self.pe, send.clone()) {
            self.m
                .stack
                .san
                .op_failed(self.pe.idx(), now, h, DirectOp::Assoc, e);
            return;
        }
        // registration on both PEs (priced by the completion backend),
        // handle shipping as a control trip
        self.charge_registration(size);
        let reg = self.m.backend.reg_cost(&self.m.net, size);
        if reg > Time::ZERO {
            let st_pe = &mut self.m.pes[dst_pe.idx()];
            st_pe.busy_until = st_pe.busy_until.max(now) + reg;
            st_pe.stats.busy += reg;
        }
        let ship = self.m.net.control(self.pe, dst_pe).delay;
        let ack = self.m.net.control(dst_pe, self.pe).delay;
        let trip = ship + ack;
        // the handle ships in one control packet each way
        self.m.record_control(ship);
        self.m.record_control(ack);
        if let Some(st) = self.m.stack.learner.streams.get_mut(&key) {
            st.handle = Some(h);
            st.send_region = Some(send);
            st.active_at = now + trip;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(LearnConfig::default().threshold, 3);
        let l = Learner::default();
        assert_eq!(l.totals(), LearningTotals::default());
    }
}
