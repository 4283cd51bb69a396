//! Event execution: the dispatch table and the per-event-kind handlers.
//!
//! Each handler follows the same shape: fan the event through the
//! runtime-layer stack ([`crate::layer`]) at its interposition seam, then
//! do the scheduler's own work — busy-time accounting, queue management,
//! and driving the CkDirect registry through the machine's
//! [`Backend`](crate::backend::Backend). Reliable delivery (`Ev::Rel*`) is
//! handled in [`crate::rel`]; it sits below the layer seams.

use ckd_sim::Time;
use ckd_topo::Pe;
use ckd_trace::{BusyKind, Phase, ProtoClass};
use ckdirect::{HandleId, LandOutcome};

use crate::array::ArrayId;
use crate::chare::ChareRef;
use crate::ctx::Ctx;
use crate::layer::{DeliverInfo, Delivery, EventInfo, EventKind, LandingInfo};
use crate::machine::{CbKind, DirectCb, Ev, Machine};
use crate::msg::{EntryId, Msg, Payload};
use crate::reduction::{tree_children, tree_parent, RedOp, RedTarget, RedVal};

impl Machine {
    pub(crate) fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::MsgArrive {
                pe,
                target,
                msg,
                recv_cpu,
                overlap_cpu,
                from,
                proto,
                edge,
            } => self.on_msg_arrive(pe, target, msg, recv_cpu, overlap_cpu, from, proto, edge),
            Ev::DirectLand { handle, recv_cpu } => self.on_direct_land(handle, recv_cpu),
            Ev::DirectGetLand { handle, recv_cpu } => self.on_direct_get_land(handle, recv_cpu),
            Ev::PeLoop { pe } => self.on_pe_loop(pe),
            Ev::ReduceUp {
                array,
                to,
                value,
                count,
                op,
                target,
                recv_cpu,
                edge,
            } => self.on_reduce_up(array, to, value, count, op, target, recv_cpu, edge),
            Ev::BcastDown {
                array,
                to,
                ep,
                payload,
                size,
                recv_cpu,
                edge,
            } => self.on_bcast_down(array, to, ep, payload, size, recv_cpu, edge),
            Ev::RelDeliver {
                token,
                link,
                seq,
                corrupted,
                handle,
            } => self.rel_deliver(token, link, seq, corrupted, handle),
            Ev::RelAck { token } => self.rel_ack(token),
            Ev::RelTimer { token, attempt } => self.rel_timer(token, attempt),
        }
    }

    /// Fan a scheduler-visible event through the layer stack (no-op when
    /// nothing observes).
    fn observe_event(&mut self, pe: usize, kind: EventKind) {
        if self.stack.observing() {
            let t0 = self.prof.begin();
            self.stack.on_event(&EventInfo {
                pe,
                at: self.now,
                kind,
            });
            self.prof.end(Phase::Layers, t0);
        }
    }

    /// Fan a put/get landing through the layer stack: the tracer records
    /// the landing, the sanitizer points its virtual clock at the
    /// receiving PE so the registry's lifecycle transitions are
    /// attributed correctly.
    fn observe_landing(&mut self, handle: HandleId) {
        if self.stack.observing() {
            if let (Ok(pe), Ok(bytes)) =
                (self.direct.recv_pe(handle), self.direct.wire_bytes(handle))
            {
                let t0 = self.prof.begin();
                self.stack.on_landing(&LandingInfo {
                    pe: pe.idx(),
                    at: self.now,
                    handle,
                    bytes: bytes as u64,
                });
                self.prof.end(Phase::Layers, t0);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_msg_arrive(
        &mut self,
        pe: Pe,
        target: ChareRef,
        msg: Msg,
        recv_cpu: Time,
        overlap_cpu: Time,
        from: Pe,
        proto: ProtoClass,
        edge: u64,
    ) {
        self.observe_event(
            pe.idx(),
            EventKind::MsgArrive {
                from: from.0,
                proto,
                edge,
            },
        );
        let st = &mut self.pes[pe.idx()];
        // protocol-time CPU: steals capacity from a busy PE but cannot
        // push this message past its own arrival on an idle one (it was
        // spent while waiting for the wire)
        st.busy_until = if st.busy_until >= self.now {
            st.busy_until + overlap_cpu
        } else {
            (st.busy_until + overlap_cpu).min(self.now)
        };
        st.busy_until = st.busy_until.max(self.now) + recv_cpu;
        st.stats.busy += recv_cpu + overlap_cpu;
        st.queue.push_back((target, msg));
        self.ensure_loop(pe, Time::ZERO);
    }

    fn on_direct_land(&mut self, handle: HandleId, recv_cpu: Time) {
        self.observe_landing(handle);
        match self.direct.land(handle) {
            Ok(LandOutcome::AwaitPoll) => {
                // Polling backend: the receiving scheduler will notice at
                // its next sweep; wake it if idle.
                let pe = self.direct.recv_pe(handle).expect("live channel");
                self.ensure_loop(pe, self.cfg.idle_poll_gap);
            }
            Ok(LandOutcome::Deliver(cb)) => {
                // Callback backend (BG/P): charge the DCMF receive handler
                // and run the user callback immediately.
                let pe = self.direct.recv_pe(handle).expect("live channel");
                self.deliver_landing(pe, recv_cpu, cb, handle);
            }
            Ok(LandOutcome::Notified) => {
                // Notified backend: the NIC deposited a completion-queue
                // record; the receiving scheduler drains it at its next
                // sweep.
                let pe = self.direct.recv_pe(handle).expect("live channel");
                self.ensure_loop(pe, self.cfg.idle_poll_gap);
            }
            Err(ckdirect::DirectError::CqOverflow) => {
                // The receiver's bounded CQ is full, so the NIC holds the
                // put back at the initiator (backpressure, not data loss).
                // Re-attempt the landing strictly after the receiver's
                // next drain opportunity.
                let pe = self.direct.recv_pe(handle).expect("live channel");
                self.ensure_loop(pe, self.cfg.idle_poll_gap);
                let retry_at = self.pes[pe.idx()].busy_until.max(self.now)
                    + self.cfg.idle_poll_gap
                    + self.cfg.idle_poll_gap;
                self.push_ev(retry_at, Ev::DirectLand { handle, recv_cpu });
            }
            Err(e) => panic!("land on live channel: {e}"),
        }
    }

    /// Drain one bounded batch of completion-queue records on `pe`:
    /// charge the fabric's modeled drain cost and run the completion
    /// callbacks of every drained record. Returns the updated elapsed
    /// time. Caller has checked that the CQ is non-empty.
    fn drain_cq_batch(&mut self, pe: Pe, start: Time, mut elapsed: Time) -> Time {
        let cq = self.net.fabric().cq();
        let pt0 = self.prof.begin();
        self.stack.san.set_ctx(pe.idx(), start);
        let mut deliveries = self.take_sweep_buf();
        let drained = self
            .direct
            .cq_drain_into(pe, cq.drain_batch.max(1), &mut deliveries);
        elapsed += cq.drain_base + cq.drain_per_notification * drained as u64;
        self.stats.cq_drains += drained as u64;
        self.stack.tracer.poll_sweep(
            pe.idx(),
            start,
            start + elapsed,
            drained as u32,
            deliveries.len() as u32,
        );
        self.prof.end(Phase::Poll, pt0);
        if !deliveries.is_empty() {
            let mut cbs = self.take_cb_buf();
            cbs.extend(deliveries.drain(..).map(|(h, cb)| (cb, h)));
            elapsed = self.run_callbacks(pe, start, elapsed, cbs);
        }
        self.recycle_sweep_buf(deliveries);
        elapsed
    }

    fn on_direct_get_land(&mut self, handle: HandleId, recv_cpu: Time) {
        self.observe_landing(handle);
        let cb = self.direct.land_get(handle).expect("get on live channel");
        let pe = self.direct.recv_pe(handle).expect("live channel");
        self.deliver_landing(pe, recv_cpu, cb, handle);
    }

    /// Charge the receive handler on `pe` and run the completion callback
    /// immediately (callback backends and get completions).
    fn deliver_landing(&mut self, pe: Pe, recv_cpu: Time, cb: DirectCb, handle: HandleId) {
        let start = {
            let st = &mut self.pes[pe.idx()];
            st.busy_until = st.busy_until.max(self.now) + recv_cpu;
            st.stats.busy += recv_cpu;
            st.busy_until
        };
        let mut first = self.take_cb_buf();
        first.push((cb, handle));
        let elapsed = self.run_callbacks(pe, start, Time::ZERO, first);
        let st = &mut self.pes[pe.idx()];
        st.busy_until = start + elapsed;
        st.stats.busy += elapsed;
    }

    /// One scheduler iteration: poll sweep (polling backends), then at
    /// most one message.
    fn on_pe_loop(&mut self, pe: Pe) {
        self.pes[pe.idx()].loop_scheduled = false;
        let start = self.pes[pe.idx()].busy_until.max(self.now);
        let mut elapsed = Time::ZERO;
        let depth = self.pes[pe.idx()].queue.len() as u32;
        self.observe_event(pe.idx(), EventKind::PeLoop { depth });

        // CkDirect poll sweep (sentinel-polling backends): charge every
        // armed handle, visit only the landed ones. An empty polling queue
        // is skipped outright — nothing to charge, nothing to deliver.
        if self.backend.polls() && self.direct.pollq_len(pe) > 0 {
            let pt0 = self.prof.begin();
            self.stack.san.set_ctx(pe.idx(), start);
            let mut deliveries = self.take_sweep_buf();
            let checked = self.direct.poll_sweep_into(pe, &mut deliveries);
            elapsed += self.cfg.poll_per_handle * checked as u64;
            self.pes[pe.idx()].stats.poll_checks += checked as u64;
            self.stack.tracer.poll_sweep(
                pe.idx(),
                start,
                start + elapsed,
                checked as u32,
                deliveries.len() as u32,
            );
            self.prof.end(Phase::Poll, pt0);
            if !deliveries.is_empty() {
                let mut cbs = self.take_cb_buf();
                cbs.extend(deliveries.drain(..).map(|(h, cb)| (cb, h)));
                elapsed = self.run_callbacks(pe, start, elapsed, cbs);
            }
            self.recycle_sweep_buf(deliveries);
        }

        // Notified-put CQ drain (CQ-draining backends): pay the drain base
        // plus a per-record cost, deliver everything drained. Bounded by
        // the fabric's drain batch — leftovers re-arm the loop below.
        if self.backend.drains_cq() && self.direct.cq_len(pe) > 0 {
            elapsed = self.drain_cq_batch(pe, start, elapsed);
        }

        // One message through the scheduler.
        if let Some((target, msg)) = self.pes[pe.idx()].queue.pop_front() {
            elapsed += self.cfg.sched;
            self.pes[pe.idx()].stats.msgs_delivered += 1;
            if self.stack.observing() {
                let t0 = self.prof.begin();
                self.stack.on_deliver(&DeliverInfo {
                    pe: pe.idx(),
                    at: start + elapsed,
                    what: Delivery::Message {
                        ep: msg.ep.0,
                        bytes: msg.size as u64,
                    },
                });
                self.prof.end(Phase::Layers, t0);
            }
            elapsed = self.run_entry(pe, target, start, elapsed, msg);
        }

        // Records past this iteration's drain batch keep the loop alive.
        let cq_backlog = self.backend.drains_cq() && self.direct.cq_len(pe) > 0;
        let st = &mut self.pes[pe.idx()];
        st.busy_until = start + elapsed;
        st.stats.busy += elapsed;
        // A handler may already have re-armed the loop (e.g. a broadcast
        // delivered to this very PE); don't double-schedule.
        if (!st.queue.is_empty() || cq_backlog) && !st.loop_scheduled {
            st.loop_scheduled = true;
            let at = st.busy_until;
            self.push_ev(at, Ev::PeLoop { pe });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_reduce_up(
        &mut self,
        array: ArrayId,
        to: Pe,
        value: RedVal,
        count: usize,
        op: RedOp,
        target: RedTarget,
        recv_cpu: Time,
        edge: u64,
    ) {
        self.observe_event(
            to.idx(),
            EventKind::ReduceUp {
                array: array.0,
                edge,
            },
        );
        let st = &mut self.pes[to.idx()];
        st.busy_until = st.busy_until.max(self.now) + recv_cpu;
        st.stats.busy += recv_cpu;
        let red = &mut self.red[array.idx()][to.idx()];
        red.absorb(value, count, op, target);
        red.got_children += 1;
        self.maybe_complete_reduction(array, to);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_bcast_down(
        &mut self,
        array: ArrayId,
        to: Pe,
        ep: EntryId,
        payload: Payload,
        size: usize,
        recv_cpu: Time,
        edge: u64,
    ) {
        self.observe_event(to.idx(), EventKind::BcastDown { edge });
        let st = &mut self.pes[to.idx()];
        st.busy_until = st.busy_until.max(self.now) + recv_cpu;
        st.stats.busy += recv_cpu;
        self.bcast_at(array, to, ep, payload, size);
    }

    /// Run one entry method with the chare checked out of the machine;
    /// returns the updated elapsed time.
    fn run_entry(
        &mut self,
        pe: Pe,
        target: ChareRef,
        start: Time,
        elapsed: Time,
        msg: Msg,
    ) -> Time {
        let mut chare = self.chares[target.array.idx()][target.lin as usize]
            .take()
            .unwrap_or_else(|| panic!("{target:?} missing (reentrant delivery?)"));
        let entry_begin = start + elapsed;
        let mut ctx = Ctx::new(self, pe, target, start, elapsed);
        chare.entry(&mut ctx, msg);
        let (elapsed, pending) = ctx.finish();
        self.stack
            .tracer
            .busy(pe.idx(), entry_begin, start + elapsed, BusyKind::Entry);
        self.chares[target.array.idx()][target.lin as usize] = Some(chare);
        self.run_callbacks(pe, start, elapsed, pending)
    }

    /// Deliver CkDirect callbacks as plain function calls; each may enqueue
    /// more (e.g. `ready_poll_q` discovering already-landed data).
    pub(crate) fn run_callbacks(
        &mut self,
        pe: Pe,
        start: Time,
        mut elapsed: Time,
        mut pending: Vec<(DirectCb, HandleId)>,
    ) -> Time {
        while let Some((cb, handle)) = pending.pop() {
            let cb_begin = start + elapsed;
            elapsed += self.cfg.callback_cost;
            // strided destinations pay the scatter copy at delivery
            if let Ok(Some(bytes)) = self.direct.strided_recv_bytes(handle) {
                elapsed += self.cfg.compute.bytes(2 * bytes as u64);
            }
            self.pes[pe.idx()].stats.callbacks += 1;
            if self.stack.observing() {
                let t0 = self.prof.begin();
                self.stack.on_deliver(&DeliverInfo {
                    pe: pe.idx(),
                    at: start + elapsed,
                    what: Delivery::Callback { handle },
                });
                self.prof.end(Phase::Layers, t0);
            }
            let target = cb.target;
            let mut chare = self.chares[target.array.idx()][target.lin as usize]
                .take()
                .unwrap_or_else(|| panic!("{target:?} missing for callback"));
            // synthesize the learned-channel message before Ctx borrows self
            let learned_msg = if let CbKind::Learned(ep) = cb.kind {
                // hand the landed bytes to the ordinary entry method — the
                // application cannot tell the transport changed
                let region = self.direct.recv_region(handle).expect("live channel");
                let size = self.direct.wire_bytes(handle).expect("live channel");
                Some(Msg {
                    ep,
                    payload: crate::msg::Payload::Bytes(bytes::Bytes::from(region.to_vec())),
                    size,
                })
            } else {
                None
            };
            let mut ctx = Ctx::new(self, pe, target, start, elapsed);
            match (cb.kind, learned_msg) {
                (CbKind::User(tag), _) => chare.direct_callback(&mut ctx, tag, handle),
                (CbKind::Learned(_), Some(msg)) => chare.entry(&mut ctx, msg),
                (CbKind::Learned(_), None) => unreachable!(),
            }
            let (e, mut more) = ctx.finish();
            elapsed = e;
            self.stack
                .tracer
                .busy(pe.idx(), cb_begin, start + elapsed, BusyKind::Callback);
            self.chares[target.array.idx()][target.lin as usize] = Some(chare);
            if let CbKind::Learned(_) = cb.kind {
                // the runtime owns learned channels: re-arm immediately so
                // the sender's next iteration can put again
                self.stack.san.set_ctx(pe.idx(), start + elapsed);
                if let Ok(Some(cb2)) = self.direct.ready(handle) {
                    pending.push((cb2, handle));
                }
            }
            pending.append(&mut more);
            self.recycle_cb_buf(more);
        }
        self.recycle_cb_buf(pending);
        elapsed
    }

    // ---- reductions and broadcasts ----------------------------------------

    /// A chare on `pe` contributed to its array's current reduction.
    pub(crate) fn contribute_local(
        &mut self,
        array: ArrayId,
        pe: Pe,
        v: RedVal,
        op: RedOp,
        target: RedTarget,
    ) {
        self.stack
            .tracer
            .reduce_contribute(pe.idx(), self.now, array.0);
        self.stack.san.red_contribute(array.0, pe.idx());
        let red = &mut self.red[array.idx()][pe.idx()];
        red.absorb(v, 1, op, target);
        red.got_local += 1;
        debug_assert!(
            red.got_local <= self.arrays[array.idx()].local_counts[pe.idx()],
            "element contributed twice in one generation"
        );
        self.maybe_complete_reduction(array, pe);
    }

    fn maybe_complete_reduction(&mut self, array: ArrayId, pe: Pe) {
        let info = &self.arrays[array.idx()];
        let need_local = info.local_counts[pe.idx()];
        let need_children = tree_children(&info.participants, pe).len();
        let red = &self.red[array.idx()][pe.idx()];
        if red.got_local < need_local || red.got_children < need_children {
            return;
        }
        let value = red.partial;
        let count = red.count;
        let op = red.op.expect("completed reduction has an op");
        let target = red.target.expect("completed reduction has a target");
        self.red[array.idx()][pe.idx()].advance();

        match tree_parent(&self.arrays[array.idx()].participants, pe) {
            Some(parent) => {
                let t = self.net.control(pe, parent);
                self.record_control(t.delay);
                // the send costs a sliver of CPU on this PE
                let st = &mut self.pes[pe.idx()];
                st.busy_until = st.busy_until.max(self.now) + t.send_cpu;
                st.stats.busy += t.send_cpu;
                let edge = self.stack.san.red_up(array.0, pe.idx());
                self.push_ev(
                    self.now + t.delay,
                    Ev::ReduceUp {
                        array,
                        to: parent,
                        value,
                        count,
                        op,
                        target,
                        recv_cpu: t.recv_cpu,
                        edge,
                    },
                );
            }
            None => {
                // Root: the reduction is complete.
                debug_assert_eq!(
                    count,
                    self.arrays[array.idx()].dims.len(),
                    "reduction lost contributions"
                );
                self.stats.reductions += 1;
                self.stack
                    .tracer
                    .reduce_complete(pe.idx(), self.now, array.0);
                // every contribution happens-before whatever the root does
                // next (the release broadcast / client delivery)
                self.stack.san.red_complete(array.0, pe.idx());
                match target {
                    RedTarget::Broadcast(ep) => {
                        let payload = Payload::value(value);
                        self.bcast_at(array, pe, ep, payload, 8);
                    }
                    RedTarget::Single(aref, ep) => {
                        let dst = self.home_pe(aref);
                        let t = self.net.control(pe, dst);
                        self.record_control(t.delay);
                        let edge = self.stack.san.edge_out(pe.idx());
                        self.push_ev(
                            self.now + t.delay,
                            Ev::MsgArrive {
                                pe: dst,
                                target: aref,
                                msg: Msg::value(ep, value, 8),
                                recv_cpu: t.recv_cpu,
                                overlap_cpu: Time::ZERO,
                                from: pe,
                                proto: ProtoClass::Control,
                                edge,
                            },
                        );
                    }
                }
            }
        }
    }

    /// User-initiated broadcast: route a message from `from` to the root of
    /// `array`'s participant tree, then distribute down it.
    pub(crate) fn broadcast_from(&mut self, from: Pe, array: ArrayId, msg: Msg) {
        let root = self.arrays[array.idx()].participants[0];
        if root == from {
            self.bcast_at(array, root, msg.ep, msg.payload, msg.size);
        } else {
            let t = self.net.control(from, root);
            self.record_control(t.delay);
            let st = &mut self.pes[from.idx()];
            st.busy_until = st.busy_until.max(self.now) + t.send_cpu;
            st.stats.busy += t.send_cpu;
            let edge = self.stack.san.edge_out(from.idx());
            self.push_ev(
                self.now + t.delay,
                Ev::BcastDown {
                    array,
                    to: root,
                    ep: msg.ep,
                    payload: msg.payload,
                    size: msg.size,
                    recv_cpu: t.recv_cpu,
                    edge,
                },
            );
        }
    }

    /// Broadcast arriving at `pe`: forward down the tree, then enqueue a
    /// message for every local element.
    fn bcast_at(&mut self, array: ArrayId, pe: Pe, ep: EntryId, payload: Payload, size: usize) {
        let children = tree_children(&self.arrays[array.idx()].participants, pe);
        for child in children {
            let t = self.net.control(pe, child);
            self.record_control(t.delay);
            let st = &mut self.pes[pe.idx()];
            st.busy_until = st.busy_until.max(self.now) + t.send_cpu;
            st.stats.busy += t.send_cpu;
            let edge = self.stack.san.edge_out(pe.idx());
            self.push_ev(
                self.now + t.delay,
                Ev::BcastDown {
                    array,
                    to: child,
                    ep,
                    payload: payload.clone(),
                    size,
                    recv_cpu: t.recv_cpu,
                    edge,
                },
            );
        }
        let lins = std::mem::take(&mut self.locals[array.idx()][pe.idx()]);
        for &lin in &lins {
            self.pes[pe.idx()].queue.push_back((
                ChareRef { array, lin },
                Msg {
                    ep,
                    payload: payload.clone(),
                    size,
                },
            ));
        }
        self.locals[array.idx()][pe.idx()] = lins;
        self.ensure_loop(pe, Time::ZERO);
    }
}
