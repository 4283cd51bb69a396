//! The per-invocation context handed to entry methods and CkDirect
//! callbacks: the user-facing API of the runtime.

use ckd_net::{Protocol, Timing};
use ckd_race::DirectOp;
use ckd_sim::{FaultOp, Time};
use ckd_topo::{Idx, Pe};
use ckd_trace::ProtoClass;
use ckdirect::{DirectError, HandleId, PutRequest, Region, StridedSpec};

use crate::array::ArrayId;
use crate::chare::ChareRef;
use crate::layer::PutIssueInfo;
use crate::machine::{CbKind, DirectCb, Ev, Machine};
use crate::msg::Msg;
use crate::reduction::{RedOp, RedTarget, RedVal};

/// What [`Ctx::direct_put`] reports about the transfer it issued. With
/// faults disabled every put is [`PutOutcome::Sent`]; under fault injection
/// the other variants surface channel health to the application without
/// changing its data-delivery semantics (the reliability layer retransmits
/// either way).
#[must_use = "a degraded or retried channel is worth reacting to; match the outcome or discard it explicitly"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Issued on the direct-RDMA fast path, no retransmissions so far.
    Sent,
    /// Issued direct, but this channel has needed `retries` cumulative
    /// retransmissions — a flaky but still-direct path.
    Retried {
        /// Cumulative retransmits charged to the channel so far.
        retries: u32,
    },
    /// The channel crossed the retransmission threshold and this put paid
    /// conventional rendezvous timing instead of the direct path.
    Degraded,
}

/// Execution context of one entry-method or callback invocation.
///
/// Virtual time within the invocation is `start + elapsed`; every API that
/// consumes CPU advances `elapsed`, and asynchronous effects (message
/// arrivals, put landings) are scheduled relative to that instant.
pub struct Ctx<'a> {
    pub(crate) m: &'a mut Machine,
    pub(crate) pe: Pe,
    pub(crate) me: ChareRef,
    pub(crate) start: Time,
    pub(crate) elapsed: Time,
    pub(crate) pending: Vec<(DirectCb, HandleId)>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        m: &'a mut Machine,
        pe: Pe,
        me: ChareRef,
        start: Time,
        elapsed: Time,
    ) -> Ctx<'a> {
        let pending = m.take_cb_buf();
        Ctx {
            m,
            pe,
            me,
            start,
            elapsed,
            pending,
        }
    }

    pub(crate) fn finish(self) -> (Time, Vec<(DirectCb, HandleId)>) {
        (self.elapsed, self.pending)
    }

    // ---- identity & time -------------------------------------------------

    /// The chare being invoked.
    pub fn me(&self) -> ChareRef {
        self.me
    }

    /// This chare's index within its array.
    pub fn my_index(&self) -> Idx {
        self.m.arrays[self.me.array.idx()]
            .dims
            .unlinear(self.me.lin as usize)
    }

    /// The PE executing this invocation.
    pub fn my_pe(&self) -> Pe {
        self.pe
    }

    /// Number of PEs in the machine.
    pub fn npes(&self) -> usize {
        self.m.npes()
    }

    /// Current virtual time (advances as the invocation charges work).
    pub fn now(&self) -> Time {
        self.start + self.elapsed
    }

    /// Reference to another element of any array.
    pub fn element(&self, array: ArrayId, idx: Idx) -> ChareRef {
        self.m.element(array, idx)
    }

    /// Extents of an array.
    pub fn array_dims(&self, array: ArrayId) -> ckd_topo::Dims {
        self.m.arrays[array.idx()].dims
    }

    // ---- compute charging ------------------------------------------------

    /// Charge `t` of compute time to this invocation.
    pub fn charge(&mut self, t: Time) {
        self.elapsed += t;
    }

    /// Charge `flops` floating-point operations (converted through the
    /// machine's compute model).
    pub fn charge_flops(&mut self, flops: f64) {
        self.elapsed += self.m.cfg.compute.flops(flops);
    }

    /// Charge streaming `bytes` through memory.
    pub fn charge_bytes(&mut self, bytes: u64) {
        self.elapsed += self.m.cfg.compute.bytes(bytes);
    }

    // ---- messaging (the default Charm++ path) -----------------------------

    /// Send a message to another chare: pays allocation, the ~80-byte
    /// envelope, the two-sided wire protocol (eager or rendezvous), and, on
    /// the far side, envelope processing plus a scheduler dequeue.
    pub fn send(&mut self, to: ChareRef, msg: Msg) {
        let dst = self.m.home_pe(to);
        let bytes = msg.size + self.m.cfg.env_bytes;
        let alloc = self.m.cfg.alloc + Time::from_ps(self.m.cfg.alloc_ps_per_byte * bytes as u64);
        let (t, proto) = self
            .m
            .net
            .two_sided(self.pe, dst, bytes, self.m.cfg.eager_max, false);
        let pclass = ProtoClass::from(proto);
        let begin = self.start + self.elapsed;
        self.elapsed += alloc + t.send_cpu;
        self.m.stats.msgs_sent += 1;
        self.m.stats.msg_bytes += msg.size as u64;
        self.m.stats.proto.record(proto, msg.size as u64);
        if self.m.stack.tracer.is_enabled() {
            self.m.stack.tracer.msg_send(
                self.pe.idx(),
                begin,
                dst.0,
                msg.ep.0,
                msg.size as u64,
                pclass,
                t.delay,
            );
            if pclass == ProtoClass::Rendezvous {
                // reconstructed handshake leg (see `Ev::MsgArrive::proto`)
                self.m
                    .stack
                    .tracer
                    .rts(self.pe.idx(), begin, dst.0, msg.size as u64);
            }
        }
        let edge = self.m.stack.san.edge_out(self.pe.idx());
        self.m.rel_push(
            begin + alloc,
            t.delay,
            (self.pe.0, dst.0),
            FaultOp::Msg,
            None,
            Ev::MsgArrive {
                pe: dst,
                target: to,
                msg,
                recv_cpu: t.recv_cpu,
                overlap_cpu: t.overlap_cpu,
                from: self.pe,
                proto: pclass,
                edge,
            },
        );
    }

    /// Send to the element of `array` at `idx`.
    pub fn send_to(&mut self, array: ArrayId, idx: Idx, msg: Msg) {
        let to = self.element(array, idx);
        self.send(to, msg);
    }

    /// Enqueue a message for a chare on *this* PE without any network or
    /// envelope cost — the runtime-internal local enqueue Charm++ uses when
    /// a CkDirect callback schedules an entry method (§5.1: "the callback
    /// enqueues a CHARM++ entry method to perform the multiplication").
    /// The scheduler dequeue cost is still paid when it runs.
    pub fn send_local(&mut self, to: ChareRef, msg: Msg) {
        debug_assert_eq!(self.m.home_pe(to), self.pe, "send_local to a remote chare");
        let begin = self.start + self.elapsed;
        self.elapsed += self.m.cfg.alloc;
        self.m.push_ev(
            begin + self.m.cfg.alloc,
            Ev::MsgArrive {
                pe: self.pe,
                target: to,
                msg,
                recv_cpu: Time::ZERO,
                overlap_cpu: Time::ZERO,
                from: self.pe,
                proto: ProtoClass::Control,
                // same-PE delivery: program order is already a
                // happens-before edge, no token needed
                edge: 0,
            },
        );
    }

    // ---- reductions --------------------------------------------------------

    /// Contribute to this chare's array-wide reduction. Every element must
    /// contribute exactly once per generation with the same `op` and
    /// `target`; the reduced value is delivered per `target`.
    pub fn contribute(&mut self, v: RedVal, op: RedOp, target: RedTarget) {
        self.m
            .contribute_local(self.me.array, self.pe, v, op, target);
    }

    /// Barrier shorthand: contribute nothing, broadcast `ep` when all
    /// elements arrived.
    pub fn barrier(&mut self, ep: crate::msg::EntryId) {
        self.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(ep));
    }

    // ---- CkDirect ---------------------------------------------------------

    /// `CkDirect_createHandle`: register `recv` (owned by this chare, on
    /// this PE) as a put destination. `oob` must never occur as the final
    /// 8 bytes of real payloads; `tag` is handed back to
    /// [`crate::Chare::direct_callback`] on every delivery.
    ///
    /// On RDMA fabrics the buffer registration cost is charged *here, once*
    /// — amortized over every subsequent put, unlike the per-transfer
    /// registration of the default rendezvous path.
    pub fn direct_create_handle(
        &mut self,
        recv: Region,
        oob: u64,
        tag: u32,
    ) -> Result<HandleId, DirectError> {
        self.charge_registration(recv.len());
        self.san_ctx();
        self.m.direct.create_handle(
            self.pe,
            recv,
            oob,
            DirectCb {
                target: self.me,
                kind: CbKind::User(tag),
            },
        )
    }

    /// [`Ctx::direct_create_handle`] with an explicit wire size: the region
    /// may be a truncated stand-in while the network is charged for
    /// `wire_bytes` — used by figure-scale runs that model full buffers
    /// without allocating them.
    pub fn direct_create_handle_wire(
        &mut self,
        recv: Region,
        oob: u64,
        tag: u32,
        wire_bytes: usize,
    ) -> Result<HandleId, DirectError> {
        self.charge_registration(wire_bytes);
        self.san_ctx();
        self.m.direct.create_handle_wire(
            self.pe,
            recv,
            oob,
            DirectCb {
                target: self.me,
                kind: CbKind::User(tag),
            },
            wire_bytes,
        )
    }

    /// Strided `create_handle` (the paper's proposed extension): puts land
    /// scattered into `backing` per `spec` — e.g. straight into a matrix
    /// column — with the scatter copy charged at delivery.
    pub fn direct_create_handle_strided(
        &mut self,
        backing: Region,
        spec: StridedSpec,
        oob: u64,
        tag: u32,
    ) -> Result<HandleId, DirectError> {
        self.charge_registration(spec.payload_len());
        self.san_ctx();
        self.m.direct.create_handle_strided(
            self.pe,
            backing,
            spec,
            oob,
            DirectCb {
                target: self.me,
                kind: CbKind::User(tag),
            },
        )
    }

    /// Strided `assoc_local`: puts gather their payload from `backing` per
    /// `spec`, with the gather copy charged at put.
    pub fn direct_assoc_local_strided(
        &mut self,
        handle: HandleId,
        backing: Region,
        spec: StridedSpec,
    ) -> Result<(), DirectError> {
        self.charge_registration(spec.payload_len());
        let now = self.san_ctx();
        self.m
            .direct
            .assoc_local_strided(handle, self.pe, backing, spec)
            .map_err(|e| self.san_fail(now, handle, DirectOp::Assoc, e))
    }

    /// `CkDirect_assocLocal`: bind this chare's `send` buffer to a handle
    /// created by the receiver. Also a one-time registration cost.
    pub fn direct_assoc_local(
        &mut self,
        handle: HandleId,
        send: Region,
    ) -> Result<(), DirectError> {
        self.charge_registration(send.len());
        let now = self.san_ctx();
        self.m
            .direct
            .assoc_local(handle, self.pe, send)
            .map_err(|e| self.san_fail(now, handle, DirectOp::Assoc, e))
    }

    /// `CkDirect_put`: the one-sided transfer. Pays only the RDMA issue
    /// cost on this PE; the receiver pays nothing until its poll sweep
    /// detects the sentinel overwrite (Infiniband) or the delivery callback
    /// fires (Blue Gene/P).
    ///
    /// The returned [`PutOutcome`] reports channel health under fault
    /// injection: a channel that crossed the retransmission threshold
    /// degrades to conventional rendezvous timing ([`PutOutcome::Degraded`])
    /// — the reproduction's stand-in for tearing down a flaky RDMA path.
    /// Delivery semantics are identical in every case; retransmission is the
    /// runtime's job, not the application's.
    pub fn direct_put(&mut self, handle: HandleId) -> Result<PutOutcome, DirectError> {
        // strided sources pay the gather copy here, on the sender
        if let Some(bytes) = self.m.direct.strided_send_bytes(handle)? {
            self.charge_bytes(2 * bytes as u64);
        }
        let now = self.san_ctx();
        let req = self
            .m
            .direct
            .put(handle, self.pe)
            .map_err(|e| self.san_fail(now, handle, DirectOp::Put, e))?;
        let (retries, degraded) = self
            .m
            .stack
            .rel
            .as_ref()
            .map_or((0, false), |r| r.health_of(handle));
        let (outcome, t, proto) = if degraded {
            self.m.stats.rel.degraded_puts += 1;
            let (t, proto) = self.m.net.two_sided(req.src, req.dst, req.bytes, 0, true);
            (PutOutcome::Degraded, t, proto)
        } else {
            let outcome = if retries > 0 {
                PutOutcome::Retried { retries }
            } else {
                PutOutcome::Sent
            };
            let t = self.m.net.put(req.src, req.dst, req.bytes);
            (outcome, t, self.m.backend.put_proto())
        };
        let begin = self.start + self.elapsed;
        self.elapsed += t.send_cpu;
        self.record_put(handle, &req, &t, begin, proto);
        self.m.rel_push(
            begin,
            t.delay,
            (req.src.0, req.dst.0),
            FaultOp::Put,
            Some((handle, req.seq)),
            Ev::DirectLand {
                handle,
                recv_cpu: t.recv_cpu,
            },
        );
        Ok(outcome)
    }

    /// `CkDirect_get` (§2's comparison variant): the receiver *pulls* the
    /// associated send buffer. Unlike a put, the initiator must already
    /// know — through some extra synchronization — that the source data is
    /// ready; the data also pays two wire traversals (request + response)
    /// instead of one. The completion callback fires at the initiator when
    /// the read returns. Provided to quantify why the paper chose put.
    pub fn direct_get(&mut self, handle: HandleId) -> Result<(), DirectError> {
        if let Some(bytes) = self.m.direct.strided_send_bytes(handle)? {
            self.charge_bytes(2 * bytes as u64);
        }
        let now = self.san_ctx();
        let req = self
            .m
            .direct
            .get(handle, self.pe)
            .map_err(|e| self.san_fail(now, handle, DirectOp::Get, e))?;
        let t = self.m.net.get(req.src, req.dst, req.bytes);
        let begin = self.start + self.elapsed;
        self.elapsed += t.send_cpu;
        let proto = self.m.backend.put_proto();
        self.record_put(handle, &req, &t, begin, proto);
        self.m.push_ev(
            begin + t.delay,
            Ev::DirectGetLand {
                handle,
                recv_cpu: t.recv_cpu,
            },
        );
        Ok(())
    }

    /// `CkDirect_ready`: re-arm the channel for the next iteration
    /// (mark + start polling). Purely local: no message, no synchronization.
    pub fn direct_ready(&mut self, handle: HandleId) -> Result<(), DirectError> {
        self.direct_ready_mark(handle)?;
        self.direct_ready_poll_q(handle)
    }

    /// `CkDirect_ReadyMark`: release the buffer and rewrite the out-of-band
    /// pattern, without resuming polling. Call as soon as the data has been
    /// consumed.
    pub fn direct_ready_mark(&mut self, handle: HandleId) -> Result<(), DirectError> {
        let now = self.san_ctx();
        self.m
            .direct
            .ready_mark(handle)
            .map_err(|e| self.san_fail(now, handle, DirectOp::ReadyMark, e))
    }

    /// `CkDirect_ReadyPollQ`: resume polling the handle. Call just before
    /// the phase that expects the next put, so unrelated phases don't pay
    /// the per-handle poll cost (§5.2 of the paper). If the put already
    /// landed, the callback fires right after this invocation returns.
    pub fn direct_ready_poll_q(&mut self, handle: HandleId) -> Result<(), DirectError> {
        let now = self.san_ctx();
        match self.m.direct.ready_poll_q(handle) {
            Ok(Some(cb)) => {
                debug_assert_eq!(
                    self.m.direct.recv_pe(handle),
                    Ok(self.pe),
                    "ready_poll_q from a non-owner PE"
                );
                self.pending.push((cb, handle));
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(self.san_fail(now, handle, DirectOp::ReadyPollQ, e)),
        }
    }

    /// `CkDirect_destroyHandle`: tear the channel down and recycle its
    /// registry slot. Purely local to the receiver. Rejected (and reported
    /// to the sanitizer) while a put is outstanding — destroying a window
    /// the NIC may still write into is a lifecycle race; any handle copy
    /// the sender still holds goes stale and fails with `BadHandle`.
    pub fn direct_destroy(&mut self, handle: HandleId) -> Result<(), DirectError> {
        let now = self.san_ctx();
        self.m
            .direct
            .destroy_handle(handle)
            .map_err(|e| self.san_fail(now, handle, DirectOp::Destroy, e))
    }

    /// The receive window of a channel (the same storage registered at
    /// creation — reading it *is* reading the landed data).
    pub fn direct_recv_region(&self, handle: HandleId) -> Result<Region, DirectError> {
        self.m
            .stack
            .san
            .read_region(self.pe.idx(), self.start + self.elapsed, handle);
        self.m.direct.recv_region(handle)
    }

    /// Broadcast a message to every element of `array` (spanning-tree
    /// distribution, one scheduler delivery per element).
    pub fn broadcast(&mut self, array: ArrayId, msg: Msg) {
        self.m.broadcast_from(self.pe, array, msg);
    }

    // ---- control -----------------------------------------------------------

    /// Stop the machine after this invocation (end of the program).
    pub fn exit(&mut self) {
        self.m.stop = true;
    }

    /// Point the sanitizer's virtual clock at this PE before a direct op,
    /// returning the current virtual time for any follow-up report.
    pub(crate) fn san_ctx(&mut self) -> Time {
        let now = self.start + self.elapsed;
        self.m.stack.san.set_ctx(self.pe.idx(), now);
        now
    }

    /// Report a rejected direct op to the sanitizer. The error still
    /// propagates to the caller — the sanitizer only records the race the
    /// rejection is evidence of.
    pub(crate) fn san_fail(
        &self,
        now: Time,
        handle: HandleId,
        op: DirectOp,
        err: DirectError,
    ) -> DirectError {
        self.m
            .stack
            .san
            .op_failed(self.pe.idx(), now, handle, op, err);
        err
    }

    /// One-time buffer registration at handle setup, priced by the
    /// completion backend (HCA pinning on Infiniband, free on DCMF and
    /// shared memory).
    pub(crate) fn charge_registration(&mut self, bytes: usize) {
        let reg = self.m.backend.reg_cost(&self.m.net, bytes);
        self.elapsed += reg;
    }

    /// Shared accounting for one-sided transfers (puts, learned puts, gets):
    /// aggregate counters, the per-protocol breakdown, and the layer-stack
    /// issue hook (where the tracer starts the issue→callback latency
    /// clock). `proto` is the caller's because a degraded put records
    /// rendezvous, not RDMA.
    pub(crate) fn record_put(
        &mut self,
        handle: HandleId,
        req: &PutRequest,
        t: &Timing,
        begin: Time,
        proto: Protocol,
    ) {
        self.m.stats.puts += 1;
        self.m.stats.put_bytes += req.bytes as u64;
        self.m.stats.proto.record(proto, req.bytes as u64);
        if self.m.stack.observing() {
            self.m.stack.on_put_issue(&PutIssueInfo {
                pe: self.pe.idx(),
                at: begin,
                dst: req.dst.0,
                handle,
                bytes: req.bytes as u64,
                proto: ProtoClass::from(proto),
                wire_delay: t.delay,
            });
        }
    }
}
