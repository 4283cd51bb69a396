//! Tunable parameter sets for the fabric models.
//!
//! All durations are [`Time`] values; per-byte costs are expressed in
//! picoseconds per byte (`u64`) so the arithmetic stays integral and
//! deterministic.

use ckd_sim::Time;

/// Wire-level parameters shared by both fabrics.
#[derive(Clone, Copy, Debug)]
pub struct WireParams {
    /// Base one-way latency of a minimal message, excluding hops.
    pub base_latency: Time,
    /// Additional latency per router/switch hop.
    pub per_hop: Time,
    /// Serialization cost per payload byte (inverse bandwidth), ps/B.
    pub ps_per_byte: u64,
    /// Cost per wire packet for packetised (non-RDMA) transfers.
    pub per_packet: Time,
    /// Wire packet size in bytes for packetised transfers.
    pub packet_bytes: usize,
}

impl WireParams {
    /// Pure serialization time for `bytes` of payload.
    #[inline]
    pub fn serialize(&self, bytes: usize) -> Time {
        Time::from_ps(self.ps_per_byte * bytes as u64)
    }

    /// Number of wire packets a packetised transfer of `bytes` needs
    /// (at least one, even for empty payloads: the header packet).
    #[inline]
    pub fn packets(&self, bytes: usize) -> u64 {
        (bytes.max(1)).div_ceil(self.packet_bytes) as u64
    }

    /// Latency of a minimal message over `hops` hops.
    #[inline]
    pub fn latency(&self, hops: u32) -> Time {
        self.base_latency + self.per_hop * hops as u64
    }
}

/// Intra-node (shared-memory) transfer parameters.
#[derive(Clone, Copy, Debug)]
pub struct SharedMemParams {
    /// Base latency of handing a message to a PE on the same node.
    pub latency: Time,
    /// Copy cost through shared memory, ps/B.
    pub ps_per_byte: u64,
}

/// Infiniband verbs parameters (Abe-like clusters).
#[derive(Clone, Copy, Debug)]
pub struct IbParams {
    /// Wire characteristics.
    pub wire: WireParams,
    /// Intra-node path.
    pub shmem: SharedMemParams,
    /// Sender CPU: software send overhead (build descriptor, post send).
    pub o_send: Time,
    /// Receiver CPU: minimal arrival processing for a two-sided message.
    pub o_recv: Time,
    /// Receiver copy cost out of the eager bounce buffers, ps/B.
    pub eager_copy_ps_per_byte: u64,
    /// Sender CPU to issue one RDMA descriptor (used by puts and the data
    /// phase of rendezvous).
    pub rdma_issue: Time,
    /// Fixed cost of registering a memory region with the HCA.
    ///
    /// Rendezvous pays this per transfer (the paper's "memory component" of
    /// the rendezvous cost); CkDirect pays it once at channel setup.
    pub reg_base: Time,
    /// Per-byte part of memory registration (page pinning), ps/B.
    pub reg_ps_per_byte: u64,
    /// Size of the control messages used for RTS/CTS and sync.
    pub control_bytes: usize,
}

/// DCMF parameters (Blue Gene/P).
#[derive(Clone, Copy, Debug)]
pub struct DcmfParams {
    /// Wire characteristics (torus links).
    pub wire: WireParams,
    /// Intra-node path.
    pub shmem: SharedMemParams,
    /// Sender CPU: `DCMF_Send` injection overhead.
    pub o_send: Time,
    /// Receiver CPU: header-handler dispatch for a normal message.
    pub o_recv: Time,
    /// Messages strictly below this size use the *short* handler, which
    /// copies the payload itself (the paper's 224 B threshold).
    pub short_max: usize,
    /// Copy cost in the short-message handler, ps/B.
    pub short_copy_ps_per_byte: u64,
    /// Bytes of Info header accompanying every send (quad-words); CkDirect
    /// uses two quad-words (32 B) to carry the DCMF context.
    pub info_bytes: usize,
    /// Size of control messages (sync, acks).
    pub control_bytes: usize,
}

/// Completion-queue model for notified-RMA fabrics: a notified put deposits
/// a small record into a bounded per-PE completion queue, and the receiver
/// *drains* the queue instead of polling per-handle sentinels.
#[derive(Clone, Copy, Debug)]
pub struct CqParams {
    /// Wire bytes of the notification record riding with each put.
    pub notify_bytes: usize,
    /// Receiver CPU consumed per notification record drained.
    pub drain_per_notification: Time,
    /// Fixed receiver CPU per drain pass (CQ doorbell read, batch setup).
    pub drain_base: Time,
    /// Notifications consumed per drain pass.
    pub drain_batch: usize,
    /// Modeled CQ depth per PE; a put that would overflow it is held back
    /// (backpressure) until the receiver drains.
    pub depth: usize,
}

/// HPE Slingshot-style parameters: a verbs-like RDMA engine (libfabric cost
/// shapes reuse [`IbParams`]) plus the notified-put completion-queue model.
#[derive(Clone, Copy, Debug)]
pub struct SlingshotParams {
    /// RDMA/eager/rendezvous cost shapes of the underlying NIC.
    pub rdma: IbParams,
    /// Notified-put completion-queue model.
    pub cq: CqParams,
}

/// Which fabric a machine uses, with its parameters.
#[derive(Clone, Copy, Debug)]
pub enum FabricParams {
    /// Infiniband verbs (eager / rendezvous / RDMA put).
    IbVerbs(IbParams),
    /// Blue Gene/P DCMF (two-sided active messages only).
    Dcmf(DcmfParams),
    /// HPE Slingshot-style notified RMA (RDMA put + completion queue).
    Slingshot(SlingshotParams),
}

impl FabricParams {
    /// The wire parameters of whichever fabric this is.
    pub fn wire(&self) -> &WireParams {
        match self {
            FabricParams::IbVerbs(p) => &p.wire,
            FabricParams::Dcmf(p) => &p.wire,
            FabricParams::Slingshot(p) => &p.rdma.wire,
        }
    }

    /// The shared-memory parameters of whichever fabric this is.
    pub fn shmem(&self) -> &SharedMemParams {
        match self {
            FabricParams::IbVerbs(p) => &p.shmem,
            FabricParams::Dcmf(p) => &p.shmem,
            FabricParams::Slingshot(p) => &p.rdma.shmem,
        }
    }

    /// True for fabrics with a genuine one-sided RDMA path.
    pub fn has_rdma(&self) -> bool {
        matches!(self, FabricParams::IbVerbs(_) | FabricParams::Slingshot(_))
    }

    /// The completion-queue model a notified-put backend should use on this
    /// fabric. Native on Slingshot; other fabrics get conservative software
    /// defaults so `NotifiedPut` can still be forced onto them in tests.
    pub fn cq(&self) -> CqParams {
        match self {
            FabricParams::Slingshot(p) => p.cq,
            FabricParams::IbVerbs(_) | FabricParams::Dcmf(_) => CqParams {
                notify_bytes: 16,
                drain_per_notification: Time::from_ns(250),
                drain_base: Time::from_ns(400),
                drain_batch: 4,
                depth: 256,
            },
        }
    }

    /// Map a requested protocol onto one this fabric actually implements —
    /// the single normalization point for mismatched protocol/fabric pairs.
    ///
    /// * DCMF has no RDMA: eager, rendezvous, and one-sided puts all
    ///   degenerate to a `DCMF_Send`, exactly as in the paper's BG/P
    ///   implementation.
    /// * Infiniband and Slingshot have no DCMF engine: an active-message
    ///   request falls back to the packetised eager path.
    /// * Control packets are native on every fabric.
    ///
    /// Normalization is idempotent: a protocol the fabric implements maps
    /// to itself.
    pub fn normalize(&self, proto: crate::Protocol) -> crate::Protocol {
        use crate::Protocol;
        match (self, proto) {
            (FabricParams::Dcmf(_), Protocol::Control) => Protocol::Control,
            (FabricParams::Dcmf(_), _) => Protocol::Dcmf,
            (FabricParams::IbVerbs(_) | FabricParams::Slingshot(_), Protocol::Dcmf) => {
                Protocol::Eager
            }
            (FabricParams::IbVerbs(_) | FabricParams::Slingshot(_), p) => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> WireParams {
        WireParams {
            base_latency: Time::from_ns(4700),
            per_hop: Time::from_ns(350),
            ps_per_byte: 1300,
            per_packet: Time::from_ns(300),
            packet_bytes: 4096,
        }
    }

    #[test]
    fn serialize_scales_linearly() {
        let w = wire();
        assert_eq!(w.serialize(0), Time::ZERO);
        assert_eq!(w.serialize(1000), Time::from_ns(1300));
        assert_eq!(w.serialize(2000), w.serialize(1000) * 2);
    }

    #[test]
    fn packet_count() {
        let w = wire();
        assert_eq!(w.packets(0), 1, "empty payload still sends one packet");
        assert_eq!(w.packets(1), 1);
        assert_eq!(w.packets(4096), 1);
        assert_eq!(w.packets(4097), 2);
        assert_eq!(w.packets(500_000), 123);
    }

    #[test]
    fn latency_adds_hops() {
        let w = wire();
        assert_eq!(w.latency(0), Time::from_ns(4700));
        assert_eq!(w.latency(3), Time::from_ns(4700 + 3 * 350));
    }

    #[test]
    fn every_fabric_exposes_a_usable_cq_model() {
        for fabric in [
            FabricParams::IbVerbs(crate::presets::ib_abe_params()),
            FabricParams::Dcmf(crate::presets::bgp_surveyor_params()),
            FabricParams::Slingshot(crate::presets::slingshot_params()),
        ] {
            let cq = fabric.cq();
            assert!(cq.depth > 0, "CQ depth must be positive");
            assert!(cq.drain_batch > 0, "drain batch must be positive");
            assert!(cq.notify_bytes > 0, "notification record has wire bytes");
            assert!(cq.drain_per_notification > Time::ZERO);
        }
        // Slingshot serves its own constants, not the software fallback.
        let ss = FabricParams::Slingshot(crate::presets::slingshot_params());
        assert_eq!(ss.cq().depth, crate::presets::slingshot_params().cq.depth);
        assert_eq!(
            ss.cq().drain_batch,
            crate::presets::slingshot_params().cq.drain_batch
        );
    }
}
