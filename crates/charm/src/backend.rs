//! Put-completion backends — the paper's central architectural split, as
//! one value.
//!
//! CkDirect presents one API over two completion-detection mechanisms:
//!
//! * **Infiniband** (NCSA Abe): the receiver plants an out-of-band pattern
//!   in the last 8 bytes of the registered window and the scheduler *polls*
//!   armed handles between iterations; the put is complete when the
//!   sentinel word changed.
//! * **Blue Gene/P** (ANL Surveyor): DCMF delivers an active-message
//!   *callback* when the data lands; nothing is ever polled.
//!
//! A [`Backend`] owns that whole axis. Each decision is one `match`:
//!
//! | decision                    | method                      | IB poll | DCMF   | shared mem | notified |
//! |-----------------------------|-----------------------------|---------|--------|------------|----------|
//! | registry wiring / re-arm    | [`Backend::direct_config`]  | `IbPoll`| `DcmfCallback` | `DcmfCallback` | `NotifiedPut` |
//! | scheduler poll sweep        | [`Backend::polls`]          | yes     | no     | no         | no       |
//! | scheduler CQ drain          | [`Backend::drains_cq`]      | no      | no     | no         | yes      |
//! | accounting protocol family  | [`Backend::put_proto`]      | `RdmaPut` | `Dcmf` | `RdmaPut` | `RdmaPut` |
//! | handle registration cost    | [`Backend::reg_cost`]       | fabric  | fabric | zero       | fabric   |
//!
//! [`Backend::matching`] is the fabric lookup the builder defaults to
//! ([`crate::MachineBuilder::with_backend`] overrides it).

use ckd_net::{FabricParams, NetModel, Protocol};
use ckd_sim::Time;
use ckdirect::{DirectBackend, DirectConfig};

pub use Backend::{DcmfCallback, IbSentinelPoll, NotifiedPut, SharedMem};

/// One put-completion mechanism: the policy value behind
/// [`crate::Machine`]'s CkDirect integration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Infiniband sentinel polling (the paper's Abe implementation): puts
    /// land silently — overwriting the out-of-band word, under fault
    /// injection with the put sequence number and CRC folded in — and the
    /// receiving scheduler discovers them by sweeping every armed handle.
    IbSentinelPoll,
    /// BG/P DCMF active-message callbacks (the paper's Surveyor
    /// implementation): the transport invokes the completion callback at
    /// delivery; no sentinel, no polling, registration is free.
    DcmfCallback,
    /// Cache-coherent completion flags for intra-node machines: the put is
    /// a memcpy through shared memory and the landing is observed
    /// directly, so there is no poll sweep and no NIC registration.
    /// Delivery rides the callback path (the flag store *is* the delivery
    /// notice).
    SharedMem,
    /// Notified RMA (Slingshot-class fabrics): each put carries a small
    /// notification record that the NIC deposits in a bounded per-PE
    /// completion queue when the payload lands. The receiving scheduler
    /// *drains* the queue — O(notifications) per sweep rather than
    /// O(armed handles) — and a put that would overflow the CQ is held
    /// back at the NIC until the receiver drains (backpressure, never data
    /// loss). As in the paper, the receiving scheduler is the only
    /// drainer: a PE deep in a long handler drains nothing and its senders
    /// wait.
    NotifiedPut {
        /// Modeled depth of the per-PE notification completion queue.
        cq_depth: usize,
    },
}

impl Backend {
    /// The backend that matches `fabric` — the builder's default:
    /// sentinel polling on Infiniband, delivery callbacks on DCMF, CQ
    /// notifications on Slingshot (depth taken from the fabric's CQ model).
    pub fn matching(fabric: &FabricParams) -> Backend {
        match fabric {
            FabricParams::IbVerbs(_) => IbSentinelPoll,
            FabricParams::Dcmf(_) => DcmfCallback,
            FabricParams::Slingshot(_) => Backend::notified(fabric.cq().depth),
        }
    }

    /// Notified-put backend with a CQ depth of `cq_depth` (clamped to at
    /// least 1, so a zero depth cannot wedge every put).
    pub fn notified(cq_depth: usize) -> Backend {
        NotifiedPut {
            cq_depth: cq_depth.max(1),
        }
    }

    /// Stable identifier for tests, logs, and reports.
    pub const fn name(self) -> &'static str {
        match self {
            IbSentinelPoll => "ib-sentinel-poll",
            DcmfCallback => "dcmf-callback",
            SharedMem => "shared-mem",
            NotifiedPut { .. } => "notified-put",
        }
    }

    /// Whether the per-PE scheduler runs a sentinel poll sweep between
    /// iterations. Polling pays `poll_per_handle` per armed handle per
    /// sweep; callback backends pay the receive handler per landing.
    pub const fn polls(self) -> bool {
        matches!(self, IbSentinelPoll)
    }

    /// Whether the per-PE scheduler drains a bounded notification
    /// completion queue between iterations. Mutually exclusive with
    /// [`Backend::polls`]: a machine either sweeps sentinels, drains a CQ,
    /// or relies on the transport's delivery callback.
    pub const fn drains_cq(self) -> bool {
        matches!(self, NotifiedPut { .. })
    }

    /// Protocol family a healthy one-sided transfer is recorded under in
    /// the per-protocol breakdowns (a fault-degraded put records
    /// rendezvous regardless).
    pub const fn put_proto(self) -> Protocol {
        match self {
            DcmfCallback => Protocol::Dcmf,
            IbSentinelPoll | SharedMem | NotifiedPut { .. } => Protocol::RdmaPut,
        }
    }

    /// Channel-registry configuration this backend requires (completion
    /// style, collision detection for the sentinel word, CQ depth).
    pub const fn direct_config(self) -> DirectConfig {
        let (backend, cq_depth) = match self {
            IbSentinelPoll => (DirectBackend::IbPoll, 0),
            DcmfCallback | SharedMem => (DirectBackend::DcmfCallback, 0),
            NotifiedPut { cq_depth } => (
                DirectBackend::NotifiedPut,
                if cq_depth == 0 { 1 } else { cq_depth },
            ),
        };
        DirectConfig { backend, cq_depth }
    }

    /// One-time cost of registering a `bytes`-sized buffer at handle
    /// setup: the fabric's NIC registration (HCA page pinning on
    /// Infiniband, nothing on DCMF), except on shared memory, where no NIC
    /// is involved.
    pub fn reg_cost(self, net: &NetModel, bytes: usize) -> Time {
        match self {
            SharedMem => Time::ZERO,
            IbSentinelPoll | DcmfCallback | NotifiedPut { .. } => net.reg_cost(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_net::presets;
    use ckd_topo::Machine as Topo;

    #[test]
    fn matching_backend_follows_the_fabric() {
        let ib = presets::ib_abe(Topo::ib_cluster(4, 2));
        let bgp = presets::bgp_surveyor(Topo::bgp_partition(4));
        let ss = presets::slingshot(Topo::ib_cluster(4, 2));
        let depth = ss.fabric().cq().depth;
        assert_eq!(Backend::matching(ib.fabric()), IbSentinelPoll);
        assert_eq!(Backend::matching(bgp.fabric()), DcmfCallback);
        assert_eq!(Backend::matching(ss.fabric()), Backend::notified(depth));
        assert_eq!(Backend::matching(ib.fabric()).name(), "ib-sentinel-poll");
        assert_eq!(Backend::matching(bgp.fabric()).name(), "dcmf-callback");
        assert_eq!(Backend::matching(ss.fabric()).name(), "notified-put");
        assert_eq!(SharedMem.name(), "shared-mem");
    }

    #[test]
    fn backends_own_their_completion_split() {
        let np = Backend::notified(8);
        // backend, polls, drains_cq, put_proto, registry style
        #[rustfmt::skip]
        let table = [
            (IbSentinelPoll, true, false, Protocol::RdmaPut, DirectBackend::IbPoll),
            (DcmfCallback, false, false, Protocol::Dcmf, DirectBackend::DcmfCallback),
            (SharedMem, false, false, Protocol::RdmaPut, DirectBackend::DcmfCallback),
            (np, false, true, Protocol::RdmaPut, DirectBackend::NotifiedPut),
        ];
        for (b, polls, drains, proto, direct) in table {
            let name = b.name();
            assert_eq!((b.polls(), b.drains_cq()), (polls, drains), "{name}");
            assert_eq!(b.put_proto(), proto, "{name}");
            assert_eq!(b.direct_config().backend, direct, "{name}");
        }
    }

    #[test]
    fn notified_backend_carries_the_fabric_cq_depth() {
        let ss = presets::slingshot(Topo::ib_cluster(4, 2));
        let cfg = Backend::matching(ss.fabric()).direct_config();
        assert_eq!(cfg.backend, DirectBackend::NotifiedPut);
        assert_eq!(cfg.cq_depth, ss.fabric().cq().depth);
        // zero depth is clamped rather than wedging every put
        assert_eq!(Backend::notified(0), NotifiedPut { cq_depth: 1 });
        assert_eq!(NotifiedPut { cq_depth: 0 }.direct_config().cq_depth, 1);
        assert_eq!(DcmfCallback.direct_config().cq_depth, 0);
    }

    #[test]
    fn registration_is_a_fabric_cost_except_shared_memory() {
        let ib = presets::ib_abe(Topo::ib_cluster(4, 2));
        let bgp = presets::bgp_surveyor(Topo::bgp_partition(4));
        let ss = presets::slingshot(Topo::ib_cluster(4, 2));
        assert_eq!(IbSentinelPoll.reg_cost(&ib, 4096), ib.reg_cost(4096));
        assert!(IbSentinelPoll.reg_cost(&ib, 4096) > Time::ZERO);
        assert_eq!(SharedMem.reg_cost(&ib, 4096), Time::ZERO);
        assert_eq!(DcmfCallback.reg_cost(&bgp, 4096), Time::ZERO);
        let np = Backend::matching(ss.fabric());
        assert_eq!(np.reg_cost(&ss, 4096), ss.reg_cost(4096));
    }
}
