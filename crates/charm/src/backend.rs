//! Pluggable put-completion backends — the paper's central architectural
//! split, made explicit.
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
//! A [`CompletionBackend`] owns that whole axis: how the channel registry
//! is configured (ready/re-arm semantics, sentinel word layout), whether
//! the per-PE scheduler runs a poll sweep, which protocol family a healthy
//! one-sided transfer is accounted under, and what buffer registration
//! costs. [`matching_backend`] is the one-line fabric lookup the builder
//! defaults to ([`crate::MachineBuilder::with_backend`] overrides it).

use ckd_net::{FabricParams, NetModel, Protocol};
use ckd_sim::Time;
use ckdirect::{DirectBackend, DirectConfig};

/// How a backend lays out the completion word in the receive window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SentinelLayout {
    /// The last 8 bytes of the window hold an out-of-band pattern chosen
    /// by the application (a value real payloads never end with); the
    /// landing overwrites it — under fault injection with the put sequence
    /// number and CRC folded in — and a poll sweep detects the change.
    OobWord,
    /// No sentinel: the transport invokes the completion callback itself
    /// at delivery, so the window carries payload only.
    None,
    /// A cache-coherent completion flag adjacent to the window, observed
    /// directly by the consuming scheduler (intra-node transport).
    Flag,
}

/// One put-completion mechanism: the policy object behind
/// [`crate::Machine`]'s CkDirect integration.
///
/// Implementations decide, in one place, everything that used to be
/// scattered `has_rdma()` / `Protocol::Dcmf` conditionals across the
/// scheduler loop and [`crate::Ctx`]:
///
/// | decision                    | method                |
/// |-----------------------------|-----------------------|
/// | registry wiring / re-arm    | [`direct_config`]     |
/// | scheduler poll sweep        | [`polls`]             |
/// | accounting protocol family  | [`put_proto`]         |
/// | handle registration cost    | [`reg_cost`]          |
/// | completion word layout      | [`sentinel`]          |
///
/// [`direct_config`]: CompletionBackend::direct_config
/// [`polls`]: CompletionBackend::polls
/// [`put_proto`]: CompletionBackend::put_proto
/// [`reg_cost`]: CompletionBackend::reg_cost
/// [`sentinel`]: CompletionBackend::sentinel
pub trait CompletionBackend {
    /// Stable identifier for tests, logs, and reports.
    fn name(&self) -> &'static str;

    /// Channel-registry configuration this backend requires (completion
    /// style and collision detection for the sentinel word).
    fn direct_config(&self) -> DirectConfig;

    /// Whether the per-PE scheduler runs a sentinel poll sweep between
    /// iterations. Polling backends pay `poll_per_handle` per armed handle
    /// per sweep; callback backends pay the receive handler per landing
    /// instead.
    fn polls(&self) -> bool;

    /// Protocol family a healthy one-sided transfer is recorded under in
    /// the per-protocol breakdowns (a fault-degraded put records
    /// rendezvous regardless).
    fn put_proto(&self) -> Protocol;

    /// One-time cost of registering a `bytes`-sized buffer with the NIC at
    /// handle setup. Registration is a property of the fabric (HCA page
    /// pinning on Infiniband, nonexistent on DCMF), so the default
    /// delegates to the network model; backends with no NIC involvement
    /// override to zero.
    fn reg_cost(&self, net: &NetModel, bytes: usize) -> Time {
        net.reg_cost(bytes)
    }

    /// The completion-word layout put landings are detected by.
    fn sentinel(&self) -> SentinelLayout;

    /// Whether the per-PE scheduler drains a bounded notification
    /// completion queue between iterations (the notified-RMA mechanism).
    /// Mutually exclusive with [`polls`] in every shipped backend: a
    /// machine either sweeps sentinels, drains a CQ, or relies on the
    /// transport's delivery callback.
    ///
    /// [`polls`]: CompletionBackend::polls
    fn drains_cq(&self) -> bool {
        false
    }
}

/// Infiniband sentinel polling (the paper's Abe implementation): puts land
/// silently and the receiving scheduler discovers them by sweeping the
/// out-of-band word of every armed handle.
#[derive(Clone, Copy, Debug, Default)]
pub struct IbSentinelPoll;

impl CompletionBackend for IbSentinelPoll {
    fn name(&self) -> &'static str {
        "ib-sentinel-poll"
    }

    fn direct_config(&self) -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::IbPoll,
            cq_depth: 0,
        }
    }

    fn polls(&self) -> bool {
        true
    }

    fn put_proto(&self) -> Protocol {
        Protocol::RdmaPut
    }

    fn sentinel(&self) -> SentinelLayout {
        SentinelLayout::OobWord
    }
}

/// BG/P DCMF active-message callbacks (the paper's Surveyor
/// implementation): the transport invokes the completion callback at
/// delivery; no sentinel, no polling, registration is free.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcmfCallback;

impl CompletionBackend for DcmfCallback {
    fn name(&self) -> &'static str {
        "dcmf-callback"
    }

    fn direct_config(&self) -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::DcmfCallback,
            cq_depth: 0,
        }
    }

    fn polls(&self) -> bool {
        false
    }

    fn put_proto(&self) -> Protocol {
        Protocol::Dcmf
    }

    fn sentinel(&self) -> SentinelLayout {
        SentinelLayout::None
    }
}

/// Cache-coherent completion flags for intra-node machines: the put is a
/// memcpy through shared memory and the landing is observed directly, so
/// there is no poll sweep and no NIC registration. Delivery rides the
/// callback path (the flag store *is* the delivery notice).
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedMem;

impl CompletionBackend for SharedMem {
    fn name(&self) -> &'static str {
        "shared-mem"
    }

    fn direct_config(&self) -> DirectConfig {
        DirectConfig {
            backend: DirectBackend::DcmfCallback,
            cq_depth: 0,
        }
    }

    fn polls(&self) -> bool {
        false
    }

    fn put_proto(&self) -> Protocol {
        Protocol::RdmaPut
    }

    fn reg_cost(&self, _net: &NetModel, _bytes: usize) -> Time {
        Time::ZERO
    }

    fn sentinel(&self) -> SentinelLayout {
        SentinelLayout::Flag
    }
}

/// Notified RMA (Slingshot-class fabrics): each put carries a small
/// notification record that the NIC deposits in a bounded per-PE
/// completion queue when the payload lands. The receiving scheduler
/// *drains* the queue — O(notifications) per sweep rather than O(armed
/// handles) — and a put that would overflow the CQ is held back at the
/// NIC until the receiver drains (backpressure, never data loss). As
/// in the paper, the receiving scheduler is the only drainer: there is no
/// separate progress thread, so a PE deep in a long handler drains
/// nothing and its senders wait.
#[derive(Clone, Copy, Debug)]
pub struct NotifiedPut {
    /// Modeled depth of the per-PE notification completion queue.
    pub cq_depth: usize,
}

impl NotifiedPut {
    /// Backend with an explicit CQ depth (clamped to at least 1).
    pub fn with_depth(cq_depth: usize) -> NotifiedPut {
        NotifiedPut {
            cq_depth: cq_depth.max(1),
        }
    }
}

impl Default for NotifiedPut {
    /// The Slingshot preset's CQ depth.
    fn default() -> NotifiedPut {
        NotifiedPut { cq_depth: 1024 }
    }
}

impl CompletionBackend for NotifiedPut {
    fn name(&self) -> &'static str {
        "notified-put"
    }

    fn direct_config(&self) -> DirectConfig {
        DirectConfig::notified(self.cq_depth)
    }

    fn polls(&self) -> bool {
        false
    }

    fn put_proto(&self) -> Protocol {
        Protocol::RdmaPut
    }

    fn sentinel(&self) -> SentinelLayout {
        SentinelLayout::None
    }

    fn drains_cq(&self) -> bool {
        true
    }
}

/// The backend that matches `fabric` — the builder's default:
/// sentinel polling on Infiniband, delivery callbacks on DCMF, CQ
/// notifications on Slingshot (depth taken from the fabric's CQ model).
pub fn matching_backend(fabric: &FabricParams) -> Box<dyn CompletionBackend> {
    match fabric {
        FabricParams::IbVerbs(_) => Box::new(IbSentinelPoll),
        FabricParams::Dcmf(_) => Box::new(DcmfCallback),
        FabricParams::Slingshot(_) => Box::new(NotifiedPut::with_depth(fabric.cq().depth)),
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
        assert_eq!(matching_backend(ib.fabric()).name(), "ib-sentinel-poll");
        assert_eq!(matching_backend(bgp.fabric()).name(), "dcmf-callback");
        assert_eq!(matching_backend(ss.fabric()).name(), "notified-put");
    }

    #[test]
    fn backends_own_their_completion_split() {
        let ib = IbSentinelPoll;
        let bgp = DcmfCallback;
        let shm = SharedMem;
        let np = NotifiedPut::default();
        assert!(ib.polls() && !bgp.polls() && !shm.polls() && !np.polls());
        assert!(np.drains_cq() && !ib.drains_cq() && !bgp.drains_cq() && !shm.drains_cq());
        assert_eq!(ib.sentinel(), SentinelLayout::OobWord);
        assert_eq!(bgp.sentinel(), SentinelLayout::None);
        assert_eq!(shm.sentinel(), SentinelLayout::Flag);
        assert_eq!(np.sentinel(), SentinelLayout::None);
        assert_eq!(ib.put_proto(), Protocol::RdmaPut);
        assert_eq!(bgp.put_proto(), Protocol::Dcmf);
        assert_eq!(np.put_proto(), Protocol::RdmaPut);
    }

    #[test]
    fn notified_backend_carries_the_fabric_cq_depth() {
        let ss = presets::slingshot(Topo::ib_cluster(4, 2));
        let backend = matching_backend(ss.fabric());
        let cfg = backend.direct_config();
        assert_eq!(cfg.backend, DirectBackend::NotifiedPut);
        assert_eq!(cfg.cq_depth, ss.fabric().cq().depth);
        // zero depth is clamped rather than wedging every put
        assert_eq!(NotifiedPut::with_depth(0).cq_depth, 1);
    }

    #[test]
    fn registration_is_a_fabric_cost_except_shared_memory() {
        let net = presets::ib_abe(Topo::ib_cluster(4, 2));
        assert_eq!(IbSentinelPoll.reg_cost(&net, 4096), net.reg_cost(4096));
        assert!(IbSentinelPoll.reg_cost(&net, 4096) > Time::ZERO);
        assert_eq!(SharedMem.reg_cost(&net, 4096), Time::ZERO);
        let bgp = presets::bgp_surveyor(Topo::bgp_partition(4));
        assert_eq!(DcmfCallback.reg_cost(&bgp, 4096), Time::ZERO);
    }
}
