//! Fluent construction of a [`Machine`]: pick a completion backend and
//! the optional layers (tracing, profiling, race checking, faults,
//! learning, schedule exploration), then build.
//!
//! ```no_run
//! use ckd_charm::{Machine, TraceConfig};
//! use ckd_net::presets;
//! use ckd_topo::Machine as Topo;
//!
//! let net = presets::ib_abe(Topo::ib_cluster(8, 4));
//! let mut m = Machine::builder(net)
//!     .with_tracing(TraceConfig::default())
//!     .build();
//! ```

use ckd_net::{FabricParams, NetModel, RetryPolicy};
use ckd_race::SanitizerConfig;
use ckd_sim::{FaultPlan, ReorderPolicy};
use ckd_trace::{ProfConfig, TraceConfig};

use crate::backend::Backend;
use crate::config::RtsConfig;
use crate::learn::LearnConfig;
use crate::machine::Machine;

/// Builder returned by [`Machine::builder`]. Every knob has a
/// fabric-matching default: the backend from [`Backend::matching`], the
/// runtime costs from the fabric's [`RtsConfig`] preset, and every
/// optional layer off (tracing, race checking, faults, and learning each
/// cost one branch per hook until enabled).
pub struct MachineBuilder {
    net: NetModel,
    rts: Option<RtsConfig>,
    backend: Option<Backend>,
    tracing: Option<TraceConfig>,
    profiling: Option<ProfConfig>,
    sanitizer: Option<SanitizerConfig>,
    faults: Option<(FaultPlan, RetryPolicy, u32)>,
    learning: Option<LearnConfig>,
    checker: Option<Box<dyn ReorderPolicy>>,
}

impl MachineBuilder {
    pub(crate) fn new(net: NetModel) -> MachineBuilder {
        MachineBuilder {
            net,
            rts: None,
            backend: None,
            tracing: None,
            profiling: None,
            sanitizer: None,
            faults: None,
            learning: None,
            checker: None,
        }
    }

    /// Override the runtime cost configuration (default: the fabric's
    /// preset — [`RtsConfig::ib_abe`] on Infiniband, [`RtsConfig::bgp`] on
    /// DCMF).
    pub fn with_rts(mut self, cfg: RtsConfig) -> Self {
        self.rts = Some(cfg);
        self
    }

    /// Override the put-completion backend (default: [`Backend::matching`]
    /// — [`Backend::IbSentinelPoll`] on Infiniband,
    /// [`Backend::DcmfCallback`] on DCMF, [`Backend::NotifiedPut`] at the
    /// fabric's CQ depth on Slingshot).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Collect a trace: per-PE event rings plus the aggregated metrics
    /// registry (`ckd-trace`).
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Profile the simulator itself: wall-clock phase breakdown of the
    /// dispatch loop, deterministic histograms (put latency, poll batch,
    /// queue depth), and periodic JSONL metric snapshots (`ckd-trace`).
    pub fn with_profiling(mut self, cfg: ProfConfig) -> Self {
        self.profiling = Some(cfg);
        self
    }

    /// Check for put/read races: per-PE vector clocks plus a per-handle
    /// lifecycle state machine fed by the registry's transition probe
    /// (`ckd-race`).
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitizer = Some(cfg);
        self
    }

    /// Enable fault injection and the reliable-delivery machinery that
    /// survives it, with the default [`RetryPolicy`] and a degradation
    /// threshold of 8 cumulative retransmits per channel.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_faults_policy(plan, RetryPolicy::default(), 8)
    }

    /// [`MachineBuilder::with_faults`] with an explicit retransmission
    /// policy and degradation threshold: the retransmit that brings a
    /// channel's cumulative count to `degrade_after` flips its later puts
    /// to rendezvous timing. Only a retransmit degrades, so `0` and `1`
    /// both degrade a channel at its first retransmit; `u32::MAX` never
    /// degrades.
    pub fn with_faults_policy(
        mut self,
        plan: FaultPlan,
        policy: RetryPolicy,
        degrade_after: u32,
    ) -> Self {
        self.faults = Some((plan, policy, degrade_after));
        self
    }

    /// Enable the automatic channel-learning framework for sends routed
    /// through [`crate::Ctx::send_learned`].
    pub fn with_learning(mut self, cfg: LearnConfig) -> Self {
        self.learning = Some(cfg);
        self
    }

    /// Install a schedule-exploration [`ReorderPolicy`] on the event queue
    /// (`ckd-check`): each pop may select any pending event within the
    /// policy's commutation window, and every event is stamped with its
    /// independence footprint. Never combine with `with_faults` — the
    /// reliability plane's events carry the conservative unknown footprint
    /// and would serialize exploration. Without this, the machine is
    /// byte-identical to a checker-free build.
    pub fn with_checker(mut self, policy: Box<dyn ReorderPolicy>) -> Self {
        self.checker = Some(policy);
        self
    }

    /// Construct the machine.
    pub fn build(self) -> Machine {
        let backend = self
            .backend
            .unwrap_or_else(|| Backend::matching(self.net.fabric()));
        let rts = self.rts.unwrap_or_else(|| match self.net.fabric() {
            FabricParams::IbVerbs(_) => RtsConfig::ib_abe(),
            FabricParams::Dcmf(_) => RtsConfig::bgp(),
            FabricParams::Slingshot(_) => RtsConfig::slingshot(),
        });
        let mut m = Machine::with_backend(self.net, rts, backend);
        if let Some(cfg) = self.tracing {
            m.install_tracing(cfg);
        }
        if let Some(cfg) = self.profiling {
            m.install_profiling(cfg);
        }
        if let Some(cfg) = self.sanitizer {
            m.install_sanitizer(cfg);
        }
        if let Some((plan, policy, degrade_after)) = self.faults {
            m.install_faults(plan, policy, degrade_after);
        }
        if let Some(cfg) = self.learning {
            m.install_learning(cfg);
        }
        if let Some(policy) = self.checker {
            m.install_checker(policy);
        }
        m
    }
}
