//! Execution statistics gathered by the machine.

use ckd_net::RelStats;
use ckd_sim::Time;

// The per-protocol breakdown lives beside `RelStats` in `ckd-net`, so the
// trace summary can render the machine's counters without owning a copy.
pub use ckd_net::{ProtoBreakdown, ProtoCounters};

/// Per-PE counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Total CPU time this PE spent busy (handlers, overheads, polling).
    pub busy: Time,
    /// Messages delivered through the scheduler.
    pub msgs_delivered: u64,
    /// CkDirect callbacks delivered.
    pub callbacks: u64,
    /// Individual handle checks performed by poll sweeps.
    pub poll_checks: u64,
}

/// Machine-wide counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Messages sent (scheduler path).
    pub msgs_sent: u64,
    /// Payload bytes sent on the scheduler path (envelopes excluded).
    pub msg_bytes: u64,
    /// CkDirect puts issued.
    pub puts: u64,
    /// Bytes moved by CkDirect puts.
    pub put_bytes: u64,
    /// Reductions completed (generations across all arrays).
    pub reductions: u64,
    /// Events processed by the simulation core.
    pub events: u64,
    /// Notification records drained from completion queues, summed over
    /// every PE (notified-put backend only; zero elsewhere).
    pub cq_drains: u64,
    /// Per-protocol breakdown of every modeled transfer.
    pub proto: ProtoBreakdown,
    /// Reliability-layer counters (all zero when faults are disabled).
    /// Retransmits live here and *only* here: `puts`/`msgs_sent` count each
    /// application-level transfer exactly once however many times the fault
    /// plane forced it back onto the wire.
    pub rel: RelStats,
}
