//! A message-driven runtime in the Charm++ mould, executing on the
//! deterministic discrete-event machine of `ckd-sim`/`ckd-net`.
//!
//! The runtime supplies everything the paper's baseline needs —
//!
//! * **chare arrays** (1–4-D) of message-driven objects with entry methods,
//! * a **per-PE scheduler**: incoming messages pay envelope processing and a
//!   scheduler dequeue before their handler runs,
//! * **contribute/reduce** over a spanning tree of PEs (sum/min/max and
//!   barrier), with broadcast delivery back to the array,
//!
//! — and wires the CkDirect registry (`ckdirect` crate) into the scheduler:
//! the poll sweep runs between handler executions and charges per-handle
//! cost, puts bypass the envelope/allocation/scheduler path entirely, and
//! completion callbacks are plain function calls into the receiving chare.
//!
//! User code runs *for real* (bytes actually move; Jacobi actually
//! converges) while time is virtual: handlers charge compute through
//! [`Ctx::charge`] and friends, so results are independent of the host.

pub mod array;
pub mod backend;
pub mod builder;
pub mod chare;
pub mod config;
pub mod ctx;
pub(crate) mod exec;
pub(crate) mod layer;
pub mod learn;
pub mod machine;
pub mod msg;
pub mod reduction;
pub(crate) mod rel;
pub mod stats;

pub use array::ArrayId;
pub use backend::Backend;
pub use builder::MachineBuilder;
pub use chare::{Chare, ChareRef};
pub use config::{ComputeParams, RtsConfig};
pub use ctx::{Ctx, PutOutcome};
pub use learn::{LearnConfig, LearningTotals};
pub use machine::Machine;
pub use msg::{EntryId, Msg, Payload};
pub use reduction::{RedOp, RedTarget, RedVal};
pub use stats::{MachineStats, PeStats, ProtoBreakdown, ProtoCounters};
// Tracing and self-profiling entry points, re-exported so applications
// need not depend on `ckd-trace` directly for the common
// enable/export/report flow.
pub use ckd_trace::{
    chrome_trace_json, validate_snapshot_jsonl, Hist, Phase, PhaseStat, ProfConfig, ProfShard,
    Profiler, Snapshot, SnapshotStream, TraceConfig, Tracer,
};
// Fault-injection entry points, likewise re-exported for the common
// enable/inspect flow of chaos tests and experiments.
pub use ckd_net::{RelStats, RetryPolicy};
pub use ckd_sim::{FaultCounts, FaultKind, FaultOp, FaultPlan, FaultProbs};
