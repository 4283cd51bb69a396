//! Projections-style tracing for the simulated CkDirect runtime.
//!
//! The paper's results are all *decompositions* of where time goes —
//! envelope overhead, scheduler trips, rendezvous round-trips, the
//! ReadyMark/ReadyPollQ polling window — and Charm++ ships the Projections
//! tool to make exactly those visible. This crate is the reproduction's
//! equivalent, built for the deterministic discrete-event machine:
//!
//! * [`TraceEvent`] — a typed, virtual-time-stamped record vocabulary
//!   (message send/deliver, put issue/land, callback fire, poll sweeps,
//!   rendezvous RTS/CTS, reductions, PE busy spans, queue-depth samples),
//!   buffered per PE in bounded [`EventRing`]s with drop counters.
//! * [`Metrics`] — what only the tracer sees: per-protocol and
//!   per-channel [`Hist`] latency histograms (including the
//!   put-issue→callback latency that one-sided systems make so hard to
//!   see), poll occupancy, queue depth, and rendezvous/contribution tallies.
//! * Two exporters — [`chrome_trace_json`] (Perfetto-loadable, one track per
//!   PE) and [`text_summary`] (per-protocol byte/count/latency breakdowns).
//!
//! Each quantity has one owner. Transfer counts and bytes, drops,
//! retransmits and completed reductions are the machine's counters
//! ([`ckd_net::ProtoBreakdown`], [`ckd_net::RelStats`] and the runtime's
//! `MachineStats`); the tracer does not repeat them, and
//! [`text_summary`] is handed them to render.
//!
//! Alongside the virtual-time tracer sits the *host-time* observability
//! stack added for the scheduler-optimization work:
//!
//! * [`Profiler`] — a phase-scoped wall-clock self-profiler ([`Phase`],
//!   [`PhaseStat`]) with mergeable per-worker [`ProfShard`]s; it measures
//!   host time only (plus the event-queue depth it samples per dispatch),
//! * [`Hist`] — the one mergeable log2-bucket histogram, shared by
//!   [`Metrics`] and [`ProfShard`],
//! * [`Snapshot`]/[`SnapshotStream`] — periodic JSONL metric snapshots
//!   keyed by virtual time, checked by [`validate_snapshot_jsonl`].
//!
//! The runtime holds a [`Tracer`] handle: a disabled tracer is a single
//! `Option` discriminant check per instrumentation point, so the hot paths
//! cost nothing measurable when tracing is off. The [`Profiler`] follows
//! the same discipline. All virtual-time output is deterministic: two
//! identical runs export byte-identical traces and snapshot streams.

mod event;
mod export;
mod hist;
mod metrics;
mod prof;
mod ring;
mod snapshot;
mod tracer;

pub use event::{BusyKind, ProtoClass, Record, TraceEvent};
pub use export::{chrome_trace_json, text_summary};
pub use hist::Hist;
pub use metrics::{ChannelStat, Metrics};
pub use prof::{Phase, PhaseStat, ProfConfig, ProfShard, Profiler};
pub use ring::EventRing;
pub use snapshot::{validate_snapshot_jsonl, Snapshot, SnapshotStream};
pub use tracer::{TraceConfig, TraceInner, Tracer};
