//! `ckd-check` — schedule-space model checking and static channel-protocol
//! analysis for the CkDirect simulation suite.
//!
//! Two heads, one question: *is this program's observable behaviour
//! independent of the order in which unsynchronized one-sided operations
//! complete?*
//!
//! **Dynamic half.** A [`policy::ScriptedPolicy`] plugs into the event
//! queue's reorder seam ([`ckd_sim::ReorderPolicy`]) and records every
//! choice point where more than one event sits inside the commutation
//! window. The [`mod@explore`] module re-executes small runs under
//! systematically varied schedules, pruning with a DPOR-style independence
//! relation built on [`ckd_race::Footprint`] tags: two arrivals commute iff
//! they touch different PEs and different channels. Every non-equivalent
//! schedule must reproduce the canonical run's counter digest and sanitizer
//! cleanliness; the first divergence becomes a replayable
//! [`explore::Counterexample`], and a clean sweep becomes a
//! machine-readable certificate ([`cert`]).
//!
//! **Static half.** [`typestate`] parses each function into a statement
//! tree and tracks the handle protocol `create → assoc → armed → put →
//! consumed` across branches and loops — flagging double puts, reads
//! outside completion callbacks, skipped re-arms on one branch arm, puts
//! before assoc, dropped armed handles, use after destroy, and discarded
//! put outcomes and errors. It is the workspace's one static lifecycle
//! checker. [`commgraph`] extracts the
//! entry-point communication graph and reports cycles through the
//! one-sided plane (ready-wait loops).
//!
//! The binary (`ckd-check`) wires both halves into `certify`, `mutant`,
//! `lint`, and `validate` subcommands; `scripts/check.sh` gates on all of
//! them.

pub mod cases;
pub mod cert;
pub mod commgraph;
pub mod explore;
pub mod policy;
pub mod typestate;

pub use cases::CheckCase;
pub use cert::{certificate_json, validate_certificate_json, CaseReport, SCHEMA};
pub use commgraph::{extract as extract_commgraph, CommGraph};
pub use explore::{explore, Counterexample, Exploration, ExploreStats, Outcome};
pub use policy::{Decision, Prescription, ScheduleTrace, ScriptedPolicy};
pub use typestate::{analyze_paths, analyze_source, typestate_gate, TsFinding, TS_RULES};
