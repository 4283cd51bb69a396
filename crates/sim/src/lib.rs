//! Deterministic discrete-event simulation core.
//!
//! This crate is the foundation of the CkDirect reproduction: every
//! experiment in the paper is regenerated on a virtual machine whose clock is
//! a [`Time`] in integer picoseconds and whose causality is an [`EventQueue`].
//!
//! Design goals:
//!
//! * **Determinism** — identical inputs produce bit-identical schedules.
//!   Ties in the event queue are broken by insertion sequence number, and all
//!   randomness flows through [`rng::DetRng`] seeded streams.
//! * **No wall-clock leakage** — nothing in this crate reads the host clock;
//!   virtual results are independent of the machine running the simulation.
//! * **Cheap events** — the queue coalesces same-timestamp pushes into
//!   FIFO runs under a min-heap of 16-byte run entries, so a burst at one
//!   instant costs one heap entry and sifts never move a payload; payloads
//!   are generic so higher layers can use plain enums instead of boxed
//!   closures on the hot path.

pub mod events;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{EventMeta, EventQueue, IdentityPolicy, ReorderPolicy};
pub use fault::{FaultAction, FaultCounts, FaultKind, FaultOp, FaultPlan, FaultProbs, Link};
pub use rng::DetRng;
pub use stats::{OnlineStats, Sampler};
pub use time::Time;
