//! **ckd-race** — a happens-before sanitizer for the CkDirect layer.
//!
//! CkDirect's premise is that "the application's own iteration structure is
//! the only synchronization": a put lands directly in the receiver's buffer
//! with no envelope and no handshake, so a mis-structured application
//! silently corrupts its own data. On real hardware nothing notices. This
//! crate is the checker the paper's users never had, built on two
//! advantages of the simulated runtime: deterministic virtual time and full
//! event visibility.
//!
//! [`Sanitizer`] is the dynamic checker: per-PE [`VectorClock`]s advance at
//! every scheduler event and join along every happens-before edge the
//! runtime models (message delivery, reduction/broadcast trees, put
//! completion); a per-handle state machine fed by the registry's lifecycle
//! probe flags overwrites, early reads, double puts, skipped re-arms, and —
//! via the clocks — puts that *happened* to work but were causally
//! unsynchronized. Enabled with `Machine::builder(net).with_sanitizer(..)`;
//! a disabled sanitizer is one branch per hook.
//!
//! The static counterpart, which flags lifecycle misuse in source without
//! running it, is the typestate pass of `ckd-check` (`ckd-check lint`).
//!
//! Every [`Diagnostic`] names the two racing events with their PEs and
//! virtual times plus the missing happens-before edge, phrased as the fix.

pub mod clock;
pub mod diag;
pub mod independence;
pub mod sanitizer;

pub use clock::VectorClock;
pub use diag::{Diagnostic, EventRef, RaceKind};
pub use independence::{commutes, Footprint};
pub use sanitizer::{DirectOp, SanCore, Sanitizer, SanitizerConfig};
