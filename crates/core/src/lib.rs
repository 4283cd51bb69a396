//! **CkDirect** — unsynchronized one-sided communication for a
//! message-driven runtime (reproduction of Bohm et al., ICPP 2009).
//!
//! CkDirect gives iterative applications with stable communication patterns
//! a *persistent, one-way, one-sided put channel* between two chares:
//!
//! 1. The **receiver** calls [`DirectRegistry::create_handle`] with the
//!    destination buffer, an out-of-band 8-byte pattern that can never occur
//!    in real data, and a completion callback.
//! 2. The handle is shipped to the **sender** (by ordinary message), which
//!    binds a local source buffer with [`DirectRegistry::assoc_local`].
//! 3. Each iteration the sender calls [`DirectRegistry::put`]: the payload
//!    lands directly in the receiver's buffer — no envelope, no scheduler
//!    trip, no rendezvous. The runtime detects completion (sentinel poll on
//!    Infiniband, delivery callback on Blue Gene/P) and invokes the
//!    registered callback as a plain function call.
//! 4. After consuming the data the receiver re-arms with
//!    [`DirectRegistry::ready`], or the split
//!    [`DirectRegistry::ready_mark`] / [`DirectRegistry::ready_poll_q`] pair
//!    that bounds the polling window (§5.2 of the paper).
//!
//! The crate has two halves:
//!
//! * [`registry`] + [`region`] + [`channel`] — the simulated-runtime
//!   implementation used by `ckd-charm` to regenerate every table and figure
//!   of the paper on the discrete-event machine.
//! * [`direct`] — a real multi-thread rendering of the same idea: a one-slot
//!   channel where `put` writes the payload into the receiver's buffer and
//!   publishes by overwriting the final word, detected by an acquire-load
//!   poll. This is the Rust-sound version of the paper's out-of-band trick
//!   and is benchmarked against a conventional queue+dispatch message path.

pub mod channel;
pub mod direct;
pub mod error;
pub mod region;
pub mod registry;
pub mod strided;

pub use channel::{DataPhase, DirectBackend, HandleId};
pub use direct::{crc32, CheckedRecv, CheckedStats};
pub use error::DirectError;
pub use region::Region;
pub use registry::{
    DirectConfig, DirectRegistry, LandOutcome, LifecycleProbe, PutRequest, RegistryCounters,
    Transition,
};
pub use strided::StridedSpec;
