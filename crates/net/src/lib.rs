//! Interconnect cost models for the CkDirect reproduction.
//!
//! The paper evaluates on two fabrics whose *mechanisms* differ:
//!
//! * **Infiniband (NCSA Abe)** — Reliable Connection verbs. Three transfer
//!   shapes matter: a packetised *eager* path (extra copies, per-packet
//!   cost), a *rendezvous* path (RTS/CTS round trip + memory registration +
//!   one RDMA write — what default Charm++ uses for large messages), and a
//!   bare *RDMA put* into a pre-registered buffer (what CkDirect uses: no
//!   rendezvous, no registration at transfer time, no receiver CPU).
//! * **Blue Gene/P (ANL Surveyor)** — DCMF active messages. No RDMA path was
//!   available, so every transfer is a two-sided `DCMF_Send`; CkDirect only
//!   avoids the Charm++ envelope, allocation and scheduler trip.
//!
//! A [`NetModel`] maps a `(src PE, dst PE, bytes, protocol)` request to a
//! [`Timing`]: how long the sender's CPU is busy, when the data is fully at
//! the destination, and how much receiver CPU the arrival costs. Everything
//! is a pure function of the parameters, making the enclosing discrete-event
//! simulation deterministic.
//!
//! Calibration constants in [`presets`] are derived in comments from Tables
//! 1–2 of the paper; `EXPERIMENTS.md` records the resulting fit.

pub mod model;
pub mod params;
pub mod presets;
pub mod proto;

pub use model::{NetModel, Protocol, Timing};
pub use params::{
    CqParams, DcmfParams, FabricParams, IbParams, SharedMemParams, SlingshotParams, WireParams,
};
pub use proto::{LinkSeqs, ProtoBreakdown, ProtoCounters, RelStats, RetryPolicy};
