//! The paper's workloads, each in a message-based (MSG) and a CkDirect
//! (CKD) variant:
//!
//! * [`pingpong`] — the §3 microbenchmark (Tables 1–2, with the MPI rows
//!   supplied by `ckd-mpi`);
//! * [`jacobi3d`] — the §4.1 halo-exchange stencil (Fig 2);
//! * [`matmul3d`] — the §4.2 Agarwal 3-D matrix multiplication (Fig 3);
//! * [`openatom`] — the §5 mini-OpenAtom GSpace/PairCalculator step
//!   (Figs 4–5), including the `ReadyMark`/`ReadyPollQ` polling
//!   optimization the paper needed to make CkDirect profitable there;
//! * [`chanstorm`] — the §5.2 pathology at modern scale: 100k+ persistent
//!   channels on one PE with a sparse active window, exercising the
//!   registry's slab storage and per-PE ready lists end to end.
//!
//! Every app supports *real* compute (data verified in tests) and
//! *modeled* compute (flops charged, buffers truncated) for figure-scale
//! runs on thousands of simulated PEs.

pub mod chanstorm;
pub mod common;
pub mod jacobi3d;
pub mod matmul3d;
pub mod mutants;
pub mod openatom;
pub mod pingpong;

pub use common::{Platform, Variant};
