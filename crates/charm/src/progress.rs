//! Async software progress for the notified-put backend.
//!
//! Notified RMA decouples *landing* from *delivery*: the NIC deposits a
//! notification record in the receiver's bounded completion queue, and
//! somebody has to drain it. By default that somebody is the receiving
//! scheduler, between iterations — which reproduces the classic MPI
//! progress problem: a PE deep in a compute kernel drains nothing, and
//! senders eventually stall on CQ backpressure.
//!
//! The progress engine models the standard fix — a software progress
//! thread (the design space surveyed by Si et al., arXiv:1609.08574) — as
//! a periodic virtual-time tick per PE: whenever the PE's completion queue
//! is non-empty, a `Ev::ProgressTick` fires at the
//! next multiple of [`ProgressConfig::tick`] and drains up to one CQ batch
//! at the fabric's modeled drain cost, delivering completion callbacks
//! exactly as a scheduler-driven drain would. Ticks are armed lazily (only
//! while the CQ is non-empty), so an idle machine quiesces and the run
//! terminates.
//!
//! Delivered data is byte-identical with the engine on or off — only the
//! *timing* of drains moves. `tests/proptest_invariants.rs` proves that
//! transparency over arbitrary put interleavings.

use std::fmt;

use ckd_sim::Time;
use ckd_topo::Pe;

use crate::machine::{Ev, Machine};

/// Configuration for the modeled software-progress engine.
#[derive(Clone, Copy, Debug)]
pub struct ProgressConfig {
    /// Virtual-time cadence of the progress thread: a pending notification
    /// is drained at the next multiple of this period.
    pub tick: Time,
}

impl Default for ProgressConfig {
    /// A 5 µs tick: coarse enough that the progress thread's drain cost
    /// stays in the noise, fine enough to bound delivery latency under a
    /// busy scheduler.
    fn default() -> ProgressConfig {
        ProgressConfig {
            tick: Time::from_us(5),
        }
    }
}

/// Why a [`crate::MachineBuilder`] refused to construct a machine. The
/// builder's combination rules used to be scattered asserts that fired
/// deep inside `build()` (or worse, panics mid-run); `try_build` names
/// each illegal combination instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `with_checker` + `with_progress`: the reorder policies shipped with
    /// `ckd-check` have no commutation rule for progress ticks, so
    /// certification would explore schedules the serial machine can never
    /// produce. Drop one of the two.
    CheckerWithProgress,
    /// `with_progress` on a backend that never drains a completion queue
    /// (sentinel polling, DCMF callbacks, shared memory): the tick would
    /// have nothing to do, which is almost certainly a misconfiguration.
    ProgressWithoutCq,
    /// `with_progress(tick == 0)`: a zero-period tick would re-arm itself
    /// at the same virtual instant forever.
    ZeroProgressTick,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BuildError::CheckerWithProgress => {
                "with_checker cannot combine with with_progress: no reorder \
                 policy models progress-tick commutation"
            }
            BuildError::ProgressWithoutCq => {
                "with_progress requires a CQ-draining backend (notified-put); \
                 this backend has no completion queue to drain"
            }
            BuildError::ZeroProgressTick => {
                "with_progress tick must be nonzero: a zero-period tick never \
                 advances virtual time"
            }
        };
        f.write_str(s)
    }
}

impl std::error::Error for BuildError {}

/// Runtime state of the enabled progress engine.
pub(crate) struct ProgressState {
    pub(crate) tick: Time,
    /// Per-PE "a tick is already in the queue" latch, so a burst of
    /// landings arms at most one tick.
    pub(crate) armed: Vec<bool>,
}

impl Machine {
    pub(crate) fn install_progress(&mut self, cfg: ProgressConfig) {
        let npes = self.npes();
        self.progress = Some(ProgressState {
            tick: cfg.tick,
            armed: vec![false; npes],
        });
    }

    /// Arm a progress tick for `pe` at the next tick boundary, if the
    /// engine is enabled and none is pending. Called on every notified
    /// landing and after any drain that leaves the CQ non-empty.
    pub(crate) fn arm_progress_tick(&mut self, pe: Pe) -> bool {
        let Some(prog) = self.progress.as_mut() else {
            return false;
        };
        if prog.armed[pe.idx()] {
            return true;
        }
        prog.armed[pe.idx()] = true;
        let period = prog.tick.as_ps().max(1);
        // the next multiple of the period at or after now — the progress
        // thread runs on its own cadence, not relative to the landing
        let at = Time::from_ps(self.now.as_ps().div_ceil(period) * period);
        let at = if at > self.now { at } else { at + prog.tick };
        self.push_ev(at, Ev::ProgressTick { pe });
        true
    }
}
