//! Host-side self-profiling of the simulator itself.
//!
//! The tracer answers "where does *virtual* time go?"; the profiler
//! answers "where does *host* time go while simulating it?" — the
//! prerequisite for optimizing the scheduler hot path (ROADMAP items 1–2)
//! without guessing. A [`Profiler`] rides next to the `Tracer` inside the
//! machine and follows the same zero-cost discipline: disabled it is one
//! `Option` discriminant check per instrumentation point and the
//! scheduler's unprofiled dispatch loop is not even entered, so a bare
//! machine's golden traces are untouched with the profiler compiled in.
//!
//! Enabled, it collects a [`ProfShard`]:
//!
//! * wall-clock [`PhaseStat`]s per scheduler [`Phase`] (`Instant`-based,
//!   host-dependent, excluded from determinism comparisons), the loop's
//!   total host time, and the dispatched-event count that turns it into
//!   a throughput;
//! * the event-queue depth [`Hist`]ogram sampled after every pop;
//! * a [`SnapshotStream`] of periodic JSONL metric samples keyed by
//!   virtual time (see [`crate::snapshot`]).
//!
//! The profiler measures host time only. Virtual-time quantities — put
//! issue→callback latency, poll batch size, puts issued — have one owner
//! each (the tracer's [`crate::Metrics`] or the machine's counters) and
//! are read from there.
//!
//! Shards merge ([`ProfShard::merge`]), so a parallel sweep can aggregate
//! per-worker profiles into one machine-wide report.

use std::time::Instant;

use crate::hist::Hist;
use crate::snapshot::{Snapshot, SnapshotStream};

/// Where the simulator spends host time, one bucket per scheduler
/// concern. `Sched`, `Backend`, and `Rel` partition event dispatch by
/// event kind; `Poll` and `Layers` are *nested* sub-spans (the poll sweep
/// runs inside a scheduler iteration, the layer fan-out inside every
/// handler), so their totals overlap the dispatch phases rather than
/// summing with them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Scheduler dispatch: message arrivals, PE loop iterations,
    /// reductions, and broadcasts.
    Sched,
    /// CkDirect poll sweeps (nested inside `Sched` PE loops).
    Poll,
    /// Completion-backend work: put/get landings driving the registry.
    Backend,
    /// Reliable-delivery events: fault-plane deliveries, acks, timers.
    Rel,
    /// Runtime-layer-stack fan-out (nested inside the other phases).
    Layers,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;
    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Sched,
        Phase::Poll,
        Phase::Backend,
        Phase::Rel,
        Phase::Layers,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Sched => "sched",
            Phase::Poll => "poll",
            Phase::Backend => "backend",
            Phase::Rel => "rel",
            Phase::Layers => "layers",
        }
    }

    /// Index into a `[_; Phase::COUNT]` table.
    pub fn index(self) -> usize {
        match self {
            Phase::Sched => 0,
            Phase::Poll => 1,
            Phase::Backend => 2,
            Phase::Rel => 3,
            Phase::Layers => 4,
        }
    }
}

/// Wall-clock accumulator for one [`Phase`]. Host-dependent by nature:
/// never compared in determinism tests, only merged and reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Spans recorded.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &PhaseStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One worker's (or one machine's) complete profile. `queue_depth` and
/// `events` are deterministic — byte-identical across runs and worker
/// counts; the phase table and `host_ns` are wall-clock and vary with the
/// host.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfShard {
    /// Wall-clock phase table (host-dependent).
    pub phases: [PhaseStat; Phase::COUNT],
    /// Event-queue depth sampled after each pop (deterministic).
    pub queue_depth: Hist,
    /// Scheduler events dispatched under profiling (deterministic).
    pub events: u64,
    /// Total wall time spent in profiled dispatch loops, nanoseconds
    /// (host-dependent).
    pub host_ns: u64,
}

impl ProfShard {
    /// Fold another shard into this one (sweep aggregation).
    pub fn merge(&mut self, other: &ProfShard) {
        for (p, o) in self.phases.iter_mut().zip(&other.phases) {
            p.merge(o);
        }
        self.queue_depth.merge(&other.queue_depth);
        self.events += other.events;
        self.host_ns += other.host_ns;
    }

    /// Host events/second over the profiled dispatch loops (0.0 before
    /// any wall time was recorded).
    pub fn events_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.host_ns as f64
        }
    }

    /// The full profile report: phase table, throughput line, and the
    /// queue-depth histogram. Wall-clock numbers vary by host; the
    /// histogram section is deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>14} {:>12} {:>12}\n",
            "phase", "spans", "total ms", "avg us", "max us"
        ));
        for ph in Phase::ALL {
            let s = &self.phases[ph.index()];
            let avg_us = if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 / s.count as f64 / 1e3
            };
            out.push_str(&format!(
                "{:<10} {:>12} {:>14.3} {:>12.3} {:>12.3}\n",
                ph.label(),
                s.count,
                s.total_ns as f64 / 1e6,
                avg_us,
                s.max_ns as f64 / 1e3
            ));
        }
        out.push_str("(poll and layers are nested spans; they overlap the dispatch phases)\n");
        out.push_str(&format!(
            "throughput: {:.0} events/s ({} events, {:.3} ms host)\n",
            self.events_per_sec(),
            self.events,
            self.host_ns as f64 / 1e6
        ));
        out.push_str("\nevent-queue depth (sampled per dispatch):\n");
        out.push_str(&self.queue_depth.render("events"));
        out
    }
}

/// Profiling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfConfig {
    /// Emit one JSONL snapshot every this many scheduler events
    /// (0 disables snapshots but keeps the phase/histogram profile).
    pub snapshot_every: u64,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            snapshot_every: 1024,
        }
    }
}

/// Everything an enabled profiler owns; boxed so the disabled state stays
/// one word inside the machine.
#[derive(Debug)]
struct ProfInner {
    cfg: ProfConfig,
    shard: ProfShard,
    snaps: SnapshotStream,
}

/// Zero-cost-when-disabled self-profiling handle, the host-time sibling
/// of the `Tracer`.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<Box<ProfInner>>,
}

impl Profiler {
    /// A profiler that records nothing and costs one branch per call.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// An enabled profiler.
    pub fn enabled(cfg: ProfConfig) -> Profiler {
        Profiler {
            inner: Some(Box::new(ProfInner {
                cfg,
                shard: ProfShard::default(),
                snaps: SnapshotStream::new(),
            })),
        }
    }

    /// True when the profiler is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The collected profile, when enabled.
    pub fn shard(&self) -> Option<&ProfShard> {
        self.inner.as_ref().map(|i| &i.shard)
    }

    /// The snapshot stream as JSONL, when enabled.
    pub fn snapshots_jsonl(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.snaps.as_jsonl())
    }

    /// Snapshot cadence in events, when enabled and non-zero.
    pub fn snapshot_every(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.cfg.snapshot_every)
            .filter(|&n| n > 0)
    }

    /// Start a wall-clock span (None when disabled, so the disabled path
    /// never reads the host clock).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Close a wall-clock span opened by [`Profiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: Phase, t0: Option<Instant>) {
        if let (Some(inner), Some(t0)) = (self.inner.as_deref_mut(), t0) {
            inner.shard.phases[phase.index()].add(t0.elapsed().as_nanos() as u64);
        }
    }

    /// One scheduler event was dispatched; `queue_depth` is the event
    /// queue's length after the pop (deterministic).
    #[inline]
    pub fn event_dispatched(&mut self, queue_depth: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.events += 1;
            inner.shard.queue_depth.record(queue_depth);
        }
    }

    /// Accumulate wall time of one profiled dispatch loop.
    #[inline]
    pub fn add_host_ns(&mut self, ns: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.host_ns += ns;
        }
    }

    /// Append one periodic metric snapshot.
    #[inline]
    pub fn record_snapshot(&mut self, snap: &Snapshot) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.snaps.push(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(p.begin().is_none());
        p.end(Phase::Sched, None);
        p.event_dispatched(4);
        p.add_host_ns(10);
        p.record_snapshot(&Snapshot::default());
        assert!(!p.is_enabled());
        assert!(p.shard().is_none());
        assert!(p.snapshots_jsonl().is_none());
        assert!(p.snapshot_every().is_none());
    }

    #[test]
    fn phase_spans_accumulate() {
        let mut p = Profiler::enabled(ProfConfig { snapshot_every: 0 });
        let t0 = p.begin();
        assert!(t0.is_some());
        p.end(Phase::Poll, t0);
        p.end(Phase::Poll, p.begin());
        let s = p.shard().unwrap();
        assert_eq!(s.phases[Phase::Poll.index()].count, 2);
        assert_eq!(s.phases[Phase::Sched.index()].count, 0);
        assert!(p.snapshot_every().is_none(), "0 cadence disables snapshots");
    }

    #[test]
    fn shards_merge_and_render() {
        let mut a = Profiler::enabled(ProfConfig::default());
        let mut b = Profiler::enabled(ProfConfig::default());
        a.event_dispatched(2);
        b.event_dispatched(9);
        b.add_host_ns(2_000_000);
        let mut merged = a.shard().unwrap().clone();
        merged.merge(b.shard().unwrap());
        assert_eq!(merged.events, 2);
        assert_eq!(merged.host_ns, 2_000_000);
        assert_eq!(merged.queue_depth.count(), 2);
        assert_eq!(merged.queue_depth.sum(), 11);
        let report = merged.render();
        assert!(report.contains("sched"));
        assert!(report.contains("throughput: 1000 events/s (2 events, 2.000 ms host)"));
        assert!(report.contains("event-queue depth"));
    }
}
