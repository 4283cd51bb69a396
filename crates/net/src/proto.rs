//! Reliability protocol state: retry/backoff policy, per-link sequence
//! numbers with receiver-side dedup, and the counters the runtime exposes
//! (the reliability counters and the per-protocol transfer breakdown).
//!
//! This module holds the *state machines* of the reliable-delivery layer;
//! the executor in `ckd-charm` owns the event plumbing (timers, acks,
//! retransmission) and the fault plane in `ckd-sim` decides what the fabric
//! does to each packet. Keeping the pure state here means it can be unit
//! tested without a simulator and reused by both the message path and the
//! one-sided put path.

use std::collections::{BTreeMap, BTreeSet};

use ckd_sim::Time;

use crate::model::Protocol;

/// A directed link between two PEs.
pub type RelLink = (u32, u32);

/// Exponential-backoff retransmission policy.
///
/// Attempt `0` (the first retransmit) waits `base`; each further attempt
/// multiplies by `factor`, saturating at `cap`. The executor arms each
/// attempt's timer at *send* time (`at + timeout(attempt)`), not at the
/// expected arrival. The 100 µs default base is far above the round trip
/// of a small transfer, but a transfer whose wire time exceeds the timeout
/// is retransmitted while it is still arriving, even under a fault plan
/// that injects nothing: a 256 KiB put on IB Abe retransmits twice per put.
/// ROADMAP.md ("A fault plane that injects nothing must not move virtual
/// time") tracks arming the timer from the expected arrival instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout before the first retransmission.
    pub base: Time,
    /// Multiplier applied per subsequent attempt.
    pub factor: u32,
    /// Upper bound on any single timeout.
    pub cap: Time,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Time::from_us(100),
            factor: 2,
            cap: Time::from_us(10_000),
        }
    }
}

impl RetryPolicy {
    /// Timeout to arm after sending attempt number `attempt` (0-based).
    pub fn timeout(&self, attempt: u32) -> Time {
        let mut t = self.base;
        for _ in 0..attempt {
            t = t * u64::from(self.factor);
            if t >= self.cap {
                return self.cap;
            }
        }
        t.min(self.cap)
    }
}

/// Per-link sequence allocation (sender side) and dedup window (receiver
/// side).
///
/// Sequence numbers are 1-based so `0` can mean "nothing landed yet" in
/// channel state. With delayed/reordered delivery a bare high-water mark
/// would wrongly reject late-but-new packets, so the receiver keeps, per
/// link, a compacted window: a high-water mark `hw` (every seq in
/// `1..=hw` has been accepted) plus the sparse set of accepted seqs above
/// it. Whenever the gap below closes, contiguous seqs fold into `hw` and
/// leave the set — so retained state is O(links + reordering window), not
/// O(messages), no matter how long the run.
#[derive(Clone, Debug, Default)]
struct SeqWindow {
    /// All of `1..=hw` accepted.
    hw: u64,
    /// Accepted seqs strictly above `hw` (reordering holes below them).
    above: BTreeSet<u64>,
}

impl SeqWindow {
    fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.hw || !self.above.insert(seq) {
            return false;
        }
        // fold the contiguous run just above the mark back into it
        while self.above.remove(&(self.hw + 1)) {
            self.hw += 1;
        }
        true
    }
}

/// Per-link sequence allocator (sender side) and compacted dedup windows
/// (receiver side); see `SeqWindow` above for the retained-state bound.
#[derive(Clone, Debug, Default)]
pub struct LinkSeqs {
    next: BTreeMap<RelLink, u64>,
    seen: BTreeMap<RelLink, SeqWindow>,
}

impl LinkSeqs {
    /// New empty state.
    pub fn new() -> LinkSeqs {
        LinkSeqs::default()
    }

    /// Sender side: allocate the next sequence number on `link`.
    pub fn alloc(&mut self, link: RelLink) -> u64 {
        let n = self.next.entry(link).or_insert(0);
        *n += 1;
        *n
    }

    /// Receiver side: first sighting of `seq` on `link`? Duplicates return
    /// `false` and must be suppressed by the caller.
    pub fn accept(&mut self, link: RelLink, seq: u64) -> bool {
        self.seen.entry(link).or_default().accept(seq)
    }

    /// Number of receiver-side links with dedup state.
    pub fn links(&self) -> usize {
        self.seen.len()
    }

    /// Seqs retained above the per-link high-water marks — the memory the
    /// dedup table actually holds beyond one integer per link. Stays
    /// bounded by the in-flight reordering window, not by run length.
    pub fn retained(&self) -> usize {
        self.seen.values().map(|w| w.above.len()).sum()
    }
}

/// Reliability-layer counters, surfaced through `MachineStats`.
///
/// "Injected" counters mirror what the fault plane did to this run's
/// packets; the rest measure the recovery machinery's reaction. App-visible
/// aggregates (`puts`, `msgs_sent`, …) count each logical operation once —
/// retransmissions only show up here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Acks received by senders.
    pub acks: u64,
    /// Acks the fault plane destroyed in flight.
    pub acks_lost: u64,
    /// Retransmission timers that fired.
    pub timeouts: u64,
    /// Packets retransmitted.
    pub retries: u64,
    /// Packets the fault plane dropped.
    pub drops_injected: u64,
    /// Packets the fault plane duplicated.
    pub dups_injected: u64,
    /// Packets the fault plane corrupted.
    pub corrupts_injected: u64,
    /// Packets the fault plane delayed or stalled.
    pub delays_injected: u64,
    /// Duplicate arrivals suppressed by seqno dedup before delivery.
    pub dups_suppressed: u64,
    /// Corrupted arrivals detected (CRC for puts, link CRC for messages)
    /// and discarded without delivery.
    pub corrupt_detected: u64,
    /// Channels degraded from direct RDMA to rendezvous timing.
    pub degraded_channels: u64,
    /// Puts issued over a degraded channel.
    pub degraded_puts: u64,
}

impl RelStats {
    /// Total faults the plane injected into this run.
    pub fn injected(&self) -> u64 {
        self.drops_injected + self.dups_injected + self.corrupts_injected + self.delays_injected
    }
}

/// Transfer count and payload bytes for one protocol family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtoCounters {
    /// Transfers issued.
    pub count: u64,
    /// Payload bytes moved (envelopes excluded, like `msg_bytes`).
    pub bytes: u64,
}

/// Per-protocol transfer breakdown, surfaced through `MachineStats::proto`
/// and rendered by the trace summary. Fed from the same instrumentation
/// points as the aggregate counters: `eager + rendezvous + dcmf`
/// reconciles with `msgs_sent`/`msg_bytes`, `rdma_put` (plus `dcmf` puts on
/// non-RDMA fabrics) with `puts`/`put_bytes`, and `control` counts the
/// reduction/broadcast/handle-shipping control packets that the aggregates
/// deliberately exclude.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtoBreakdown {
    /// Two-sided sends below the eager threshold.
    pub eager: ProtoCounters,
    /// Two-sided sends that paid the RTS/CTS rendezvous handshake.
    pub rendezvous: ProtoCounters,
    /// One-sided RDMA puts (the CkDirect data path on Infiniband).
    pub rdma_put: ProtoCounters,
    /// DCMF active messages (every transfer on Blue Gene/P).
    pub dcmf: ProtoCounters,
    /// Small fixed-size control traffic (reduction hops, broadcast
    /// forwarding, learned-channel handle shipping).
    pub control: ProtoCounters,
}

impl ProtoBreakdown {
    /// Account one transfer of `bytes` payload bytes under `proto`.
    pub fn record(&mut self, proto: Protocol, bytes: u64) {
        let slot = match proto {
            Protocol::Eager => &mut self.eager,
            Protocol::Rendezvous { .. } => &mut self.rendezvous,
            Protocol::RdmaPut => &mut self.rdma_put,
            Protocol::Dcmf => &mut self.dcmf,
            Protocol::Control => &mut self.control,
        };
        slot.count += 1;
        slot.bytes += bytes;
    }

    /// Sum over every protocol family.
    pub fn total(&self) -> ProtoCounters {
        let mut t = ProtoCounters::default();
        for c in [
            self.eager,
            self.rendezvous,
            self.rdma_put,
            self.dcmf,
            self.control,
        ] {
            t.count += c.count;
            t.bytes += c.bytes;
        }
        t
    }

    /// The two-sided message families (what `msgs_sent` counts).
    pub fn two_sided(&self) -> ProtoCounters {
        ProtoCounters {
            count: self.eager.count + self.rendezvous.count + self.dcmf.count,
            bytes: self.eager.bytes + self.rendezvous.bytes + self.dcmf.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout(0), Time::from_us(100));
        assert_eq!(p.timeout(1), Time::from_us(200));
        assert_eq!(p.timeout(2), Time::from_us(400));
        assert_eq!(p.timeout(7), Time::from_us(10_000), "saturates at cap");
        assert_eq!(
            p.timeout(30),
            Time::from_us(10_000),
            "no overflow far past cap"
        );
    }

    #[test]
    fn custom_policy_respects_cap_below_base_growth() {
        let p = RetryPolicy {
            base: Time::from_us(50),
            factor: 10,
            cap: Time::from_us(60),
        };
        assert_eq!(p.timeout(0), Time::from_us(50));
        assert_eq!(p.timeout(1), Time::from_us(60));
    }

    #[test]
    fn seqnos_are_per_link_and_one_based() {
        let mut s = LinkSeqs::new();
        assert_eq!(s.alloc((0, 1)), 1);
        assert_eq!(s.alloc((0, 1)), 2);
        assert_eq!(s.alloc((1, 0)), 1, "reverse direction is its own link");
        assert_eq!(s.alloc((0, 2)), 1);
    }

    #[test]
    fn dedup_accepts_once_even_out_of_order() {
        let mut s = LinkSeqs::new();
        assert!(s.accept((0, 1), 3), "late-but-new seq accepted");
        assert!(s.accept((0, 1), 1), "earlier seq still accepted (reorder)");
        assert!(!s.accept((0, 1), 3), "duplicate rejected");
        assert!(!s.accept((0, 1), 1));
        assert!(s.accept((2, 1), 3), "other links unaffected");
    }

    #[test]
    fn dedup_compacts_below_the_high_water_mark() {
        let mut s = LinkSeqs::new();
        // in-order traffic folds straight into the mark: nothing retained
        for seq in 1..=10_000 {
            assert!(s.accept((0, 1), seq));
        }
        assert_eq!(s.links(), 1);
        assert_eq!(s.retained(), 0, "contiguous seqs must compact away");
        // a hole pins only the seqs above it
        assert!(s.accept((0, 1), 10_002));
        assert!(s.accept((0, 1), 10_003));
        assert_eq!(s.retained(), 2);
        // filling the hole drains the whole run above it
        assert!(s.accept((0, 1), 10_001));
        assert_eq!(s.retained(), 0);
        // compaction must not forget what it folded in
        assert!(!s.accept((0, 1), 1), "compacted seq still a duplicate");
        assert!(!s.accept((0, 1), 10_003));
        assert!(s.accept((0, 1), 10_004), "fresh seq after the drain");
    }

    #[test]
    fn dedup_reordered_storm_stays_bounded() {
        let mut s = LinkSeqs::new();
        // deliver 4k seqs in pair-swapped order (2,1,4,3,...): the window
        // never holds more than one seq per swap
        let mut peak = 0;
        for base in (1..4000u64).step_by(2) {
            assert!(s.accept((3, 4), base + 1));
            peak = peak.max(s.retained());
            assert!(s.accept((3, 4), base));
            peak = peak.max(s.retained());
        }
        assert!(peak <= 1, "window peaked at {peak}");
        assert_eq!(s.retained(), 0);
    }

    #[test]
    fn injected_sums_fault_counters() {
        let s = RelStats {
            drops_injected: 3,
            dups_injected: 2,
            corrupts_injected: 1,
            delays_injected: 4,
            ..RelStats::default()
        };
        assert_eq!(s.injected(), 10);
    }
}
