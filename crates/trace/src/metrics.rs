//! Aggregated metrics fed from the same instrumentation points as the event
//! rings.
//!
//! Only what the machine does not count itself lives here: latency,
//! poll-occupancy and queue-depth histograms, per-channel stats, and the
//! rendezvous/reduction-contribution tallies. Transfer counts and bytes,
//! drops, retries and completed reductions have one owner, the machine's
//! `MachineStats`, which [`crate::text_summary`] is handed to render them.
//!
//! Everything here is deterministic: per-protocol tables are fixed-size
//! arrays indexed by [`ProtoClass::index`], and per-channel stats live in a
//! `BTreeMap` so iteration order never depends on hashing.

use std::collections::BTreeMap;

use ckd_sim::Time;

use crate::event::ProtoClass;
use crate::hist::Hist;

/// Per-channel (per-handle) CkDirect statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStat {
    /// Puts issued on this channel.
    pub puts: u64,
    /// Payloads landed and delivered on this channel.
    pub deliveries: u64,
    /// Payload bytes put through this channel.
    pub bytes: u64,
    /// Put-issue → callback-fire latency, in nanoseconds.
    pub put_to_callback_ns: Hist,
}

impl ChannelStat {
    /// Mean issue→callback latency in nanoseconds; 0 without completions.
    pub fn mean_put_latency_ns(&self) -> f64 {
        self.put_to_callback_ns.mean()
    }
}

/// The metrics registry attached to an enabled tracer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Modeled end-to-end delay per transfer in nanoseconds, one
    /// histogram per protocol class, indexed by [`ProtoClass::index`].
    pub proto_latency_ns: [Hist; ProtoClass::COUNT],
    /// Put-issue → callback-fire latency across all channels (ns).
    pub put_to_callback_ns: Hist,
    /// Handles examined per polling sweep.
    pub poll_checked: Hist,
    /// Handles delivered per polling sweep (poll-window occupancy).
    pub poll_delivered: Hist,
    /// Scheduler queue depth sampled at event boundaries.
    pub queue_depth: Hist,
    /// Per-channel stats keyed by handle id (sorted, deterministic).
    pub channels: BTreeMap<u32, ChannelStat>,
    /// Rendezvous RTS packets observed.
    pub rts: u64,
    /// Rendezvous CTS packets observed.
    pub cts: u64,
    /// Reduction contributions observed.
    pub reduce_contribs: u64,
    /// Backoff armed per retransmission, in nanoseconds (exponential
    /// schedule shows up as a geometric ladder across buckets).
    pub backoff_ns: Hist,
}

impl Metrics {
    /// Fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one transfer's modeled delay under its protocol class.
    #[inline]
    pub fn record_transfer(&mut self, proto: ProtoClass, delay: Time) {
        self.proto_latency_ns[proto.index()].record(delay.as_ps() / 1_000);
    }

    /// Record a put-issue → callback latency for `handle`.
    #[inline]
    pub fn record_put_latency(&mut self, handle: u32, delay: Time) {
        let ns = delay.as_ps() / 1_000;
        self.put_to_callback_ns.record(ns);
        self.channels
            .entry(handle)
            .or_default()
            .put_to_callback_ns
            .record(ns);
    }

    /// Delay histogram of one protocol class.
    pub fn proto_latency(&self, p: ProtoClass) -> &Hist {
        &self.proto_latency_ns[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_accounting_by_class() {
        let mut m = Metrics::new();
        m.record_transfer(ProtoClass::Eager, Time::from_us(3));
        m.record_transfer(ProtoClass::Eager, Time::from_us(2));
        m.record_transfer(ProtoClass::RdmaPut, Time::from_us(9));
        assert_eq!(m.proto_latency(ProtoClass::Eager).count(), 2);
        assert_eq!(m.proto_latency(ProtoClass::Eager).sum(), 5_000);
        assert_eq!(m.proto_latency(ProtoClass::RdmaPut).count(), 1);
        assert_eq!(m.proto_latency(ProtoClass::Control).count(), 0);
    }

    #[test]
    fn put_latency_feeds_global_and_channel() {
        let mut m = Metrics::new();
        m.record_put_latency(7, Time::from_us(12));
        m.record_put_latency(7, Time::from_us(14));
        m.record_put_latency(9, Time::from_us(5));
        assert_eq!(m.put_to_callback_ns.count(), 3);
        assert_eq!(m.channels[&7].put_to_callback_ns.count(), 2);
        assert_eq!(m.channels[&9].put_to_callback_ns.count(), 1);
        let handles: Vec<_> = m.channels.keys().copied().collect();
        assert_eq!(handles, vec![7, 9], "BTreeMap keeps deterministic order");
    }
}
