//! The `Tracer` handle the runtime instruments against.
//!
//! A disabled tracer is a single `Option` discriminant check per
//! instrumentation point — no allocation, no ring, no metrics — so hot paths
//! can call it unconditionally. An enabled tracer owns one [`EventRing`] per
//! PE plus the shared [`Metrics`] registry and an outstanding-put table used
//! to measure issue→callback latency.

use std::collections::BTreeMap;

use ckd_sim::Time;

use crate::event::{BusyKind, ProtoClass, Record, TraceEvent};
use crate::metrics::Metrics;
use crate::ring::EventRing;

/// Tracing configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Per-PE ring capacity in records.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 16,
        }
    }
}

/// Everything an enabled tracer owns; boxed so the disabled state stays one
/// word inside the machine.
#[derive(Debug)]
pub struct TraceInner {
    rings: Vec<EventRing>,
    /// The aggregated metrics registry.
    pub metrics: Metrics,
    /// Put issue times awaiting their callback, keyed by handle.
    outstanding: BTreeMap<u32, Time>,
}

/// Zero-cost-when-disabled tracing handle.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TraceInner>>,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer for `pes` processors.
    pub fn enabled(cfg: TraceConfig, pes: usize) -> Tracer {
        Tracer {
            inner: Some(Box::new(TraceInner {
                rings: (0..pes)
                    .map(|_| EventRing::new(cfg.ring_capacity))
                    .collect(),
                metrics: Metrics::new(),
                outstanding: BTreeMap::new(),
            })),
        }
    }

    /// True when records are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Per-PE rings oldest-first, when enabled.
    pub fn rings(&self) -> Option<&[EventRing]> {
        self.inner.as_deref().map(|i| i.rings.as_slice())
    }

    /// Total records evicted across all PE rings.
    pub fn dropped_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.rings.iter().map(|r| r.dropped()).sum())
    }

    #[inline]
    fn push(inner: &mut TraceInner, pe: usize, at: Time, ev: TraceEvent) {
        if let Some(ring) = inner.rings.get_mut(pe) {
            ring.push(Record { at, ev });
        }
    }

    /// A two-sided message left `pe` for `dst`; `delay` is the modeled
    /// end-to-end latency the protocol charged.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat scalar instrumentation call
    pub fn msg_send(
        &mut self,
        pe: usize,
        at: Time,
        dst: u32,
        ep: u32,
        bytes: u64,
        proto: ProtoClass,
        delay: Time,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.record_transfer(proto, delay);
        Self::push(
            inner,
            pe,
            at,
            TraceEvent::MsgSend {
                dst,
                ep,
                bytes,
                proto,
            },
        );
    }

    /// A message's entry method is about to run on `pe`.
    #[inline]
    pub fn msg_deliver(&mut self, pe: usize, at: Time, ep: u32, bytes: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        Self::push(inner, pe, at, TraceEvent::MsgDeliver { ep, bytes });
    }

    /// A CkDirect put was issued on `pe`; starts the issue→callback clock.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat scalar instrumentation call
    pub fn put_issue(
        &mut self,
        pe: usize,
        at: Time,
        dst: u32,
        handle: u32,
        bytes: u64,
        proto: ProtoClass,
        delay: Time,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.record_transfer(proto, delay);
        let ch = inner.metrics.channels.entry(handle).or_default();
        ch.puts += 1;
        ch.bytes += bytes;
        inner.outstanding.insert(handle, at);
        Self::push(
            inner,
            pe,
            at,
            TraceEvent::PutIssue {
                dst,
                handle,
                bytes,
                proto,
            },
        );
    }

    /// A put payload landed in `pe`'s receive buffer.
    #[inline]
    pub fn put_land(&mut self, pe: usize, at: Time, handle: u32, bytes: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.channels.entry(handle).or_default().deliveries += 1;
        Self::push(inner, pe, at, TraceEvent::PutLand { handle, bytes });
    }

    /// The completion callback for `handle` ran on `pe`; closes the
    /// issue→callback clock if a matching issue was seen.
    #[inline]
    pub fn callback_fire(&mut self, pe: usize, at: Time, handle: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if let Some(issued) = inner.outstanding.remove(&handle) {
            inner
                .metrics
                .record_put_latency(handle, at.saturating_sub(issued));
        }
        Self::push(inner, pe, at, TraceEvent::CallbackFire { handle });
    }

    /// One polling sweep over ready handles on `pe`, spanning
    /// `start..end`.
    #[inline]
    pub fn poll_sweep(&mut self, pe: usize, start: Time, end: Time, checked: u32, delivered: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.poll_checked.record(checked as u64);
        inner.metrics.poll_delivered.record(delivered as u64);
        Self::push(
            inner,
            pe,
            end,
            TraceEvent::PollSweep {
                start,
                checked,
                delivered,
            },
        );
    }

    /// A control packet was charged (reduction hop, broadcast forwarding,
    /// handle shipping). Metrics-only: control traffic is too chatty to
    /// ring-buffer individually but still belongs in the per-protocol
    /// latency table.
    #[inline]
    pub fn control_transfer(&mut self, delay: Time) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.record_transfer(ProtoClass::Control, delay);
    }

    /// Rendezvous RTS issued from `pe` toward `dst`.
    #[inline]
    pub fn rts(&mut self, pe: usize, at: Time, dst: u32, bytes: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.rts += 1;
        Self::push(inner, pe, at, TraceEvent::RendezvousRts { dst, bytes });
    }

    /// Rendezvous CTS / payload acceptance observed on `pe` for a transfer
    /// from `src`.
    #[inline]
    pub fn cts(&mut self, pe: usize, at: Time, src: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.cts += 1;
        Self::push(inner, pe, at, TraceEvent::RendezvousCts { src });
    }

    /// `pe` contributed to reduction `red`.
    #[inline]
    pub fn reduce_contribute(&mut self, pe: usize, at: Time, red: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.reduce_contribs += 1;
        Self::push(inner, pe, at, TraceEvent::ReduceContribute { red });
    }

    /// Reduction `red` completed at root `pe`.
    #[inline]
    pub fn reduce_complete(&mut self, pe: usize, at: Time, red: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        Self::push(inner, pe, at, TraceEvent::ReduceComplete { red });
    }

    /// `pe` was busy from `start` to `end` doing `kind`.
    #[inline]
    pub fn busy(&mut self, pe: usize, start: Time, end: Time, kind: BusyKind) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if end > start {
            Self::push(inner, pe, end, TraceEvent::Busy { start, kind });
        }
    }

    /// The fault plane dropped a packet leaving `pe` for `dst`. Called only
    /// when an injected fault actually fires, so fault-free runs carry zero
    /// reliability records.
    #[inline]
    pub fn rel_drop(&mut self, pe: usize, at: Time, dst: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        Self::push(inner, pe, at, TraceEvent::FaultDrop { dst });
    }

    /// The reliability layer on `pe` retransmitted an unacked packet;
    /// `backoff` is the timeout armed for this attempt.
    #[inline]
    pub fn rel_retry(&mut self, pe: usize, at: Time, attempt: u32, backoff: Time) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.backoff_ns.record(backoff.as_ps() / 1_000);
        Self::push(inner, pe, at, TraceEvent::Retransmit { attempt, backoff });
    }

    /// Sample `pe`'s scheduler queue depth at an event boundary: one
    /// histogram sample and one counter record per scheduler trip.
    #[inline]
    pub fn queue_depth(&mut self, pe: usize, at: Time, depth: u32) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.queue_depth.record(depth as u64);
        Self::push(inner, pe, at, TraceEvent::QueueDepth { depth });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.msg_send(
            0,
            Time::from_us(1),
            1,
            0,
            64,
            ProtoClass::Eager,
            Time::from_us(2),
        );
        t.put_issue(
            0,
            Time::from_us(1),
            1,
            3,
            64,
            ProtoClass::RdmaPut,
            Time::from_us(2),
        );
        assert!(!t.is_enabled());
        assert!(t.metrics().is_none());
        assert!(t.rings().is_none());
        assert_eq!(t.dropped_total(), 0);
    }

    #[test]
    fn put_issue_to_callback_latency() {
        let mut t = Tracer::enabled(TraceConfig::default(), 2);
        t.put_issue(
            0,
            Time::from_us(10),
            1,
            5,
            1024,
            ProtoClass::RdmaPut,
            Time::from_us(4),
        );
        t.put_land(1, Time::from_us(14), 5, 1024);
        t.callback_fire(1, Time::from_us(15), 5);
        let m = t.metrics().unwrap();
        assert_eq!(m.put_to_callback_ns.count(), 1);
        // 5 µs = 5000 ns falls in the [4096, 8192) bucket
        let buckets: Vec<_> = m.put_to_callback_ns.iter_nonempty().collect();
        assert_eq!(buckets, [(4096, 1)]);
        assert_eq!(m.channels[&5].puts, 1);
        assert_eq!(m.channels[&5].deliveries, 1);
        assert_eq!(m.channels[&5].bytes, 1024);
    }

    #[test]
    fn callback_without_issue_is_harmless() {
        let mut t = Tracer::enabled(TraceConfig::default(), 1);
        t.callback_fire(0, Time::from_us(3), 42);
        assert_eq!(t.metrics().unwrap().put_to_callback_ns.count(), 0);
        assert_eq!(t.rings().unwrap()[0].len(), 1);
    }

    #[test]
    fn ring_saturation_is_counted() {
        let cfg = TraceConfig { ring_capacity: 8 };
        let mut t = Tracer::enabled(cfg, 1);
        for i in 0..100u64 {
            t.queue_depth(0, Time::from_ns(i), i as u32);
        }
        assert_eq!(t.rings().unwrap()[0].len(), 8);
        assert_eq!(t.dropped_total(), 92);
        // the histogram still saw every sample
        assert_eq!(t.metrics().unwrap().queue_depth.count(), 100);
    }

    #[test]
    fn out_of_range_pe_is_ignored() {
        let mut t = Tracer::enabled(TraceConfig::default(), 1);
        t.msg_deliver(7, Time::from_us(1), 0, 8);
        assert_eq!(t.rings().unwrap()[0].len(), 0);
    }
}
