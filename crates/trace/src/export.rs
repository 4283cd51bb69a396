//! Exporters: Chrome trace-event JSON and a plain-text summary.
//!
//! Both exporters are fully deterministic — timestamps are formatted from
//! integer picoseconds (never through floats), PEs are walked in index order
//! and channels in sorted handle order — so two identical simulated runs
//! produce byte-identical output. The JSON follows the Chrome trace-event
//! format (`ph` "X"/"i"/"C"/"M") and loads directly in Perfetto or
//! `chrome://tracing`, one track per PE.

use std::fmt::Write as _;

use ckd_net::{ProtoBreakdown, ProtoCounters, RelStats};
use ckd_sim::Time;

use crate::event::{ProtoClass, TraceEvent};
use crate::hist::Hist;
use crate::tracer::Tracer;

/// Format picoseconds as the microsecond value Chrome expects, exactly
/// (integer part, then 6 fractional digits = picosecond precision).
fn ts_us(t: Time) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

#[allow(clippy::too_many_arguments)] // internal formatting helper
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    ph: &str,
    ts: Time,
    tid: usize,
    extra: &str,
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}{extra}}}",
        ts_us(ts)
    );
}

/// Render the collected trace as Chrome trace-event JSON.
///
/// Returns `None` when the tracer is disabled.
pub fn chrome_trace_json(tracer: &Tracer) -> Option<String> {
    let rings = tracer.rings()?;
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");

    // Track metadata: one named thread per PE.
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"ckd-sim\"}}}}"
    );
    let mut first = false;
    for pe in 0..rings.len() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\"args\":{{\"name\":\"PE {pe}\"}}}}"
        );
    }

    for (pe, ring) in rings.iter().enumerate() {
        for rec in ring.iter() {
            match &rec.ev {
                TraceEvent::MsgSend {
                    dst,
                    ep,
                    bytes,
                    proto,
                } => {
                    let extra = format!(
                        ",\"s\":\"t\",\"args\":{{\"dst\":{dst},\"ep\":{ep},\"bytes\":{bytes},\"proto\":\"{}\"}}",
                        proto.label()
                    );
                    push_event(
                        &mut out, &mut first, "msg_send", "msg", "i", rec.at, pe, &extra,
                    );
                }
                TraceEvent::MsgDeliver { ep, bytes } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"ep\":{ep},\"bytes\":{bytes}}}");
                    push_event(
                        &mut out,
                        &mut first,
                        "msg_deliver",
                        "msg",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::PutIssue {
                    dst,
                    handle,
                    bytes,
                    proto,
                } => {
                    let extra = format!(
                        ",\"s\":\"t\",\"args\":{{\"dst\":{dst},\"handle\":{handle},\"bytes\":{bytes},\"proto\":\"{}\"}}",
                        proto.label()
                    );
                    push_event(
                        &mut out,
                        &mut first,
                        "put_issue",
                        "put",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::PutLand { handle, bytes } => {
                    let extra =
                        format!(",\"s\":\"t\",\"args\":{{\"handle\":{handle},\"bytes\":{bytes}}}");
                    push_event(
                        &mut out, &mut first, "put_land", "put", "i", rec.at, pe, &extra,
                    );
                }
                TraceEvent::CallbackFire { handle } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"handle\":{handle}}}");
                    push_event(
                        &mut out, &mut first, "callback", "put", "i", rec.at, pe, &extra,
                    );
                }
                TraceEvent::PollSweep {
                    start,
                    checked,
                    delivered,
                } => {
                    let extra = format!(
                        ",\"dur\":{},\"args\":{{\"checked\":{checked},\"delivered\":{delivered}}}",
                        ts_us(rec.at.saturating_sub(*start))
                    );
                    push_event(
                        &mut out,
                        &mut first,
                        "poll_sweep",
                        "poll",
                        "X",
                        *start,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::RendezvousRts { dst, bytes } => {
                    let extra =
                        format!(",\"s\":\"t\",\"args\":{{\"dst\":{dst},\"bytes\":{bytes}}}");
                    push_event(&mut out, &mut first, "rts", "rndv", "i", rec.at, pe, &extra);
                }
                TraceEvent::RendezvousCts { src } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"src\":{src}}}");
                    push_event(&mut out, &mut first, "cts", "rndv", "i", rec.at, pe, &extra);
                }
                TraceEvent::ReduceContribute { red } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"red\":{red}}}");
                    push_event(
                        &mut out,
                        &mut first,
                        "reduce_contribute",
                        "red",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::ReduceComplete { red } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"red\":{red}}}");
                    push_event(
                        &mut out,
                        &mut first,
                        "reduce_complete",
                        "red",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::Busy { start, kind } => {
                    let extra = format!(",\"dur\":{}", ts_us(rec.at.saturating_sub(*start)));
                    push_event(
                        &mut out,
                        &mut first,
                        kind.label(),
                        "busy",
                        "X",
                        *start,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::QueueDepth { depth } => {
                    let extra = format!(",\"args\":{{\"depth\":{depth}}}");
                    push_event(
                        &mut out,
                        &mut first,
                        "queue_depth",
                        "sched",
                        "C",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::FaultDrop { dst } => {
                    let extra = format!(",\"s\":\"t\",\"args\":{{\"dst\":{dst}}}");
                    push_event(
                        &mut out,
                        &mut first,
                        "fault_drop",
                        "rel",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
                TraceEvent::Retransmit { attempt, backoff } => {
                    let extra = format!(
                        ",\"s\":\"t\",\"args\":{{\"attempt\":{attempt},\"backoff_us\":{}}}",
                        ts_us(*backoff)
                    );
                    push_event(
                        &mut out,
                        &mut first,
                        "retransmit",
                        "rel",
                        "i",
                        rec.at,
                        pe,
                        &extra,
                    );
                }
            }
        }
    }
    out.push_str("\n]}\n");
    Some(out)
}

fn histogram_line(h: &Hist) -> String {
    if h.count() == 0 {
        return "(empty)".to_string();
    }
    let parts: Vec<String> = h
        .iter_nonempty()
        .map(|(lo, c)| format!("≥{lo}:{c}"))
        .collect();
    parts.join("  ")
}

/// The machine's counters for one protocol class.
fn proto_counters(proto: &ProtoBreakdown, p: ProtoClass) -> ProtoCounters {
    match p {
        ProtoClass::Eager => proto.eager,
        ProtoClass::Rendezvous => proto.rendezvous,
        ProtoClass::RdmaPut => proto.rdma_put,
        ProtoClass::Dcmf => proto.dcmf,
        ProtoClass::Control => proto.control,
    }
}

/// Render the collected metrics as a plain-text summary report.
///
/// The tracer owns only what the machine does not count; the transfer
/// counts and bytes (`proto`), drops and retransmits (`rel`) and completed
/// `reductions` are the machine's own counters, passed in.
///
/// Returns `None` when the tracer is disabled.
pub fn text_summary(
    tracer: &Tracer,
    proto: &ProtoBreakdown,
    rel: &RelStats,
    reductions: u64,
) -> Option<String> {
    let m = tracer.metrics()?;
    let rings = tracer.rings()?;
    let mut out = String::with_capacity(4096);

    let kept: usize = rings.iter().map(|r| r.len()).sum();
    let _ = writeln!(out, "== ckd-trace summary ==");
    let _ = writeln!(
        out,
        "pes: {}   records kept: {}   records dropped: {}",
        rings.len(),
        kept,
        tracer.dropped_total()
    );
    out.push('\n');

    let _ = writeln!(out, "-- transfers by protocol --");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>14} {:>14}",
        "protocol", "count", "bytes", "mean lat (us)"
    );
    for p in ProtoClass::ALL {
        let c = proto_counters(proto, p);
        if c.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>14} {:>14.3}",
            p.label(),
            c.count,
            c.bytes,
            m.proto_latency(p).mean() / 1_000.0
        );
    }
    let total = proto.total();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>14}",
        "total", total.count, total.bytes
    );
    out.push('\n');

    let _ = writeln!(out, "-- ckdirect puts --");
    let n = m.put_to_callback_ns.count();
    let mean_us = m.put_to_callback_ns.mean() / 1_000.0;
    let _ = writeln!(
        out,
        "issue→callback completions: {n}   mean latency: {mean_us:.3} us"
    );
    let _ = writeln!(
        out,
        "latency ns histogram: {}",
        histogram_line(&m.put_to_callback_ns)
    );
    out.push('\n');

    let _ = writeln!(out, "-- polling --");
    let _ = writeln!(out, "sweeps: {}", m.poll_checked.count());
    let _ = writeln!(out, "checked/sweep:   {}", histogram_line(&m.poll_checked));
    let _ = writeln!(
        out,
        "delivered/sweep: {}",
        histogram_line(&m.poll_delivered)
    );
    out.push('\n');

    let _ = writeln!(out, "-- scheduler --");
    let _ = writeln!(
        out,
        "queue-depth samples: {}   histogram: {}",
        m.queue_depth.count(),
        histogram_line(&m.queue_depth)
    );
    let _ = writeln!(
        out,
        "rendezvous rts: {}   cts: {}   reductions: {} contribs / {} completes",
        m.rts, m.cts, m.reduce_contribs, reductions
    );
    out.push('\n');

    // Emitted only when the fault plane actually fired, so fault-free runs
    // keep their pre-reliability-layer byte-identical summaries.
    if rel.drops_injected + rel.retries > 0 {
        let _ = writeln!(out, "-- reliability --");
        let _ = writeln!(
            out,
            "drops observed: {}   retransmits: {}",
            rel.drops_injected, rel.retries
        );
        let _ = writeln!(
            out,
            "backoff ns histogram: {}",
            histogram_line(&m.backoff_ns)
        );
        out.push('\n');
    }

    if !m.channels.is_empty() {
        let _ = writeln!(out, "-- per-channel --");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>12} {:>16}",
            "handle", "puts", "delivered", "bytes", "mean lat (us)"
        );
        for (h, c) in &m.channels {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>12} {:>16.3}",
                h,
                c.puts,
                c.deliveries,
                c.bytes,
                c.mean_put_latency_ns() / 1_000.0
            );
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::enabled(TraceConfig::default(), 2);
        t.msg_send(
            0,
            Time::from_us(1),
            1,
            2,
            256,
            ProtoClass::Eager,
            Time::from_us(3),
        );
        t.msg_deliver(1, Time::from_us(4), 2, 256);
        t.put_issue(
            0,
            Time::from_us(5),
            1,
            9,
            4096,
            ProtoClass::RdmaPut,
            Time::from_us(6),
        );
        t.put_land(1, Time::from_us(11), 9, 4096);
        t.poll_sweep(1, Time::from_us(11), Time::from_us(12), 3, 1);
        t.callback_fire(1, Time::from_us(12), 9);
        t.busy(
            1,
            Time::from_us(12),
            Time::from_us(13),
            crate::event::BusyKind::Callback,
        );
        t.queue_depth(0, Time::from_us(13), 2);
        t
    }

    /// The machine-side counters matching `sample_tracer`'s two transfers.
    fn sample_summary() -> String {
        let mut proto = ProtoBreakdown::default();
        proto.record(ckd_net::Protocol::Eager, 256);
        proto.record(ckd_net::Protocol::RdmaPut, 4096);
        text_summary(&sample_tracer(), &proto, &RelStats::default(), 0).unwrap()
    }

    #[test]
    fn disabled_exports_are_none() {
        let t = Tracer::disabled();
        assert!(chrome_trace_json(&t).is_none());
        let proto = ProtoBreakdown::default();
        assert!(text_summary(&t, &proto, &RelStats::default(), 0).is_none());
    }

    #[test]
    fn chrome_json_is_wellformed_and_deterministic() {
        let a = chrome_trace_json(&sample_tracer()).unwrap();
        let b = chrome_trace_json(&sample_tracer()).unwrap();
        assert_eq!(a, b, "identical runs must export byte-identical JSON");
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"name\":\"put_issue\""));
        assert!(a.contains("\"name\":\"poll_sweep\""));
        // brace balance is a cheap structural sanity check
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
        let opens = a.matches('[').count();
        let closes = a.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn timestamps_are_exact_microsecond_strings() {
        assert_eq!(ts_us(Time::from_us(5)), "5.000000");
        assert_eq!(ts_us(Time::from_ps(1_234_567)), "1.234567");
        assert_eq!(ts_us(Time::ZERO), "0.000000");
    }

    #[test]
    fn summary_reports_counts() {
        let s = sample_summary();
        assert!(s.contains("eager"));
        assert!(s.contains("rdma-put"));
        assert!(s.contains("total                 2           4352"));
        assert!(s.contains("issue→callback completions: 1"));
        assert!(s.contains("sweeps: 1"));
        assert!(!s.contains("-- reliability --"), "no faults, no section");
        assert_eq!(s, sample_summary());
    }
}
