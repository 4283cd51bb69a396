//! Benchmark-side spans, kept in memory and written as JSONL at exit.
//!
//! Every pass records a `pass` span. A profiled pass also records, per
//! run, a `build` span (machines `ckd-perf` builds itself) and a `run`
//! span carrying the run's profiler totals as counts. The `charm.prof.*`
//! and `trace.prof.*` metrics are derived from these spans alone.

use std::fmt::Write as _;
use std::time::Instant;

use ckd_charm::{Phase, ProfShard};

use crate::workloads::Workload;

struct Span {
    name: &'static str,
    workload: &'static str,
    parent: Option<usize>,
    /// Pass ordinal within its workload.
    pass: u32,
    run: Option<u32>,
    traced: bool,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a pass span; its end is set by [`SpanLog::close_pass`].
    pub fn open_pass(&mut self, w: Workload, traced: bool) -> usize {
        let pass = self
            .spans
            .iter()
            .filter(|s| s.name == "pass" && s.workload == w.name())
            .count() as u32;
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name: "pass",
            workload: w.name(),
            parent: None,
            pass,
            run: None,
            traced,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a pass span at now; `t0` is when its timed region began.
    pub fn close_pass(&mut self, id: usize, t0: Instant) {
        let (start, end) = (self.at(t0), self.at(Instant::now()));
        let s = &mut self.spans[id];
        s.start_ns = start;
        s.end_ns = end;
    }

    fn child(&mut self, pass: usize, run: u32, name: &'static str, t0: Instant, t1: Instant) {
        let p = &self.spans[pass];
        let span = Span {
            name,
            workload: p.workload,
            parent: Some(pass),
            pass: p.pass,
            run: Some(run),
            traced: p.traced,
            start_ns: self.at(t0),
            end_ns: self.at(t1),
            counts: Vec::new(),
        };
        self.spans.push(span);
    }

    pub fn build_span(&mut self, pass: usize, run: u32, t0: Instant, t1: Instant) {
        self.child(pass, run, "build", t0, t1);
    }

    /// A profiled run from `t0` to now, carrying the profiler's totals.
    pub fn run_span(&mut self, pass: usize, run: u32, t0: Instant, prof: &ProfShard) {
        self.child(pass, run, "run", t0, Instant::now());
        let counts = &mut self.spans.last_mut().expect("just pushed").counts;
        counts.push(("events", prof.events));
        for ph in Phase::ALL {
            counts.push((phase_key(ph), prof.phases[ph.index()].total_ns));
        }
        counts.push(("host_ns", prof.host_ns));
        counts.push(("qd_sum", prof.queue_depth.sum()));
        counts.push(("qd_count", prof.queue_depth.count()));
    }

    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"pass\": {}, \"run\": {}, \"traced\": {}, \"start_ns\": {}, \"end_ns\": {}",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.workload,
                s.pass,
                s.run.map_or("null".into(), |r| r.to_string()),
                s.traced,
                s.start_ns,
                s.end_ns,
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// The per-workload profiler metrics, from `w`'s spans: phase ns per
    /// event, mean queue depth, the share of profiled loop time the
    /// dispatch phases account for, and the traced/untraced pass ratio.
    pub fn prof_metrics(&self, w: Workload) -> Vec<(&'static str, f64)> {
        let mine = || self.spans.iter().filter(move |s| s.workload == w.name());
        let total = |key: &str| -> f64 {
            mine()
                .filter(|s| s.name == "run")
                .map(|s| s.count(key) as f64)
                .sum()
        };
        let pass_median = |traced: bool| {
            let mut v: Vec<f64> = mine()
                .filter(|s| s.name == "pass" && s.traced == traced)
                .map(|s| s.dur_ns() as f64)
                .collect();
            crate::median(&mut v)
        };
        let events = total("events").max(1.0);
        let mut m: Vec<(&'static str, f64)> = Phase::ALL
            .iter()
            .map(|&ph| (prof_metric_name(ph), total(phase_key(ph)) / events))
            .collect();
        m.push((
            "charm.prof.queue_depth_mean",
            total("qd_sum") / total("qd_count").max(1.0),
        ));
        let dispatch = total("sched_ns") + total("backend_ns") + total("rel_ns");
        m.push((
            "charm.prof.attributed_frac",
            dispatch / total("host_ns").max(1.0),
        ));
        m.push((
            "trace.prof.overhead_frac",
            pass_median(true) / pass_median(false) - 1.0,
        ));
        m
    }
}

fn prof_metric_name(ph: Phase) -> &'static str {
    match ph {
        Phase::Sched => "charm.prof.sched_ns_per_event",
        Phase::Poll => "charm.prof.poll_ns_per_event",
        Phase::Backend => "charm.prof.backend_ns_per_event",
        Phase::Rel => "charm.prof.rel_ns_per_event",
        Phase::Layers => "charm.prof.layers_ns_per_event",
    }
}

fn phase_key(ph: Phase) -> &'static str {
    match ph {
        Phase::Sched => "sched_ns",
        Phase::Poll => "poll_ns",
        Phase::Backend => "backend_ns",
        Phase::Rel => "rel_ns",
        Phase::Layers => "layers_ns",
    }
}
