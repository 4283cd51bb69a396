//! `ckd-perf` — host throughput of the simulator on four fixed workloads,
//! plus a per-layer ledger.
//!
//! ```text
//! ckd-perf [--workload all|sweep64|jacobi4k|chanstorm|backends] [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ckd-perf compare A.out B.out    # per (workload, metric) delta vs bound
//! ckd-perf bless [DIR]            # rewrite expected/<workload>.txt
//! ```
//!
//! Everything runs serially on one thread. The selected workloads run
//! round-robin, one pass of each per round: one warm-up round, then timed
//! rounds until `--seconds` have passed (at least one). `--trace 0` reports
//! the end-to-end metrics, `--trace 1` adds three profiled rounds and the
//! ledger and reports the per-layer metrics instead; without `--trace`
//! both are reported. Human-readable `e2e`/`layer` lines come first; the
//! last line of stdout is one JSON object. Spans go to
//! `target/ckd-perf/spans.jsonl`. See README.md in this directory.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ckd_charm::ProfConfig;

use crate::host::Calib;
use crate::spans::SpanLog;
use crate::workloads::{expected_lines, failed_runs, run_pass, Workload, DEFAULT_SEED};

mod host;
mod ledger;
mod spans;
mod workloads;

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
struct E2e {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
}

const E2E: [E2e; 4] = [
    E2e {
        name: "events_per_s",
        unit: "events/s",
        higher_is_better: true,
        bound: 0.10,
    },
    E2e {
        name: "puts_per_s",
        unit: "puts/s",
        higher_is_better: true,
        bound: 0.10,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Failed runs ÷ attempted runs; any change from the other run is out of
/// bounds (an absolute bound of 0). It is `failed`/`attempted` in the
/// JSON line, so it is printed for people and `compare` only.
const ERROR_RATE: &str = "error_rate";

/// A per-layer metric: name, unit, higher is better.
type Layer = (&'static str, &'static str, bool);

const LAYERS: [Layer; 35] = [
    ("sim.events.hold_ns.d16", "ns", false),
    ("sim.events.hold_ns.d1k", "ns", false),
    ("sim.events.hold_ns.d64k", "ns", false),
    ("sim.fault.decide_ns", "ns", false),
    ("net.proto.seq_ns.inorder", "ns", false),
    ("net.proto.seq_ns.reorder", "ns", false),
    ("net.model.put_ns.ib", "ns", false),
    ("net.model.put_ns.bgp", "ns", false),
    ("net.model.two_sided_ns.ib", "ns", false),
    ("core.registry.cycle_ns.ib-poll", "ns", false),
    ("core.registry.cycle_ns.dcmf-callback", "ns", false),
    ("core.registry.cycle_ns.notified-put", "ns", false),
    ("core.registry.sweep_ns.armed1k", "ns", false),
    ("core.registry.sweep_ns.armed100k", "ns", false),
    ("core.registry.create_ns", "ns", false),
    ("core.registry.destroy_ns", "ns", false),
    ("charm.machine.build_us.pes8", "us", false),
    ("charm.machine.build_us.pes4096", "us", false),
    ("core.registry.bytes_per_channel", "B", false),
    ("charm.machine.bytes_per_pe.pes512", "B", false),
    ("charm.machine.bytes_per_pe.pes4096", "B", false),
    ("charm.prof.sched_ns_per_event", "ns", false),
    ("charm.prof.poll_ns_per_event", "ns", false),
    ("charm.prof.backend_ns_per_event", "ns", false),
    ("charm.prof.rel_ns_per_event", "ns", false),
    ("charm.prof.layers_ns_per_event", "ns", false),
    ("charm.prof.queue_depth_mean", "count", false),
    ("charm.prof.attributed_frac", "fraction", true),
    ("trace.prof.overhead_frac", "fraction", false),
    ("raw.events_per_s", "events/s", true),
    ("raw.puts_per_s", "puts/s", true),
    ("raw.setup_s", "s", false),
    ("host.cores", "count", true),
    ("host.calib_alu_ms", "ms", false),
    ("host.calib_ms", "ms", false),
];

/// `run_seconds` of BENCHMARK.json; a test keeps the two equal.
const DEFAULT_SECONDS: f64 = 20.0;
const TRACED_ROUNDS: usize = 3;
/// Child processes behind `peak_rss_mb` (their median).
const RSS_CHILDREN: usize = 3;
const EXPECTED_DIR: &str = "crates/bench/src/bin/ckd-perf/expected";
const SPANS_PATH: &str = "target/ckd-perf/spans.jsonl";

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method) computes them.
/// Sorts `v`, which must not be empty.
fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

fn median(v: &mut [f64]) -> f64 {
    quartiles(v).1
}

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    e2e: bool,
    layers: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        e2e: true,
        layers: true,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                o.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or(format!("unknown workload {v:?}"))?],
                };
            }
            "--seed" => {
                let v = val()?;
                o.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = val()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => match val()?.as_str() {
                "0" => (o.e2e, o.layers) = (true, false),
                "1" => (o.e2e, o.layers) = (false, true),
                v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// One reported metric: its key in the JSON line and its unit.
struct Out {
    key: String,
    value: f64,
    unit: &'static str,
}

/// Per-workload tallies over the passes of one invocation.
struct Tally {
    w: Workload,
    jobs: Vec<workloads::Job>,
    expected: Option<Vec<&'static str>>,
    reference: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Per timed pass, in `E2E` order: events/s, puts/s and setup_s at
    /// the reference host speed.
    cal: [Vec<f64>; 3],
    /// The same, as measured.
    raw: [Vec<f64>; 3],
}

impl Tally {
    fn pass(&mut self, prof: Option<ProfConfig>, log: &mut SpanLog) -> workloads::PassOut {
        let p = run_pass(self.w, &self.jobs, prof, log);
        if self.reference.is_empty() {
            self.reference = p
                .runs
                .iter()
                .map(|r| r.line.clone().unwrap_or_default())
                .collect();
        }
        self.attempted += p.runs.len() as u64;
        self.failed += failed_runs(&p.runs, &self.reference, self.expected.as_deref());
        p
    }
}

fn bench(o: &Opts) -> Result<ExitCode, String> {
    let multi = o.workloads.len() > 1;
    let key = |w: Option<Workload>, name: &str| match w {
        Some(w) if multi => format!("{}.{name}", w.name()),
        _ => name.to_string(),
    };
    let mut log = SpanLog::new();
    let mut tallies: Vec<Tally> = o
        .workloads
        .iter()
        .map(|&w| Tally {
            w,
            jobs: w.jobs(o.seed),
            expected: w
                .expected_applies(o.seed)
                .then(|| expected_lines(w.expected())),
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            cal: Default::default(),
            raw: Default::default(),
        })
        .collect();
    println!(
        "# ckd-perf seed={} seconds={} workloads={}",
        o.seed,
        o.seconds,
        o.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(",")
    );

    let mut calib = Calib::new();
    for t in &mut tallies {
        t.pass(None, &mut log); // warm-up; sets the reference lines
    }
    let t0 = Instant::now();
    let mut before = calib.sample();
    loop {
        for t in &mut tallies {
            let p = t.pass(None, &mut log);
            // one build of each run's machine, outside the pass's timing
            let setup: f64 = t.jobs.iter().map(workloads::build_ns).sum();
            let after = calib.sample();
            // the host's speed around this pass, relative to the reference
            let speed = host::REF_MS * 2.0 / (before + after);
            before = after;
            let secs = p.wall_ns.max(1) as f64 / 1e9;
            let raw = [p.events as f64 / secs, p.puts as f64 / secs, setup / 1e9];
            for (i, v) in raw.into_iter().enumerate() {
                t.raw[i].push(v);
                // a slow host lowers rates and raises times
                t.cal[i].push(if E2E[i].higher_is_better {
                    v / speed
                } else {
                    v * speed
                });
            }
        }
        if t0.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }

    let mut out: Vec<Out> = Vec::new();
    if o.e2e {
        for t in &mut tallies {
            let w = Some(t.w);
            for (i, m) in E2E[..3].iter().enumerate() {
                let n = t.cal[i].len();
                let (q1, med, q3) = quartiles(&mut t.cal[i]);
                let raw = median(&mut t.raw[i]);
                println!(
                    "e2e {} {} {med} {} q1={q1} q3={q3} n={n} raw={raw}",
                    t.w.name(),
                    m.name,
                    m.unit
                );
                out.push(Out {
                    key: key(w, m.name),
                    value: med,
                    unit: m.unit,
                });
            }
            let mut rss = (0..RSS_CHILDREN)
                .map(|_| child_peak_rss(t.w, o.seed).map(|b| b as f64 / 1e6))
                .collect::<Result<Vec<f64>, String>>()?;
            let rss_mb = median(&mut rss);
            let m = &E2E[3];
            println!("e2e {} {} {rss_mb} {}", t.w.name(), m.name, m.unit);
            out.push(Out {
                key: key(w, m.name),
                value: rss_mb,
                unit: m.unit,
            });
            println!(
                "e2e {} {ERROR_RATE} {} fraction failed={} attempted={}",
                t.w.name(),
                t.failed as f64 / t.attempted as f64,
                t.failed,
                t.attempted
            );
        }
    }

    if o.layers {
        let prof = Some(ProfConfig { snapshot_every: 0 });
        for _ in 0..TRACED_ROUNDS {
            for t in &mut tallies {
                t.pass(prof, &mut log);
            }
        }
        let mut layer: Vec<(Option<Workload>, &'static str, f64)> = Vec::new();
        for t in &mut tallies {
            for (name, v) in log.prof_metrics(t.w) {
                layer.push((Some(t.w), name, v));
            }
            let raw_names = ["raw.events_per_s", "raw.puts_per_s", "raw.setup_s"];
            for (name, raw) in raw_names.into_iter().zip(&mut t.raw) {
                layer.push((Some(t.w), name, median(raw)));
            }
        }
        layer.extend(ledger::run().into_iter().map(|(n, v)| (None, n, v)));
        layer.extend(child_memory()?.into_iter().map(|(n, v)| (None, n, v)));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        layer.push((None, "host.cores", cores as f64));
        layer.push((None, "host.calib_alu_ms", host::calib_alu_ms()));
        layer.push((None, "host.calib_ms", median(&mut calib.samples.clone())));

        let emitted: BTreeSet<&str> = layer.iter().map(|l| l.1).collect();
        let listed: BTreeSet<&str> = LAYERS.iter().map(|l| l.0).collect();
        if emitted != listed {
            return Err(format!(
                "per-layer metrics differ from the LAYERS table: {:?}",
                emitted.symmetric_difference(&listed).collect::<Vec<_>>()
            ));
        }
        for (w, name, v) in layer {
            let unit = LAYERS.iter().find(|l| l.0 == name).expect("checked").1;
            println!("layer {} {name} {v} {unit}", w.map_or("-", Workload::name));
            out.push(Out {
                key: key(w, name),
                value: v,
                unit,
            });
        }
    }

    std::fs::create_dir_all("target/ckd-perf")
        .and_then(|()| std::fs::write(SPANS_PATH, log.jsonl()))
        .map_err(|e| format!("cannot write {SPANS_PATH}: {e}"))?;

    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in out.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a number: {}", m.key, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.key, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(ExitCode::SUCCESS)
}

/// Peak resident bytes of a fresh `ckd-perf` process running one pass of
/// `w` alone.
fn child_peak_rss(w: Workload, seed: u64) -> Result<u64, String> {
    let out = child(&["rss-child", w.name(), &seed.to_string()])?;
    out.trim()
        .parse()
        .map_err(|_| format!("rss-child printed {out:?}"))
}

/// The ledger's memory metrics, measured in a fresh `ckd-perf` process.
fn child_memory() -> Result<Vec<(&'static str, f64)>, String> {
    let out = child(&["mem-child"])?;
    out.lines()
        .map(|l| {
            let (k, v) = l
                .split_once(' ')
                .ok_or(format!("mem-child printed {l:?}"))?;
            let name = LAYERS
                .iter()
                .find(|m| m.0 == k)
                .ok_or(format!("mem-child metric {k:?}"))?
                .0;
            Ok((
                name,
                v.parse().map_err(|_| format!("mem-child value {v:?}"))?,
            ))
        })
        .collect()
}

/// Run this executable with `args`, wait for it, and return its stdout.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} failed: {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{} printed non-UTF-8", args[0]))
}

fn rss_child(args: &[String]) -> Result<ExitCode, String> {
    let [name, seed] = args else {
        return Err("usage: ckd-perf rss-child WORKLOAD SEED".into());
    };
    let w = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    run_pass(w, &w.jobs(seed), None, &mut SpanLog::new());
    println!("{}", ledger::status_bytes("VmHWM")?);
    Ok(ExitCode::SUCCESS)
}

fn mem_child() -> Result<ExitCode, String> {
    for (k, v) in ledger::memory()? {
        println!("{k} {v}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Run one pass of every workload twice at the default seed and write its
/// run lines to `DIR/<workload>.txt`.
fn bless(args: &[String]) -> Result<ExitCode, String> {
    let dir = args.first().map_or(EXPECTED_DIR, String::as_str);
    for w in Workload::ALL {
        let jobs = w.jobs(DEFAULT_SEED);
        let lines = |log: &mut SpanLog| -> Result<Vec<String>, String> {
            run_pass(w, &jobs, None, log)
                .runs
                .into_iter()
                .map(|r| match r.line {
                    Some(l) if r.sound => Ok(l),
                    _ => Err(format!("{}: a run failed; nothing written", w.name())),
                })
                .collect()
        };
        let mut log = SpanLog::new();
        let first = lines(&mut log)?;
        if lines(&mut log)? != first {
            return Err(format!("{}: two passes differ; nothing written", w.name()));
        }
        let path = format!("{dir}/{}.txt", w.name());
        let text = format!("{}\n{}\n", workloads::LINE_HEADER, first.join("\n"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({} runs)", first.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// `(workload, metric) → (value, raw value if printed)`.
type E2eValue = ((String, String), (f64, Option<f64>));

/// The values of the `e2e` lines of a run's output.
fn e2e_values(text: &str) -> Vec<E2eValue> {
    text.lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            if f.next()? != "e2e" {
                return None;
            }
            let (w, m) = (f.next()?.to_string(), f.next()?.to_string());
            let v = f.next()?.parse().ok()?;
            let raw = f.find_map(|x| x.strip_prefix("raw=")?.parse().ok());
            Some(((w, m), (v, raw)))
        })
        .collect()
}

/// Report every (workload, end-to-end metric) pair of two outputs with its
/// relative change and bound, and the change of the uncalibrated value
/// beside it; returns the report and the pairs out of bounds (a pair
/// missing from either side counts).
fn compare_text(a: &str, b: &str) -> (String, usize) {
    let a = e2e_values(a);
    let b: BTreeMap<_, _> = e2e_values(b).into_iter().collect();
    let mut report = String::new();
    let mut out = b
        .keys()
        .filter(|k| !a.iter().any(|(ka, _)| ka == *k))
        .count();
    for ((w, m), (va, raw_a)) in &a {
        let Some(&(vb, raw_b)) = b.get(&(w.clone(), m.clone())) else {
            let _ = writeln!(report, "{w:<10} {m:<12} missing from B  OUT");
            out += 1;
            continue;
        };
        let (delta, bound, higher_is_better, ok) = if m == ERROR_RATE {
            let ok = *va == 0.0 && vb == 0.0;
            (vb - va, "0 (absolute)".to_string(), false, ok)
        } else {
            let e = E2E.iter().find(|e| e.name == m);
            let bound = e.map_or(0.0, |e| e.bound);
            let d = (vb - va) / va;
            let higher = e.is_some_and(|e| e.higher_is_better);
            (
                d,
                format!("{:.0}%", bound * 100.0),
                higher,
                d.abs() <= bound,
            )
        };
        out += usize::from(!ok);
        let direction = match (delta == 0.0, (delta > 0.0) == higher_is_better) {
            (true, _) => "same",
            (false, true) => "better",
            (false, false) => "worse",
        };
        let raw = match (raw_a, raw_b) {
            (Some(ra), Some(rb)) => format!(" raw_delta={:+.2}%", (rb - ra) / ra * 100.0),
            _ => String::new(),
        };
        let _ = writeln!(
            report,
            "{w:<10} {m:<12} A={va:<13.6e} B={vb:<13.6e} delta={:+.2}% ({direction}) bound={bound} {}{raw}",
            delta * 100.0,
            if ok { "ok" } else { "OUT" }
        );
    }
    (report, out)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: ckd-perf compare A.out B.out".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (report, out) = compare_text(&read(a)?, &read(b)?);
    print!("{report}");
    if out > 0 {
        println!("{out} pair(s) out of bounds");
        return Ok(ExitCode::FAILURE);
    }
    println!("all pairs within bounds");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("bless") => bless(&args[1..]),
        Some("rss-child") => rss_child(&args[1..]),
        Some("mem-child") => mem_child(),
        _ => parse(&args).and_then(|o| bench(&o)),
    };
    res.unwrap_or_else(|e| {
        eprintln!("ckd-perf: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fault_seeds, Job, RunOut};

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]
        assert_eq!(quartiles(&mut [9.0, 1.0]), (-1.0, 5.0, 11.0));
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    fn well_formed_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let names = E2E
            .iter()
            .map(|e| e.name)
            .chain(LAYERS.iter().map(|l| l.0))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .chain([ERROR_RATE]);
        let mut seen = BTreeSet::new();
        for n in names {
            assert!(well_formed_name(n), "{n:?}");
            assert!(seen.insert(n), "{n:?} used twice");
        }
        for u in E2E.iter().map(|e| e.unit).chain(LAYERS.iter().map(|l| l.1)) {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u:?}"
            );
        }
    }

    /// The `{"name": ...}` lines of one section of BENCHMARK.json.
    fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{key}\": ["))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closed");
        body[..end]
            .lines()
            .filter(|l| l.contains("\"name\": "))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let e2e = section(json, "end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (line, m) in e2e.iter().zip(&E2E) {
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            );
            assert_eq!(line.trim().trim_end_matches(','), want);
        }
        let layers = section(json, "per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (line, (name, unit, higher)) in layers.iter().zip(&LAYERS) {
            let want = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            );
            assert_eq!(line.trim().trim_end_matches(','), want);
        }
        let workloads = section(json, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (line, w) in workloads.iter().zip(Workload::ALL) {
            assert!(line.contains(&format!("{{\"name\": \"{}\", ", w.name())));
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    /// The `[profile.release]` table of a manifest, up to the next table.
    fn release_profile(manifest: &str) -> &str {
        let start = manifest
            .find("[profile.release]\n")
            .expect("release profile present");
        let body = &manifest[start..];
        let end = body[1..].find("\n[").map_or(body.len(), |i| i + 1);
        body[..end].trim()
    }

    /// The benchmark's own package builds with the repository's release
    /// profile, so it measures the code `cargo build --release` makes.
    #[test]
    fn package_profile_matches_the_workspace() {
        assert_eq!(
            release_profile(include_str!("Cargo.toml")),
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }

    fn run(line: &str) -> RunOut {
        RunOut {
            line: Some(line.to_string()),
            sound: true,
            events: 1,
            puts: 1,
        }
    }

    #[test]
    fn gate_fails_mangled_panicked_and_unsound_runs() {
        let lines = [
            "jacobi3d a 0 10 20 30 4 5 4 0",
            "chanstorm b 0 1 2 3 4 5 4 0",
        ];
        let reference: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let runs: Vec<RunOut> = lines.iter().map(|l| run(l)).collect();
        assert_eq!(failed_runs(&runs, &reference, Some(&lines)), 0);

        let text = format!("{}\n{}\n{}\n", workloads::LINE_HEADER, lines[0], lines[1]);
        let mangled = text.replace(" 10 20 ", " 10 21 ");
        let expected = expected_lines(&mangled);
        let failed = failed_runs(&runs, &reference, Some(&expected));
        assert_eq!(failed, 1);
        assert!(failed as f64 / runs.len() as f64 > 0.0, "error_rate > 0");
        // a pass that drifts from the first pass fails without expected lines
        let drifted = [run(lines[0]), run("chanstorm b 0 1 2 3 4 5 3 0")];
        assert_eq!(failed_runs(&drifted, &reference, None), 1);
        // a panicked run and a run that broke an invariant both fail
        let broken = [
            RunOut {
                line: None,
                ..run("")
            },
            RunOut {
                sound: false,
                ..run(lines[1])
            },
        ];
        assert_eq!(failed_runs(&broken, &reference, None), 2);
    }

    #[test]
    fn committed_expected_files_have_one_line_per_run() {
        for w in Workload::ALL {
            let lines = expected_lines(w.expected());
            assert_eq!(lines.len(), w.jobs(DEFAULT_SEED).len(), "{}", w.name());
            assert!(lines.iter().all(|l| l.split(' ').count() == 10));
        }
    }

    /// `Job::builder` leaves out `RunSpec::execute_with`'s shard count, so
    /// `setup_s` builds the machine a pass runs only while every grid
    /// point is unsharded.
    #[test]
    fn grid_points_are_unsharded() {
        for w in Workload::ALL {
            for job in w.jobs(DEFAULT_SEED) {
                if let Job::Grid(s) = job {
                    assert!(s.shards <= 1, "{}: {s:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn default_seed_reproduces_the_sweep64_seeds() {
        assert_eq!(fault_seeds(DEFAULT_SEED), [0x5EED, 0xC0FFEE, 42, 7]);
        let s = fault_seeds(1);
        assert_eq!(s, fault_seeds(1));
        assert_ne!(s, fault_seeds(2));
        assert_eq!(s.iter().collect::<BTreeSet<_>>().len(), 4);
    }

    #[test]
    fn compare_flags_pairs_out_of_bounds() {
        let a = "e2e jacobi4k events_per_s 100.0 events/s q1=1 q3=2 n=5 raw=50.0\n\
                 e2e jacobi4k setup_s 1.0 s\n\
                 e2e jacobi4k error_rate 0 fraction\n";
        let (report, out) = compare_text(a, a);
        assert_eq!(out, 0);
        assert!(report.contains("raw_delta=+0.00%"), "{report}");
        let b = a
            .replace("100.0", "79.0")
            .replace("setup_s 1.0", "setup_s 1.2");
        let (report, out) = compare_text(a, &b);
        assert_eq!(out, 1, "only the 21% events_per_s drop is out: {report}");
        let (_, out) = compare_text(a, &a.replace("error_rate 0", "error_rate 0.01"));
        assert_eq!(out, 1);
        let (_, out) = compare_text(a, "");
        assert_eq!(out, 3, "missing pairs count");
    }
}
