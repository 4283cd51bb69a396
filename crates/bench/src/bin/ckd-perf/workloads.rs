//! The four workloads: what one pass runs, the line each run leaves for
//! the correctness gate, and the spans a traced pass records.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ckd_apps::chanstorm::{run_chanstorm_on, ChanstormCfg};
use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_bench::{backends_grid, sweep64_grid, BackendSel, RunSpec};
use ckd_charm::{FaultPlan, MachineBuilder, ProfConfig};

use crate::spans::SpanLog;

/// The seed that reproduces `BENCH_sweep.json`'s fault-plan seeds.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// `sweep64_grid()`'s own fault-plan seeds, in grid order.
const SWEEP64_SEEDS: [u64; 4] = [0x5EED, 0xC0FFEE, 42, 7];

/// Column header of the expected-output files (one run per line).
pub const LINE_HEADER: &str =
    "# app shape seed metric_ps total_ps events puts put_bytes callbacks retries";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep64,
    Jacobi4k,
    Chanstorm,
    Backends,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sweep64,
        Workload::Jacobi4k,
        Workload::Chanstorm,
        Workload::Backends,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep64 => "sweep64",
            Workload::Jacobi4k => "jacobi4k",
            Workload::Chanstorm => "chanstorm",
            Workload::Backends => "backends",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The committed run lines at [`DEFAULT_SEED`] (`ckd-perf bless`).
    pub fn expected(self) -> &'static str {
        match self {
            Workload::Sweep64 => include_str!("expected/sweep64.txt"),
            Workload::Jacobi4k => include_str!("expected/jacobi4k.txt"),
            Workload::Chanstorm => include_str!("expected/chanstorm.txt"),
            Workload::Backends => include_str!("expected/backends.txt"),
        }
    }

    /// Whether the expected lines apply at `seed`: only `sweep64` has a
    /// fault plane, so only its runs depend on the seed.
    pub fn expected_applies(self, seed: u64) -> bool {
        self != Workload::Sweep64 || seed == DEFAULT_SEED
    }

    /// The runs of one pass, with fault-plan seeds derived from `seed`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::Sweep64 => {
                let seeds = fault_seeds(seed);
                sweep64_grid()
                    .into_iter()
                    .map(|s| {
                        let i = SWEEP64_SEEDS
                            .iter()
                            .position(|&d| d == s.seed)
                            .expect("sweep64_grid uses its four fixed seeds");
                        Job::Grid(RunSpec {
                            seed: seeds[i],
                            ..s
                        })
                    })
                    .collect()
            }
            Workload::Backends => backends_grid()
                .into_iter()
                .map(|s| {
                    Job::Grid(RunSpec {
                        iters: s.iters * 100,
                        ..s
                    })
                })
                .collect(),
            Workload::Jacobi4k => vec![Job::Jacobi],
            Workload::Chanstorm => vec![Job::Storm; 5],
        }
    }
}

/// Four fault-plan seeds: `sweep64_grid()`'s own at [`DEFAULT_SEED`],
/// otherwise a splitmix64 stream from `seed`.
pub fn fault_seeds(seed: u64) -> [u64; 4] {
    if seed == DEFAULT_SEED {
        return SWEEP64_SEEDS;
    }
    let mut state = seed;
    std::array::from_fn(|_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

const JACOBI: JacobiCfg = JacobiCfg {
    domain: [128, 128, 128],
    chares: [16, 16, 16],
    iters: 20,
    variant: Variant::Ckd,
    real_compute: false,
};
const JACOBI_PES: usize = 4096;
const JACOBI_PLATFORM: Platform = Platform::IbAbe { cores_per_node: 8 };

const STORM: ChanstormCfg = ChanstormCfg {
    registered: 100_000,
    active: 64,
    iters: 2000,
};
const STORM_PLATFORM: Platform = Platform::IbAbe { cores_per_node: 2 };

/// One run of a pass.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// A grid point, executed through `RunSpec::execute_with`.
    Grid(RunSpec),
    /// The 4096-PE Jacobi3D run on a machine built here.
    Jacobi,
    /// One 100k-channel storm on a 2-PE machine built here.
    Storm,
}

/// What one run leaves behind.
pub struct RunOut {
    /// The run's deterministic line; `None` when it panicked.
    pub line: Option<String>,
    /// The run kept its invariants (callbacks == puts on clean runs,
    /// every storm channel destroyed).
    pub sound: bool,
    pub events: u64,
    pub puts: u64,
}

/// One pass of a workload.
pub struct PassOut {
    pub wall_ns: u64,
    pub events: u64,
    pub puts: u64,
    pub runs: Vec<RunOut>,
}

impl Job {
    /// The machine this run needs: `RunSpec::execute_with`'s build for
    /// grid points (every grid point here is unsharded; a test checks
    /// that), the fixed shapes otherwise.
    pub fn builder(&self) -> MachineBuilder {
        match self {
            Job::Grid(s) => {
                let mut b = s.platform.builder(s.pes);
                if let BackendSel::SharedMem = s.backend {
                    b = b.with_backend(ckd_charm::backend::SharedMem);
                }
                if s.drop_permille > 0 {
                    let p = f64::from(s.drop_permille) / 1000.0;
                    b = b.with_faults(FaultPlan::new(s.seed).with_drop(p));
                }
                b
            }
            Job::Jacobi => JACOBI_PLATFORM.builder(JACOBI_PES),
            Job::Storm => STORM_PLATFORM.builder(2),
        }
    }

    /// Run once; a panic becomes a failed [`RunOut`] instead of unwinding.
    /// A profiled run records its spans under `pass`.
    fn run(&self, prof: Option<ProfConfig>, log: &mut SpanLog, pass: usize, run: u32) -> RunOut {
        let res = catch_unwind(AssertUnwindSafe(|| self.run_inner(prof, log, pass, run)));
        res.unwrap_or(RunOut {
            line: None,
            sound: false,
            events: 0,
            puts: 0,
        })
    }

    fn run_inner(
        &self,
        prof: Option<ProfConfig>,
        log: &mut SpanLog,
        pass: usize,
        run: u32,
    ) -> RunOut {
        let t0 = Instant::now();
        match self {
            Job::Grid(spec) => {
                // `execute_with` builds the machine itself, so a grid run's
                // span covers build and run together.
                let r = spec.execute_with(prof);
                let out = Line {
                    app: spec.app.label(),
                    shape: format!("{},pes={},{}", spec.app.shape(), spec.pes, r.backend),
                    seed: spec.seed,
                    metric_ps: r.metric_ps,
                    total_ps: r.total_ps,
                    events: r.stats.events,
                    puts: r.stats.puts,
                    put_bytes: r.stats.put_bytes,
                    callbacks: r.callbacks,
                    retries: r.stats.rel.retries,
                }
                .out(spec.drop_permille > 0 || r.callbacks == r.stats.puts);
                if let Some(p) = &r.prof {
                    log.run_span(pass, run, t0, p);
                }
                out
            }
            Job::Jacobi | Job::Storm => {
                let mut b = self.builder();
                if let Some(cfg) = prof {
                    b = b.with_profiling(cfg);
                }
                let mut m = b.build();
                let t1 = Instant::now();
                let out = if let Job::Jacobi = self {
                    let r = run_jacobi_on(&mut m, JACOBI);
                    let s = m.stats();
                    Line {
                        app: "jacobi3d",
                        shape: format!("domain=128x128x128,chares=16x16x16,pes={JACOBI_PES}"),
                        seed: 0,
                        metric_ps: r.time_per_iter.as_ps(),
                        total_ps: r.total.as_ps(),
                        events: s.events,
                        puts: s.puts,
                        put_bytes: s.put_bytes,
                        callbacks: m.callback_total(),
                        retries: s.rel.retries,
                    }
                    .out(m.callback_total() == s.puts)
                } else {
                    let r = run_chanstorm_on(&mut m, STORM);
                    Line {
                        app: "chanstorm",
                        shape: format!(
                            "registered={},active={},iters={},pes=2",
                            r.registered, r.active, r.iters
                        ),
                        seed: 0,
                        metric_ps: r.total.as_ps() / u64::from(r.iters),
                        total_ps: r.total.as_ps(),
                        events: r.events,
                        puts: r.puts,
                        put_bytes: m.stats().put_bytes,
                        callbacks: r.deliveries,
                        retries: m.stats().rel.retries,
                    }
                    .out(r.deliveries == r.puts && r.destroyed == r.registered as u64)
                };
                if let Some(p) = m.profiler().shard() {
                    log.build_span(pass, run, t0, t1);
                    log.run_span(pass, run, t1, p);
                }
                out
            }
        }
    }
}

/// The deterministic outcome of one run: one line of an expected file,
/// in [`LINE_HEADER`]'s column order.
struct Line {
    app: &'static str,
    shape: String,
    seed: u64,
    metric_ps: u64,
    total_ps: u64,
    events: u64,
    puts: u64,
    put_bytes: u64,
    callbacks: u64,
    retries: u64,
}

impl Line {
    fn out(self, sound: bool) -> RunOut {
        let Line {
            app,
            shape,
            seed,
            metric_ps,
            total_ps,
            events,
            puts,
            put_bytes,
            callbacks,
            retries,
        } = self;
        RunOut {
            line: Some(format!(
                "{app} {shape} {seed} {metric_ps} {total_ps} {events} {puts} {put_bytes} \
                 {callbacks} {retries}"
            )),
            sound,
            events,
            puts,
        }
    }
}

/// Run every job of one pass serially. With `prof`, each run is
/// self-profiled and records `build`/`run` spans under the pass span.
pub fn run_pass(w: Workload, jobs: &[Job], prof: Option<ProfConfig>, log: &mut SpanLog) -> PassOut {
    let pass = log.open_pass(w, prof.is_some());
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        runs.push(job.run(prof, log, pass, i as u32));
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    log.close_pass(pass, t0);
    PassOut {
        wall_ns,
        events: runs.iter().map(|r| r.events).sum(),
        puts: runs.iter().map(|r| r.puts).sum(),
        runs,
    }
}

/// Failed runs of one pass. A run fails if it panicked, broke an
/// invariant, differs from the same run of the `reference` pass, or
/// differs from its `expected` line.
pub fn failed_runs(runs: &[RunOut], reference: &[String], expected: Option<&[&str]>) -> u64 {
    let mut failed = 0;
    for (i, r) in runs.iter().enumerate() {
        let ok = match &r.line {
            None => false,
            Some(l) => {
                r.sound
                    && reference.get(i) == Some(l)
                    && expected.is_none_or(|e| e.get(i) == Some(&l.as_str()))
            }
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The data lines of an expected-output file.
pub fn expected_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Wall time of one `builder().build()` of this run's machine, in
/// nanoseconds; the machine is dropped outside the timed region.
pub fn build_ns(job: &Job) -> f64 {
    let t0 = Instant::now();
    let m = job.builder().build();
    let ns = t0.elapsed().as_nanos() as f64;
    drop(m);
    ns
}
