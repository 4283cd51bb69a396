//! Shared harness utilities for the table/figure reproduction benches.
//!
//! Every table and figure of the paper has a `[[bench]]` target (with
//! `harness = false`) that runs the corresponding experiment on the
//! discrete-event machine and prints the same rows/series the paper
//! reports, side by side with the paper's numbers where useful.
//!
//! Environment knobs:
//!
//! * `CKD_QUICK=1` — shrink sweeps for smoke runs (CI);
//! * `CKD_FULL=1` — extend sweeps to the paper's largest configurations
//!   (4096 simulated PEs; several minutes of wall time);
//! * `CKD_TRACE=1` — enable `ckd-trace` on machines the bench opts in via
//!   [`maybe_trace`]; each opted-in run then dumps a text summary through
//!   [`trace_epilogue`]. Off by default so timing loops stay untouched.

use ckd_charm::{Machine, MachineBuilder, TraceConfig};
use ckd_sim::Time;

pub mod chanstorm;
pub mod sweep;

pub use chanstorm::{
    channels_json, run_storm_point, validate_channels_json, CHANNELS_SCHEMA, STORM_ACTIVE,
    STORM_ITERS, STORM_REGISTERED,
};
pub use sweep::{
    backends_grid, fig2a_grid, fig3b_grid, run_sweep, run_sweep_with, smoke_grid, sweep64_grid,
    sweep_json, table1_grid, validate_sweep_json, AppCase, BackendSel, RunRecord, RunSpec, SCHEMA,
};

/// One committed `BENCH_*.json` file and the `ckd-sweep` command that
/// regenerates it. Every byte of every such file is a pure function of
/// the code; tier-1 regenerates all of them and byte-compares.
pub struct BenchFile {
    /// `ckd-sweep` subcommand that writes the file.
    pub command: &'static str,
    /// The file's `name`; it lives at `BENCH_<name>.json`.
    pub name: &'static str,
    /// The sweep grid, or `None` for the channel storm (a fixed
    /// [`STORM_REGISTERED`] axis, not a sweep).
    pub grid: Option<fn() -> Vec<RunSpec>>,
}

/// Every committed `BENCH_*.json` file, in `ckd-sweep` usage order.
pub const BENCH_FILES: [BenchFile; 6] = [
    BenchFile::new("sweep64", "sweep", Some(sweep64_grid)),
    BenchFile::new("table1", "table1", Some(table1_grid)),
    BenchFile::new("jacobi", "jacobi", Some(fig2a_grid)),
    BenchFile::new("matmul", "matmul", Some(fig3b_grid)),
    BenchFile::new("backends", "backends", Some(backends_grid)),
    BenchFile::new("channels", "channels", None),
];

impl BenchFile {
    const fn new(
        command: &'static str,
        name: &'static str,
        grid: Option<fn() -> Vec<RunSpec>>,
    ) -> Self {
        Self {
            command,
            name,
            grid,
        }
    }

    /// Path of the file, relative to the repository root.
    pub fn path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The file's full text, computed with `workers` sweep threads (the
    /// bytes do not depend on the count).
    pub fn render(&self, workers: usize) -> String {
        match self.grid {
            Some(g) => sweep_json(self.name, &run_sweep(&g(), workers)),
            None => channels_json(&STORM_REGISTERED.map(run_storm_point)),
        }
    }

    /// Schema-check a text claiming to be this file.
    pub fn validate(&self, text: &str) -> Result<(), String> {
        match self.grid {
            Some(_) => validate_sweep_json(text),
            None => validate_channels_json(text),
        }
    }
}

/// True when `CKD_TRACE=1` asks benches to collect traces.
pub fn tracing_requested() -> bool {
    std::env::var_os("CKD_TRACE").is_some_and(|v| v == "1")
}

/// Add the tracing layer to a machine under construction when
/// `CKD_TRACE=1`; pass-through (and no overhead beyond this check)
/// otherwise. Thread the builder through before `.build()`.
pub fn maybe_trace(b: MachineBuilder) -> MachineBuilder {
    if tracing_requested() {
        b.with_tracing(TraceConfig::default())
    } else {
        b
    }
}

/// Print the trace summary for a labeled run if tracing was enabled.
pub fn trace_epilogue(label: &str, m: &Machine) {
    if let Some(summary) = m.trace_summary() {
        println!();
        println!("--- trace summary: {label} ---");
        print!("{summary}");
    }
}

/// Sweep scale selected by environment variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sweeps.
    Quick,
    /// Default sweeps (minutes of wall time in total).
    Standard,
    /// The paper's largest configurations.
    Full,
}

/// Read the sweep scale from the environment.
pub fn scale() -> Scale {
    if std::env::var_os("CKD_QUICK").is_some() {
        Scale::Quick
    } else if std::env::var_os("CKD_FULL").is_some() {
        Scale::Full
    } else {
        Scale::Standard
    }
}

/// Pick a sweep by scale.
pub fn pick<T: Clone>(s: Scale, quick: &[T], standard: &[T], full: &[T]) -> Vec<T> {
    match s {
        Scale::Quick => quick.to_vec(),
        Scale::Standard => standard.to_vec(),
        Scale::Full => full.to_vec(),
    }
}

/// The message sizes of Tables 1–2 (bytes).
pub const TABLE_SIZES: [usize; 10] = [
    100, 1_000, 5_000, 10_000, 20_000, 30_000, 40_000, 70_000, 100_000, 500_000,
];

/// Render one row of a table: a label and µs values.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:<18}");
    for v in values {
        print!(" {v:>9.3}");
    }
    println!();
}

/// Render a row of [`Time`]s in µs.
pub fn print_time_row(label: &str, values: &[Time]) {
    let us: Vec<f64> = values.iter().map(|t| t.as_us_f64()).collect();
    print_row(label, &us);
}

/// Header row with sizes in KB, as the paper prints them.
pub fn print_size_header() {
    print!("{:<18}", "Message Size(KB)");
    for s in TABLE_SIZES {
        print!(" {:>9.1}", s as f64 / 1000.0);
    }
    println!();
}

/// Simple section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Percentage improvement (Fig 2's y-axis).
pub fn improvement(base: Time, better: Time) -> f64 {
    100.0 * (base.as_secs_f64() - better.as_secs_f64()) / base.as_secs_f64()
}
