//! `ckd-sweep` — drive the deterministic parameter-sweep engine from the
//! command line and regenerate the repo's `BENCH_*.json` files.
//!
//! ```text
//! ckd-sweep sweep64  [--workers N] [--out FILE]   # acceptance sweep → BENCH_sweep.json
//! ckd-sweep table1   [--workers N] [--out FILE]   # Table 1 charm rows → BENCH_table1.json
//! ckd-sweep jacobi   [--workers N] [--out FILE]   # Fig 2(a) → BENCH_jacobi.json
//! ckd-sweep matmul   [--workers N] [--out FILE]   # Fig 3(b) → BENCH_matmul.json
//! ckd-sweep backends [--workers N] [--out FILE]   # completion-backend grid → BENCH_backends.json
//! ckd-sweep channels [--out FILE]                 # channel-storm herd axis → BENCH_channels.json
//! ```
//!
//! Every byte a command writes is a pure function of the code and passes
//! its schema check before it is written; the tier-1 test
//! `tests/bench_files.rs` schema-checks all six committed files and
//! byte-compares each with a fresh run. Host throughput is `ckd-perf`'s
//! to measure.
//!
//! With more than one worker, every grid command also runs a one-worker
//! pass and refuses to write unless the two merges are byte-identical.
//! `sweep64` additionally gates the worker pool: its parallel pass must
//! finish within 1.5× the serial pass's wall time.

use std::process::ExitCode;
use std::time::Instant;

use ckd_bench::{BenchFile, BENCH_FILES};

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Opts {
    workers: usize,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workers: cores().min(4),
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// Regenerate `file` with the requested workers, prove a grid's merge
/// matches a serial pass byte-for-byte, and write it to `--out` (default:
/// the committed path).
fn emit(file: &BenchFile, opts: &Opts) -> Result<(), String> {
    let name = file.command;
    let t0 = Instant::now();
    let json = file.render(opts.workers);
    let wall = t0.elapsed();
    if file.grid.is_some() && opts.workers > 1 {
        let t1 = Instant::now();
        let serial = file.render(1);
        let serial_wall = t1.elapsed();
        if serial != json {
            return Err(format!(
                "{name}: {}-worker merge diverged from the serial pass",
                opts.workers
            ));
        }
        let (ms, serial_ms) = (wall.as_secs_f64() * 1e3, serial_wall.as_secs_f64() * 1e3);
        eprintln!(
            "ckd-sweep {name}: wall {ms:.1} ms on {} workers ({} cores), serial {serial_ms:.1} ms",
            opts.workers,
            cores()
        );
        // The worker pool must pay for itself on the headline grid. The
        // 1.5x margin only absorbs hosts with fewer cores than workers,
        // where the pool oversubscribes and pays for context switches.
        if name == "sweep64" && ms > 1.5 * serial_ms {
            return Err(format!(
                "{name}: {}-worker wall {ms:.1} ms exceeds 1.5x the serial {serial_ms:.1} ms",
                opts.workers
            ));
        }
    }
    file.validate(&json)?;
    let path = opts.out.clone().unwrap_or_else(|| file.path());
    std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("ckd-sweep {name}: -> {path}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        let commands: Vec<&str> = BENCH_FILES.iter().map(|f| f.command).collect();
        return Err(format!(
            "usage: ckd-sweep <{}> [--workers N] [--out FILE]",
            commands.join("|")
        ));
    };
    match BENCH_FILES.iter().find(|f| f.command == cmd) {
        Some(file) => emit(file, &parse_opts(&args[1..])?),
        None => Err(format!("unknown command {cmd:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ckd-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
