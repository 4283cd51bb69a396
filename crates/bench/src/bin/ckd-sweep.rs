//! `ckd-sweep` — drive the deterministic parameter-sweep engine from the
//! command line and regenerate the repo's `BENCH_*.json` trajectory files.
//!
//! ```text
//! ckd-sweep sweep64  [--workers N] [--out FILE]   # acceptance sweep → BENCH_sweep.json
//! ckd-sweep table1   [--workers N] [--out FILE]   # Table 1 charm rows → BENCH_table1.json
//! ckd-sweep jacobi   [--workers N] [--out FILE]   # Fig 2(a) → BENCH_jacobi.json
//! ckd-sweep matmul   [--workers N] [--out FILE]   # Fig 3(b) → BENCH_matmul.json
//! ckd-sweep backends [--workers N] [--out FILE]   # completion-backend grid → BENCH_backends.json
//! ckd-sweep smoke    [--workers N]                # tiny grid, asserts N-worker == 1-worker bytes
//! ckd-sweep pdes                                  # sharded-vs-serial byte-compare of a traced run
//! ckd-sweep channels [--out FILE]                 # channel-storm herd scaling → BENCH_channels.json
//! ckd-sweep validate FILE...                      # schema-check BENCH_*.json files
//! ckd-sweep profile  [--workers N] [--out FILE]   # profiled smoke grid: phase table,
//!                                                 # queue depth, snapshot validation
//! ```
//!
//! `--shards N` forces every run of a grid onto the sharded PDES engine
//! (`MachineBuilder::with_shards`); results are byte-identical either way,
//! so the emitted file differs only in the `shards`/`pdes_rounds` fields.
//!
//! `sweep64` also times a one-worker serial pass over the same grid and
//! records the wall-clock speedup in the emitted file; every command
//! verifies that the parallel merge is byte-identical to the serial one
//! before writing anything.

use std::process::ExitCode;
use std::time::Instant;

use ckd_bench::{
    backends_grid, channels_json, fig2a_grid, fig3b_grid, run_storm_point, run_sweep,
    run_sweep_with, smoke_grid, sweep64_grid, sweep_json, table1_grid, validate_channels_json,
    validate_sweep_json, HostReport, RunSpec, CHANNELS_SCHEMA, STORM_REGISTERED,
};
use ckd_charm::{validate_snapshot_jsonl, ProfConfig, ProfShard};

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Opts {
    workers: usize,
    out: Option<String>,
    shards: Option<usize>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workers: cores().min(4),
        out: None,
        shards: None,
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
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                if n == 0 {
                    return Err("--shards must be >= 1".into());
                }
                opts.shards = Some(n);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// Apply a `--shards` override to every grid point.
fn with_shards(grid: Vec<RunSpec>, shards: Option<usize>) -> Vec<RunSpec> {
    match shards {
        None => grid,
        Some(n) => grid
            .into_iter()
            .map(|s| RunSpec { shards: n, ..s })
            .collect(),
    }
}

/// Run `grid` with the requested workers, prove the merge matches a
/// serial pass byte-for-byte, and write the JSON (with host wall-clock)
/// to `out`. `time_serial` additionally times the serial pass for the
/// speedup record; otherwise the serial pass is verification-only.
fn emit(name: &str, grid: &[RunSpec], opts: &Opts, time_serial: bool) -> Result<(), String> {
    eprintln!(
        "ckd-sweep {name}: {} runs on {} workers ({} cores)",
        grid.len(),
        opts.workers,
        cores()
    );
    let t0 = Instant::now();
    let parallel = run_sweep(grid, opts.workers);
    let wall_ns = t0.elapsed().as_nanos();

    let serial_wall_ns = if time_serial || opts.workers > 1 {
        let t1 = Instant::now();
        let serial = run_sweep(grid, 1);
        let ns = t1.elapsed().as_nanos();
        if sweep_json(name, &serial, None) != sweep_json(name, &parallel, None) {
            return Err(format!(
                "{name}: {}-worker merge diverged from the serial pass",
                opts.workers
            ));
        }
        time_serial.then_some(ns)
    } else {
        None
    };

    let host = HostReport {
        workers: opts.workers,
        wall_ns,
        serial_wall_ns,
        cores: cores(),
    };
    let json = sweep_json(name, &parallel, Some(&host));
    validate_sweep_json(&json)?;
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "ckd-sweep {name}: wall {:.1} ms{} -> {path}",
        wall_ns as f64 / 1e6,
        match serial_wall_ns {
            Some(s) => format!(
                ", serial {:.1} ms, speedup {:.2}x",
                s as f64 / 1e6,
                s as f64 / wall_ns.max(1) as f64
            ),
            None => String::new(),
        }
    );
    Ok(())
}

fn smoke(opts: &Opts) -> Result<(), String> {
    let grid = smoke_grid();
    let one = sweep_json("smoke", &run_sweep(&grid, 1), None);
    let many = sweep_json("smoke", &run_sweep(&grid, opts.workers.max(2)), None);
    if one != many {
        return Err(format!(
            "smoke: {}-worker sweep diverged from 1-worker sweep",
            opts.workers.max(2)
        ));
    }
    validate_sweep_json(&one)?;
    eprintln!(
        "ckd-sweep smoke: {} runs byte-identical across 1 and {} workers",
        grid.len(),
        opts.workers.max(2)
    );
    Ok(())
}

/// Profiled smoke grid: prove the snapshot streams are byte-identical
/// across worker counts, validate every stream's JSONL structure, then
/// merge the per-run shards and print the machine-wide profile report.
fn profile(opts: &Opts) -> Result<(), String> {
    let grid = smoke_grid();
    // The smallest smoke point finishes in under 50 scheduler events, so a
    // cadence of 16 guarantees every run emits at least one snapshot.
    let cfg = ProfConfig { snapshot_every: 16 };
    let workers = opts.workers.max(2);
    let one = run_sweep_with(&grid, 1, Some(cfg));
    let many = run_sweep_with(&grid, workers, Some(cfg));
    let mut snapshot_lines = 0usize;
    for (i, (a, b)) in one.iter().zip(&many).enumerate() {
        if a.snapshots != b.snapshots {
            return Err(format!(
                "profile: run {i} snapshot stream diverged between 1 and {workers} workers"
            ));
        }
        let jsonl = a
            .snapshots
            .as_deref()
            .ok_or_else(|| format!("profile: run {i} carries no snapshot stream"))?;
        snapshot_lines += validate_snapshot_jsonl(jsonl).map_err(|e| format!("run {i}: {e}"))?;
    }
    let mut merged = ProfShard::default();
    for r in &one {
        merged.merge(r.prof.as_ref().expect("profiled run carries a shard"));
    }
    let report = merged.render();
    if let Some(path) = &opts.out {
        std::fs::write(path, &report).map_err(|e| format!("writing {path}: {e}"))?;
    } else {
        print!("{report}");
    }
    eprintln!(
        "ckd-sweep profile: {} runs, {snapshot_lines} snapshots byte-identical \
         across 1 and {workers} workers",
        grid.len()
    );
    Ok(())
}

/// The PDES smoke: run a small traced Jacobi once on the serial engine
/// and once on 2 shards, and require every export byte — trace JSON, text
/// summary, `{:#?}` stats — to be identical. This is the one-command
/// version of `tests/pdes_determinism.rs`, cheap enough for every
/// `scripts/check.sh` run.
fn pdes() -> Result<(), String> {
    use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
    use ckd_apps::{Platform, Variant};
    use ckd_charm::{chrome_trace_json, TraceConfig};

    let cfg = JacobiCfg {
        domain: [16, 16, 16],
        chares: [2, 2, 2],
        iters: 3,
        variant: Variant::Ckd,
        real_compute: false,
    };
    let platform = Platform::IbAbe { cores_per_node: 2 };
    let run = |shards: usize| {
        let mut m = platform
            .builder(8)
            .with_tracing(TraceConfig::default())
            .with_shards(shards)
            .build();
        run_jacobi_on(&mut m, cfg);
        let exports = (
            chrome_trace_json(m.tracer()).ok_or("pdes: run was not traced")?,
            m.trace_summary().ok_or("pdes: run was not traced")?,
            format!("{:#?}\n", m.stats()),
        );
        Ok::<_, String>((exports, m.pdes_stats()))
    };
    let (serial, none) = run(1)?;
    if none.is_some() {
        return Err("pdes: shards=1 must run the serial engine".into());
    }
    let (sharded, stats) = run(2)?;
    if serial != sharded {
        return Err("pdes: sharded exports diverged from serial".into());
    }
    let stats = stats.ok_or("pdes: sharded run reported no engine stats")?;
    if stats.rounds == 0 {
        return Err("pdes: engine never started a round".into());
    }
    if stats.window_spills > 0 {
        return Err(format!(
            "pdes: {} events violated the safe window",
            stats.window_spills
        ));
    }
    eprintln!(
        "ckd-sweep pdes: 2-shard run byte-identical to serial \
         ({} rounds, {} cross-shard events)",
        stats.rounds, stats.cross_shard
    );
    Ok(())
}

/// The channel-storm trajectory: a fixed active window over a herd of
/// 1k→100k registered channels on one PE. Proves (a) the deterministic
/// section is byte-identical across repeats and across the serial/PDES
/// engines, and (b) host cost per sweep stays roughly flat as the herd
/// grows 100× — the O(active) claim of the sharded poll rings. The
/// linear-scan plane this replaced would fail (b) by ~two orders of
/// magnitude.
fn channels(opts: &Opts) -> Result<(), String> {
    // (a) determinism: repeat the smallest point serially, then run it on
    // the 2-shard PDES engine; all deterministic bytes must agree.
    let probe = STORM_REGISTERED[0];
    let first = run_storm_point(probe, 1);
    let again = run_storm_point(probe, 1);
    if ckd_bench::chanstorm::det_line(&first.result)
        != ckd_bench::chanstorm::det_line(&again.result)
        || first.stats_debug != again.stats_debug
    {
        return Err("channels: serial re-run diverged".into());
    }
    let sharded = run_storm_point(probe, 2);
    if ckd_bench::chanstorm::det_line(&first.result)
        != ckd_bench::chanstorm::det_line(&sharded.result)
        || first.stats_debug != sharded.stats_debug
    {
        return Err("channels: PDES engine diverged from serial".into());
    }

    let mut points = vec![first];
    for &registered in &STORM_REGISTERED[1..] {
        points.push(run_storm_point(registered, 1));
    }
    for p in &points {
        eprintln!(
            "ckd-sweep channels: registered {:>6}  sweeps {:>5}  ns/sweep {:>8.0}",
            p.result.registered,
            p.sweeps,
            p.ns_per_sweep()
        );
    }

    // (b) flatness: growing the herd 100x must not grow per-sweep host
    // cost by more than 3x (plus a fixed 5us of timer slack for tiny
    // absolute costs). O(registered) behavior would show ~100x here.
    let (small, large) = (
        points[0].ns_per_sweep(),
        points[points.len() - 1].ns_per_sweep(),
    );
    if points.iter().any(|p| p.sweeps == 0) {
        return Err("channels: a point ran no sweeps".into());
    }
    if large > 3.0 * small + 5_000.0 {
        return Err(format!(
            "channels: per-sweep host cost scales with the herd \
             ({large:.0} ns at {} vs {small:.0} ns at {} registered)",
            points[points.len() - 1].result.registered,
            points[0].result.registered,
        ));
    }

    let json = channels_json(&points, cores());
    validate_channels_json(&json)?;
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_channels.json".to_string());
    std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "ckd-sweep channels: host cost flat across a 100x herd \
         ({small:.0} -> {large:.0} ns/sweep) -> {path}"
    );
    Ok(())
}

fn validate(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err("validate: no files given".into());
    }
    for p in paths {
        let s = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        // dispatch on the schema tag: channel-storm files have their own
        // shape; everything else is a sweep trajectory
        if s.contains(CHANNELS_SCHEMA) {
            validate_channels_json(&s).map_err(|e| format!("{p}: {e}"))?;
        } else {
            validate_sweep_json(&s).map_err(|e| format!("{p}: {e}"))?;
        }
        eprintln!("ckd-sweep validate: {p} ok");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(
            "usage: ckd-sweep <sweep64|table1|jacobi|matmul|backends|smoke|pdes|channels|profile\
             |validate> [--workers N] [--out FILE] [--shards N]"
                .into(),
        );
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "sweep64" => {
            let opts = parse_opts(rest)?;
            emit(
                "sweep",
                &with_shards(sweep64_grid(), opts.shards),
                &opts,
                true,
            )
        }
        "table1" => {
            let opts = parse_opts(rest)?;
            emit(
                "table1",
                &with_shards(table1_grid(), opts.shards),
                &opts,
                false,
            )
        }
        "jacobi" => {
            let opts = parse_opts(rest)?;
            emit(
                "jacobi",
                &with_shards(fig2a_grid(), opts.shards),
                &opts,
                false,
            )
        }
        "matmul" => {
            let opts = parse_opts(rest)?;
            emit(
                "matmul",
                &with_shards(fig3b_grid(), opts.shards),
                &opts,
                false,
            )
        }
        "backends" => {
            let opts = parse_opts(rest)?;
            emit(
                "backends",
                &with_shards(backends_grid(), opts.shards),
                &opts,
                false,
            )
        }
        "smoke" => smoke(&parse_opts(rest)?),
        "pdes" => pdes(),
        "channels" => channels(&parse_opts(rest)?),
        // both spellings: `profile` as a subcommand, `--profile` as a flag
        "profile" | "--profile" => profile(&parse_opts(rest)?),
        "validate" => validate(rest),
        other => Err(format!("unknown command {other:?}")),
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
