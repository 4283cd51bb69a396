//! `ckd-check` — certify schedule-independence, hunt schedule bugs, and
//! run the static channel-protocol analysis.
//!
//! ```text
//! ckd-check certify [--budget N] [--out FILE]
//! ckd-check mutant  [--budget N]
//! ckd-check lint    [--gate] <path>...
//! ckd-check validate <file>
//! ```
//!
//! `certify` explores reorderings of same-instant events only
//! ([`CERTIFY_WINDOW`]); `mutant` widens the commutation window to
//! [`MUTANT_WINDOW`] so the mutant's two few-ns-apart replies can swap.
//! The certificate records the window it was explored under.
//!
//! Exit codes: `0` success, `1` a gate failed (violation found where none
//! expected, none found where one expected, ratio too small, static
//! findings outside the mutants), `2` usage error.

use std::fs;
use std::process::ExitCode;

use ckd_check::cases::CheckCase;
use ckd_check::cert::{certificate_json, validate_certificate_json, CaseReport};
use ckd_check::commgraph;
use ckd_check::typestate;
use ckd_sim::Time;

/// Commutation window `certify` explores: same-instant events only.
const CERTIFY_WINDOW: Time = Time::ZERO;
/// Commutation window `mutant` explores: wide enough to swap the
/// mutant's two replies, which land a few ns apart.
const MUTANT_WINDOW: Time = Time::from_ns(2_000);

fn usage() -> ExitCode {
    eprintln!(
        "usage: ckd-check certify [--budget N] [--out FILE]\n       ckd-check mutant  [--budget N]\n       ckd-check lint    [--gate] <path>...\n       ckd-check validate <file>"
    );
    ExitCode::from(2)
}

struct Opts {
    budget: u64,
    out: Option<String>,
    gate: bool,
    paths: Vec<String>,
}

fn parse_opts(args: &[String], default_budget: u64) -> Option<Opts> {
    let mut o = Opts {
        budget: default_budget,
        out: None,
        gate: false,
        paths: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                o.budget = args.get(i + 1)?.parse().ok()?;
                i += 2;
            }
            "--out" => {
                o.out = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--gate" => {
                o.gate = true;
                i += 1;
            }
            a if a.starts_with("--") => return None,
            a => {
                o.paths.push(a.to_owned());
                i += 1;
            }
        }
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "certify" => {
            let Some(o) = parse_opts(&args[1..], 64) else {
                return usage();
            };
            certify(&o)
        }
        "mutant" => {
            let Some(o) = parse_opts(&args[1..], 64) else {
                return usage();
            };
            mutant(&o)
        }
        "lint" => {
            let Some(o) = parse_opts(&args[1..], 0) else {
                return usage();
            };
            if o.paths.is_empty() {
                return usage();
            }
            lint(&o)
        }
        "validate" => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            match fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|s| validate_certificate_json(&s))
            {
                Ok(()) => {
                    println!("{file}: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{file}: INVALID: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn certify(o: &Opts) -> ExitCode {
    let window = CERTIFY_WINDOW;
    let mut reports = Vec::new();
    let mut failed = false;
    for case in CheckCase::APPS {
        let ex = case.explore(window, o.budget);
        let st = &ex.stats;
        println!(
            "{:<12} explored={} naive={} ratio={}x pruned_commuting={} pruned_sleep={} excluded={}{}",
            case.name(),
            st.explored,
            st.naive,
            st.ratio(),
            st.pruned_commuting,
            st.pruned_sleep,
            st.excluded,
            if st.budget_exhausted { " (budget exhausted)" } else { "" },
        );
        if let Some(cx) = &ex.counterexample {
            failed = true;
            println!("  VIOLATION: swapped {}", cx.swapped);
            println!("  canonical: {}", cx.canonical.digest);
            println!("  divergent: {}", cx.divergent.digest);
        } else if st.ratio() < 2 {
            failed = true;
            println!("  GATE: pruning ratio {}x < 2x", st.ratio());
        } else {
            println!("  certified (window {window}, budget {})", o.budget);
        }
        reports.push(CaseReport {
            app: case.name().to_owned(),
            fabric: "ib_abe".to_owned(),
            pes: case.pes(),
            window_ps: window.as_ps(),
            budget: o.budget,
            exploration: ex,
        });
    }
    let doc = certificate_json(&reports);
    if let Err(e) = validate_certificate_json(&doc) {
        eprintln!("internal: emitted certificate fails validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &o.out {
        if let Err(e) = fs::write(path, &doc) {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("certificate -> {path}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn mutant(o: &Opts) -> ExitCode {
    let window = MUTANT_WINDOW;
    let case = CheckCase::SchedMutant;
    let ex = case.explore(window, o.budget);
    let st = &ex.stats;
    println!(
        "{} explored={} naive={} pruned_commuting={} pruned_sleep={} excluded={}",
        case.name(),
        st.explored,
        st.naive,
        st.pruned_commuting,
        st.pruned_sleep,
        st.excluded,
    );
    let Some(cx) = &ex.counterexample else {
        eprintln!(
            "GATE: the schedule-dependent mutant was NOT caught (window {window}, budget {})",
            o.budget
        );
        return ExitCode::FAILURE;
    };
    println!(
        "counterexample after {} run(s): swapped {}",
        st.explored, cx.swapped
    );
    println!("  prescription: {:?}", cx.prescription);
    println!(
        "  canonical: clean={} {}",
        cx.canonical.clean, cx.canonical.digest
    );
    println!(
        "  divergent: clean={} {}",
        cx.divergent.clean, cx.divergent.digest
    );
    // the counterexample must replay deterministically
    let (replayed, _) = case.run_once(window, &cx.prescription);
    if replayed.digest != cx.divergent.digest || replayed.clean != cx.divergent.clean {
        eprintln!(
            "GATE: counterexample did NOT replay (got {})",
            replayed.digest
        );
        return ExitCode::FAILURE;
    }
    println!("  replayed: identical");
    ExitCode::SUCCESS
}

fn lint(o: &Opts) -> ExitCode {
    let findings = match typestate::analyze_paths(&o.paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{}", f.render());
    }
    println!("typestate: {} finding(s)", findings.len());

    // communication graphs, informational
    let mut files = Vec::new();
    for p in &o.paths {
        let _ = collect_rs(std::path::Path::new(p), &mut files);
    }
    files.sort();
    for f in &files {
        if let Ok(src) = fs::read_to_string(f) {
            let g = commgraph::extract(&f.to_string_lossy(), &src);
            if !g.edges.is_empty() {
                print!("{}", g.render());
            }
        }
    }

    if o.gate {
        match typestate::typestate_gate(&findings) {
            Ok(msg) => {
                println!("{msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("GATE: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        ExitCode::SUCCESS
    }
}

fn collect_rs(p: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if p.is_dir() {
        for e in fs::read_dir(p)? {
            collect_rs(&e?.path(), out)?;
        }
    } else if p.extension().is_some_and(|e| e == "rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}
