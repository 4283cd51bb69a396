//! The committed result files are pure functions of the code.
//!
//! Every `BENCH_*.json` file is regenerated here from its grid and
//! compared byte-for-byte with the committed copy, so a change that moves
//! one virtual-time byte of a paper table or figure fails tier-1 and says
//! how to regenerate. The files carry no host numbers: host throughput
//! lives only in `ckd-perf`'s output and its trajectory,
//! `BENCH_perf.json`, whose rows are checked for shape here.

use ckd_bench::BENCH_FILES;

fn committed(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

#[test]
fn committed_bench_files_are_reproduced_byte_for_byte() {
    let mut failures = Vec::new();
    for file in &BENCH_FILES {
        let path = file.path();
        let old = committed(&path);
        if let Err(e) = file.validate(&old) {
            failures.push(format!("{path}: {e}"));
        }
        let fresh = file.render(2);
        if fresh != old {
            let line = fresh
                .lines()
                .zip(old.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| fresh.lines().count().min(old.lines().count()));
            failures.push(format!(
                "{path} differs from a fresh run at line {}; if the change is \
                 intended, regenerate it with\n  \
                 cargo run --release --offline -p ckd-bench --bin ckd-sweep -- {}",
                line + 1,
                file.command
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn host_objects_are_rejected() {
    for file in &BENCH_FILES {
        let path = file.path();
        let old = committed(&path);
        let body = old
            .strip_suffix("\n}\n")
            .expect("file ends with \"\\n}\\n\"");
        let with_host = format!("{body},\n  \"host\": {{\"cores\": 2}}\n}}\n");
        let e = file
            .validate(&with_host)
            .expect_err(&format!("{path}: a host object must be rejected"));
        assert!(
            e.contains("host"),
            "{path}: error must name the host object: {e}"
        );
    }
}

/// One row per change, each naming the commit, the host fingerprint and
/// every `ckd-perf` workload's end-to-end medians.
#[test]
fn perf_trajectory_rows_name_every_workload() {
    let text = committed("BENCH_perf.json");
    assert!(text.starts_with("{\n  \"schema\": \"ckd-perf-trajectory/v1\""));
    let rows: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("    {\"commit\": "))
        .collect();
    assert!(
        rows.len() >= 2,
        "the trajectory needs a parent row and a change row"
    );
    for row in rows {
        for key in ["\"cores\": ", "\"calib_ms\": "] {
            assert!(row.contains(key), "row lacks {key}: {row}");
        }
        for workload in ["sweep64", "jacobi4k", "chanstorm", "backends"] {
            let at = row
                .find(&format!("\"{workload}\": {{"))
                .unwrap_or_else(|| panic!("row lacks {workload}: {row}"));
            let rest = &row[at..];
            let block = &rest[..rest.find("}}").expect("workload block closes")];
            for metric in ["events_per_s", "puts_per_s", "setup_s", "peak_rss_mb"] {
                assert!(
                    block.contains(&format!("\"{metric}\": {{\"median\": ")),
                    "{workload} lacks {metric}: {row}"
                );
            }
        }
    }
}
