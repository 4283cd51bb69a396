//! The channel-storm results (`BENCH_channels.json`): a fixed active
//! window over a herd of 1k→100k registered channels on one PE.
//!
//! Every byte of the file is a pure function of the runs: virtual time,
//! event counts, and puts/deliveries/poll-checks per registered-herd
//! size. Modeled poll checks grow with the herd, as the paper's polling
//! model says they must; the simulator's own host cost per sweep does
//! not, and `ckd-perf`'s `core.registry.sweep_ns.armed1k`/`armed100k`
//! ledger pair is where that is measured and gated.

use ckd_apps::chanstorm::{run_chanstorm_on, ChanstormCfg, ChanstormResult};
use ckd_apps::Platform;

/// Schema tag of `BENCH_channels.json`.
pub const CHANNELS_SCHEMA: &str = "ckd-chanstorm/v2";

/// Fixed active window across every herd size.
pub const STORM_ACTIVE: usize = 64;

/// Iterations (waves) per point.
pub const STORM_ITERS: u32 = 20;

/// The registered-herd axis: 1k → 100k channels on one PE.
pub const STORM_REGISTERED: [usize; 3] = [1_000, 10_000, 100_000];

/// Run one channel-storm point on a 2-PE Infiniband machine.
pub fn run_storm_point(registered: usize) -> ChanstormResult {
    let mut m = Platform::IbAbe { cores_per_node: 2 }.builder(2).build();
    run_chanstorm_on(
        &mut m,
        ChanstormCfg {
            registered,
            active: STORM_ACTIVE,
            iters: STORM_ITERS,
        },
    )
}

/// The deterministic JSON line of one point (everything in it is a pure
/// function of the run).
fn det_line(r: &ChanstormResult) -> String {
    format!(
        "{{\"registered\": {}, \"t_ps\": {}, \"events\": {}, \"puts\": {}, \
         \"deliveries\": {}, \"poll_checks\": {}, \"destroyed\": {}}}",
        r.registered,
        r.total.as_ps(),
        r.events,
        r.puts,
        r.deliveries,
        r.poll_checks,
        r.destroyed,
    )
}

/// Render the full `BENCH_channels.json` text.
pub fn channels_json(points: &[ChanstormResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{CHANNELS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"active\": {STORM_ACTIVE},\n"));
    out.push_str(&format!("  \"iters\": {STORM_ITERS},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            det_line(p),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-point keys.
const POINT_KEYS: [&str; 7] = [
    "\"registered\"",
    "\"t_ps\"",
    "\"events\"",
    "\"puts\"",
    "\"deliveries\"",
    "\"poll_checks\"",
    "\"destroyed\"",
];

/// Structural check of a `BENCH_channels.json` file: schema tag, balanced
/// delimiters, no `host` object, per-point keys, a strictly growing
/// registered axis, and an exactly-once delivery invariant on every
/// point. Parser-free like `validate_sweep_json` (the workspace is
/// std-only).
pub fn validate_channels_json(s: &str) -> Result<(), String> {
    if !s.starts_with(&format!("{{\n  \"schema\": \"{CHANNELS_SCHEMA}\"")) {
        return Err(format!("missing schema tag {CHANNELS_SCHEMA:?}"));
    }
    if s.matches('{').count() != s.matches('}').count()
        || s.matches('[').count() != s.matches(']').count()
    {
        return Err("unbalanced delimiters".into());
    }
    if s.contains("\"host\"") {
        return Err("host object found; host numbers come from ckd-perf".into());
    }
    let field = |line: &str, key: &str| -> Result<u64, String> {
        let pat = format!("{key}: ");
        let at = line
            .find(&pat)
            .ok_or_else(|| format!("point missing {key}: {line}"))?;
        line[at + pat.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .map_err(|_| format!("non-integer {key}: {line}"))
    };
    let mut points = 0usize;
    let mut last_registered = 0u64;
    for line in s.lines().filter(|l| l.starts_with("    {\"registered\"")) {
        for key in POINT_KEYS {
            if line.matches(key).count() != 1 {
                return Err(format!("point missing key {key}: {line}"));
            }
        }
        let registered = field(line, "\"registered\"")?;
        if registered <= last_registered {
            return Err(format!(
                "registered axis not increasing ({registered} after {last_registered})"
            ));
        }
        last_registered = registered;
        let puts = field(line, "\"puts\"")?;
        if field(line, "\"deliveries\"")? != puts {
            return Err(format!("deliveries != puts: {line}"));
        }
        if field(line, "\"destroyed\"")? != registered {
            return Err(format!("teardown incomplete: {line}"));
        }
        if field(line, "\"poll_checks\"")? < registered {
            return Err(format!("poll_checks below one full sweep: {line}"));
        }
        points += 1;
    }
    if points == 0 {
        return Err("no points".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_sim::Time;

    fn fake_point(registered: usize) -> ChanstormResult {
        ChanstormResult {
            registered,
            active: STORM_ACTIVE,
            iters: STORM_ITERS,
            total: Time::from_ps(1000),
            puts: 1280,
            deliveries: 1280,
            poll_checks: registered as u64 * 10,
            events: 500,
            destroyed: registered as u64,
        }
    }

    #[test]
    fn emitted_json_validates() {
        let json = channels_json(&[fake_point(1000), fake_point(100_000)]);
        validate_channels_json(&json).unwrap();
        assert!(json.contains("\"points\": ["));
        assert!(
            json.ends_with("  ]\n}\n"),
            "the points array closes the file"
        );
    }

    #[test]
    fn validator_rejects_mangled_files() {
        let good = channels_json(&[fake_point(1000), fake_point(100_000)]);
        assert!(validate_channels_json("").is_err());
        assert!(validate_channels_json("{}\n").is_err());
        let e = validate_channels_json(&good.replace("\"deliveries\": 1280", "\"deliveries\": 7"))
            .unwrap_err();
        assert!(e.contains("deliveries"), "{e}");
        let e = validate_channels_json(&good.replace("\"destroyed\": 1000", "\"destroyed\": 3"))
            .unwrap_err();
        assert!(e.contains("teardown"), "{e}");
        // a shuffled axis is a wrong baseline, not host noise
        let backwards = [fake_point(100_000), fake_point(1000)];
        assert!(validate_channels_json(&channels_json(&backwards)).is_err());
    }

    #[test]
    fn one_real_point_round_trips() {
        // smallest real run: the deterministic line is reproducible, every
        // channel was swept at least once and torn down
        let a = run_storm_point(200);
        let b = run_storm_point(200);
        assert_eq!(det_line(&a), det_line(&b));
        assert!(a.poll_checks >= a.registered as u64);
        assert_eq!(a.destroyed, 200);
        validate_channels_json(&channels_json(&[a])).unwrap();
    }
}
