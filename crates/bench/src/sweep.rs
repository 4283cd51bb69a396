//! `ckd-sweep`: a multi-threaded, deterministic parameter-sweep engine.
//!
//! A sweep is a grid of independent simulation runs — `{app} × {fabric
//! preset} × {size} × {seed} × {fault plan}` — described by plain-data
//! [`RunSpec`]s. Workers pull grid indices from a shared atomic counter,
//! build an isolated [`Machine`](ckd_charm::Machine) *inside the worker
//! thread* (machines are deliberately not `Send`: chares hold `Rc`
//! regions), run it to completion, and send back a plain-data
//! [`RunRecord`]. Records are merged in grid order, so the sweep output is
//! byte-identical regardless of worker count — including one — and
//! identical to a hand-rolled serial loop over the same grid. The host's
//! only influence is wall-clock, which nothing here records: host
//! throughput is `ckd-perf`'s to measure.
//!
//! The `ckd-sweep` bin drives the paper-figure grids defined here and
//! writes the repo's `BENCH_*.json` result files.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_on, MatmulCfg};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::pingpong::charm_pingpong_on;
use ckd_apps::{Platform, Variant};
use ckd_charm::{FaultPlan, MachineStats, ProfConfig, ProfShard};

use crate::TABLE_SIZES;

/// Schema tag of every JSON file this module emits, and the only one
/// [`validate_sweep_json`] accepts. Per-run lines carry the spec, the
/// virtual-time metrics, the machine's counters, and `backend`/`cq_drains`
/// (which put-completion backend the run used — `ib-sentinel-poll`,
/// `dcmf-callback`, `notified-put`, `shared-mem` — and how many CQ
/// notification records it drained).
pub const SCHEMA: &str = "ckd-sweep/v5";

/// One application grid point: which app to run and its shape parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppCase {
    /// Two-PE round trip of `bytes`-sized payloads.
    Pingpong {
        /// Payload size per leg.
        bytes: usize,
    },
    /// 3-D stencil with halo exchange.
    Jacobi {
        /// Global domain extents.
        domain: [usize; 3],
        /// Chare grid (must divide the domain).
        chares: [usize; 3],
    },
    /// 3-D matrix multiplication.
    Matmul {
        /// Matrix dimension N.
        n: usize,
        /// Chare-grid edge (`grid³` chares).
        grid: usize,
    },
    /// OpenAtom PairCalculator mini-app.
    OpenAtom {
        /// Electronic states.
        nstates: usize,
        /// Planes per state.
        nplanes: usize,
        /// States per PairCalculator block.
        grain: usize,
        /// Doubles streamed GS→PC.
        pts: usize,
    },
}

impl AppCase {
    /// Table/JSON label of the application.
    pub fn label(self) -> &'static str {
        match self {
            AppCase::Pingpong { .. } => "pingpong",
            AppCase::Jacobi { .. } => "jacobi3d",
            AppCase::Matmul { .. } => "matmul3d",
            AppCase::OpenAtom { .. } => "openatom",
        }
    }

    /// Headline size of the grid point (the sweep's size axis).
    pub fn size(self) -> usize {
        match self {
            AppCase::Pingpong { bytes } => bytes,
            AppCase::Jacobi { domain, .. } => domain[0],
            AppCase::Matmul { n, .. } => n,
            AppCase::OpenAtom { pts, .. } => pts,
        }
    }

    /// Full shape of the grid point, for the JSON record.
    pub fn shape(self) -> String {
        match self {
            AppCase::Pingpong { bytes } => format!("bytes={bytes}"),
            AppCase::Jacobi { domain, chares } => format!(
                "domain={}x{}x{},chares={}x{}x{}",
                domain[0], domain[1], domain[2], chares[0], chares[1], chares[2]
            ),
            AppCase::Matmul { n, grid } => format!("n={n},grid={grid}"),
            AppCase::OpenAtom {
                nstates,
                nplanes,
                grain,
                pts,
            } => format!("nstates={nstates},nplanes={nplanes},grain={grain},pts={pts}"),
        }
    }
}

/// Which put-completion backend a grid point runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSel {
    /// The fabric's matching backend (sentinel polling on Infiniband,
    /// DCMF callbacks on BG/P, notified puts on Slingshot).
    Auto,
    /// Force the shared-memory flag backend (single-node runs).
    SharedMem,
}

/// One grid point of a sweep: plain data, safe to share across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Application and shape.
    pub app: AppCase,
    /// Transport variant (messages vs CkDirect).
    pub variant: Variant,
    /// Fabric preset the machine is built from.
    pub platform: Platform,
    /// Processor count.
    pub pes: usize,
    /// Timed iterations (steps for OpenAtom).
    pub iters: u32,
    /// Fault-plan seed; only meaningful when `drop_permille > 0`.
    pub seed: u64,
    /// Packet drop probability in permille (0 = no fault plane at all).
    pub drop_permille: u32,
    /// Ignored: this once chose a shard count for a sharded engine whose
    /// runs were byte-identical to serial ones for every count, so
    /// ignoring it keeps its documented meaning. Only `ckd-perf`'s tests
    /// still read it.
    pub shards: usize,
    /// Put-completion backend ([`BackendSel::Auto`] follows the fabric).
    pub backend: BackendSel,
}

/// The deterministic outcome of one grid point plus the machine's full
/// counter set — everything the merged sweep output is built from — and,
/// when the run was profiled, the host-side profile riding along.
///
/// Equality compares only the deterministic fields (spec, virtual-time
/// metrics, counters, and the snapshot stream); the wall-clock parts of
/// `prof` legitimately vary across hosts and worker counts and are
/// excluded, so the determinism suite can keep asserting whole-record
/// equality across worker counts.
#[derive(Clone, Debug, Eq)]
pub struct RunRecord {
    /// The grid point that produced this record.
    pub spec: RunSpec,
    /// Headline virtual-time metric in picoseconds (RTT for pingpong,
    /// time per iteration/step for the others).
    pub metric_ps: u64,
    /// Virtual time at completion.
    pub total_ps: u64,
    /// Puts the runtime reported retried or degraded.
    pub lossy_puts: u64,
    /// Machine-wide statistics of the run.
    pub stats: MachineStats,
    /// CkDirect completion callbacks delivered (summed over PEs).
    pub callbacks: u64,
    /// Handles examined by poll sweeps (summed over PEs).
    pub poll_checks: u64,
    /// Name of the put-completion backend the run actually used.
    pub backend: &'static str,
    /// The run's JSONL snapshot stream when profiling was on
    /// (deterministic, so it participates in equality).
    pub snapshots: Option<String>,
    /// The run's profiler shard when profiling was on (wall-clock phase
    /// table is host-side; excluded from equality — the deterministic
    /// histograms inside are compared explicitly by the tests).
    pub prof: Option<ProfShard>,
}

impl PartialEq for RunRecord {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.metric_ps == other.metric_ps
            && self.total_ps == other.total_ps
            && self.lossy_puts == other.lossy_puts
            && self.stats == other.stats
            && self.callbacks == other.callbacks
            && self.poll_checks == other.poll_checks
            && self.backend == other.backend
            && self.snapshots == other.snapshots
    }
}

impl RunSpec {
    /// Build the machine for this grid point and run it to completion.
    /// Everything happens inside the calling thread; the result is plain
    /// data.
    pub fn execute(&self) -> RunRecord {
        self.execute_with(None)
    }

    /// [`RunSpec::execute`] with optional self-profiling: the record then
    /// carries the run's [`ProfShard`] and snapshot JSONL.
    pub fn execute_with(&self, prof: Option<ProfConfig>) -> RunRecord {
        let mut b = self.platform.builder(self.pes);
        if let BackendSel::SharedMem = self.backend {
            b = b.with_backend(ckd_charm::backend::SharedMem);
        }
        if self.drop_permille > 0 {
            let p = f64::from(self.drop_permille) / 1000.0;
            b = b.with_faults(FaultPlan::new(self.seed).with_drop(p));
        }
        if let Some(cfg) = prof {
            b = b.with_profiling(cfg);
        }
        let mut m = b.build();
        let (metric_ps, lossy_puts) = match self.app {
            AppCase::Pingpong { bytes } => {
                let r = charm_pingpong_on(&mut m, self.variant, bytes, self.iters);
                (r.rtt.as_ps(), r.lossy_puts)
            }
            AppCase::Jacobi { domain, chares } => {
                let r = run_jacobi_on(
                    &mut m,
                    JacobiCfg {
                        domain,
                        chares,
                        iters: self.iters,
                        variant: self.variant,
                        real_compute: false,
                    },
                );
                (r.time_per_iter.as_ps(), r.lossy_puts)
            }
            AppCase::Matmul { n, grid } => {
                let r = run_matmul_on(
                    &mut m,
                    MatmulCfg {
                        n,
                        grid,
                        iters: self.iters,
                        variant: self.variant,
                        real_compute: false,
                    },
                );
                (r.time_per_iter.as_ps(), r.lossy_puts)
            }
            AppCase::OpenAtom {
                nstates,
                nplanes,
                grain,
                pts,
            } => {
                let r = run_openatom_on(
                    &mut m,
                    OpenAtomCfg {
                        nstates,
                        nplanes,
                        grain,
                        pts,
                        steps: self.iters,
                        variant: self.variant,
                        pc_only: false,
                        ready_split: true,
                    },
                );
                (r.time_per_step.as_ps(), r.lossy_puts)
            }
        };
        RunRecord {
            spec: *self,
            metric_ps,
            total_ps: m.now().as_ps(),
            lossy_puts,
            stats: m.stats().clone(),
            callbacks: m.callback_total(),
            poll_checks: m.poll_check_total(),
            backend: m.backend().name(),
            snapshots: m.profiler().snapshots_jsonl().map(str::to_string),
            prof: m.profiler().shard().cloned(),
        }
    }
}

/// Execute every grid point across `workers` OS threads and merge the
/// records in grid order.
///
/// Each run is an isolated simulation, so grid points can execute in any
/// real-time order on any thread; the merged result only depends on the
/// grid. `workers == 1` degenerates to a serial loop over the grid.
pub fn run_sweep(grid: &[RunSpec], workers: usize) -> Vec<RunRecord> {
    run_sweep_with(grid, workers, None)
}

/// [`run_sweep`] with optional self-profiling of every run: each record
/// then carries a per-run [`ProfShard`] (merge them for a machine-wide
/// report) and a deterministic snapshot stream.
pub fn run_sweep_with(
    grid: &[RunSpec],
    workers: usize,
    prof: Option<ProfConfig>,
) -> Vec<RunRecord> {
    assert!(workers >= 1, "a sweep needs at least one worker");
    if workers == 1 || grid.len() <= 1 {
        return grid.iter().map(|s| s.execute_with(prof)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RunRecord)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = grid.get(i) else { break };
                if tx.send((i, spec.execute_with(prof))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<RunRecord>> = grid.iter().map(|_| None).collect();
        for (i, rec) in rx {
            debug_assert!(slots[i].is_none(), "grid point {i} executed twice");
            slots[i] = Some(rec);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every grid point executed exactly once"))
            .collect()
    })
}

// ---- JSON emission ------------------------------------------------------

/// Platform label used in JSON records.
fn platform_label(p: Platform) -> String {
    match p {
        Platform::IbAbe { cores_per_node } => format!("ib_abe(cpn={cores_per_node})"),
        Platform::Bgp => "bgp".to_string(),
        Platform::Slingshot => "slingshot".to_string(),
    }
}

/// Render the merged sweep as JSON.
///
/// The text is a pure function of the grid: integer picosecond metrics
/// and counters, one run per line, grid order. Determinism tests compare
/// it byte-for-byte across worker counts, and tier-1 compares it with the
/// committed `BENCH_*.json` files.
pub fn sweep_json(name: &str, records: &[RunRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 256 + 512);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"name\": \"{name}\",\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let s = &r.spec;
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"shape\": \"{}\", \"size\": {}, \"variant\": \"{}\", \
             \"platform\": \"{}\", \"pes\": {}, \"iters\": {}, \"seed\": {}, \
             \"drop_permille\": {}, \"metric_ps\": {}, \"total_ps\": {}, \"lossy_puts\": {}, \
             \"events\": {}, \"msgs_sent\": {}, \"msg_bytes\": {}, \"puts\": {}, \
             \"put_bytes\": {}, \"reductions\": {}, \"retries\": {}, \"callbacks\": {}, \
             \"poll_checks\": {}, \"backend\": \"{}\", \"cq_drains\": {}}}{}\n",
            s.app.label(),
            s.app.shape(),
            s.app.size(),
            s.variant.label().to_ascii_lowercase(),
            platform_label(s.platform),
            s.pes,
            s.iters,
            s.seed,
            s.drop_permille,
            r.metric_ps,
            r.total_ps,
            r.lossy_puts,
            r.stats.events,
            r.stats.msgs_sent,
            r.stats.msg_bytes,
            r.stats.puts,
            r.stats.put_bytes,
            r.stats.reductions,
            r.stats.rel.retries,
            r.callbacks,
            r.poll_checks,
            r.backend,
            r.stats.cq_drains,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-run keys every [`SCHEMA`] run line carries.
const RUN_KEYS: [&str; 13] = [
    "\"app\"",
    "\"variant\"",
    "\"platform\"",
    "\"pes\"",
    "\"iters\"",
    "\"seed\"",
    "\"metric_ps\"",
    "\"total_ps\"",
    "\"events\"",
    "\"callbacks\"",
    "\"poll_checks\"",
    "\"backend\"",
    "\"cq_drains\"",
];

/// Structural check of a `BENCH_*.json` sweep file: the [`SCHEMA`] tag,
/// balanced delimiters, every per-run key on every run line — errors
/// name the missing field — and no `host` object (host numbers come from
/// `ckd-perf` alone). Deliberately parser-free (the workspace is
/// std-only), like the trace-export sanity tests.
pub fn validate_sweep_json(s: &str) -> Result<(), String> {
    if !s.starts_with(&format!("{{\n  \"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    if !s.contains("\"name\": ") || !s.contains("\"runs\": [") {
        return Err("missing name/runs".into());
    }
    if s.matches('{').count() != s.matches('}').count()
        || s.matches('[').count() != s.matches(']').count()
    {
        return Err("unbalanced delimiters".into());
    }
    let runs = s
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"app\""))
        .count();
    if runs == 0 {
        return Err("no runs".into());
    }
    for key in RUN_KEYS {
        let n = s.matches(key).count();
        if n != runs {
            return Err(format!("{SCHEMA}: missing key {key} ({n}/{runs} runs)"));
        }
    }
    if s.contains("\"host\"") {
        return Err(format!(
            "{SCHEMA}: host object found; host numbers come from ckd-perf"
        ));
    }
    Ok(())
}

// ---- the paper-figure grids ---------------------------------------------

/// The acceptance sweep: 4 apps × 4 sizes × 4 seeds on the Infiniband
/// (Abe) preset under a light (2 %) drop plan, so the seed axis actually
/// changes each run's retransmission history.
pub fn sweep64_grid() -> Vec<RunSpec> {
    const SEEDS: [u64; 4] = [0x5EED, 0xC0FFEE, 42, 7];
    let abe = Platform::IbAbe { cores_per_node: 2 };
    let mut grid = Vec::with_capacity(64);
    for size_class in 0..4usize {
        let apps = [
            (
                AppCase::Pingpong {
                    bytes: [4096, 16384, 65536, 262144][size_class],
                },
                2500,
            ),
            (
                AppCase::Jacobi {
                    domain: [[32, 32, 32], [48, 48, 48], [64, 64, 64], [80, 80, 80]][size_class],
                    chares: [4, 4, 4],
                },
                60,
            ),
            (
                AppCase::Matmul {
                    n: [256, 384, 512, 640][size_class],
                    grid: 4,
                },
                10,
            ),
            (
                AppCase::OpenAtom {
                    nstates: 16,
                    nplanes: 2,
                    grain: 4,
                    pts: [256, 512, 768, 1024][size_class],
                },
                20,
            ),
        ];
        for (app, iters) in apps {
            for seed in SEEDS {
                grid.push(RunSpec {
                    app,
                    variant: Variant::Ckd,
                    platform: abe,
                    pes: 8,
                    iters,
                    seed,
                    drop_permille: 20,
                    shards: 1,
                    backend: BackendSel::Auto,
                });
            }
        }
    }
    grid
}

/// Table 1's charm rows: pingpong RTT over the paper's message sizes for
/// both transports on the Abe model.
pub fn table1_grid() -> Vec<RunSpec> {
    let abe = Platform::IbAbe { cores_per_node: 2 };
    let mut grid = Vec::new();
    for variant in [Variant::Msg, Variant::Ckd] {
        for bytes in TABLE_SIZES {
            grid.push(RunSpec {
                app: AppCase::Pingpong { bytes },
                variant,
                platform: abe,
                pes: 8,
                iters: 30,
                seed: 0,
                drop_permille: 0,
                shards: 1,
                backend: BackendSel::Auto,
            });
        }
    }
    grid
}

/// A chare grid of roughly `8 × pes` cuboids whose extents divide the
/// domain (powers of two throughout) — Fig 2's virtualization ratio.
fn jacobi_grid_for(pes: usize) -> [usize; 3] {
    let mut g = [1usize, 1, 1];
    let mut total = 1;
    let mut axis = 0;
    while total < pes * 8 {
        g[axis] *= 2;
        total *= 2;
        axis = (axis + 1) % 3;
    }
    g
}

/// Fig 2(a): Jacobi3D on the Infiniband (Abe) model, both transports,
/// over the paper's processor counts.
pub fn fig2a_grid() -> Vec<RunSpec> {
    let abe = Platform::IbAbe { cores_per_node: 8 };
    let mut grid = Vec::new();
    for &pes in &[16usize, 32, 64, 128, 256] {
        for variant in [Variant::Msg, Variant::Ckd] {
            grid.push(RunSpec {
                app: AppCase::Jacobi {
                    domain: [1024, 1024, 512],
                    chares: jacobi_grid_for(pes),
                },
                variant,
                platform: abe,
                pes,
                iters: 4,
                seed: 0,
                drop_permille: 0,
                shards: 1,
                backend: BackendSel::Auto,
            });
        }
    }
    grid
}

/// Chare-grid edge per PE count for Fig 3 (blocks divide 2048).
fn matmul_grid_for(pes: usize) -> usize {
    match pes {
        0..=31 => 4,
        32..=127 => 8,
        _ => 16,
    }
}

/// Fig 3(b): 2048³ matrix multiplication on the Abe model, both
/// transports, over the paper's processor counts.
pub fn fig3b_grid() -> Vec<RunSpec> {
    let abe = Platform::IbAbe { cores_per_node: 8 };
    let mut grid = Vec::new();
    for &pes in &[16usize, 32, 64, 128, 256] {
        for variant in [Variant::Msg, Variant::Ckd] {
            grid.push(RunSpec {
                app: AppCase::Matmul {
                    n: 2048,
                    grid: matmul_grid_for(pes),
                },
                variant,
                platform: abe,
                pes,
                iters: 2,
                seed: 0,
                drop_permille: 0,
                shards: 1,
                backend: BackendSel::Auto,
            });
        }
    }
    grid
}

/// A tiny mixed grid for the determinism suite and the unit tests:
/// every app, both a clean and a faulty point, seconds to run.
pub fn smoke_grid() -> Vec<RunSpec> {
    let abe = Platform::IbAbe { cores_per_node: 2 };
    let mut grid = Vec::new();
    for (app, iters) in [
        (AppCase::Pingpong { bytes: 4096 }, 10u32),
        (
            AppCase::Jacobi {
                domain: [16, 16, 16],
                chares: [2, 2, 1],
            },
            3,
        ),
        (AppCase::Matmul { n: 32, grid: 2 }, 1),
        (
            AppCase::OpenAtom {
                nstates: 4,
                nplanes: 2,
                grain: 2,
                pts: 64,
            },
            2,
        ),
    ] {
        for (seed, drop_permille) in [(0u64, 0u32), (0x5EED, 50)] {
            grid.push(RunSpec {
                app,
                variant: Variant::Ckd,
                platform: abe,
                pes: 8,
                iters,
                seed,
                drop_permille,
                shards: 1,
                backend: BackendSel::Auto,
            });
        }
    }
    grid
}

/// The completion-backend comparison grid: every app on every completion
/// strategy, clean fabric, identical 8-PE shapes — sentinel polling
/// (Infiniband), DCMF callbacks (BG/P), notified puts (Slingshot), and
/// the shared-memory flag backend forced onto a single-node Infiniband
/// machine. The conformance suite proves the delivered bytes and
/// callback counts agree across all four; this grid records where each
/// strategy's modeled costs land.
pub fn backends_grid() -> Vec<RunSpec> {
    let fabrics = [
        (Platform::IbAbe { cores_per_node: 2 }, BackendSel::Auto),
        (Platform::Bgp, BackendSel::Auto),
        (Platform::Slingshot, BackendSel::Auto),
        // one full node: every PE shares memory, so the flag backend is
        // honest
        (Platform::IbAbe { cores_per_node: 8 }, BackendSel::SharedMem),
    ];
    let mut grid = Vec::with_capacity(16);
    for (app, iters) in [
        (AppCase::Pingpong { bytes: 16384 }, 200u32),
        (
            AppCase::Jacobi {
                domain: [32, 32, 32],
                chares: [4, 2, 2],
            },
            12,
        ),
        (AppCase::Matmul { n: 128, grid: 2 }, 4),
        (
            AppCase::OpenAtom {
                nstates: 8,
                nplanes: 2,
                grain: 2,
                pts: 256,
            },
            6,
        ),
    ] {
        for (platform, backend) in fabrics {
            grid.push(RunSpec {
                app,
                variant: Variant::Ckd,
                platform,
                pes: 8,
                iters,
                seed: 0,
                drop_permille: 0,
                shards: 1,
                backend,
            });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_advertised_shapes() {
        assert_eq!(sweep64_grid().len(), 64, "4 apps × 4 sizes × 4 seeds");
        assert_eq!(table1_grid().len(), 2 * TABLE_SIZES.len());
        assert_eq!(fig2a_grid().len(), 10);
        assert_eq!(fig3b_grid().len(), 10);
        assert_eq!(smoke_grid().len(), 8);
        // the backend-comparison grid: 4 apps × 4 completion strategies,
        // all clean, all 8 PEs — differing only in platform/backend
        let backends = backends_grid();
        assert_eq!(backends.len(), 16, "4 apps × 4 backends");
        assert!(backends.iter().all(|s| s.drop_permille == 0 && s.pes == 8));
        assert_eq!(
            backends
                .iter()
                .filter(|s| s.backend == BackendSel::SharedMem)
                .count(),
            4,
            "one forced shared-memory point per app"
        );
        assert_eq!(
            backends
                .iter()
                .filter(|s| s.platform == Platform::Slingshot)
                .count(),
            4,
            "one notified-put point per app"
        );
    }

    #[test]
    fn emitted_json_passes_its_own_schema_check() {
        let grid = [smoke_grid()[0], smoke_grid()[1]];
        let json = sweep_json("unit", &run_sweep(&grid, 1));
        validate_sweep_json(&json).unwrap();
        assert!(json.ends_with("  ]\n}\n"), "the runs array closes the file");
    }

    #[test]
    fn schema_check_rejects_mangled_files() {
        let records = run_sweep(&[smoke_grid()[0]], 1);
        let good = sweep_json("unit", &records);
        // one schema version: older (and unknown) tags are refused
        for old in ["ckd-sweep/v0", "ckd-sweep/v1", "ckd-sweep/v3"] {
            let e = validate_sweep_json(&good.replace(SCHEMA, old)).unwrap_err();
            assert!(e.contains(SCHEMA), "error must name the schema: {e}");
        }
        // a missing key is named, with the schema it belongs to
        for key in ["\"metric_ps\"", "\"poll_checks\"", "\"cq_drains\""] {
            let e = validate_sweep_json(&good.replace(key, "\"x\"")).unwrap_err();
            assert!(
                e.contains(key) && e.contains(SCHEMA),
                "error must name key and schema: {e}"
            );
        }
        assert!(validate_sweep_json(&good.replace('}', "")).is_err());
        assert!(validate_sweep_json("{\n}").is_err());
    }

    #[test]
    fn backend_selection_flows_into_records() {
        // the notified-put point drains its CQ; the forced shared-mem
        // point reports the override and never touches one
        let mut slingshot = backends_grid()[2];
        slingshot.iters = 5;
        let r = slingshot.execute();
        assert_eq!(r.backend, "notified-put");
        assert!(
            r.stats.cq_drains > 0,
            "notified puts complete via CQ drains"
        );
        let mut shm = backends_grid()[3];
        shm.iters = 5;
        let r = shm.execute();
        assert_eq!(r.backend, "shared-mem", "BackendSel::SharedMem override");
        assert_eq!(r.stats.cq_drains, 0);
        let json = sweep_json("unit", &[r]);
        assert!(json.contains("\"backend\": \"shared-mem\", \"cq_drains\": 0"));
        validate_sweep_json(&json).unwrap();
    }

    #[test]
    fn profiled_execution_rides_along_without_changing_results() {
        // the jacobi smoke point: enough events for several snapshots
        let spec = smoke_grid()[2];
        let plain = spec.execute();
        let prof = spec.execute_with(Some(ProfConfig { snapshot_every: 64 }));
        assert_eq!(plain.stats, prof.stats, "profiling perturbed the run");
        assert_eq!(plain.metric_ps, prof.metric_ps);
        assert_eq!(plain.callbacks, prof.callbacks);
        assert!(plain.prof.is_none() && plain.snapshots.is_none());
        let shard = prof.prof.as_ref().expect("profiled run carries a shard");
        assert_eq!(shard.events, prof.stats.events);
        ckd_charm::validate_snapshot_jsonl(prof.snapshots.as_deref().unwrap()).unwrap();
    }
}
