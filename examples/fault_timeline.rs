//! One injected drop, end to end: detection → backoff → retransmit →
//! clean completion.
//!
//! Runs a CkDirect pingpong with a fault plan holding a single one-shot
//! trigger — the first put submitted to the fabric at or after 50 µs is
//! dropped — then replays the reliability records from the trace rings as
//! a timeline and shows that the application result is untouched: same
//! iteration count, same per-put accounting, only the round-trip average
//! pays for the retransmission latency.
//!
//! ```console
//! $ cargo run --release --example fault_timeline
//! ```

use ckd_apps::pingpong::charm_pingpong_on;
use ckd_apps::{Platform, Variant};
use ckd_charm::{FaultKind, FaultOp, FaultPlan, TraceConfig};
use ckd_sim::Time;
use ckd_trace::TraceEvent;

const BYTES: usize = 4096;
const ITERS: u32 = 40;

fn main() {
    let platform = Platform::IbAbe { cores_per_node: 4 };

    // the fault-free control run
    let mut clean = platform.machine(8);
    let base = charm_pingpong_on(&mut clean, Variant::Ckd, BYTES, ITERS);

    // same program, one put killed in flight at t >= 50us
    let plan = FaultPlan::new(1).with_trigger(
        Time::from_us(50),
        None,
        Some(FaultOp::Put),
        FaultKind::Drop,
    );
    let mut m = platform
        .builder(8)
        .with_tracing(TraceConfig::default())
        .with_faults(plan)
        .build();
    let r = charm_pingpong_on(&mut m, Variant::Ckd, BYTES, ITERS);

    println!("== one injected drop, end to end");
    println!("timeline (virtual time, from the trace rings):");
    for (pe, ring) in m.tracer().rings().unwrap().iter().enumerate() {
        for rec in ring.iter() {
            match rec.ev {
                TraceEvent::FaultDrop { dst } => println!(
                    "  {:>10.3}us  pe{pe}: put to pe{dst} dropped by the fabric",
                    rec.at.as_us_f64()
                ),
                TraceEvent::Retransmit { attempt, backoff } => println!(
                    "  {:>10.3}us  pe{pe}: ack timeout -> retransmit attempt {attempt} \
                     (next backoff {:.0}us)",
                    rec.at.as_us_f64(),
                    backoff.as_us_f64()
                ),
                _ => {}
            }
        }
    }

    let rel = m.stats().rel;
    println!(
        "reliability: {} drop injected, {} timeout fired, {} retransmit;",
        rel.drops_injected, rel.timeouts, rel.retries
    );
    println!(
        "application: {}/{} exchanges, rtt {:.3}us (clean {:.3}us), lossy puts seen: {}",
        r.iters,
        ITERS,
        r.rtt.as_us_f64(),
        base.rtt.as_us_f64(),
        r.lossy_puts
    );
    assert_eq!(r.iters, base.iters, "the drop must not cost an iteration");
    assert_eq!(
        m.stats().puts,
        clean.stats().puts,
        "the retransmit must not inflate the app-visible put count"
    );
    assert!(rel.retries >= 1, "the trigger must have fired");
    println!(
        "app-visible puts: {} (identical to the fault-free run)",
        m.stats().puts
    );
}
