//! Wall-clock benches of the real (non-simulated) components:
//!
//! * the real-thread `DirectChannel` data path (put + poll + arm) against a
//!   conventional queue+dispatch message path — the host-machine analogue
//!   of Table 1's CkDirect-vs-messages comparison;
//! * the discrete-event queue.
//!
//! Whole simulated runs are timed by `ckd-perf`, not here.
//!
//! A small self-contained timing harness (median of repeated batches)
//! replaces an external benchmark framework so the workspace builds with no
//! network access.

use std::time::Instant;

use ckd_sim::{EventQueue, Time};
use ckdirect::direct;

/// Median ns/op over `reps` batches of `iters` calls each.
fn time_ns<F: FnMut()>(reps: usize, iters: u64, mut f: F) -> f64 {
    // warmup
    for _ in 0..iters / 4 + 1 {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One-slot direct channel: put → poll → arm, single-threaded (isolates
/// the per-operation software cost, independent of core count).
fn bench_direct_channel() {
    println!("-- direct_channel (ns/op, median of 7) --");
    println!(
        "{:<10} {:>20} {:>20}",
        "size", "put_poll_arm", "queue_dispatch"
    );
    for size in [64usize, 1024, 16 * 1024] {
        let (mut tx, mut rx) = direct::channel(size, u64::MAX);
        let payload = vec![0x5Au8; size];
        let direct_ns = time_ns(7, 20_000, || {
            tx.put(&payload).expect("armed");
            assert!(rx.poll());
            rx.with_data(|v| std::hint::black_box(v.word(0)));
            rx.arm();
        });
        // the "message path": allocate, enqueue, dequeue, dispatch, copy out
        let (qtx, qrx) = std::sync::mpsc::channel::<Vec<u8>>();
        let queue_ns = time_ns(7, 20_000, || {
            qtx.send(payload.clone()).unwrap(); // alloc + copy (envelope path)
            let msg = qrx.recv().unwrap(); // scheduler dequeue
            std::hint::black_box(msg[0]);
        });
        println!("{size:<10} {direct_ns:>20.1} {queue_ns:>20.1}");
    }
    println!();
}

fn bench_event_queue() {
    println!("-- event_queue --");
    // pseudo-shuffled distinct timestamps, then 1k events on 8 instants
    // (the lockstep shape the queue coalesces into runs)
    for (label, distinct) in [("push_pop_1k", 104_729u64), ("push_pop_1k_8ts", 8)] {
        let ns = time_ns(7, 200, || {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(Time::from_ns((i * 7919) % distinct), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            std::hint::black_box(acc);
        });
        println!(
            "{label}: {:.1} us/batch ({:.1} ns/event)",
            ns / 1e3,
            ns / 1024.0
        );
    }
    println!();
}

fn main() {
    bench_direct_channel();
    bench_event_queue();
}
