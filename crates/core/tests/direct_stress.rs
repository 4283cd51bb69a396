//! Wall-clock stress for the multi-thread CkDirect channel
//! (`ckdirect::direct`): real std threads hammering put / poll / re-arm
//! cycles to exercise the release/acquire publication protocol.
//!
//! The invariants under test:
//!
//! * payloads are never torn — a receiver sees every word of generation
//!   `i`'s payload or none of it, even with the sender spinning;
//! * `Overwrite` fires exactly when the receiver has not re-armed
//!   since the last accepted put, and never otherwise;
//! * `OobCollision` fires exactly when the payload's final word equals the
//!   pattern, and the buffer is untouched by the rejected put.

use ckdirect::direct::{channel, channel_checked, DirectReceiver};
use ckdirect::{CheckedRecv, DirectError};
use std::thread;

const OOB: u64 = u64::MAX;

/// Wait for an arrival, yielding the CPU between polls — unlike
/// `recv_spin`, this stays live even when sender and receiver share one
/// core (the CI container), at the cost of a syscall per empty poll.
fn recv_yield(rx: &mut DirectReceiver) -> Vec<u8> {
    loop {
        if let Some(m) = rx.try_recv() {
            return m;
        }
        thread::yield_now();
    }
}

/// A payload whose every word carries the iteration stamp — any tear shows
/// up as a word mismatch at the receiver.
fn stamped(words: usize, stamp: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(words * 8);
    for _ in 0..words {
        out.extend_from_slice(&stamp.to_le_bytes());
    }
    out
}

#[test]
fn thousands_of_cycles_never_tear() {
    const WORDS: usize = 64;
    const ITERS: u64 = 4_000;
    let (mut tx, mut rx) = channel(WORDS * 8, OOB);

    let sender = thread::spawn(move || {
        for i in 1..=ITERS {
            let payload = stamped(WORDS, i);
            loop {
                match tx.put(&payload) {
                    Ok(()) => break,
                    Err(DirectError::Overwrite) => thread::yield_now(),
                    Err(e) => panic!("iteration {i}: unexpected {e}"),
                }
            }
        }
        tx.stats()
    });

    let receiver = thread::spawn(move || {
        for i in 1..=ITERS {
            let msg = recv_yield(&mut rx);
            for (w, chunk) in msg.chunks_exact(8).enumerate() {
                let got = u64::from_le_bytes(chunk.try_into().unwrap());
                assert_eq!(got, i, "torn payload: word {w} of generation {i}");
            }
            rx.arm();
        }
        rx.stats()
    });

    let tx_stats = sender.join().unwrap();
    let rx_stats = receiver.join().unwrap();
    assert_eq!(tx_stats.completed, ITERS, "every put eventually lands");
    assert_eq!(rx_stats.completed, ITERS, "every payload is delivered once");
    // the sender may have been rejected while the receiver held data, but
    // never lost an accepted put
    assert!(tx_stats.attempts >= tx_stats.completed);
}

#[test]
fn zero_copy_polling_sees_untorn_words() {
    const WORDS: usize = 32;
    const ITERS: u64 = 2_000;
    let (mut tx, mut rx) = channel(WORDS * 8, OOB);

    let sender = thread::spawn(move || {
        for i in 1..=ITERS {
            let payload = stamped(WORDS, i * 3 + 1);
            while let Err(DirectError::Overwrite) = tx.put(&payload) {
                thread::yield_now();
            }
        }
    });

    let receiver = thread::spawn(move || {
        for i in 1..=ITERS {
            while !rx.poll() {
                thread::yield_now();
            }
            rx.with_data(|view| {
                let expect = i * 3 + 1;
                assert_eq!(view.len(), WORDS * 8, "view length is in bytes");
                for w in 0..view.len() / 8 {
                    assert_eq!(view.word(w), expect, "torn word {w} in generation {i}");
                }
            });
            rx.arm();
        }
        assert_eq!(rx.generation(), ITERS + 1, "one re-arm per delivery");
    });

    sender.join().unwrap();
    receiver.join().unwrap();
}

#[test]
fn would_overwrite_fires_exactly_until_rearm() {
    let (mut tx, mut rx) = channel(16, OOB);
    assert!(tx.receiver_ready());
    tx.put(&stamped(2, 7)).unwrap();
    assert!(!tx.receiver_ready());

    // rejected while the data sits unconsumed...
    assert_eq!(tx.put(&stamped(2, 8)), Err(DirectError::Overwrite));
    // ...and still rejected after delivery but before the re-arm
    assert_eq!(rx.try_recv().unwrap(), stamped(2, 7));
    assert_eq!(tx.put(&stamped(2, 8)), Err(DirectError::Overwrite));

    // the re-arm is the *only* thing that re-opens the channel
    rx.arm();
    assert!(tx.receiver_ready());
    tx.put(&stamped(2, 8)).unwrap();
    assert_eq!(rx.recv_spin(), stamped(2, 8));

    let s = tx.stats();
    assert_eq!(s.completed, 2, "exactly the two accepted puts");
    assert_eq!(s.attempts, 4, "two accepted + two rejected attempts");
}

#[test]
fn oob_collision_fires_exactly_on_pattern_tail_and_leaves_data_alone() {
    let (mut tx, mut rx) = channel(24, OOB);
    tx.put(&stamped(3, 41)).unwrap();

    // a payload ending in the pattern is rejected even though the channel
    // would otherwise accept a put after this re-arm
    assert_eq!(rx.recv_spin(), stamped(3, 41));
    rx.arm();
    let mut poisoned = stamped(3, 42);
    poisoned[16..].copy_from_slice(&OOB.to_le_bytes());
    assert_eq!(tx.put(&poisoned), Err(DirectError::OobCollision));

    // the rejection wrote nothing: the channel still looks empty...
    assert!(rx.try_recv().is_none());
    // ...and a clean payload goes through untouched by the poisoned one
    tx.put(&stamped(3, 43)).unwrap();
    assert_eq!(rx.recv_spin(), stamped(3, 43));
    assert_eq!(tx.stats().completed, 2);
}

#[test]
fn size_mismatch_is_rejected_before_any_write() {
    let (mut tx, mut rx) = channel(16, OOB);
    assert_eq!(tx.put(&stamped(3, 1)), Err(DirectError::SizeMismatch));
    assert_eq!(tx.put(&stamped(1, 1)), Err(DirectError::SizeMismatch));
    assert!(rx.try_recv().is_none());
    tx.put(&stamped(2, 1)).unwrap();
    assert_eq!(rx.recv_spin(), stamped(2, 1));
}

/// The checked channel (per-put CRC + sequence number folded into the
/// sentinel word) under real threads and a deterministic fault schedule:
/// damaged landings (payload bit-flips, damaged protocol words, torn
/// writes) are detected exactly once and recovered by retransmission, and
/// replayed puts are suppressed exactly once — while the clean traffic
/// flows untorn and in order.
#[test]
fn checked_channel_recovers_on_a_faulty_fabric_under_threads() {
    const WORDS: usize = 16;
    const ITERS: u64 = 2_000;
    let (mut tx, mut rx) = channel_checked(WORDS * 8, OOB);

    let sender = thread::spawn(move || {
        let (mut corrupts, mut dups) = (0u64, 0u64);
        let send = |do_put: &mut dyn FnMut() -> Result<(), DirectError>| loop {
            match do_put() {
                Ok(()) => break,
                Err(DirectError::Overwrite) => thread::yield_now(),
                Err(e) => panic!("unexpected {e}"),
            }
        };
        for i in 1..=ITERS {
            let payload = stamped(WORDS, i);
            if i % 5 == 0 {
                // the first copy arrives damaged — rotate through the
                // three damage shapes — then retransmit until it lands
                if i % 15 == 0 {
                    send(&mut || tx.put_torn(&payload, i as usize % WORDS));
                } else if i % 10 == 0 {
                    // the "corrupted last 8 bytes" case: the protocol word
                    send(&mut || tx.put_corrupted(&payload, WORDS));
                } else {
                    send(&mut || tx.put_corrupted(&payload, i as usize % WORDS));
                }
                corrupts += 1;
                send(&mut || tx.retransmit());
            } else {
                send(&mut || tx.put(&payload));
            }
            if i % 7 == 0 {
                // the fabric replays the landed put after consumption
                send(&mut || tx.put_duplicate());
                dups += 1;
            }
        }
        (corrupts, dups)
    });

    let receiver = thread::spawn(move || {
        let mut expected = 1u64;
        loop {
            match rx.try_recv() {
                CheckedRecv::Data(msg) => {
                    for (w, chunk) in msg.chunks_exact(8).enumerate() {
                        let got = u64::from_le_bytes(chunk.try_into().unwrap());
                        assert_eq!(got, expected, "torn word {w} in generation {expected}");
                    }
                    rx.arm();
                    if expected == ITERS {
                        break;
                    }
                    expected += 1;
                }
                // damaged and replayed landings re-arm themselves
                CheckedRecv::Corrupt | CheckedRecv::Duplicate => {}
                CheckedRecv::Empty => thread::yield_now(),
            }
        }
        rx.stats()
    });

    let (corrupts, dups) = sender.join().unwrap();
    let stats = receiver.join().unwrap();
    assert_eq!(stats.delivered, ITERS, "every logical put delivered once");
    assert_eq!(
        stats.corrupt_detected, corrupts,
        "each damaged landing detected exactly once"
    );
    assert_eq!(
        stats.dups_suppressed, dups,
        "each replay suppressed exactly once"
    );
}

/// Many independent channels in flight at once — one thread per pair — to
/// shake out any accidental sharing between instances.
#[test]
fn parallel_channel_pairs_stay_independent() {
    const PAIRS: usize = 8;
    const ITERS: u64 = 500;
    let mut handles = Vec::new();
    for p in 0..PAIRS {
        handles.push(thread::spawn(move || {
            let (mut tx, mut rx) = channel(32, OOB);
            let tag = (p as u64 + 1) << 32;
            for i in 1..=ITERS {
                let payload = stamped(4, tag | i);
                while let Err(DirectError::Overwrite) = tx.put(&payload) {
                    thread::yield_now();
                }
                let msg = recv_yield(&mut rx);
                assert_eq!(msg, payload, "pair {p} generation {i}");
                rx.arm();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
