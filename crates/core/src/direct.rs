//! A real multi-thread CkDirect channel: unsynchronized one-sided puts with
//! out-of-band sentinel detection, expressed soundly in Rust atomics.
//!
//! This is the wall-clock counterpart of the simulated registry. The
//! mechanism is the paper's Infiniband implementation translated to shared
//! memory:
//!
//! * the receiver owns a fixed-size buffer and **arms** it by writing the
//!   out-of-band pattern into its final word;
//! * a put writes the payload directly into the receiver's buffer — the
//!   final payload word, which overwrites the pattern, is stored **last**
//!   with `Release` ordering, exactly as an in-order RDMA write delivers its
//!   last byte last;
//! * the receiver polls the final word with `Acquire` loads; the moment it
//!   differs from the pattern, every earlier payload word is visible.
//!
//! There is no lock, no queue, and no scheduler hand-off on the data path —
//! the only synchronization is the release/acquire pair on the sentinel
//! word, mirroring "the application's own synchronization is sufficient".
//!
//! The buffer is a `[AtomicU64]`, so the sentinel genuinely *overlaps the
//! data* like the paper's trick (no separate flag word), while every access
//! remains a data-race-free atomic operation. Non-sentinel words use
//! `Relaxed` ordering: they are ordered by the final `Release`/`Acquire`
//! pair, not by their own accesses.
//!
//! Misuse the paper leaves to the user is *checked* here, in the simulated
//! registry's own [`DirectError`] vocabulary: a put lands at once, so a
//! second put before the receiver re-arms would overwrite data it has been
//! told about but not released — [`DirectError::Overwrite`] (detected via a
//! generation counter) — and a payload ending in the pattern returns
//! [`DirectError::OobCollision`] instead of vanishing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::DirectError;

struct Shared {
    /// The receive buffer, including the sentinel in its final word.
    words: Box<[AtomicU64]>,
    /// The out-of-band pattern.
    oob: u64,
    /// Number of `arm` calls the receiver has performed (monotone).
    /// Published with `Release` by the receiver; the sender `Acquire`-reads
    /// it to know the buffer is writable again.
    armed_gen: AtomicU64,
}

/// Lifetime counters of one side of a real-thread channel (observability;
/// counted locally, never shared between threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SideStats {
    /// Successful puts (sender) or detected arrivals (receiver).
    pub completed: u64,
    /// Rejected puts (sender) or empty polls (receiver) — the per-operation
    /// overhead a trace wants to see.
    pub attempts: u64,
}

/// The sender half: issues one-sided puts into the receiver's buffer.
pub struct DirectSender {
    shared: Arc<Shared>,
    /// Generation of the last put this sender issued.
    put_gen: u64,
    stats: SideStats,
}

/// The receiver half: owns the buffer, arms it, and polls for arrivals.
pub struct DirectReceiver {
    shared: Arc<Shared>,
    /// Generations this receiver has armed.
    armed: u64,
    /// True between a detected arrival and the next `arm`.
    holding_data: bool,
    stats: SideStats,
}

/// Create a channel moving fixed-size messages of `size` bytes (must be a
/// positive multiple of 8), using `oob` as the never-in-data pattern.
///
/// The receiver starts **armed**: the first put may be issued immediately —
/// there is no handshake, matching `CkDirect_createHandle`'s behaviour of
/// arming at creation.
pub fn channel(size: usize, oob: u64) -> (DirectSender, DirectReceiver) {
    assert!(size >= 8, "channel needs at least the 8-byte sentinel");
    assert_eq!(size % 8, 0, "channel size must be a multiple of 8");
    let nwords = size / 8;
    let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
    // arm generation 1 up front
    words[nwords - 1].store(oob, Ordering::Relaxed);
    let shared = Arc::new(Shared {
        words,
        oob,
        armed_gen: AtomicU64::new(1),
    });
    (
        DirectSender {
            shared: shared.clone(),
            put_gen: 0,
            stats: SideStats::default(),
        },
        DirectReceiver {
            shared,
            armed: 1,
            holding_data: false,
            stats: SideStats::default(),
        },
    )
}

impl DirectSender {
    /// Message size in bytes.
    pub fn size(&self) -> usize {
        self.shared.words.len() * 8
    }

    /// One-sided put: write `payload` into the receiver's buffer and
    /// publish it by overwriting the sentinel word last.
    ///
    /// Returns without blocking; the receiver discovers the data by
    /// polling. No allocation, no locks, one `Release` store.
    pub fn put(&mut self, payload: &[u8]) -> Result<(), DirectError> {
        self.stats.attempts += 1;
        let words = &self.shared.words;
        if payload.len() != words.len() * 8 {
            return Err(DirectError::SizeMismatch);
        }
        let last = u64::from_le_bytes(payload[payload.len() - 8..].try_into().unwrap());
        if last == self.shared.oob {
            return Err(DirectError::OobCollision);
        }
        // The receiver publishes `armed_gen = n` after re-arming; seeing it
        // (Acquire) guarantees the receiver is done reading generation n-1.
        let armed = self.shared.armed_gen.load(Ordering::Acquire);
        if armed <= self.put_gen {
            return Err(DirectError::Overwrite);
        }
        self.put_gen = armed;
        let n = words.len();
        for (i, chunk) in payload[..payload.len() - 8].chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().unwrap());
            words[i].store(w, Ordering::Relaxed);
        }
        // Publish: the final payload word replaces the sentinel. Release
        // makes every earlier Relaxed store visible to the Acquire poller.
        words[n - 1].store(last, Ordering::Release);
        self.stats.completed += 1;
        Ok(())
    }

    /// Put attempts and successes so far (observability).
    pub fn stats(&self) -> SideStats {
        self.stats
    }

    /// Whether the receiver has re-armed since this sender's last put —
    /// i.e. whether `put` would currently succeed. (Peeking, not reserving.)
    pub fn receiver_ready(&self) -> bool {
        self.shared.armed_gen.load(Ordering::Acquire) > self.put_gen
    }
}

impl DirectReceiver {
    /// Message size in bytes.
    pub fn size(&self) -> usize {
        self.shared.words.len() * 8
    }

    /// Poll once: if a put has landed since the last `arm`, copy the
    /// message out and return it.
    ///
    /// One `Acquire` load on the empty path — this is the per-handle cost
    /// the paper's polling queue pays every scheduler iteration.
    pub fn try_recv(&mut self) -> Option<Vec<u8>> {
        if self.holding_data {
            return None; // already delivered; must arm before the next one
        }
        self.stats.attempts += 1;
        let words = &self.shared.words;
        let n = words.len();
        let last = words[n - 1].load(Ordering::Acquire);
        if last == self.shared.oob {
            return None;
        }
        self.holding_data = true;
        self.stats.completed += 1;
        let mut out = vec![0u8; n * 8];
        for i in 0..n - 1 {
            let w = words[i].load(Ordering::Relaxed);
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out[(n - 1) * 8..].copy_from_slice(&last.to_le_bytes());
        Some(out)
    }

    /// Poll without copying: returns `true` when data has landed, after
    /// which [`DirectReceiver::with_data`] grants in-place access.
    pub fn poll(&mut self) -> bool {
        if self.holding_data {
            return true;
        }
        self.stats.attempts += 1;
        let n = self.shared.words.len();
        if self.shared.words[n - 1].load(Ordering::Acquire) != self.shared.oob {
            self.holding_data = true;
            self.stats.completed += 1;
            true
        } else {
            false
        }
    }

    /// Sentinel checks and detected arrivals so far (observability).
    pub fn stats(&self) -> SideStats {
        self.stats
    }

    /// Read the landed message in place (zero copy). Panics unless
    /// [`DirectReceiver::poll`] (or `try_recv`) has signalled arrival — the
    /// release/acquire pair plus the generation protocol guarantee the
    /// sender is not writing concurrently.
    pub fn with_data<R>(&mut self, f: impl FnOnce(WordView<'_>) -> R) -> R {
        assert!(
            self.holding_data,
            "with_data before poll() observed an arrival"
        );
        f(WordView {
            words: &self.shared.words,
        })
    }

    /// Spin until a message lands, then return it (micro-benchmarks and
    /// tests; production code polls from its scheduler loop instead).
    pub fn recv_spin(&mut self) -> Vec<u8> {
        loop {
            if let Some(m) = self.try_recv() {
                return m;
            }
            std::hint::spin_loop();
        }
    }

    /// Re-arm the channel: write the pattern back into the sentinel word
    /// and publish readiness to the sender. The receiver must be done with
    /// the data; the equivalent of `CkDirect_ready`.
    pub fn arm(&mut self) {
        let n = self.shared.words.len();
        // Relaxed is fine for the sentinel itself: the Release below on
        // armed_gen orders it before the sender's next Acquire.
        self.shared.words[n - 1].store(self.shared.oob, Ordering::Relaxed);
        self.armed += 1;
        self.holding_data = false;
        self.shared.armed_gen.store(self.armed, Ordering::Release);
    }

    /// Number of times this channel has been armed.
    pub fn generation(&self) -> u64 {
        self.armed
    }
}

/// CRC32 (IEEE 802.3, reflected) over `data` — the checksum folded into a
/// checked channel's protocol word. Table-free bitwise form: this runs once
/// per put on buffers that are small by RDMA standards, and keeping it
/// dependency-free matters more than throughput here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What one checked poll observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckedRecv {
    /// Nothing has landed; the channel is still armed.
    Empty,
    /// A fresh, intact message (the receiver must [`CheckedReceiver::arm`]
    /// before the next put, exactly like the unchecked channel).
    Data(Vec<u8>),
    /// The landing failed its CRC (bit-flip or torn write): the payload was
    /// discarded and the channel **re-armed itself** so the sender's
    /// retransmission can land. Counted once per damaged landing.
    Corrupt,
    /// A replay of an already-consumed sequence number: suppressed and the
    /// channel re-armed itself. Counted once per duplicate landing.
    Duplicate,
}

/// Receiver-side counters of the checked channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckedStats {
    /// Fresh messages delivered.
    pub delivered: u64,
    /// Landings rejected by the CRC (corrupted or torn).
    pub corrupt_detected: u64,
    /// Landings suppressed as duplicate sequence numbers.
    pub dups_suppressed: u64,
}

/// Sender half of a checked channel: like [`DirectSender`] but every put
/// carries `(seq, crc)` in a protocol word published last, and the fault
/// hooks let tests damage a put the way a faulty fabric would.
pub struct CheckedSender {
    shared: Arc<Shared>,
    put_gen: u64,
    /// Sequence number of the last logical put (replays keep it).
    seq: u32,
    /// Last payload, kept so [`CheckedSender::put_duplicate`] can replay it.
    last_payload: Vec<u8>,
}

/// Receiver half of a checked channel.
pub struct CheckedReceiver {
    shared: Arc<Shared>,
    armed: u64,
    holding_data: bool,
    /// Highest sequence number consumed.
    last_seq: u32,
    stats: CheckedStats,
}

/// Create a *checked* channel moving fixed-size messages of `size` payload
/// bytes. The wire image is one word longer than the payload: the final
/// word is the protocol word `(seq << 32) | crc32(payload)`, doing double
/// duty as the out-of-band sentinel (armed == it holds `oob`). This is the
/// "CRC folded into the sentinel" layout: arrival detection, integrity and
/// replay filtering all ride on the one word that is written last.
pub fn channel_checked(size: usize, oob: u64) -> (CheckedSender, CheckedReceiver) {
    assert!(size >= 8, "channel needs at least one payload word");
    assert_eq!(size % 8, 0, "channel size must be a multiple of 8");
    let nwords = size / 8 + 1; // payload + protocol word
    let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
    words[nwords - 1].store(oob, Ordering::Relaxed);
    let shared = Arc::new(Shared {
        words,
        oob,
        armed_gen: AtomicU64::new(1),
    });
    (
        CheckedSender {
            shared: shared.clone(),
            put_gen: 0,
            seq: 0,
            last_payload: Vec::new(),
        },
        CheckedReceiver {
            shared,
            armed: 1,
            holding_data: false,
            last_seq: 0,
            stats: CheckedStats::default(),
        },
    )
}

impl CheckedSender {
    /// Payload size in bytes (the wire image adds one protocol word).
    pub fn size(&self) -> usize {
        (self.shared.words.len() - 1) * 8
    }

    fn claim_arming(&mut self) -> Result<(), DirectError> {
        let armed = self.shared.armed_gen.load(Ordering::Acquire);
        if armed <= self.put_gen {
            return Err(DirectError::Overwrite);
        }
        self.put_gen = armed;
        Ok(())
    }

    /// Store payload words (optionally skipping `skip` to model a torn
    /// write), then publish `proto` as the protocol word.
    fn store(&self, payload: &[u8], skip: Option<usize>, proto: u64) {
        let words = &self.shared.words;
        for (i, chunk) in payload.chunks_exact(8).enumerate() {
            if skip == Some(i) {
                continue;
            }
            let w = u64::from_le_bytes(chunk.try_into().unwrap());
            words[i].store(w, Ordering::Relaxed);
        }
        words[words.len() - 1].store(proto, Ordering::Release);
    }

    fn proto_word(&self, seq: u32, payload: &[u8]) -> Result<u64, DirectError> {
        let proto = (u64::from(seq) << 32) | u64::from(crc32(payload));
        // The protocol word is the sentinel; a put whose (seq, crc) happens
        // to equal the pattern would be undetectable, same pathology as the
        // unchecked channel's OobCollision.
        if proto == self.shared.oob {
            return Err(DirectError::OobCollision);
        }
        Ok(proto)
    }

    /// A clean put: next sequence number, correct CRC.
    pub fn put(&mut self, payload: &[u8]) -> Result<(), DirectError> {
        if payload.len() != self.size() {
            return Err(DirectError::SizeMismatch);
        }
        let proto = self.proto_word(self.seq + 1, payload)?;
        self.claim_arming()?;
        self.seq += 1;
        self.last_payload = payload.to_vec();
        self.store(payload, None, proto);
        Ok(())
    }

    /// Fault hook: the fabric flips bits in payload word `damage_word`
    /// in flight. The CRC was computed over the intended payload, so the
    /// receiver's check fails and the landing is discarded. Pass the index
    /// one past the payload (`size()/8`) to damage the protocol word
    /// itself — the "corrupted last 8 bytes" case.
    pub fn put_corrupted(&mut self, payload: &[u8], damage_word: usize) -> Result<(), DirectError> {
        if payload.len() != self.size() {
            return Err(DirectError::SizeMismatch);
        }
        let npayload = payload.len() / 8;
        assert!(damage_word <= npayload, "damage_word out of range");
        let mut proto = self.proto_word(self.seq + 1, payload)?;
        self.claim_arming()?;
        self.seq += 1;
        self.last_payload = payload.to_vec();
        if damage_word == npayload {
            proto ^= 1; // damaged CRC field; still != oob in practice
            self.store(payload, None, proto);
        } else {
            let mut damaged = payload.to_vec();
            damaged[damage_word * 8] ^= 0x01;
            self.store(&damaged, None, proto);
        }
        Ok(())
    }

    /// Fault hook: a torn write — the protocol word lands but payload word
    /// `missing_word` never does (stale contents remain). Real RDMA
    /// completes in order; a faulty or replayed transfer may not.
    pub fn put_torn(&mut self, payload: &[u8], missing_word: usize) -> Result<(), DirectError> {
        if payload.len() != self.size() {
            return Err(DirectError::SizeMismatch);
        }
        assert!(
            missing_word < payload.len() / 8,
            "missing_word out of range"
        );
        let proto = self.proto_word(self.seq + 1, payload)?;
        self.claim_arming()?;
        self.seq += 1;
        self.last_payload = payload.to_vec();
        self.store(payload, Some(missing_word), proto);
        Ok(())
    }

    /// Fault hook: the fabric replays the last put (same payload, same
    /// sequence number) after the receiver re-armed. The receiver's seqno
    /// filter must suppress it.
    pub fn put_duplicate(&mut self) -> Result<(), DirectError> {
        assert!(self.seq > 0, "nothing to replay yet");
        // no early return may consume the payload: a rejected replay must
        // leave the sender able to try again
        let proto = self.proto_word(self.seq, &self.last_payload)?;
        self.claim_arming()?;
        let payload = std::mem::take(&mut self.last_payload);
        self.store(&payload, None, proto);
        self.last_payload = payload;
        Ok(())
    }

    /// Retransmit the last put unchanged (same seq, correct CRC) — what a
    /// sender does after a corrupt/torn landing re-armed the channel. The
    /// receiver accepts it iff the original never made it through.
    pub fn retransmit(&mut self) -> Result<(), DirectError> {
        self.put_duplicate()
    }

    /// Whether the receiver has (re-)armed since this sender's last put.
    pub fn receiver_ready(&self) -> bool {
        self.shared.armed_gen.load(Ordering::Acquire) > self.put_gen
    }
}

impl CheckedReceiver {
    /// Payload size in bytes.
    pub fn size(&self) -> usize {
        (self.shared.words.len() - 1) * 8
    }

    /// Re-arm after consuming a delivered message (corrupt and duplicate
    /// landings re-arm themselves).
    pub fn arm(&mut self) {
        let n = self.shared.words.len();
        self.shared.words[n - 1].store(self.shared.oob, Ordering::Relaxed);
        self.armed += 1;
        self.holding_data = false;
        self.shared.armed_gen.store(self.armed, Ordering::Release);
    }

    /// Receiver-side counters.
    pub fn stats(&self) -> CheckedStats {
        self.stats
    }

    /// Poll once. Integrity and replay checks happen here, at the receiver,
    /// from the landed bytes alone — the sender gets no say.
    pub fn try_recv(&mut self) -> CheckedRecv {
        if self.holding_data {
            return CheckedRecv::Empty;
        }
        let words = &self.shared.words;
        let n = words.len();
        let proto = words[n - 1].load(Ordering::Acquire);
        if proto == self.shared.oob {
            return CheckedRecv::Empty;
        }
        let seq = (proto >> 32) as u32;
        let crc = proto as u32;
        let mut payload = vec![0u8; (n - 1) * 8];
        for i in 0..n - 1 {
            let w = words[i].load(Ordering::Relaxed);
            payload[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        if crc32(&payload) != crc {
            self.stats.corrupt_detected += 1;
            self.arm(); // discard + re-arm: the retransmission can land
            return CheckedRecv::Corrupt;
        }
        if seq <= self.last_seq {
            self.stats.dups_suppressed += 1;
            self.arm();
            return CheckedRecv::Duplicate;
        }
        self.last_seq = seq;
        self.holding_data = true;
        self.stats.delivered += 1;
        CheckedRecv::Data(payload)
    }

    /// Spin until a *fresh intact* message lands, suppressing corrupt and
    /// duplicate landings along the way (tests and micro-benchmarks).
    pub fn recv_spin(&mut self) -> Vec<u8> {
        loop {
            if let CheckedRecv::Data(m) = self.try_recv() {
                return m;
            }
            std::hint::spin_loop();
        }
    }
}

/// Zero-copy view of a landed message as little-endian words.
pub struct WordView<'a> {
    words: &'a [AtomicU64],
}

impl WordView<'_> {
    /// Message length in bytes.
    pub fn len(&self) -> usize {
        self.words.len() * 8
    }

    /// True only for the impossible empty channel (kept for completeness).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Word `i` of the message.
    pub fn word(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    /// The message's `f64` at word index `i` (payloads are commonly arrays
    /// of doubles in the paper's applications).
    pub fn f64_at(&self, i: usize) -> f64 {
        f64::from_bits(self.word(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const OOB: u64 = u64::MAX;

    #[test]
    fn single_thread_roundtrip() {
        let (mut tx, mut rx) = channel(64, OOB);
        assert!(rx.try_recv().is_none(), "armed but empty");
        let msg: Vec<u8> = (0..64).map(|i| i as u8).collect();
        tx.put(&msg).unwrap();
        assert_eq!(rx.try_recv().unwrap(), msg);
        assert!(rx.try_recv().is_none(), "no double delivery");
        rx.arm();
        let msg2 = vec![9u8; 64];
        tx.put(&msg2).unwrap();
        assert_eq!(rx.recv_spin(), msg2);
    }

    #[test]
    fn put_before_rearm_is_rejected() {
        let (mut tx, mut rx) = channel(16, OOB);
        tx.put(&[1u8; 16]).unwrap();
        assert_eq!(tx.put(&[2u8; 16]).unwrap_err(), DirectError::Overwrite);
        rx.recv_spin();
        assert_eq!(
            tx.put(&[2u8; 16]).unwrap_err(),
            DirectError::Overwrite,
            "receiving is not enough; receiver must arm()"
        );
        rx.arm();
        assert!(tx.receiver_ready());
        tx.put(&[2u8; 16]).unwrap();
    }

    #[test]
    fn size_and_collision_checks() {
        let (mut tx, _rx) = channel(16, OOB);
        assert_eq!(tx.put(&[0u8; 8]).unwrap_err(), DirectError::SizeMismatch);
        assert_eq!(
            tx.put(&[0xFFu8; 16]).unwrap_err(),
            DirectError::OobCollision
        );
        assert_eq!(tx.size(), 16);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn unaligned_size_rejected() {
        let _ = channel(12, OOB);
    }

    #[test]
    fn zero_copy_view() {
        let (mut tx, mut rx) = channel(24, OOB);
        let mut msg = Vec::new();
        for v in [1.5f64, -2.5, 3.25] {
            msg.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        tx.put(&msg).unwrap();
        assert!(rx.poll());
        rx.with_data(|v| {
            assert_eq!(v.len(), 24);
            assert_eq!(v.f64_at(0), 1.5);
            assert_eq!(v.f64_at(1), -2.5);
            assert_eq!(v.f64_at(2), 3.25);
        });
    }

    #[test]
    fn cross_thread_iterations_deliver_in_order() {
        // The paper's iterative pattern: put → poll → consume → ready,
        // for many iterations, across real threads.
        const ITERS: u64 = 300;
        const SIZE: usize = 256;
        let (mut tx, mut rx) = channel(SIZE, OOB);
        let sender = thread::spawn(move || {
            for it in 0..ITERS {
                while !tx.receiver_ready() {
                    // yield rather than spin: CI machines may have one core
                    thread::yield_now();
                }
                let mut msg = vec![0u8; SIZE];
                // stamp every word with the iteration number
                for chunk in msg.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&it.to_le_bytes());
                }
                tx.put(&msg).unwrap();
            }
        });
        for it in 0..ITERS {
            let msg = loop {
                if let Some(m) = rx.try_recv() {
                    break m;
                }
                thread::yield_now();
            };
            for chunk in msg.chunks_exact(8) {
                assert_eq!(
                    u64::from_le_bytes(chunk.try_into().unwrap()),
                    it,
                    "torn or reordered message at iteration {it}"
                );
            }
            rx.arm();
        }
        sender.join().unwrap();
    }

    #[test]
    fn side_stats_count_operations() {
        let (mut tx, mut rx) = channel(16, OOB);
        assert!(!rx.poll()); // empty check
        tx.put(&[1u8; 16]).unwrap();
        assert_eq!(tx.put(&[2u8; 16]).unwrap_err(), DirectError::Overwrite);
        assert!(rx.poll());
        assert_eq!(
            tx.stats(),
            SideStats {
                completed: 1,
                attempts: 2
            }
        );
        assert_eq!(
            rx.stats(),
            SideStats {
                completed: 1,
                attempts: 2
            }
        );
    }

    #[test]
    fn generation_counts_arms() {
        let (mut tx, mut rx) = channel(8, OOB);
        assert_eq!(rx.generation(), 1);
        tx.put(&7u64.to_le_bytes()).unwrap();
        rx.recv_spin();
        rx.arm();
        assert_eq!(rx.generation(), 2);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn checked_clean_roundtrip() {
        let (mut tx, mut rx) = channel_checked(32, OOB);
        assert_eq!(rx.try_recv(), CheckedRecv::Empty);
        let msg: Vec<u8> = (0..32).map(|i| i as u8).collect();
        tx.put(&msg).unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Data(msg));
        rx.arm();
        assert_eq!(
            rx.stats(),
            CheckedStats {
                delivered: 1,
                ..CheckedStats::default()
            }
        );
    }

    #[test]
    fn checked_corrupt_payload_detected_exactly_once_then_retransmit_lands() {
        let (mut tx, mut rx) = channel_checked(32, OOB);
        let msg = vec![5u8; 32];
        tx.put_corrupted(&msg, 1).unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Corrupt, "CRC catches the flip");
        assert_eq!(
            rx.try_recv(),
            CheckedRecv::Empty,
            "detected once, then re-armed"
        );
        assert!(tx.receiver_ready(), "corrupt landing re-armed the channel");
        tx.retransmit().unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Data(msg));
        assert_eq!(
            rx.stats(),
            CheckedStats {
                delivered: 1,
                corrupt_detected: 1,
                dups_suppressed: 0,
            }
        );
    }

    #[test]
    fn checked_corrupt_last_8_bytes_detected() {
        // The damaged word is the sentinel/protocol word itself.
        let (mut tx, mut rx) = channel_checked(16, OOB);
        tx.put_corrupted(&[3u8; 16], 2).unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Corrupt);
        assert_eq!(rx.stats().corrupt_detected, 1);
        tx.retransmit().unwrap();
        assert_eq!(rx.recv_spin(), vec![3u8; 16]);
    }

    #[test]
    fn checked_torn_write_detected_exactly_once() {
        let (mut tx, mut rx) = channel_checked(24, OOB);
        // Leave stale bytes behind so the missing word is visibly wrong.
        tx.put(&[0xAAu8; 24]).unwrap();
        rx.recv_spin();
        rx.arm();
        tx.put_torn(&[0xBBu8; 24], 1).unwrap();
        assert_eq!(
            rx.try_recv(),
            CheckedRecv::Corrupt,
            "torn write caught by CRC"
        );
        assert_eq!(rx.try_recv(), CheckedRecv::Empty);
        tx.retransmit().unwrap();
        assert_eq!(rx.recv_spin(), vec![0xBBu8; 24]);
        assert_eq!(
            rx.stats(),
            CheckedStats {
                delivered: 2,
                corrupt_detected: 1,
                dups_suppressed: 0,
            }
        );
    }

    #[test]
    fn checked_duplicate_landing_suppressed_exactly_once() {
        let (mut tx, mut rx) = channel_checked(16, OOB);
        let msg = vec![7u8; 16];
        tx.put(&msg).unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Data(msg.clone()));
        rx.arm();
        // The fabric replays the same put after the re-arm.
        tx.put_duplicate().unwrap();
        assert_eq!(
            rx.try_recv(),
            CheckedRecv::Duplicate,
            "seqno filter suppresses it"
        );
        assert_eq!(
            rx.try_recv(),
            CheckedRecv::Empty,
            "suppressed once, re-armed"
        );
        // A genuinely new put still gets through.
        let msg2 = vec![8u8; 16];
        tx.put(&msg2).unwrap();
        assert_eq!(rx.try_recv(), CheckedRecv::Data(msg2));
        assert_eq!(
            rx.stats(),
            CheckedStats {
                delivered: 2,
                corrupt_detected: 0,
                dups_suppressed: 1,
            }
        );
    }

    #[test]
    fn checked_size_checks_match_unchecked() {
        let (mut tx, _rx) = channel_checked(16, OOB);
        assert_eq!(tx.size(), 16);
        assert_eq!(tx.put(&[0u8; 8]).unwrap_err(), DirectError::SizeMismatch);
        tx.put(&[1u8; 16]).unwrap();
        assert_eq!(tx.put(&[2u8; 16]).unwrap_err(), DirectError::Overwrite);
    }
}
