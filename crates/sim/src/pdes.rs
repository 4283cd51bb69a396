//! Parallel-in-virtual-time execution: conservative-lookahead PDES.
//!
//! `ckd-sweep` parallelizes *across* runs; this module parallelizes *within*
//! one. PEs are partitioned into shards ([`ShardMap`]), each shard owns its
//! own [`EventQueue`] hosted on a dedicated OS thread, and the
//! coordinator advances virtual time in rounds bounded by a safe window
//! ([`Lookahead`]) derived from the network model's minimum cross-node link
//! latency — the classic null-message/safe-window design, with the progress
//! engines (the shard heaps) running concurrently with the coordinator the
//! way a PGAS asynchronous-progress thread runs beside the application.
//!
//! # Why pop order is byte-identical to the serial queue
//!
//! The serial scheduler's total order is the lexicographic `(time, seq)`
//! key, where `seq` is assigned at push time by one monotone counter. The sharded
//! engine keeps **that same single counter** in the coordinator: every push
//! is stamped before it is routed, and shard heaps store the caller-supplied
//! key via [`EventQueue::push_at_seq`]. Serving then always returns the
//! globally minimal `(time, seq)` key among all pending events:
//!
//! * Each round anchors at `h`, the minimum pending timestamp, and drains
//!   every shard's events with `time < h + W` (the cutoff) back to the
//!   coordinator, which merges the sorted per-shard batches with a spill
//!   heap of late arrivals.
//! * A push behind the drain horizon (inside the already-drained window)
//!   cannot reach a shard heap without violating its horizon, so it lands in
//!   the coordinator's spill heap — keyed identically — and participates in
//!   the same merge. Routing therefore never affects order, only locality;
//!   the lookahead only determines how *often* that spill path is taken
//!   ([`PdesStats::window_spills`] counts cross-shard spills, and stays 0
//!   when cross-shard events genuinely respect the safe window).
//!
//! Identical pop order plus one shared seq counter means every push happens
//! in the same order as serially, gets the same seq, and every pop returns
//! the same event at the same time: the whole simulation — trace bytes
//! included — is reproduced exactly.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::events::EventQueue;
use crate::time::Time;

/// Static PE → shard assignment. Shards must be node-aligned for the safe
/// window to be the *cross-node* minimum latency (intra-node messages can be
/// arbitrarily fast, but they never cross a shard boundary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shard_of_pe: Vec<u32>,
    shards: usize,
}

impl ShardMap {
    /// Partition PEs into `shards` contiguous node blocks. `node_of_pe[p]`
    /// is the (dense, 0-based) node id hosting PE `p`; all PEs of a node
    /// land in the same shard, and nodes are spread evenly. With more
    /// shards than nodes the excess shards are simply left empty.
    pub fn node_aligned(node_of_pe: &[u32], shards: usize) -> ShardMap {
        assert!(shards >= 1, "shard count must be at least 1");
        let nodes = node_of_pe
            .iter()
            .map(|&n| n as usize + 1)
            .max()
            .unwrap_or(1);
        let shard_of_pe = node_of_pe
            .iter()
            .map(|&n| ((n as usize * shards) / nodes) as u32)
            .collect();
        ShardMap {
            shard_of_pe,
            shards,
        }
    }

    /// Build from an explicit per-PE assignment (tests and proptests).
    pub fn from_assignment(shard_of_pe: Vec<u32>, shards: usize) -> ShardMap {
        assert!(shards >= 1, "shard count must be at least 1");
        assert!(
            shard_of_pe.iter().all(|&s| (s as usize) < shards),
            "shard assignment out of range"
        );
        ShardMap {
            shard_of_pe,
            shards,
        }
    }

    /// The degenerate single-shard map.
    pub fn single(npes: usize) -> ShardMap {
        ShardMap {
            shard_of_pe: vec![0; npes],
            shards: 1,
        }
    }

    /// Number of shards (≥ 1; some may own no PEs).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of mapped PEs.
    pub fn npes(&self) -> usize {
        self.shard_of_pe.len()
    }

    /// The shard owning PE `pe`.
    #[inline]
    pub fn shard_of(&self, pe: usize) -> u32 {
        self.shard_of_pe[pe]
    }
}

/// The conservative lookahead: events less than `safe_window()` apart on
/// different shards cannot causally influence each other, because any
/// cross-shard (hence cross-node) message pays at least that much link
/// latency. Derived from `ckd_net::FabricParams::lookahead()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookahead {
    window: Time,
}

impl Lookahead {
    /// Build from the minimum cross-shard link latency. Panics on a zero
    /// window: with no lookahead every cross-shard event is a window
    /// violation and the engine would degrade to a serial merge.
    pub fn new(min_cross_shard_latency: Time) -> Lookahead {
        assert!(
            min_cross_shard_latency > Time::ZERO,
            "conservative lookahead requires a positive minimum link latency"
        );
        Lookahead {
            window: min_cross_shard_latency,
        }
    }

    /// Width of the safe window: shards may be drained `safe_window()`
    /// past the round anchor without reordering risk.
    #[inline]
    pub fn safe_window(&self) -> Time {
        self.window
    }
}

/// Engine counters, separate from `MachineStats` so serial and sharded runs
/// keep byte-identical stats output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesStats {
    /// Number of shards the engine was built with.
    pub shards: usize,
    /// Safe-window rounds started.
    pub rounds: u64,
    /// Events routed over a shard channel to a different shard than the one
    /// being dispatched.
    pub cross_shard: u64,
    /// Cross-shard events that landed *inside* the current round's drained
    /// window and had to be merged coordinator-side. Stays 0 whenever the
    /// traffic honors the advertised lookahead.
    pub window_spills: u64,
}

const CMD_DEPTH: usize = 512;

enum Cmd<E> {
    Push { at: Time, seq: u64, ev: E },
    Drain { limit: Time },
    Head,
    Stop,
}

enum Reply<E> {
    Batch(Vec<(Time, u64, E)>),
    Head(Option<Time>),
}

struct Worker<E> {
    tx: SyncSender<Cmd<E>>,
    rx: Receiver<Reply<E>>,
    handle: Option<JoinHandle<()>>,
}

fn worker_loop<E>(rx: Receiver<Cmd<E>>, tx: SyncSender<Reply<E>>) {
    let mut q: EventQueue<E> = EventQueue::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Push { at, seq, ev } => q.push_at_seq(at, seq, ev),
            Cmd::Drain { limit } => {
                let mut batch = Vec::new();
                while let Some(item) = q.pop_keyed_before(limit) {
                    batch.push(item);
                }
                if tx.send(Reply::Batch(batch)).is_err() {
                    break;
                }
            }
            Cmd::Head => {
                if tx.send(Reply::Head(q.peek_time())).is_err() {
                    break;
                }
            }
            Cmd::Stop => break,
        }
    }
}

fn spawn_worker<E: Send + 'static>(i: usize) -> Worker<E> {
    let (cmd_tx, cmd_rx) = sync_channel::<Cmd<E>>(CMD_DEPTH);
    let (rep_tx, rep_rx) = sync_channel::<Reply<E>>(1);
    let handle = std::thread::Builder::new()
        .name(format!("ckd-shard-{i}"))
        .spawn(move || worker_loop(cmd_rx, rep_tx))
        .expect("spawn shard worker thread");
    Worker {
        tx: cmd_tx,
        rx: rep_rx,
        handle: Some(handle),
    }
}

enum Shards<E> {
    /// One OS thread per shard, commands over bounded channels.
    Threads(Vec<Worker<E>>),
    /// Same round algorithm, shard heaps owned directly (tests, and the
    /// reference the threaded mode must match).
    Inline(Vec<EventQueue<E>>),
}

/// The sharded event engine: a drop-in replacement for one serial
/// [`EventQueue`] whose pop order is identical by construction.
///
/// Contract (same as the serial queue): pushes never precede the timestamp
/// of the most recently popped event.
pub struct ShardedEngine<E> {
    map: ShardMap,
    window: Time,
    shards: Shards<E>,
    /// Per-shard drained batches for the active round, each sorted by key.
    batches: Vec<VecDeque<(Time, u64, E)>>,
    /// Late arrivals (behind the drain horizon), merged coordinator-side.
    /// Payload carries the event's home shard for stats attribution.
    spill: EventQueue<(u32, E)>,
    /// Exclusive upper bound of the active round, `None` between rounds.
    cutoff: Option<Time>,
    /// High-water mark of every past cutoff: shard heaps only hold events
    /// at or after this, so later pushes route by comparing against it.
    drained_to: Time,
    /// Home shard of the most recently served event (stats attribution).
    current_shard: u32,
    /// The single global sequence counter — the serial total order.
    seq: u64,
    pending: usize,
    stats: PdesStats,
}

impl<E: Send + 'static> ShardedEngine<E> {
    /// Build a threaded engine: one worker thread per shard.
    pub fn new(map: ShardMap, lookahead: Lookahead) -> ShardedEngine<E> {
        let n = map.shards();
        Self::build(
            map,
            lookahead,
            Shards::Threads((0..n).map(spawn_worker).collect()),
        )
    }
}

impl<E> ShardedEngine<E> {
    /// Build the single-threaded variant: identical semantics, shard heaps
    /// owned inline. Useful for property tests and debugging.
    pub fn new_inline(map: ShardMap, lookahead: Lookahead) -> ShardedEngine<E> {
        let n = map.shards();
        Self::build(
            map,
            lookahead,
            Shards::Inline((0..n).map(|_| EventQueue::new()).collect()),
        )
    }

    fn build(map: ShardMap, lookahead: Lookahead, shards: Shards<E>) -> ShardedEngine<E> {
        let n = map.shards();
        ShardedEngine {
            stats: PdesStats {
                shards: n,
                ..PdesStats::default()
            },
            map,
            window: lookahead.safe_window(),
            shards,
            batches: (0..n).map(|_| VecDeque::new()).collect(),
            spill: EventQueue::new(),
            cutoff: None,
            drained_to: Time::ZERO,
            current_shard: 0,
            seq: 0,
            pending: 0,
        }
    }

    /// Schedule `ev` at `at` on `shard`'s heap (or the spill heap when `at`
    /// is behind the drain horizon). Stamps the global sequence number, so
    /// call order must match the serial schedule — which it does, because
    /// the dispatcher itself replays the serial order.
    pub fn push(&mut self, at: Time, shard: u32, ev: E) {
        debug_assert!((shard as usize) < self.map.shards(), "shard out of range");
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        let cross = self.cutoff.is_some() && shard != self.current_shard;
        if at < self.drained_to {
            if cross {
                self.stats.window_spills += 1;
            }
            self.spill.push_at_seq(at, seq, (shard, ev));
        } else {
            if cross {
                self.stats.cross_shard += 1;
            }
            match &mut self.shards {
                Shards::Inline(qs) => qs[shard as usize].push_at_seq(at, seq, ev),
                Shards::Threads(ws) => ws[shard as usize]
                    .tx
                    .send(Cmd::Push { at, seq, ev })
                    .expect("shard worker alive"),
            }
        }
    }

    /// Remove and return the globally earliest `(time, seq)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_before(Time::MAX)
    }

    /// [`ShardedEngine::pop`], but only if the earliest event fires at or
    /// before `limit` — mirrors [`EventQueue::pop_before`] exactly.
    pub fn pop_before(&mut self, limit: Time) -> Option<(Time, E)> {
        loop {
            let Some(cutoff) = self.cutoff else {
                if self.pending == 0 {
                    return None;
                }
                let h = self.next_horizon()?;
                if h > limit {
                    return None;
                }
                let cutoff = Time::from_ps(h.as_ps().saturating_add(self.window.as_ps()));
                if cutoff > self.drained_to {
                    self.drain_shards(cutoff);
                    self.drained_to = cutoff;
                }
                self.cutoff = Some(cutoff);
                self.stats.rounds += 1;
                continue;
            };
            // Serve the minimal (time, seq) key among the sorted per-shard
            // batches and the spill heap (gated below the cutoff: residue
            // spilled for a *later* window must wait its round).
            let spill_src = self.batches.len();
            let mut best: Option<((Time, u64), usize)> = None;
            for (i, b) in self.batches.iter().enumerate() {
                if let Some(&(t, s, _)) = b.front() {
                    let key = (t, s);
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, i));
                    }
                }
            }
            if let Some((t, s)) = self.spill.peek_key() {
                if t < cutoff {
                    let key = (t, s);
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, spill_src));
                    }
                }
            }
            let Some(((at, _), src)) = best else {
                self.cutoff = None;
                continue;
            };
            if at > limit {
                return None;
            }
            let (shard, ev) = if src == spill_src {
                let (_, _, (shard, ev)) = self
                    .spill
                    .pop_keyed_before(Time::MAX)
                    .expect("spill head just peeked");
                (shard, ev)
            } else {
                let (_, _, ev) = self.batches[src]
                    .pop_front()
                    .expect("batch front just peeked");
                (src as u32, ev)
            };
            self.current_shard = shard;
            self.pending -= 1;
            return Some((at, ev));
        }
    }

    /// Number of pending events across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events are pending anywhere.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The PE → shard assignment this engine runs under.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The safe window bounding each round.
    pub fn window(&self) -> Time {
        self.window
    }

    /// Engine counters (kept out of `MachineStats` on purpose).
    pub fn stats(&self) -> PdesStats {
        self.stats
    }

    /// Minimum pending timestamp across shard heaps and spill. Between
    /// rounds the batches are empty, so heads + spill cover everything.
    fn next_horizon(&mut self) -> Option<Time> {
        debug_assert!(self.batches.iter().all(VecDeque::is_empty));
        let mut h = self.spill.peek_time();
        match &mut self.shards {
            Shards::Inline(qs) => {
                for q in qs {
                    h = min_time(h, q.peek_time());
                }
            }
            Shards::Threads(ws) => {
                for w in ws.iter() {
                    w.tx.send(Cmd::Head).expect("shard worker alive");
                }
                for w in ws.iter() {
                    match w.rx.recv().expect("shard worker alive") {
                        Reply::Head(t) => h = min_time(h, t),
                        Reply::Batch(_) => unreachable!("head query answered with a batch"),
                    }
                }
            }
        }
        h
    }

    /// Pull every event strictly below `cutoff` out of all shard heaps into
    /// the coordinator's sorted batches.
    fn drain_shards(&mut self, cutoff: Time) {
        let limit = Time::from_ps(cutoff.as_ps() - 1);
        match &mut self.shards {
            Shards::Inline(qs) => {
                for (i, q) in qs.iter_mut().enumerate() {
                    while let Some(item) = q.pop_keyed_before(limit) {
                        self.batches[i].push_back(item);
                    }
                }
            }
            Shards::Threads(ws) => {
                for w in ws.iter() {
                    w.tx.send(Cmd::Drain { limit }).expect("shard worker alive");
                }
                for (i, w) in ws.iter().enumerate() {
                    match w.rx.recv().expect("shard worker alive") {
                        Reply::Batch(v) => self.batches[i] = v.into(),
                        Reply::Head(_) => unreachable!("drain answered with a head"),
                    }
                }
            }
        }
    }
}

impl<E> Drop for ShardedEngine<E> {
    fn drop(&mut self) {
        if let Shards::Threads(ws) = &mut self.shards {
            for w in ws.iter() {
                let _ = w.tx.send(Cmd::Stop);
            }
            for w in ws.iter_mut() {
                if let Some(h) = w.handle.take() {
                    let _ = h.join();
                }
            }
        }
    }
}

#[inline]
fn min_time(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn la(ns: u64) -> Lookahead {
        Lookahead::new(Time::from_ns(ns))
    }

    #[test]
    fn node_aligned_maps_nodes_to_whole_shards() {
        // 8 PEs, 4 per node -> 2 nodes
        let nodes = [0, 0, 0, 0, 1, 1, 1, 1];
        let map = ShardMap::node_aligned(&nodes, 2);
        assert_eq!(map.shards(), 2);
        assert_eq!(map.npes(), 8);
        for (pe, &node) in nodes.iter().enumerate() {
            assert_eq!(map.shard_of(pe), node);
        }
        // more shards than nodes: nodes stay whole, excess shards are empty
        let map = ShardMap::node_aligned(&nodes, 8);
        assert_eq!(map.shard_of(0), 0);
        assert_eq!(map.shard_of(4), 4);
        // one shard: everything collapses
        let map = ShardMap::node_aligned(&nodes, 1);
        assert!((0..8).all(|pe| map.shard_of(pe) == 0));
    }

    #[test]
    #[should_panic(expected = "positive minimum link latency")]
    fn zero_lookahead_is_rejected() {
        let _ = Lookahead::new(Time::ZERO);
    }

    #[test]
    fn single_shard_engine_matches_the_serial_queue() {
        let mut engine: ShardedEngine<u64> = ShardedEngine::new(ShardMap::single(4), la(5));
        let mut serial = EventQueue::new();
        for (i, ns) in [30u64, 10, 10, 20, 25, 10].iter().enumerate() {
            engine.push(Time::from_ns(*ns), 0, i as u64);
            serial.push(Time::from_ns(*ns), i as u64);
        }
        loop {
            let (a, b) = (engine.pop(), serial.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(engine.stats().window_spills, 0);
        assert_eq!(engine.stats().cross_shard, 0);
    }

    #[test]
    fn in_window_cross_shard_pushes_spill_but_keep_order() {
        // Window 10 ns; serving the t=0 event schedules a cross-shard event
        // at t=5 ns -- inside the drained window. It must spill, be counted,
        // and still pop in exact (time, seq) order.
        let map = ShardMap::from_assignment(vec![0, 1], 2);
        let mut engine: ShardedEngine<&str> = ShardedEngine::new(map, la(10));
        let mut serial = EventQueue::new();
        engine.push(Time::ZERO, 0, "a");
        serial.push(Time::ZERO, "a");
        engine.push(Time::from_ns(20), 1, "far");
        serial.push(Time::from_ns(20), "far");
        assert_eq!(engine.pop(), serial.pop()); // round 1 anchors at 0
        engine.push(Time::from_ns(5), 1, "late");
        serial.push(Time::from_ns(5), "late");
        assert_eq!(engine.pop(), Some((Time::from_ns(5), "late")));
        assert_eq!(serial.pop(), Some((Time::from_ns(5), "late")));
        assert_eq!(engine.pop(), serial.pop());
        assert_eq!(engine.pop(), None);
        let s = engine.stats();
        assert_eq!(s.window_spills, 1);
        assert!(s.rounds >= 2, "rounds = {}", s.rounds);
    }

    #[test]
    fn pop_before_limits_match_the_serial_queue() {
        let map = ShardMap::from_assignment(vec![0, 1], 2);
        let mut engine: ShardedEngine<u32> = ShardedEngine::new(map, la(3));
        let mut serial = EventQueue::new();
        for (shard, ns, id) in [(0u32, 10u64, 1u32), (1, 30, 2), (0, 30, 3)] {
            engine.push(Time::from_ns(ns), shard, id);
            serial.push(Time::from_ns(ns), id);
        }
        for limit in [5u64, 10, 12, 29, 30, 30, 31] {
            let limit = Time::from_ns(limit);
            assert_eq!(engine.pop_before(limit), serial.pop_before(limit));
        }
        assert!(engine.is_empty() && serial.is_empty());
    }

    /// The load-bearing property: arbitrary event soups, interleaved pushes
    /// and pops, threaded and inline engines vs. the serial reference.
    #[test]
    fn random_soups_pop_in_serial_order() {
        for seed in 0..24u64 {
            let mut rng = DetRng::new(0xD0E5 ^ seed);
            let shards = rng.range(1, 5) as usize;
            let npes = shards * rng.range(1, 4) as usize;
            let assign: Vec<u32> = (0..npes)
                .map(|_| rng.range(0, shards as u64) as u32)
                .collect();
            let map = ShardMap::from_assignment(assign, shards);
            let window = la(rng.range(1, 40));
            let mut threaded: ShardedEngine<u64> = ShardedEngine::new(map.clone(), window);
            let mut inline: ShardedEngine<u64> = ShardedEngine::new_inline(map.clone(), window);
            let mut serial = EventQueue::new();
            let mut now = 0u64; // ps; pushes never go behind the last pop
            let mut id = 0u64;
            for _ in 0..400 {
                if rng.chance(0.6) {
                    let at = Time::from_ps(now + rng.range(0, 60_000));
                    let shard = map.shard_of(rng.range(0, npes as u64) as usize);
                    threaded.push(at, shard, id);
                    inline.push(at, shard, id);
                    serial.push(at, id);
                    id += 1;
                } else {
                    let a = serial.pop();
                    assert_eq!(threaded.pop(), a, "threaded diverged (seed {seed})");
                    assert_eq!(inline.pop(), a, "inline diverged (seed {seed})");
                    if let Some((t, _)) = a {
                        now = t.as_ps();
                    }
                }
            }
            loop {
                let a = serial.pop();
                assert_eq!(threaded.pop(), a, "threaded drain diverged (seed {seed})");
                assert_eq!(inline.pop(), a, "inline drain diverged (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(
                threaded.stats(),
                inline.stats(),
                "stats diverged (seed {seed})"
            );
        }
    }
}
