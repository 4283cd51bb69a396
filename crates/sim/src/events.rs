//! The event queue: a priority queue over `(Time, sequence)` keys.
//!
//! The queue is generic over the event payload so that each layer of the
//! stack (network, runtime, MPI model) can define its own event enum and pay
//! no boxing cost. FIFO order among same-timestamp events is guaranteed by a
//! monotonically increasing sequence number, which is what makes the whole
//! simulation deterministic.
//!
//! # Representation
//!
//! The hot path of the simulator is push/pop on this queue, event payloads
//! are large, and pending events cluster on few timestamps: a lockstep
//! stencil leaves thousands of events on a few dozen instants. So the queue
//! stores **runs**. A run is a set of consecutive pushes at one timestamp,
//! popped first-in first-out. Its first event sits inline in the run
//! record, so a one-event run costs about one payload slot; later events go
//! to a contiguous tail borrowed from a pool. The min-heap holds one
//! 16-byte entry per run, keyed by `(time, first seq)` with the run's index
//! packed under the seq. Popping a run's last event removes its entry;
//! popping any other event of a run leaves the heap untouched.
//!
//! A small direct-mapped table, allocated on the first push, maps a hash
//! of the timestamp to the run most recently opened at that time. A push
//! appends to that run only if it is still live and still at that time
//! (records are recycled, so a slot may be stale); otherwise (first push
//! at a time, a drained run, or a table collision) it opens a new run.
//! The queue stamps each push with its own next seq, so every push
//! carries the largest seq so far; and appends only ever go to the newest
//! run at their time. So runs at one time hold disjoint,
//! increasing seq ranges. The pop order is therefore exactly the
//! `(Time, seq)` lexicographic order of a plain binary heap over events.
//!
//! Run records and tails are recycled through freelists, and a tail that
//! grew past 64 slots is freed when it drains, so steady state allocates
//! nothing and a burst does not pin its peak memory.

use std::collections::{BTreeMap, VecDeque};

use crate::time::Time;

/// What a [`ReorderPolicy`] is allowed to see about a pending event: its
/// identity (`seq`), its timestamp, and the opaque footprint tag the
/// runtime attached at push time (0 = unknown, conservatively conflicting
/// with everything — the encoding is owned by `ckd-race`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventMeta {
    /// The event's unique, monotone sequence number.
    pub seq: u64,
    /// The event's scheduled firing time.
    pub at: Time,
    /// Footprint tag attached via [`EventQueue::push_tagged`] (0 if the
    /// event was pushed through plain [`EventQueue::push`]).
    pub tag: u64,
}

/// A pluggable pop-order policy: at each pop the queue collects every
/// pending event whose timestamp lies within [`ReorderPolicy::window`] of
/// the earliest one and, when there is more than one, lets the policy pick
/// which fires next. Index 0 of the candidate slice is always the
/// canonical `(time, seq)` minimum, so a policy that returns 0 reproduces
/// the default order exactly (see [`IdentityPolicy`]).
///
/// Installing a policy relaxes the queue's causality checks: choosing a
/// later candidate lets virtual time regress when the jumped-over event is
/// eventually popped, so the horizon becomes a high-water mark instead of
/// a monotone floor. With no policy installed the queue's behavior — and
/// its debug assertions — are byte-identical to the policy-free build.
pub trait ReorderPolicy {
    /// Width of the commutation window: candidates are all pending events
    /// with `at <= earliest + window`. `Time::ZERO` restricts reordering
    /// to same-virtual-time events.
    fn window(&self) -> Time;

    /// Pick the next event among `cands` (sorted by `(time, seq)`; always
    /// at least two entries — singleton pops never consult the policy).
    /// Out-of-range returns are clamped to the last candidate.
    fn choose(&mut self, cands: &[EventMeta]) -> usize;
}

/// The do-nothing policy: always picks the canonical minimum. Exists so
/// tests can prove the policy seam itself is order-transparent.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPolicy {
    /// Window to advertise (exercises candidate collection without
    /// changing the chosen order).
    pub window: Time,
}

impl ReorderPolicy for IdentityPolicy {
    fn window(&self) -> Time {
        self.window
    }

    fn choose(&mut self, _cands: &[EventMeta]) -> usize {
        0
    }
}

/// Low bits of [`Entry::ord`] holding the run index.
const RUN_BITS: u32 = 24;
const RUN_MASK: u64 = (1 << RUN_BITS) - 1;
/// Seqs must fit above the run index in [`Entry::ord`].
const SEQ_LIMIT: u64 = 1 << (64 - RUN_BITS);
/// Direct-mapped run table: 256 slots, 2 KiB.
const TABLE_BITS: u32 = 8;
/// Capacity a recycled tail may keep; a larger one is freed. (Shrinking it
/// instead fragments the allocator: jacobi4k's peak RSS grew 16%.)
const TAIL_KEEP: usize = 64;
/// Marks a table slot that names no run, and a run without a tail.
const NONE: u32 = u32::MAX;

/// Heap entry for one run: `(time, first seq)` is the key, and the run's
/// index rides in the low [`RUN_BITS`] of `ord` (seqs are unique, so it
/// never decides a comparison).
#[derive(Clone, Copy)]
struct Entry {
    at: u64,
    ord: u64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    /// The sort key as one integer: one branch-free compare per sift step.
    #[inline]
    fn key(self) -> u128 {
        (self.at as u128) << 64 | self.ord as u128
    }

    #[inline]
    fn run(self) -> usize {
        (self.ord & RUN_MASK) as usize
    }

    #[inline]
    fn first_seq(self) -> u64 {
        self.ord >> RUN_BITS
    }
}

/// A queued event after its run's first.
struct Item<E> {
    seq: u64,
    ev: E,
}

/// Events at one timestamp with increasing seqs, popped front first: the
/// first event inline (its seq is the run's key), later ones in a tail
/// borrowed from the queue's tail pool. Once taken, `head` stays empty, so
/// a run is drained exactly when it has neither a head nor a tail (a tail
/// is returned to the pool as soon as it empties).
struct Run<E> {
    at: u64,
    head: Option<E>,
    tail: u32,
}

impl<E> Run<E> {
    #[inline]
    fn is_live(&self) -> bool {
        self.head.is_some() || self.tail != NONE
    }
}

/// Direct-mapped table slot: the run most recently opened through the
/// table at a time whose low 32 bits are `at`. It names the newest run at
/// that time if the run is still live and still at that time; run records
/// are recycled, so every hit checks both against the record.
#[derive(Clone, Copy)]
struct Slot {
    at: u32,
    run: u32,
}

const EMPTY_SLOT: Slot = Slot { at: 0, run: NONE };

#[inline]
fn slot_of(at: u64) -> usize {
    (at.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TABLE_BITS)) as usize
}

/// A deterministic min-priority queue of timed events.
pub struct EventQueue<E> {
    /// Min-heap of runs (smallest `(time, first seq)` at index 0).
    heap: Vec<Entry>,
    /// Run records; free ones are listed in `free`.
    runs: Vec<Run<E>>,
    free: Vec<u32>,
    /// Tail pool; empty tails are listed in `free_tails`.
    tails: Vec<VecDeque<Item<E>>>,
    free_tails: Vec<u32>,
    /// Timestamp hash → newest run at that time. Empty until the first
    /// push.
    table: Vec<Slot>,
    /// Non-zero footprint tags by seq.
    tags: BTreeMap<u64, u64>,
    len: usize,
    seq: u64,
    /// The timestamp of the most recently popped event. Pushing an event
    /// earlier than this is a causality violation and panics in debug builds.
    /// With a [`ReorderPolicy`] installed it degrades to a high-water mark.
    horizon: Time,
    popped: u64,
    /// Installed pop-order policy; `None` is the byte-identical fast path.
    policy: Option<Box<dyn ReorderPolicy>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the horizon at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` runs.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            runs: Vec::with_capacity(cap),
            free: Vec::new(),
            tails: Vec::new(),
            free_tails: Vec::new(),
            table: Vec::new(),
            tags: BTreeMap::new(),
            len: 0,
            seq: 0,
            horizon: Time::ZERO,
            popped: 0,
            policy: None,
        }
    }

    /// Install a [`ReorderPolicy`]. From here on pops consult the policy
    /// whenever more than one pending event lies inside its window, and
    /// the horizon check degrades to a high-water mark (reordering lets
    /// virtual time regress by design).
    pub fn set_policy(&mut self, policy: Box<dyn ReorderPolicy>) {
        self.policy = Some(policy);
    }

    /// True when a [`ReorderPolicy`] is installed — the runtime uses this
    /// to skip footprint computation entirely on the canonical path.
    #[inline]
    pub fn reordering(&self) -> bool {
        self.policy.is_some()
    }

    /// Schedule `ev` to fire at absolute time `at`.
    ///
    /// `at` may equal the current horizon (same-timestamp events run in FIFO
    /// push order) but must not precede it, unless a policy is installed.
    #[inline]
    pub fn push(&mut self, at: Time, ev: E) {
        self.push_tagged(at, 0, ev);
    }

    /// [`EventQueue::push`] with a footprint tag the installed policy (and
    /// the model checker driving it) can read back through [`EventMeta`].
    /// The tag is kept whether or not a policy is installed yet.
    #[inline]
    pub fn push_tagged(&mut self, at: Time, tag: u64, ev: E) {
        self.check_causality(at);
        let seq = self.seq;
        self.seq += 1;
        self.enqueue(at.as_ps(), seq, ev);
        if tag != 0 {
            self.tags.insert(seq, tag);
        }
    }

    /// Remove and return the earliest event, advancing the horizon to its
    /// timestamp. With a policy installed, "earliest" becomes "whichever
    /// in-window candidate the policy picks".
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_before(Time::MAX)
    }

    /// [`EventQueue::pop`], but only if the earliest event fires at or
    /// before `limit` — the scheduler-loop fast path (one heap access
    /// instead of a peek followed by a pop).
    #[inline]
    pub fn pop_before(&mut self, limit: Time) -> Option<(Time, E)> {
        if self.policy.is_some() {
            return self.pop_policy(limit);
        }
        let root = *self.heap.first()?;
        if root.at > limit.as_ps() {
            return None;
        }
        let ev = self.pop_root(root);
        Some((Time::from_ps(root.at), ev))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|e| Time::from_ps(e.at))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The virtual time of the most recently popped event.
    #[inline]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Total number of events ever popped (a cheap progress metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    // ---- internals --------------------------------------------------------

    #[inline]
    fn check_causality(&self, at: Time) {
        debug_assert!(
            self.policy.is_some() || at >= self.horizon,
            "causality violation: scheduling at {at} behind horizon {}",
            self.horizon
        );
    }

    /// Queue an event whose `seq` exceeds every pending one: append it to
    /// the newest run at `at` if the table names one, else open a run.
    /// Either way the payload is written once, after its place is known.
    #[inline]
    fn enqueue(&mut self, at: u64, seq: u64, ev: E) {
        let s = slot_of(at);
        match self.named_run(at, s) {
            Some(run) => self.tail_mut(run).push_back(Item { seq, ev }),
            None => {
                let run = self.open_run(at, seq);
                self.runs[run].head = Some(ev);
                if self.table.is_empty() {
                    self.table = vec![EMPTY_SLOT; 1 << TABLE_BITS];
                }
                self.table[s] = Slot {
                    at: at as u32,
                    run: run as u32,
                };
            }
        }
        self.len += 1;
    }

    /// The run table slot `s` names, if it is still the live run at `at`.
    #[inline]
    fn named_run(&self, at: u64, s: usize) -> Option<usize> {
        let slot = self.table.get(s)?;
        let run = self.runs.get(slot.run as usize)?;
        (slot.at == at as u32 && run.at == at && run.is_live()).then_some(slot.run as usize)
    }

    /// `run`'s tail, taken from the pool if it has none yet.
    #[inline]
    fn tail_mut(&mut self, run: usize) -> &mut VecDeque<Item<E>> {
        if self.runs[run].tail == NONE {
            self.runs[run].tail = self.free_tails.pop().unwrap_or_else(|| {
                self.tails.push(VecDeque::new());
                (self.tails.len() - 1) as u32
            });
        }
        &mut self.tails[self.runs[run].tail as usize]
    }

    /// Start a run keyed `(at, seq)` and return its index. The caller
    /// fills in its head.
    #[inline]
    fn open_run(&mut self, at: u64, seq: u64) -> usize {
        assert!(
            seq < SEQ_LIMIT,
            "event seq {seq} exceeds 2^{}",
            64 - RUN_BITS
        );
        let run = match self.free.pop() {
            Some(r) => {
                self.runs[r as usize].at = at;
                r as usize
            }
            None => {
                let r = self.runs.len();
                assert!(r as u64 <= RUN_MASK, "more than 2^{RUN_BITS} pending runs");
                self.runs.push(Run {
                    at,
                    head: None,
                    tail: NONE,
                });
                r
            }
        };
        self.heap.push(Entry {
            at,
            ord: seq << RUN_BITS | run as u64,
        });
        self.sift_up(self.heap.len() - 1);
        run
    }

    /// The seqs of `e`'s run, in pop order.
    fn seqs(&self, e: Entry) -> impl Iterator<Item = u64> + '_ {
        let run = &self.runs[e.run()];
        let tail = self.tails.get(run.tail as usize).into_iter().flatten();
        run.head
            .as_ref()
            .map(|_| e.first_seq())
            .into_iter()
            .chain(tail.map(|i| i.seq))
    }

    /// Pop the front event of the root run, retiring the run if that was
    /// its last event.
    #[inline]
    fn pop_root(&mut self, root: Entry) -> E {
        let run = &mut self.runs[root.run()];
        let (seq, ev) = match run.head.take() {
            Some(ev) => {
                if run.tail == NONE {
                    self.retire(0);
                }
                (root.first_seq(), ev)
            }
            None => {
                let tail = &mut self.tails[run.tail as usize];
                let item = tail.pop_front().expect("a run's tail is never empty");
                if tail.is_empty() {
                    self.retire(0);
                }
                (item.seq, item.ev)
            }
        };
        self.account(root.at, seq);
        ev
    }

    /// The policy-mediated pop: collect every pending event inside the
    /// window anchored at the earliest one (clamped to `limit`), hand the
    /// sorted candidate list to the policy, and remove its pick from
    /// wherever it sits. O(n) per pop — model-checking runs only.
    fn pop_policy(&mut self, limit: Time) -> Option<(Time, E)> {
        let t0 = self.heap.first()?.at;
        if t0 > limit.as_ps() {
            return None;
        }
        let mut policy = self.policy.take().expect("caller checked policy");
        let cutoff = t0
            .saturating_add(policy.window().as_ps())
            .min(limit.as_ps());
        // (time, seq, heap index, position in the run)
        let mut cands: Vec<(u64, u64, usize, usize)> = Vec::new();
        for (i, &e) in self.heap.iter().enumerate() {
            if e.at <= cutoff {
                let seqs = self.seqs(e).enumerate();
                cands.extend(seqs.map(|(pos, seq)| (e.at, seq, i, pos)));
            }
        }
        cands.sort_unstable();
        let pick = if cands.len() > 1 {
            let metas: Vec<EventMeta> = cands
                .iter()
                .map(|&(at, seq, _, _)| EventMeta {
                    seq,
                    at: Time::from_ps(at),
                    tag: self.tags.get(&seq).copied().unwrap_or(0),
                })
                .collect();
            policy.choose(&metas).min(cands.len() - 1)
        } else {
            0
        };
        self.policy = Some(policy);
        let (at, seq, i, pos) = cands[pick];
        let ev = self.take_at(i, pos);
        self.account(at, seq);
        Some((Time::from_ps(at), ev))
    }

    /// Remove the event at `pos` (in pop order) of the run at heap index
    /// `i`, retiring the run if it drains.
    fn take_at(&mut self, i: usize, pos: usize) -> E {
        let r = self.heap[i].run();
        let run = &mut self.runs[r];
        let ev = if pos == 0 && run.head.is_some() {
            run.head.take().expect("just checked")
        } else {
            let pos = pos - usize::from(run.head.is_some());
            let t = run.tail;
            let tail = &mut self.tails[t as usize];
            let item = tail.remove(pos).expect("position inside the run");
            if tail.is_empty() {
                self.runs[r].tail = NONE;
                self.release_tail(t);
            }
            item.ev
        };
        if !self.runs[r].is_live() {
            self.retire(i);
        }
        ev
    }

    /// Account one popped event.
    #[inline]
    fn account(&mut self, at: u64, seq: u64) {
        if !self.tags.is_empty() {
            self.tags.remove(&seq);
        }
        let at = Time::from_ps(at);
        debug_assert!(self.policy.is_some() || at >= self.horizon);
        self.horizon = self.horizon.max(at);
        self.popped += 1;
        self.len -= 1;
    }

    /// Return an empty tail to the pool, freeing its buffer if it grew long.
    fn release_tail(&mut self, t: u32) {
        let tail = &mut self.tails[t as usize];
        if tail.capacity() > TAIL_KEEP {
            *tail = VecDeque::new();
        }
        self.free_tails.push(t);
    }

    /// Drop the drained run at heap index `i`: return its tail and record
    /// to their pools and remove its heap entry. Its table slot, if any, goes
    /// stale: the record is no longer live.
    #[inline]
    fn retire(&mut self, i: usize) {
        let run = self.heap[i].run();
        let t = std::mem::replace(&mut self.runs[run].tail, NONE);
        if t != NONE {
            self.release_tail(t);
        }
        self.free.push(run as u32);
        let last = self.heap.pop().expect("retired run has an entry");
        if i == self.heap.len() {
            return;
        }
        if i == 0 {
            self.sift_root_hole(last);
        } else if last.key() < self.heap[(i - 1) / 2].key() {
            self.heap[i] = last;
            self.sift_up(i);
        } else {
            self.heap[i] = last;
            self.sift_down(i);
        }
    }

    /// Floyd's bottom-up delete-min: walk the hole at the root down to a
    /// leaf along the smaller children (one compare per level), then sift
    /// `last` up from there. `last` came from the bottom, so it rarely
    /// climbs far.
    #[inline]
    fn sift_root_hole(&mut self, last: Entry) {
        let len = self.heap.len();
        let mut hole = 0;
        loop {
            let mut child = 2 * hole + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            self.heap[hole] = self.heap[child];
            hole = child;
        }
        self.heap[hole] = last;
        self.sift_up(hole);
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            if entry.key() <= self.heap[child].key() {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), "c");
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_advances() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), ());
        assert_eq!(q.horizon(), Time::ZERO);
        q.pop();
        assert_eq!(q.horizon(), Time::from_ns(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    #[cfg(debug_assertions)]
    fn rejects_events_behind_horizon() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ns(5), ());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(40), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ns(20), 2);
        q.push(Time::from_ns(30), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(3), "x");
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_ns(3));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "early");
        q.push(Time::from_ns(30), "late");
        assert_eq!(q.pop_before(Time::from_ns(5)), None);
        assert_eq!(
            q.pop_before(Time::from_ns(10)),
            Some((Time::from_ns(10), "early"))
        );
        assert_eq!(q.pop_before(Time::from_ns(20)), None);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ns(30), "late")));
        assert_eq!(q.pop_before(Time::MAX), None);
        assert_eq!(q.horizon(), Time::from_ns(30));
        assert_eq!(q.events_processed(), 2);
    }

    /// Picks the last (latest) in-window candidate — maximal reordering.
    struct LastWins {
        window: Time,
    }

    impl ReorderPolicy for LastWins {
        fn window(&self) -> Time {
            self.window
        }
        fn choose(&mut self, cands: &[EventMeta]) -> usize {
            cands.len() - 1
        }
    }

    #[test]
    fn identity_policy_is_order_transparent() {
        let mut plain = EventQueue::new();
        let mut seamed = EventQueue::new();
        seamed.set_policy(Box::new(IdentityPolicy {
            window: Time::from_ns(50),
        }));
        assert!(seamed.reordering() && !plain.reordering());
        for (i, ns) in [30u64, 10, 10, 20, 25, 10].iter().enumerate() {
            plain.push(Time::from_ns(*ns), i);
            seamed.push_tagged(Time::from_ns(*ns), i as u64 + 1, i);
        }
        loop {
            let (a, b) = (plain.pop(), seamed.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn policy_reorders_only_inside_the_window() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(5),
        }));
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(12), "b");
        q.push(Time::from_ns(14), "c");
        q.push(Time::from_ns(40), "far");
        // window [10, 15]: candidates a/b/c, policy picks c; then [10, 15]
        // again (time regresses legally): picks b, then a, then far.
        assert_eq!(q.pop(), Some((Time::from_ns(14), "c")));
        assert_eq!(q.pop(), Some((Time::from_ns(12), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(40), "far")));
        assert_eq!(q.horizon(), Time::from_ns(40));
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn policy_respects_pop_before_limit() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(100),
        }));
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(60), "b");
        // the window reaches b, but the scheduler's limit clamps it out
        assert_eq!(
            q.pop_before(Time::from_ns(20)),
            Some((Time::from_ns(10), "a"))
        );
        assert_eq!(q.pop_before(Time::from_ns(20)), None);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ns(60), "b")));
    }

    #[test]
    fn policy_allows_pushes_behind_the_high_water_mark() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(50),
        }));
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        // a handler running at the regressed time may schedule "behind"
        // the high-water mark without tripping the causality assert
        q.push(Time::from_ns(15), 3);
        assert_eq!(q.pop(), Some((Time::from_ns(15), 3)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
    }

    /// Run records, pooled tails, and the capacity those tails retain.
    fn footprint<E>(q: &EventQueue<E>) -> (usize, usize, usize) {
        let cap = q.tails.iter().map(VecDeque::capacity).sum();
        (q.runs.len(), q.tails.len(), cap)
    }

    #[test]
    fn steady_state_keeps_run_records_and_tails_bounded() {
        // One-event ping-pong: one pending event at a time never needs
        // more than one run record, and never a tail.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 0u64);
        for i in 1..1000u64 {
            let (t, _) = q.pop().unwrap();
            q.push(t + Time::from_ns(1), i);
        }
        assert_eq!(footprint(&q), (1, 0, 0));

        // Clustered bursts: 8 timestamps of 500 events each, drained and
        // refilled. Records and tails stay at the burst's run count, and no
        // pooled tail keeps more than TAIL_KEEP slots of its 500 events.
        let mut q = EventQueue::new();
        let mut now = 0;
        for round in 0..20u64 {
            for i in 0..4000u64 {
                q.push(Time::from_ns(now + 1 + i % 8), round * 4000 + i);
            }
            while let Some((t, _)) = q.pop() {
                now = t.as_ps() / 1000;
            }
            let (runs, tails, cap) = footprint(&q);
            assert!(
                runs <= 8 && tails <= 8,
                "round {round}: {runs} runs, {tails} tails"
            );
            assert!(cap <= 8 * TAIL_KEEP, "round {round}: {cap} tail slots");
        }

        // Many short runs at once: 200 timestamps of 3 events. Records and
        // tails never outnumber the 600 events pending at the peak.
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            for i in 0..600u64 {
                q.push(Time::from_ns(round * 1000 + 1 + i % 200), i);
            }
            while q.pop().is_some() {}
            let (runs, tails, _) = footprint(&q);
            assert!(
                runs <= 600 && tails <= runs,
                "round {round}: {runs}, {tails}"
            );
        }
    }

    /// Records the tags of every candidate list it is shown.
    struct TagLog(std::rc::Rc<std::cell::RefCell<Vec<u64>>>);

    impl ReorderPolicy for TagLog {
        fn window(&self) -> Time {
            Time::from_ns(100)
        }
        fn choose(&mut self, cands: &[EventMeta]) -> usize {
            self.0.borrow_mut().extend(cands.iter().map(|m| m.tag));
            0
        }
    }

    #[test]
    fn tags_pushed_before_the_policy_is_installed_are_kept() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut q = EventQueue::new();
        q.push_tagged(Time::from_ns(1), 11, "a");
        q.push(Time::from_ns(2), "b");
        q.set_policy(Box::new(TagLog(log.clone())));
        q.push_tagged(Time::from_ns(3), 33, "c");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(2), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(3), "c")));
        // first pop sees all three, the second the last two
        assert_eq!(*log.borrow(), vec![11, 0, 33, 0, 33]);
        assert!(q.tags.is_empty(), "popped events leave no tags behind");
    }

    /// Two distinct timestamps (in ns) that share a table slot.
    fn colliding_pair() -> (u64, u64) {
        let s = slot_of(Time::from_ns(100).as_ps());
        let other = (101..)
            .find(|&ns| slot_of(Time::from_ns(ns).as_ps()) == s)
            .unwrap();
        (100, other)
    }

    #[test]
    fn table_collisions_open_new_runs_in_seq_order() {
        let (a, b) = colliding_pair();
        let mut q = EventQueue::new();
        // a, then b evicts a from the table, so the second push at `a`
        // opens a second run at `a`; the third push at `a` joins it
        for (i, ns) in [a, b, a, a, b].into_iter().enumerate() {
            q.push(Time::from_ns(ns), i);
        }
        assert_eq!(q.runs.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 2, 3, 1, 4]);
    }

    #[test]
    fn slots_matching_only_the_low_time_bits_open_new_runs() {
        // two times 2^32·k ps apart in one slot: the slot's 32-bit time tag
        // matches both, so only the run record can tell them apart
        let a = 7u64;
        let b = (1..)
            .map(|k: u64| a + (k << 32))
            .find(|&t| slot_of(t) == slot_of(a))
            .unwrap();
        let mut q = EventQueue::new();
        for (i, ps) in [a, b, a, b].into_iter().enumerate() {
            q.push(Time::from_ps(ps), i);
        }
        assert_eq!(q.runs.len(), 4);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [(a, 0), (a, 2), (b, 1), (b, 3)].map(|(ps, i)| (Time::from_ps(ps), i));
        assert_eq!(got, want);
    }

    #[test]
    fn pushes_at_the_horizon_join_the_draining_run() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for i in 0..3 {
            q.push(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        q.push(t, 3);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        q.push(t, 4);
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), Some((t, 4)));
        assert_eq!(q.runs.len(), 1, "one run served every push at {t}");
        assert!(q.is_empty());
    }
}
