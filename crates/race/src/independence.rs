//! The independence oracle: per-event footprints and the commutation
//! predicate the model checker (`ckd-check`) prunes with.
//!
//! Two pending events *commute* when dispatching them in either order
//! reaches the same machine state: no happens-before edge can form between
//! them and they touch no common scheduler or channel resource. The
//! runtime cannot see HB edges at push time (they materialize during
//! dispatch), so the footprint encodes the static over-approximation the
//! sanitizer's dynamic clocks refine: the destination PE (every dispatch
//! mutates per-PE state: the scheduler queue, busy-time accounting, the
//! PE's vector clock) and, for CkDirect completions, the channel handle.
//!
//! Footprints travel through `ckd-sim`'s event queue as opaque `u64` tags
//! so the queue never depends on this crate; tag 0 is reserved for
//! "unknown" and conservatively conflicts with everything (plain
//! `EventQueue::push` emits it for free).

/// Encoded footprint of one pending event.
///
/// Layout: bit 63 = arrival-class (a remote delivery the checker's
/// commutation window may legally reorder), bits 24..=55 = channel
/// resource + 1 (0 = none), bits 0..=23 = destination PE + 1 (0 only in
/// the reserved unknown tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint(u64);

const ARRIVAL_BIT: u64 = 1 << 63;
const PE_MASK: u64 = (1 << 24) - 1;
const RES_SHIFT: u32 = 24;
const RES_MASK: u64 = (1 << 32) - 1;

impl Footprint {
    /// The reserved unknown footprint: conflicts with everything.
    pub const UNKNOWN: Footprint = Footprint(0);

    /// A remote delivery landing on `pe` with no channel resource
    /// (two-sided message, reduction hop, broadcast hop).
    pub fn arrival(pe: usize) -> Footprint {
        Footprint(ARRIVAL_BIT | (pe as u64 + 1) & PE_MASK)
    }

    /// A remote delivery landing on `pe` through channel `handle`
    /// (CkDirect put/get completion).
    pub fn arrival_on(pe: usize, handle: u32) -> Footprint {
        Footprint(ARRIVAL_BIT | ((handle as u64 + 1) << RES_SHIFT) | (pe as u64 + 1) & PE_MASK)
    }

    /// Local scheduler work pinned to `pe` (a `PeLoop` iteration): never a
    /// reorder alternative, but jumpable by arrivals bound elsewhere.
    pub fn local(pe: usize) -> Footprint {
        Footprint((pe as u64 + 1) & PE_MASK)
    }

    /// Decode a tag carried through the event queue.
    pub fn from_tag(tag: u64) -> Footprint {
        Footprint(tag)
    }

    /// The tag to carry through the event queue.
    pub fn tag(self) -> u64 {
        self.0
    }

    /// True for remote deliveries the commutation window may reorder.
    pub fn is_arrival(self) -> bool {
        self.0 & ARRIVAL_BIT != 0
    }

    /// Destination PE, if known.
    pub fn pe(self) -> Option<usize> {
        match self.0 & PE_MASK {
            0 => None,
            p => Some(p as usize - 1),
        }
    }

    /// Channel resource (handle id), if any.
    pub fn resource(self) -> Option<u32> {
        match (self.0 >> RES_SHIFT) & RES_MASK {
            0 => None,
            r => Some(r as u32 - 1),
        }
    }
}

/// Do two pending events commute? Conservative: unknown footprints
/// commute with nothing, same destination PE never commutes (both orders
/// mutate the same scheduler queue, busy accounting, and vector clock),
/// and a shared channel resource never commutes regardless of PE.
pub fn commutes(a: Footprint, b: Footprint) -> bool {
    if a.0 == 0 || b.0 == 0 {
        return false;
    }
    if a.pe() == b.pe() {
        return false;
    }
    match (a.resource(), b.resource()) {
        (Some(x), Some(y)) => x != y,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_tags() {
        for f in [
            Footprint::arrival(0),
            Footprint::arrival(7),
            Footprint::arrival_on(3, 0),
            Footprint::arrival_on(3, 41),
            Footprint::local(2),
        ] {
            assert_eq!(Footprint::from_tag(f.tag()), f);
        }
        assert_eq!(Footprint::arrival(5).pe(), Some(5));
        assert!(Footprint::arrival(5).is_arrival());
        assert_eq!(Footprint::arrival(5).resource(), None);
        assert_eq!(Footprint::arrival_on(5, 9).resource(), Some(9));
        assert!(!Footprint::local(5).is_arrival());
        assert_eq!(Footprint::local(5).pe(), Some(5));
    }

    #[test]
    fn unknown_conflicts_with_everything() {
        assert!(!commutes(Footprint::UNKNOWN, Footprint::arrival(1)));
        assert!(!commutes(Footprint::arrival(1), Footprint::UNKNOWN));
        assert!(!commutes(Footprint::UNKNOWN, Footprint::UNKNOWN));
    }

    #[test]
    fn same_pe_never_commutes() {
        assert!(!commutes(Footprint::arrival(2), Footprint::arrival(2)));
        assert!(!commutes(Footprint::arrival(2), Footprint::local(2)));
        assert!(!commutes(
            Footprint::arrival_on(2, 1),
            Footprint::arrival(2)
        ));
    }

    #[test]
    fn distinct_pes_commute_unless_a_channel_is_shared() {
        assert!(commutes(Footprint::arrival(1), Footprint::arrival(2)));
        assert!(commutes(Footprint::arrival(1), Footprint::local(2)));
        assert!(commutes(
            Footprint::arrival_on(1, 7),
            Footprint::arrival_on(2, 8)
        ));
        assert!(!commutes(
            Footprint::arrival_on(1, 7),
            Footprint::arrival_on(2, 7)
        ));
    }
}
