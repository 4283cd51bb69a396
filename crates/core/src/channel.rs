//! Per-channel state: the lifecycle that makes "at most one message in
//! flight, re-armed by `ready`" checkable.

use ckd_topo::Pe;

use crate::error::DirectError;
use crate::region::Region;
use crate::strided::StridedSpec;

/// Identifies a CkDirect channel. The receiver creates it and ships it to
/// the sender inside an ordinary message during setup.
///
/// The 32 bits pack a slab **slot** (low [`HandleId::SLOT_BITS`] bits) and
/// a **generation** tag (high 8 bits). The registry bumps a slot's
/// generation every time [`DirectRegistry::destroy_handle`] recycles it, so
/// a handle held across a destroy goes stale — every registry operation on
/// it fails with `BadHandle` instead of silently touching the slot's new
/// tenant. Channels that are never destroyed carry generation 0, making the
/// packed value identical to the dense index the registry historically
/// handed out.
///
/// The tag is 8 bits and wraps. A stale handle is rejected through the
/// next 255 recycles of its slot; at exactly the 256th recycle the slot's
/// generation is back to the stale handle's own, and the handle validates
/// against that new tenant. The simulator is deterministic, so this is no
/// probability: a program that holds a handle across 256 destroys of its
/// slot aliases every time (pinned by the registry's
/// `stale_handles_alias_at_exactly_the_256th_recycle` test).
///
/// [`DirectRegistry::destroy_handle`]: crate::DirectRegistry::destroy_handle
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandleId(pub u32);

/// Sentinel slot-link value: "no neighbor" in an intrusive ready list and
/// "end of the freelist" in the slab.
pub(crate) const NO_SLOT: u32 = u32::MAX;

impl HandleId {
    /// Bits of the packed value that address the slab slot.
    pub const SLOT_BITS: u32 = 24;
    /// Maximum live channels a registry can hold (one per slot).
    pub const MAX_SLOTS: usize = 1 << Self::SLOT_BITS;
    const SLOT_MASK: u32 = (1 << Self::SLOT_BITS) - 1;

    /// Pack a slab slot and generation tag into a handle.
    #[inline]
    pub fn new(slot: u32, generation: u8) -> HandleId {
        debug_assert!(slot <= Self::SLOT_MASK);
        HandleId((u32::from(generation) << Self::SLOT_BITS) | slot)
    }

    /// The slab slot this handle addresses.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 & Self::SLOT_MASK
    }

    /// The generation tag this handle was minted with.
    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> Self::SLOT_BITS) as u8
    }

    /// Dense index for table lookups (the slot).
    #[inline]
    pub fn idx(self) -> usize {
        self.slot() as usize
    }
}

impl std::fmt::Debug for HandleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckh{}", self.0)
    }
}

/// How completion is detected on this machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectBackend {
    /// Infiniband-style: the RDMA write overwrites the out-of-band pattern
    /// in the last 8 bytes; a per-PE polling queue detects it between
    /// scheduler iterations. `ready_mark` / `ready_poll_q` are meaningful.
    IbPoll,
    /// Blue Gene/P-style: delivery is a DCMF completion callback; the
    /// `ready` family are no-ops (the paper's BG/P implementation).
    DcmfCallback,
    /// Notified-RMA style (Slingshot-class fabrics): each put deposits a
    /// notification record in a bounded per-PE completion queue; the
    /// receiver *drains* the queue (`cq_drain_into`) instead of polling
    /// per-handle sentinels. A put that would overflow the CQ is held back
    /// at the NIC (`DirectError::CqOverflow` → executor backpressure). The
    /// `ready` family release data like the callback backend.
    NotifiedPut,
}

/// Where the channel's current message is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPhase {
    /// No outstanding put; the buffer is the receiver's to reuse.
    Empty,
    /// A put has been issued; bytes are on the wire.
    InFlight,
    /// Bytes have landed in the receive buffer but no callback has fired
    /// yet (awaiting a poll sweep on the IbPoll backend).
    Landed,
    /// The callback fired; the receiver owns the data until `ready_mark`.
    Delivered,
}

/// One CkDirect channel.
pub(crate) struct Channel<C> {
    /// PE hosting the receive buffer.
    pub recv_pe: Pe,
    /// Receive window (registered at `create_handle`).
    pub recv: Region,
    /// PE hosting the send buffer; meaningful only once `send` is set (a
    /// bare `Pe`, not an `Option`, keeps the channel at 128 B — see
    /// [`Channel::send_pe`]).
    pub send_pe: Pe,
    /// Send window, once `assoc_local` ran.
    pub send: Option<Region>,
    /// The out-of-band pattern for this channel.
    pub oob: u64,
    /// Bytes charged on the wire per put. Defaults to the region length;
    /// figure-scale (modeled) runs keep small real regions but charge the
    /// full application buffer size here.
    pub wire_bytes: usize,
    /// Completion callback token (interpreted by the runtime layer).
    pub callback: C,
    /// Data lifecycle.
    pub phase: DataPhase,
    /// Sentinel currently armed (last word == oob as far as the receiver
    /// side knows).
    pub marked: bool,
    /// Present in the owning PE's polling queue.
    pub in_pollq: bool,
    /// Linked into the owning PE's ready list (landed, detectable, armed —
    /// the next sweep will deliver it).
    pub ready_linked: bool,
    /// Next slot in the intrusive ready list ([`NO_SLOT`] when unlinked or
    /// at the tail).
    pub ready_next: u32,
    /// Previous slot in the intrusive ready list ([`NO_SLOT`] when unlinked
    /// or at the head).
    pub ready_prev: u32,
    /// Poll-queue insertion sequence on the owning PE. Sweeps deliver in
    /// ascending order of this value — exactly the historical per-PE
    /// `Vec<HandleId>` insertion order.
    pub pollq_seq: u64,
    /// Strided layouts of either side (`None` for contiguous channels).
    pub strided: Option<Box<Strided>>,
    /// Put whose payload's final word equals the pattern: undetectable by
    /// polling (diagnostic, see `DirectError::OobCollision`).
    pub collided: bool,
    /// Total puts issued on this channel (the wire sequence number).
    pub puts: u64,
    /// Highest put sequence number that has landed (0 = none yet). Lets the
    /// reliability layer replay a duplicated RDMA put idempotently.
    pub landed_seq: u64,
    /// Write-clock value at which `recv` last held `send`'s bytes (0 =
    /// never, and always for overlapping windows): while neither window's
    /// buffer is stamped past it, the two still agree.
    pub synced: u64,
    /// `ready_mark` re-armed `recv`'s sentinel since `synced`.
    pub rearmed: bool,
}

/// The strided sides of a channel (the paper's proposed extension).
#[derive(Default)]
pub(crate) struct Strided {
    /// Receive side: scatter the wire image into this backing layout at
    /// delivery.
    pub recv: Option<(Region, StridedSpec)>,
    /// Send side: gather this backing layout into the wire image at put.
    pub send: Option<(Region, StridedSpec)>,
    /// The send backing's stamp at the last gather (0 = never gathered):
    /// while the backing is not stamped past it, the wire image still
    /// holds its blocks.
    pub gathered: u64,
}

impl<C> Channel<C> {
    pub(crate) fn new(recv_pe: Pe, recv: Region, oob: u64, callback: C) -> Channel<C> {
        let wire_bytes = recv.len();
        Channel {
            recv_pe,
            recv,
            send_pe: recv_pe,
            send: None,
            oob,
            wire_bytes,
            callback,
            strided: None,
            phase: DataPhase::Empty,
            marked: true,
            in_pollq: false,
            ready_linked: false,
            ready_next: NO_SLOT,
            ready_prev: NO_SLOT,
            pollq_seq: 0,
            collided: false,
            puts: 0,
            landed_seq: 0,
            synced: 0,
            rearmed: false,
        }
    }

    /// The PE hosting the send buffer, once `assoc_local` ran.
    pub(crate) fn send_pe(&self) -> Result<Pe, DirectError> {
        match self.send {
            Some(_) => Ok(self.send_pe),
            None => Err(DirectError::NotAssociated),
        }
    }

    /// The strided receive side, if any.
    pub(crate) fn scatter_side(&self) -> Option<&(Region, StridedSpec)> {
        self.strided.as_ref()?.recv.as_ref()
    }

    /// The strided send side, if any.
    pub(crate) fn gather_side(&self) -> Option<&(Region, StridedSpec)> {
        self.strided.as_ref()?.send.as_ref()
    }

    /// Gather a strided source into the wire image: a no-op when
    /// contiguous, or while the source backing is unwritten since the last
    /// gather (re-gathering would stamp the wire image, and the landing
    /// would then re-copy a window that did not change).
    pub(crate) fn gather(&mut self) {
        let Some(st) = self.strided.as_deref_mut() else {
            return;
        };
        if let Some((backing, spec)) = &st.send {
            if backing.stamp() > st.gathered {
                spec.gather(backing, self.send.as_ref().expect("associated"));
                st.gathered = backing.stamp();
            }
        }
    }

    /// Land the put: leave `recv` holding exactly the bytes a full copy of
    /// `send` at landing time would, copying only what can differ since the
    /// last landing — nothing if neither window's buffer was written, the
    /// last word if `ready_mark`'s re-arm was the only write. Returns the
    /// bytes copied.
    pub(crate) fn land_bytes(&mut self) -> Result<usize, DirectError> {
        let send = self.send.as_ref().ok_or(DirectError::NotAssociated)?;
        let send_clean = send.stamp() <= self.synced;
        if send_clean && self.recv.stamp() <= self.synced {
            return Ok(0);
        }
        // The re-arm was `recv`'s only write since: just its last word differs.
        let copied = if send_clean && self.rearmed && self.recv.prev_stamp() <= self.synced {
            self.recv.set_last_word(send.last_word());
            8
        } else {
            self.recv.copy_from_region(send);
            self.recv.len()
        };
        // Overlapping windows of one buffer: the copy rewrote part of its
        // own source, so the two no longer agree.
        self.synced = if self.recv.overlaps(send) {
            0
        } else {
            self.recv.stamp()
        };
        self.rearmed = false;
        Ok(copied)
    }

    /// Re-arm the sentinel (`ready_mark`).
    pub(crate) fn rearm(&mut self) {
        self.recv.set_last_word(self.oob);
        self.rearmed = true;
        self.marked = true;
    }

    /// Hand the landed data to the receiver: the channel is `Delivered`
    /// and unarmed until `ready_mark`, a strided window has been scattered
    /// into its backing layout, and the callback token is returned.
    pub(crate) fn deliver(&mut self) -> C
    where
        C: Clone,
    {
        self.phase = DataPhase::Delivered;
        self.marked = false;
        if let Some((backing, spec)) = self.scatter_side() {
            spec.scatter(&self.recv, backing);
        }
        self.callback.clone()
    }
}
