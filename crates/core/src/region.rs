//! Byte regions: the registered memory windows CkDirect channels move data
//! between.
//!
//! A [`Region`] is a `(buffer, offset, len)` view into a shared byte
//! allocation. Sharing (`Rc`) is what lets a chare register *the middle of
//! its own matrix* as a receive window — the paper's motivating example ("a
//! row in the middle of a matrix") — while the runtime performs the put
//! into the very same storage with no copy on the receive side.
//!
//! # Layout
//!
//! A put touches both of its buffers several times (the sentinel read, the
//! landing, the `ready_mark` re-arm), so a buffer keeps its bytes next to
//! its header where it can. A buffer of at most [`INLINE_BYTES`] (one
//! cache line) stores them inline, in the same `Rc` allocation as its
//! borrow flag and write stamps; a larger one boxes them. A [`Region`] is
//! 16 B — the buffer pointer and a `u32` offset and length — which caps a
//! window's end at 4 GiB and keeps a channel, which holds two regions, at
//! 128 B. The two halves pay for each other: the inline bytes grow a small
//! buffer's one allocation, and the narrower regions win that back.
//!
//! # Write stamps
//!
//! Every buffer carries the **stamp** of its last write (and of the write
//! before it): a value drawn from a monotone, thread-local write clock each
//! time the buffer is borrowed mutably. The only mutable borrow is
//! [`Region`]'s own (`with_mut` and the writers built on it); [`SharedBuf`]
//! hands out nothing but a read-only [`SharedBuf::borrow`]. So no byte of a
//! buffer can change without its stamp rising past every stamp drawn
//! before — which lets a channel prove that neither of its windows was
//! written since its last landing, and skip re-copying bytes the receive
//! window already holds (`Channel::land_bytes`). The clock is per thread
//! because a buffer is `Rc`-shared and never leaves the thread that
//! allocated it.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::ops::{Deref, DerefMut, Range};
use std::rc::Rc;

use crate::error::DirectError;

/// Buffers of at most this many bytes keep them inline, in the allocation
/// that holds their write stamps.
pub const INLINE_BYTES: usize = 64;

thread_local! {
    /// The last stamp handed out on this thread (0 = none yet).
    static WRITE_CLOCK: Cell<u64> = const { Cell::new(0) };
}

/// Draw the next stamp from this thread's write clock.
fn tick() -> u64 {
    WRITE_CLOCK.with(|c| {
        let t = c.get() + 1;
        c.set(t);
        t
    })
}

/// A shared byte buffer that regions can be carved from. Cloning shares
/// the storage. Reads go through [`SharedBuf::borrow`]; writes only through
/// a [`Region`] over it, and each one stamps the buffer (see the module
/// docs).
#[derive(Clone)]
pub struct SharedBuf(Rc<Stamped>);

struct Stamped {
    bytes: RefCell<Bytes>,
    /// Write-clock value of the latest mutable borrow; allocation counts as
    /// a write, so no buffer carries stamp 0.
    stamp: Cell<u64>,
    /// The stamp before `stamp` (0 before the first write).
    prev: Cell<u64>,
}

/// A buffer's bytes: inline up to [`INLINE_BYTES`], boxed beyond (buffers
/// never grow, so a boxed slice, not a `Vec`).
enum Bytes {
    Inline { len: u8, data: [u8; INLINE_BYTES] },
    Boxed(Box<[u8]>),
}

impl Bytes {
    fn zeroed(len: usize) -> Bytes {
        if len <= INLINE_BYTES {
            Bytes::Inline {
                len: len as u8,
                data: [0; INLINE_BYTES],
            }
        } else {
            Bytes::Boxed(vec![0u8; len].into_boxed_slice())
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Bytes::Inline { len, data } => &data[..usize::from(*len)],
            Bytes::Boxed(b) => b,
        }
    }
}

impl DerefMut for Bytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Bytes::Inline { len, data } => &mut data[..usize::from(*len)],
            Bytes::Boxed(b) => b,
        }
    }
}

impl SharedBuf {
    /// Read-only view of the whole buffer.
    pub fn borrow(&self) -> Ref<'_, [u8]> {
        Ref::map(self.0.bytes.borrow(), |b| &**b)
    }

    /// Mutable view of the whole buffer; stamps it.
    fn borrow_mut(&self) -> RefMut<'_, Bytes> {
        self.0.prev.set(self.0.stamp.replace(tick()));
        self.0.bytes.borrow_mut()
    }

    fn ptr_eq(&self, other: &SharedBuf) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

/// Allocate a zeroed shared buffer of `len` bytes.
pub fn shared_buf(len: usize) -> SharedBuf {
    SharedBuf(Rc::new(Stamped {
        bytes: RefCell::new(Bytes::zeroed(len)),
        stamp: Cell::new(tick()),
        prev: Cell::new(0),
    }))
}

/// A view of `len` bytes at `offset` within a shared buffer. The window
/// must end within the first 4 GiB of its buffer (`u32` bounds).
#[derive(Clone)]
pub struct Region {
    buf: SharedBuf,
    offset: u32,
    len: u32,
}

impl Region {
    /// A region covering `buf[offset .. offset + len]`. Fails with
    /// `RegionOutOfBounds` past the buffer's end or past 4 GiB.
    pub fn new(buf: SharedBuf, offset: usize, len: usize) -> Result<Region, DirectError> {
        let end = offset.checked_add(len);
        if end.is_none_or(|e| e > buf.borrow().len() || u32::try_from(e).is_err()) {
            return Err(DirectError::RegionOutOfBounds);
        }
        // `offset` and `len` are at most `end`, which fits in a `u32`.
        Ok(Region {
            buf,
            offset: offset as u32,
            len: len as u32,
        })
    }

    /// A region covering an entire freshly allocated zeroed buffer.
    ///
    /// # Panics
    ///
    /// If `len` is 4 GiB or more: a window's bounds are `u32`s.
    pub fn alloc(len: usize) -> Region {
        let len32 = u32::try_from(len).expect("a region is under 4 GiB");
        Region {
            buf: shared_buf(len),
            offset: 0,
            len: len32,
        }
    }

    /// The window's byte range within its buffer.
    fn range(&self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }

    /// Length of the window in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for zero-length windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run `f` over the window's bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let b = self.buf.borrow();
        f(&b[self.range()])
    }

    /// Run `f` over the window's bytes mutably. Stamps the buffer, like
    /// every writer below.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut b = self.buf.borrow_mut();
        f(&mut b[self.range()])
    }

    /// Copy the window out into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.with(|b| b.to_vec())
    }

    /// Overwrite the window from a slice of exactly `len` bytes.
    pub fn copy_from_slice(&self, src: &[u8]) {
        assert_eq!(src.len(), self.len(), "region size mismatch");
        self.with_mut(|b| b.copy_from_slice(src));
    }

    /// Copy another equally-sized region's bytes into this one (the
    /// simulated RDMA transfer). Handles the two regions sharing a backing
    /// buffer (loopback channels).
    pub fn copy_from_region(&self, src: &Region) {
        assert_eq!(src.len, self.len, "region size mismatch");
        if self.buf.ptr_eq(&src.buf) {
            let mut b = self.buf.borrow_mut();
            b.copy_within(src.range(), self.offset as usize);
        } else {
            let s = src.buf.borrow();
            let mut d = self.buf.borrow_mut();
            d[self.range()].copy_from_slice(&s[src.range()]);
        }
    }
    /// Write-clock stamp of the backing buffer's latest write (any window
    /// of it, not just this one).
    pub(crate) fn stamp(&self) -> u64 {
        self.buf.0.stamp.get()
    }

    /// The backing buffer's stamp before its latest write: at most `t` iff
    /// at most one write stamped the buffer after `t`.
    pub(crate) fn prev_stamp(&self) -> u64 {
        self.buf.0.prev.get()
    }

    /// Whether the two windows share bytes of one buffer.
    pub(crate) fn overlaps(&self, other: &Region) -> bool {
        let (a, b) = (self.range(), other.range());
        self.buf.ptr_eq(&other.buf) && a.start < b.end && b.start < a.end
    }

    /// The final 8 bytes of the window as a little-endian word — where the
    /// out-of-band pattern lives. Panics on windows shorter than 8 bytes
    /// (creation validates this).
    pub fn last_word(&self) -> u64 {
        assert!(self.len >= 8);
        self.with(|b| u64::from_le_bytes(b[b.len() - 8..].try_into().unwrap()))
    }

    /// Overwrite the final 8 bytes with `w` (arming the sentinel).
    pub fn set_last_word(&self, w: u64) {
        assert!(self.len >= 8);
        self.with_mut(|b| {
            let n = b.len();
            b[n - 8..].copy_from_slice(&w.to_le_bytes());
        });
    }

    /// Read `count` little-endian `f64`s starting `at` bytes into the window.
    pub fn read_f64s(&self, at: usize, count: usize) -> Vec<f64> {
        self.with(|b| {
            (0..count)
                .map(|i| {
                    let o = at + i * 8;
                    f64::from_le_bytes(b[o..o + 8].try_into().unwrap())
                })
                .collect()
        })
    }

    /// Write `vals` as little-endian `f64`s starting `at` bytes in.
    pub fn write_f64s(&self, at: usize, vals: &[f64]) {
        self.with_mut(|b| {
            for (i, v) in vals.iter().enumerate() {
                let o = at + i * 8;
                b[o..o + 8].copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Fill the whole window with a byte value (test scaffolding).
    pub fn fill(&self, v: u8) {
        self.with_mut(|b| b.fill(v));
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region[{}..+{}]", self.offset, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed() {
        let r = Region::alloc(16);
        assert_eq!(r.to_vec(), vec![0u8; 16]);
        assert_eq!(r.len(), 16);
        assert!(!r.is_empty());
    }

    #[test]
    fn subregion_views_shared_storage() {
        let buf = shared_buf(32);
        let a = Region::new(buf.clone(), 0, 16).unwrap();
        let b = Region::new(buf.clone(), 8, 16).unwrap();
        a.fill(0xAA);
        // bytes 8..16 are visible through both regions
        assert_eq!(b.to_vec()[..8], vec![0xAA; 8][..]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let buf = shared_buf(8);
        assert_eq!(
            Region::new(buf.clone(), 4, 8).unwrap_err(),
            DirectError::RegionOutOfBounds
        );
        assert_eq!(
            Region::new(buf, usize::MAX, 2).unwrap_err(),
            DirectError::RegionOutOfBounds
        );
    }

    #[test]
    fn last_word_roundtrip() {
        let r = Region::alloc(24);
        r.set_last_word(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.last_word(), 0xDEAD_BEEF_CAFE_F00D);
        // only the final 8 bytes were touched
        assert_eq!(&r.to_vec()[..16], &[0u8; 16]);
    }

    #[test]
    fn copy_between_regions() {
        let a = Region::alloc(16);
        let b = Region::alloc(16);
        a.fill(7);
        b.copy_from_region(&a);
        assert_eq!(b.to_vec(), vec![7u8; 16]);
    }

    #[test]
    fn copy_within_shared_buffer() {
        let buf = shared_buf(32);
        let lo = Region::new(buf.clone(), 0, 16).unwrap();
        let hi = Region::new(buf, 16, 16).unwrap();
        lo.fill(3);
        hi.copy_from_region(&lo);
        assert_eq!(hi.to_vec(), vec![3u8; 16]);
    }

    #[test]
    fn f64_roundtrip_mid_matrix() {
        // register "a row in the middle of a matrix": a 4x4 f64 matrix,
        // write row 2 through a region.
        let matrix = shared_buf(4 * 4 * 8);
        let row2 = Region::new(matrix.clone(), 2 * 4 * 8, 4 * 8).unwrap();
        row2.write_f64s(0, &[1.5, 2.5, 3.5, 4.5]);
        assert_eq!(row2.read_f64s(0, 4), vec![1.5, 2.5, 3.5, 4.5]);
        // surrounding rows untouched
        let row1 = Region::new(matrix, 4 * 8, 4 * 8).unwrap();
        assert_eq!(row1.read_f64s(0, 4), vec![0.0; 4]);
    }

    #[test]
    fn every_write_stamps_and_no_read_does() {
        let buf = shared_buf(32);
        let (lo, hi) = (
            Region::new(buf.clone(), 0, 16).unwrap(),
            Region::new(buf, 16, 16).unwrap(),
        );
        let other = Region::alloc(16);
        let writes: [&dyn Fn(); 7] = [
            &|| lo.with_mut(|b| b[0] = 1),
            &|| lo.copy_from_slice(&[2; 16]),
            &|| lo.copy_from_region(&other),
            &|| lo.copy_from_region(&hi),
            &|| lo.set_last_word(3),
            &|| lo.write_f64s(0, &[4.0]),
            &|| lo.fill(5),
        ];
        for (i, write) in writes.iter().enumerate() {
            let before = hi.stamp();
            write();
            assert!(hi.stamp() > before, "write {i} left the buffer unstamped");
            assert_eq!(hi.prev_stamp(), before, "write {i}");
            let after = hi.stamp();
            let _ = (lo.to_vec(), lo.last_word(), lo.read_f64s(0, 1));
            other.copy_from_region(&hi); // reads `hi`, writes `other`
            assert_eq!(hi.stamp(), after, "a read stamped the buffer");
        }
    }

    #[test]
    fn overlap_is_shared_bytes_of_one_buffer() {
        let buf = shared_buf(32);
        let a = Region::new(buf.clone(), 0, 16).unwrap();
        let b = Region::new(buf.clone(), 8, 16).unwrap();
        let c = Region::new(buf, 16, 16).unwrap();
        assert!(a.overlaps(&b) && b.overlaps(&c) && a.overlaps(&a));
        assert!(!a.overlaps(&c), "adjacent windows share no byte");
        assert!(!a.overlaps(&Region::alloc(16)), "different buffers");
    }

    #[test]
    #[should_panic(expected = "under 4 GiB")]
    fn alloc_refuses_4_gib_before_allocating() {
        Region::alloc(1 << 32);
    }

    /// A window of `len` bytes filled with its own byte indices.
    fn counting(len: usize) -> Region {
        let r = Region::alloc(len);
        r.with_mut(|b| b.iter_mut().enumerate().for_each(|(i, x)| *x = i as u8));
        r
    }

    #[test]
    fn windows_either_side_of_the_inline_limit() {
        for len in [INLINE_BYTES, INLINE_BYTES + 1] {
            let (a, b) = (counting(len), Region::alloc(len));
            assert_eq!(a.len(), len);
            assert_eq!(a.to_vec(), (0..len).map(|i| i as u8).collect::<Vec<_>>());
            let before = b.stamp();
            b.copy_from_region(&a);
            assert!(b.stamp() > before && b.prev_stamp() == before, "{len} B");
            assert_eq!(b.to_vec(), a.to_vec(), "{len} B");
            b.set_last_word(0x0102_0304_0506_0708);
            assert_eq!(b.last_word(), 0x0102_0304_0506_0708, "{len} B");
            assert_eq!(b.to_vec()[..len - 8], a.to_vec()[..len - 8], "{len} B");
            assert!(a.overlaps(&a) && !a.overlaps(&b));
            assert_eq!(shared_buf(len).borrow().len(), len);
        }
    }

    #[test]
    fn subregions_of_an_inline_buffer() {
        let buf = shared_buf(INLINE_BYTES);
        let whole = Region::new(buf.clone(), 0, INLINE_BYTES).unwrap();
        let (lo, mid, hi) = (
            Region::new(buf.clone(), 0, 24).unwrap(),
            Region::new(buf.clone(), 20, 24).unwrap(),
            Region::new(buf.clone(), 40, 24).unwrap(),
        );
        assert!(Region::new(buf.clone(), 41, 24).is_err(), "past the buffer");
        assert!(lo.overlaps(&mid) && mid.overlaps(&hi) && !lo.overlaps(&hi));
        hi.with_mut(|b| b.fill(9));
        assert_eq!(whole.with(|b| b[39..41].to_vec()), vec![0, 9]);
        lo.write_f64s(0, &[1.5, 2.5, 3.5]);
        assert_eq!(lo.last_word(), 3.5f64.to_bits());
        // loopback copies, both directions and overlapping
        let stamp = whole.stamp();
        hi.copy_from_region(&lo);
        assert!(whole.stamp() > stamp && whole.prev_stamp() == stamp);
        assert_eq!(hi.read_f64s(0, 3), vec![1.5, 2.5, 3.5]);
        mid.copy_from_region(&lo);
        assert_eq!(mid.read_f64s(0, 3), vec![1.5, 2.5, 3.5]);
        assert_eq!(
            lo.read_f64s(0, 2),
            vec![1.5, 2.5],
            "source kept below the overlap"
        );
        // reads leave the shared stamp alone; any window's write moves it
        let stamp = whole.stamp();
        let _ = (lo.to_vec(), mid.last_word(), buf.borrow().len());
        assert_eq!(hi.stamp(), stamp);
        mid.set_last_word(7);
        assert!(lo.stamp() > stamp && hi.stamp() == lo.stamp());
        // a boxed window copies into an inline one and back
        let boxed = counting(INLINE_BYTES + 1);
        let tail = Region::new(boxed.buf.clone(), INLINE_BYTES + 1 - 24, 24).unwrap();
        lo.copy_from_region(&tail);
        assert_eq!(lo.to_vec(), tail.to_vec());
        assert!(!lo.overlaps(&tail));
    }

    #[test]
    fn copy_from_slice_exact() {
        let r = Region::alloc(8);
        r.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(r.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
