//! Byte regions: the registered memory windows CkDirect channels move data
//! between.
//!
//! A [`Region`] is a `(buffer, offset, len)` view into a shared byte
//! allocation. Sharing (`Rc`) is what lets a chare register *the middle of
//! its own matrix* as a receive window — the paper's motivating example ("a
//! row in the middle of a matrix") — while the runtime performs the put
//! into the very same storage with no copy on the receive side.
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
use std::rc::Rc;

use crate::error::DirectError;

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
    /// Buffers never grow, so a boxed slice, not a `Vec`: its 8 saved
    /// bytes pay for `prev`.
    bytes: RefCell<Box<[u8]>>,
    /// Write-clock value of the latest mutable borrow; allocation counts as
    /// a write, so no buffer carries stamp 0.
    stamp: Cell<u64>,
    /// The stamp before `stamp` (0 before the first write).
    prev: Cell<u64>,
}

impl SharedBuf {
    /// Read-only view of the whole buffer.
    pub fn borrow(&self) -> Ref<'_, [u8]> {
        Ref::map(self.0.bytes.borrow(), |b| &**b)
    }

    /// Mutable view of the whole buffer; stamps it.
    fn borrow_mut(&self) -> RefMut<'_, Box<[u8]>> {
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
        bytes: RefCell::new(vec![0u8; len].into_boxed_slice()),
        stamp: Cell::new(tick()),
        prev: Cell::new(0),
    }))
}

/// A view of `len` bytes at `offset` within a shared buffer.
#[derive(Clone)]
pub struct Region {
    buf: SharedBuf,
    offset: usize,
    len: usize,
}

impl Region {
    /// A region covering `buf[offset .. offset + len]`.
    pub fn new(buf: SharedBuf, offset: usize, len: usize) -> Result<Region, DirectError> {
        let end = offset.checked_add(len);
        if end.is_none() || end.unwrap() > buf.borrow().len() {
            return Err(DirectError::RegionOutOfBounds);
        }
        Ok(Region { buf, offset, len })
    }

    /// A region covering an entire freshly allocated zeroed buffer.
    pub fn alloc(len: usize) -> Region {
        Region {
            buf: shared_buf(len),
            offset: 0,
            len,
        }
    }

    /// Length of the window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run `f` over the window's bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let b = self.buf.borrow();
        f(&b[self.offset..self.offset + self.len])
    }

    /// Run `f` over the window's bytes mutably. Stamps the buffer, like
    /// every writer below.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut b = self.buf.borrow_mut();
        f(&mut b[self.offset..self.offset + self.len])
    }

    /// Copy the window out into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.with(|b| b.to_vec())
    }

    /// Overwrite the window from a slice of exactly `len` bytes.
    pub fn copy_from_slice(&self, src: &[u8]) {
        assert_eq!(src.len(), self.len, "region size mismatch");
        self.with_mut(|b| b.copy_from_slice(src));
    }

    /// Copy another equally-sized region's bytes into this one (the
    /// simulated RDMA transfer). Handles the two regions sharing a backing
    /// buffer (loopback channels).
    pub fn copy_from_region(&self, src: &Region) {
        assert_eq!(src.len, self.len, "region size mismatch");
        if self.buf.ptr_eq(&src.buf) {
            let mut b = self.buf.borrow_mut();
            b.copy_within(src.offset..src.offset + src.len, self.offset);
        } else {
            let s = src.buf.borrow();
            let mut d = self.buf.borrow_mut();
            d[self.offset..self.offset + self.len]
                .copy_from_slice(&s[src.offset..src.offset + src.len]);
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
        self.buf.ptr_eq(&other.buf)
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }

    /// The final 8 bytes of the window as a little-endian word — where the
    /// out-of-band pattern lives. Panics on windows shorter than 8 bytes
    /// (creation validates this).
    pub fn last_word(&self) -> u64 {
        assert!(self.len >= 8);
        self.with(|b| u64::from_le_bytes(b[self.len - 8..].try_into().unwrap()))
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
    fn copy_from_slice_exact() {
        let r = Region::alloc(8);
        r.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(r.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
