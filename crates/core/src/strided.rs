//! Strided transfer layouts — the first of the paper's proposed extensions
//! ("we are considering several extensions … including support for …
//! strided communication patterns").
//!
//! A [`StridedSpec`] describes `count` blocks of `block_len` bytes placed
//! `stride` bytes apart — a matrix column, a face of a row-major cuboid
//! with interior padding, every k-th particle record. ARMCI (the related
//! work the paper contrasts against) supports exactly such layouts; adding
//! them to CkDirect keeps the unsynchronized model while removing the
//! pack/unpack step from the application.
//!
//! A strided channel still has a *contiguous* wire image (`count ×
//! block_len` bytes, sentinel in its last 8); the runtime gathers from the
//! strided source into the wire image at put time (unless the source is
//! unwritten since the last gather) and scatters into the strided
//! destination at land time — and charges for both copies, so the cost
//! model stays honest. (A real NIC with scatter/gather lists would
//! skip the copies; the parameterization makes that a one-line change.)

use crate::error::DirectError;
use crate::region::Region;

/// `count` blocks of `block_len` bytes, `stride` bytes apart, starting at
/// `offset` within a backing region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedSpec {
    /// Byte offset of the first block within the backing region.
    pub offset: usize,
    /// Bytes per block.
    pub block_len: usize,
    /// Distance between block starts, in bytes (`>= block_len`).
    pub stride: usize,
    /// Number of blocks.
    pub count: usize,
}

impl StridedSpec {
    /// A contiguous layout (one block).
    pub fn contiguous(offset: usize, len: usize) -> StridedSpec {
        StridedSpec {
            offset,
            block_len: len,
            stride: len,
            count: 1,
        }
    }

    /// Payload bytes moved per transfer.
    pub fn payload_len(&self) -> usize {
        self.block_len * self.count
    }

    /// Last byte (exclusive) the layout touches in its backing region.
    pub fn span(&self) -> usize {
        if self.count == 0 {
            return self.offset;
        }
        self.offset + (self.count - 1) * self.stride + self.block_len
    }

    /// Validate the layout against a backing region.
    pub fn validate(&self, backing: &Region) -> Result<(), DirectError> {
        if self.block_len == 0 || self.count == 0 {
            return Err(DirectError::BufferTooSmall);
        }
        if self.stride < self.block_len {
            return Err(DirectError::RegionOutOfBounds); // blocks overlap
        }
        if self.span() > backing.len() {
            return Err(DirectError::RegionOutOfBounds);
        }
        Ok(())
    }

    /// Gather the strided blocks out of `backing` into the contiguous
    /// `wire` image (which must be exactly `payload_len` bytes).
    pub fn gather(&self, backing: &Region, wire: &Region) {
        assert_eq!(wire.len(), self.payload_len(), "wire image size");
        backing.with(|src| {
            wire.with_mut(|dst| {
                for b in 0..self.count {
                    let s = self.offset + b * self.stride;
                    let d = b * self.block_len;
                    dst[d..d + self.block_len].copy_from_slice(&src[s..s + self.block_len]);
                }
            });
        });
    }

    /// Scatter the contiguous `wire` image into the strided blocks of
    /// `backing`.
    pub fn scatter(&self, wire: &Region, backing: &Region) {
        assert_eq!(wire.len(), self.payload_len(), "wire image size");
        wire.with(|src| {
            backing.with_mut(|dst| {
                for b in 0..self.count {
                    let s = b * self.block_len;
                    let d = self.offset + b * self.stride;
                    dst[d..d + self.block_len].copy_from_slice(&src[s..s + self.block_len]);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_spec() {
        let s = StridedSpec::contiguous(4, 16);
        assert_eq!(s.payload_len(), 16);
        assert_eq!(s.span(), 20);
    }

    #[test]
    fn span_and_validation() {
        let backing = Region::alloc(100);
        let ok = StridedSpec {
            offset: 4,
            block_len: 8,
            stride: 24,
            count: 4,
        };
        assert_eq!(ok.span(), 4 + 3 * 24 + 8);
        ok.validate(&backing).unwrap();

        let too_far = StridedSpec {
            offset: 40,
            block_len: 8,
            stride: 24,
            count: 4,
        };
        assert_eq!(
            too_far.validate(&backing).unwrap_err(),
            DirectError::RegionOutOfBounds
        );

        let overlapping = StridedSpec {
            offset: 0,
            block_len: 16,
            stride: 8,
            count: 2,
        };
        assert_eq!(
            overlapping.validate(&backing).unwrap_err(),
            DirectError::RegionOutOfBounds
        );

        let empty = StridedSpec {
            offset: 0,
            block_len: 0,
            stride: 8,
            count: 2,
        };
        assert_eq!(
            empty.validate(&backing).unwrap_err(),
            DirectError::BufferTooSmall
        );
    }

    #[test]
    fn gather_scatter_roundtrip_matrix_column() {
        // a 4x4 byte "matrix": move column 2 through a wire image
        let src = Region::alloc(16);
        src.with_mut(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = i as u8;
            }
        });
        let col = StridedSpec {
            offset: 2,
            block_len: 1,
            stride: 4,
            count: 4,
        };
        let wire = Region::alloc(col.payload_len());
        col.gather(&src, &wire);
        assert_eq!(wire.to_vec(), vec![2, 6, 10, 14]);

        // scatter into column 0 of a zeroed destination
        let dst = Region::alloc(16);
        let col0 = StridedSpec {
            offset: 0,
            block_len: 1,
            stride: 4,
            count: 4,
        };
        col0.scatter(&wire, &dst);
        assert_eq!(
            dst.to_vec(),
            vec![2, 0, 0, 0, 6, 0, 0, 0, 10, 0, 0, 0, 14, 0, 0, 0]
        );
    }

    #[test]
    fn gather_scatter_multibyte_blocks() {
        let src = Region::alloc(64);
        src.with_mut(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i * 3) as u8;
            }
        });
        let spec = StridedSpec {
            offset: 8,
            block_len: 8,
            stride: 16,
            count: 3,
        };
        let wire = Region::alloc(24);
        spec.gather(&src, &wire);
        let dst = Region::alloc(64);
        spec.scatter(&wire, &dst);
        // the strided windows agree; everything else in dst is zero
        let sv = src.to_vec();
        let dv = dst.to_vec();
        for i in 0..64 {
            let in_window = (8..16).contains(&(i % 16)) && (8..56).contains(&i);
            if in_window {
                assert_eq!(dv[i], sv[i], "byte {i}");
            } else {
                assert_eq!(dv[i], 0, "byte {i} leaked");
            }
        }
    }
}
