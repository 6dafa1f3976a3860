//! Structure-of-arrays position storage for the neighbor-search hot loops.
//!
//! The k-d tree answers kNN queries by scanning small contiguous runs of
//! points (its leaves); the brute-force oracle scans the whole cloud. With `&[Point3]` those scans are strided 12-byte loads that the compiler
//! cannot turn into full-width vector arithmetic. [`SoaPositions`] stores the
//! same points as three separate coordinate lanes (`x[]`, `y[]`, `z[]`), each
//! 32-byte aligned and padded past the end, so a leaf scan becomes a
//! streaming 8-wide squared-distance kernel (see [`crate::kernels`]) with no
//! shuffle or gather work.
//!
//! The tree stores its points here in *visit order* (leaf order) next to a
//! `u32` id array mapping each slot back to the original point index, so a
//! scan touches two perfectly sequential streams.

use crate::point::Point3;

/// Vector width of the distance kernels: 8 `f32` lanes (one AVX2 register).
pub const LANES: usize = 8;

/// One aligned block of coordinate lanes. `repr(C, align(32))` pins every
/// block — and therefore the start of each lane array — to a 32-byte
/// boundary, matching the AVX2 register width.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct LaneBlock([f32; LANES]);

/// Padding value for the unused tail lanes. `INFINITY` guarantees a padded
/// slot can never produce a smaller squared distance than a real point, so
/// full-width loads that read past `len` are harmless by construction.
const PAD: f32 = f32::INFINITY;

/// One coordinate lane: a `Vec` of aligned blocks exposed as a flat `&[f32]`.
#[derive(Debug, Clone, Default)]
struct Lane {
    blocks: Vec<LaneBlock>,
}

impl Lane {
    /// Grows to at least `blocks` blocks, padding new storage.
    fn reset(&mut self, blocks: usize) {
        self.blocks.clear();
        self.blocks.resize(blocks, LaneBlock([PAD; LANES]));
    }

    /// The lane as a flat, 32-byte-aligned `&[f32]` of `blocks * LANES`.
    #[inline]
    fn as_flat(&self) -> &[f32] {
        // SAFETY: `LaneBlock` is `repr(C)` over `[f32; LANES]`, so a
        // contiguous `[LaneBlock]` is layout-identical to a contiguous
        // `[f32]` of `LANES ×` the length.
        unsafe {
            std::slice::from_raw_parts(
                self.blocks.as_ptr().cast::<f32>(),
                self.blocks.len() * LANES,
            )
        }
    }

    /// Mutable flat view.
    #[inline]
    fn as_flat_mut(&mut self) -> &mut [f32] {
        // SAFETY: same layout argument as [`Self::as_flat`].
        unsafe {
            std::slice::from_raw_parts_mut(
                self.blocks.as_mut_ptr().cast::<f32>(),
                self.blocks.len() * LANES,
            )
        }
    }
}

/// Separate x/y/z coordinate lanes, 32-byte aligned and lane-padded.
///
/// The arrays are padded with [`f32::INFINITY`] to at least two full blocks
/// past `len`, so a kernel may always read a `2 × LANES`-wide window
/// starting at any valid slot without bounds concern — padded lanes lose
/// every distance comparison.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{soa::SoaPositions, Point3};
/// let pts = [Point3::new(1.0, 2.0, 3.0), Point3::new(4.0, 5.0, 6.0)];
/// let mut soa = SoaPositions::default();
/// soa.fill(&pts);
/// assert_eq!(soa.len(), 2);
/// assert_eq!((soa.xs()[1], soa.ys()[1], soa.zs()[1]), (4.0, 5.0, 6.0));
/// assert!(soa.xs().len() >= soa.len() + 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SoaPositions {
    x: Lane,
    y: Lane,
    z: Lane,
    len: usize,
}

impl SoaPositions {
    /// Number of stored points (excluding padding).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resets storage for `n` points: lanes sized to `n` rounded up to a
    /// block boundary **plus two extra blocks**, everything padded. The
    /// extra blocks are what let kernels issue a load of up to `2 × LANES`
    /// lanes from any slot `< n` unconditionally (the AVX-512 path reads
    /// 16-wide windows).
    fn reset(&mut self, n: usize) {
        let blocks = n / LANES + 3;
        self.x.reset(blocks);
        self.y.reset(blocks);
        self.z.reset(blocks);
        self.len = n;
    }

    /// Rebuilds the lanes from `points` in their given order, reusing the
    /// existing allocations.
    pub fn fill<'a>(
        &mut self,
        points: impl IntoIterator<Item = &'a Point3, IntoIter: ExactSizeIterator>,
    ) {
        let points = points.into_iter();
        self.reset(points.len());
        let (xs, ys, zs) = (
            self.x.as_flat_mut(),
            self.y.as_flat_mut(),
            self.z.as_flat_mut(),
        );
        for (i, p) in points.enumerate() {
            xs[i] = p.x;
            ys[i] = p.y;
            zs[i] = p.z;
        }
    }

    /// The three lanes cut to [`Self::len`], writable in place: the k-d tree
    /// rewrites the slot range a re-sort permutes.
    pub(crate) fn lanes_mut(&mut self) -> [&mut [f32]; 3] {
        let len = self.len;
        [&mut self.x, &mut self.y, &mut self.z].map(|lane| &mut lane.as_flat_mut()[..len])
    }

    /// The x lane including padding (length ≥ `len + LANES`, 32-byte aligned).
    #[inline]
    pub fn xs(&self) -> &[f32] {
        self.x.as_flat()
    }

    /// The y lane including padding.
    #[inline]
    pub fn ys(&self) -> &[f32] {
        self.y.as_flat()
    }

    /// The z lane including padding.
    #[inline]
    pub fn zs(&self) -> &[f32] {
        self.z.as_flat()
    }

    /// Capacity (in bytes) currently reserved by the three lanes — used by
    /// scratch-reuse assertions (steady-state rebuilds of same-size point
    /// sets must not grow it).
    pub fn reserved_bytes(&self) -> usize {
        (self.x.blocks.capacity() + self.y.blocks.capacity() + self.z.blocks.capacity())
            * std::mem::size_of::<LaneBlock>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_roundtrip_and_padding() {
        let pts: Vec<Point3> = (0..13)
            .map(|i| Point3::new(i as f32, -(i as f32), 0.5 * i as f32))
            .collect();
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        assert_eq!(soa.len(), 13);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!((soa.xs()[i], soa.ys()[i], soa.zs()[i]), (p.x, p.y, p.z));
        }
        // Padding: at least two full blocks past len, all +inf.
        assert!(soa.xs().len() >= 13 + 2 * LANES);
        assert!(soa.xs()[13..].iter().all(|&v| v == f32::INFINITY));
        assert!(soa.ys()[13..].iter().all(|&v| v == f32::INFINITY));
        assert!(soa.zs()[13..].iter().all(|&v| v == f32::INFINITY));
    }

    #[test]
    fn refill_reuses_and_repads() {
        let mut soa = SoaPositions::default();
        soa.fill(&[Point3::ONE; 20]);
        soa.fill(&[Point3::ZERO; 3]);
        assert_eq!(soa.len(), 3);
        // Slots beyond the new length must be padding again, not stale data.
        assert!(soa.xs()[3..].iter().all(|&v| v == f32::INFINITY));
        soa.fill(&[]);
        assert!(soa.is_empty());
        assert!(soa.xs().len() >= LANES);
    }

    #[test]
    fn lanes_are_32_byte_aligned() {
        let mut soa = SoaPositions::default();
        soa.fill(&[Point3::ONE; 9]);
        for lane in [soa.xs(), soa.ys(), soa.zs()] {
            assert_eq!(lane.as_ptr() as usize % 32, 0);
        }
    }
}
