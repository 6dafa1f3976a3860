//! Flat fixed-width neighborhood storage.
//!
//! The SR pipeline attaches a small list of neighbor indices to every
//! generated point. Storing those lists as `Vec<Vec<usize>>` costs one heap
//! allocation per point and scatters the data across the heap; at the
//! 100K-points-per-frame scale the paper targets, the allocator traffic
//! alone dominates the refinement stage. Every list the engine builds has
//! the same length — exact kNN rows are `min(k, n)` wide, and so are the
//! Eq. 2 rows of generated points — so [`Neighborhoods`] stores them as one
//! flat slab with a row width:
//!
//! ```text
//! indices:  [n00 n01 n02 | n10 n11 n12 | n20 n21 n22 | ...]   width 3
//!           (row i = indices[i·width..(i+1)·width])
//! ```
//!
//! The width is fixed by the first rows pushed and forgotten by
//! [`Neighborhoods::clear`]; zero-width rows (`k = 0`, an empty index) keep
//! their count. Indices are `u32` (a frame with more than 4 billion source
//! points is not a realistic input). [`NeighborhoodsView`] is the borrowed
//! form that batch kernels consume; it can be sliced into row sub-ranges so
//! parallel workers each see a zero-copy window.

/// Flat storage of equal-length per-point neighbor index lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Neighborhoods {
    indices: Vec<u32>,
    /// Entries per row; 0 while the container is empty.
    width: usize,
    rows: usize,
}

impl Neighborhoods {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (neighbor lists).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Entries per row (0 for an empty container).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of stored neighbor indices across all rows.
    pub fn total_indices(&self) -> usize {
        self.indices.len()
    }

    /// Appends `rows` rows of `width` entries each and returns their freshly
    /// reserved storage (`rows * width` entries, zero-filled) for the caller
    /// to fill in place — the batched kNN writers and the SR engine's frame
    /// pass emit every row directly into its final location this way, with
    /// no intermediate buffer. Pushing no rows is a no-op at any width.
    ///
    /// # Panics
    /// Panics when the container already holds rows of another width, or
    /// when the index count overflows `u32`.
    pub fn push_rows(&mut self, rows: usize, width: usize) -> &mut [u32] {
        if rows == 0 {
            return &mut [];
        }
        assert!(
            self.rows == 0 || self.width == width,
            "rows of width {width} pushed behind rows of width {}",
            self.width
        );
        let base = self.indices.len();
        let total = base + rows * width;
        u32::try_from(total).expect("index count fits in u32");
        self.indices.resize(total, 0);
        self.width = width;
        self.rows += rows;
        &mut self.indices[base..]
    }

    /// Removes all rows and forgets the width, keeping the allocation (for
    /// frame-scratch reuse across sessions of different `k`).
    pub fn clear(&mut self) {
        self.indices.clear();
        self.width = 0;
        self.rows = 0;
    }

    /// Row `i` as a slice of neighbor indices.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        self.view().row(i)
    }

    /// Iterator over all rows.
    pub fn iter(&self) -> NeighborhoodsIter<'_> {
        self.view().iter()
    }

    /// Borrowed view over all rows.
    #[inline]
    pub fn view(&self) -> NeighborhoodsView<'_> {
        NeighborhoodsView {
            indices: &self.indices,
            width: self.width,
            rows: self.rows,
        }
    }

    /// Capacity (bytes) currently reserved by the index slab — used by
    /// scratch-reuse assertions (steady-state frames must not grow it).
    pub fn reserved_bytes(&self) -> usize {
        self.indices.capacity() * std::mem::size_of::<u32>()
    }

    /// The raw flat index array, row after row.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }
}

impl<'a> IntoIterator for &'a Neighborhoods {
    type Item = &'a [u32];
    type IntoIter = NeighborhoodsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the rows of a [`Neighborhoods`] / [`NeighborhoodsView`].
#[derive(Debug, Clone)]
pub struct NeighborhoodsIter<'a> {
    view: NeighborhoodsView<'a>,
    next: usize,
}

impl<'a> Iterator for NeighborhoodsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next < self.view.len() {
            let row = self.view.row(self.next);
            self.next += 1;
            Some(row)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.view.len() - self.next;
        (remaining, Some(remaining))
    }
}

/// Borrowed, sliceable window over fixed-width neighborhoods.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodsView<'a> {
    indices: &'a [u32],
    width: usize,
    rows: usize,
}

impl<'a> NeighborhoodsView<'a> {
    /// Views `indices` as `rows` rows of equal width.
    ///
    /// # Panics
    /// Panics when `indices` does not split into `rows` equal rows.
    pub fn from_raw(indices: &'a [u32], rows: usize) -> Self {
        let width = indices.len().checked_div(rows).unwrap_or(0);
        assert_eq!(
            rows * width,
            indices.len(),
            "indices must split into {rows} equal rows"
        );
        Self {
            indices,
            width,
            rows,
        }
    }

    /// Number of rows in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the view contains no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` of the view.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [u32] {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        &self.indices[i * self.width..(i + 1) * self.width]
    }

    /// Zero-copy sub-view over rows `start..end` (for parallel chunking).
    ///
    /// # Panics
    /// Panics when the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> NeighborhoodsView<'a> {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        NeighborhoodsView {
            indices: &self.indices[start * self.width..end * self.width],
            width: self.width,
            rows: end - start,
        }
    }

    /// Iterator over the view's rows.
    pub fn iter(&self) -> NeighborhoodsIter<'a> {
        NeighborhoodsIter {
            view: *self,
            next: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Neighborhoods {
        let mut n = Neighborhoods::new();
        n.push_rows(3, 2).copy_from_slice(&[3, 1, 4, 1, 5, 9]);
        n
    }

    #[test]
    fn rows_roundtrip() {
        let n = sample();
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
        assert_eq!(n.width(), 2);
        assert_eq!(n.total_indices(), 6);
        assert_eq!(n.row(0), &[3, 1]);
        assert_eq!(n.row(1), &[4, 1]);
        assert_eq!(n.row(2), &[5, 9]);
    }

    #[test]
    fn append_matches_sequential_pushes() {
        // Rows pushed behind rows of their width equal one push of them all.
        let mut a = sample();
        a.push_rows(2, 2).copy_from_slice(&[8, 2, 6, 5]);
        let mut b = Neighborhoods::new();
        b.push_rows(5, 2)
            .copy_from_slice(&[3, 1, 4, 1, 5, 9, 8, 2, 6, 5]);
        assert_eq!(a, b);
        assert_eq!(a.row(4), &[6, 5]);
    }

    #[test]
    fn zero_width_rows_keep_their_count() {
        let mut n = Neighborhoods::new();
        assert!(n.push_rows(4, 0).is_empty());
        assert_eq!(n.len(), 4);
        assert_eq!(n.total_indices(), 0);
        assert!(n.iter().all(<[u32]>::is_empty));
        assert_eq!(n.view().slice_rows(1, 3).len(), 2);
        // Pushing no rows is a no-op at any width.
        assert!(n.push_rows(0, 7).is_empty());
        assert_eq!((n.len(), n.width()), (4, 0));
    }

    #[test]
    #[should_panic(expected = "rows of width 3 pushed behind rows of width 2")]
    fn rows_of_another_width_are_rejected() {
        sample().push_rows(1, 3);
    }

    #[test]
    #[should_panic(expected = "row 3 of 3")]
    fn rows_past_the_end_are_rejected() {
        sample().row(3);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_rows() {
        let mut n = sample();
        let cap = n.indices().len();
        n.clear();
        assert!(n.is_empty());
        assert_eq!(n.len(), 0);
        assert_eq!(n, Neighborhoods::new());
        assert!(n.indices.capacity() >= cap);
        // The width is forgotten with the rows.
        n.push_rows(1, 1)[0] = 9;
        assert_eq!(n.row(0), &[9]);
    }

    #[test]
    fn view_slicing_matches_owner() {
        let n = sample();
        let v = n.view();
        assert_eq!(v.len(), 3);
        let tail = v.slice_rows(1, 3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.row(0), &[4, 1]);
        assert_eq!(tail.row(1), &[5, 9]);
        let empty = v.slice_rows(1, 1);
        assert!(empty.is_empty());
        // Sub-views of sub-views still agree.
        let nested = tail.slice_rows(1, 2);
        assert_eq!(nested.row(0), &[5, 9]);
        // A raw view over the same slab reads the same rows.
        let raw = NeighborhoodsView::from_raw(n.indices(), 3);
        assert!(raw.iter().eq(v.iter()));
        assert!(NeighborhoodsView::from_raw(&[], 2)
            .iter()
            .all(<[u32]>::is_empty));
    }

    #[test]
    #[should_panic(expected = "indices must split into 2 equal rows")]
    fn raw_views_must_split_evenly() {
        NeighborhoodsView::from_raw(&[1, 2, 3], 2);
    }

    #[test]
    fn iteration_yields_all_rows() {
        let n = sample();
        let rows: Vec<Vec<u32>> = n.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(rows, vec![vec![3, 1], vec![4, 1], vec![5, 9]]);
        let via_into: usize = (&n).into_iter().count();
        assert_eq!(via_into, 3);
        let via_view: usize = n.view().iter().map(<[u32]>::len).sum();
        assert_eq!(via_view, 6);
    }
}
