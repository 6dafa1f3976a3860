//! Flat CSR-style neighborhood storage.
//!
//! The SR pipeline attaches a small list of neighbor indices to every
//! generated point. Storing those lists as `Vec<Vec<usize>>` costs one heap
//! allocation per point and scatters the data across the heap; at the
//! 100K-points-per-frame scale the paper targets, the allocator traffic
//! alone dominates the refinement stage. [`Neighborhoods`] stores all lists
//! in two flat arrays (classic compressed-sparse-row layout):
//!
//! ```text
//! indices:  [n00 n01 n02 | n10 n11 | n20 n21 n22 n23 | ...]
//! offsets:  [0, 3, 5, 9, ...]          (row i = indices[offsets[i]..offsets[i+1]])
//! ```
//!
//! Rows are append-only; indices are `u32` (a frame with more than 4 billion
//! source points is not a realistic input). [`NeighborhoodsView`] is the
//! borrowed form that batch kernels consume; it can be sliced into row
//! sub-ranges so parallel workers each see a zero-copy window.

/// Flat CSR storage of per-point neighbor index lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighborhoods {
    indices: Vec<u32>,
    offsets: Vec<u32>,
}

impl Default for Neighborhoods {
    /// Same as [`Neighborhoods::new`] — the offsets array always carries the
    /// leading `0` sentinel (`rows + 1` entries), even when empty.
    fn default() -> Self {
        Self::new()
    }
}

impl Neighborhoods {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self {
            indices: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty container with space reserved for `rows` lists
    /// holding `total_indices` entries overall.
    pub fn with_capacity(rows: usize, total_indices: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            indices: Vec::with_capacity(total_indices),
            offsets,
        }
    }

    /// Reserves space for `rows` additional rows holding `total_indices`
    /// additional entries overall (used by batched kNN writers so pushing a
    /// whole batch of rows performs at most one reallocation per array).
    pub fn reserve_rows(&mut self, rows: usize, total_indices: usize) {
        self.offsets.reserve(rows);
        self.indices.reserve(total_indices);
    }

    /// Number of rows (neighbor lists).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of stored neighbor indices across all rows.
    pub fn total_indices(&self) -> usize {
        self.indices.len()
    }

    /// Appends one neighbor list.
    ///
    /// # Panics
    /// Panics when an index does not fit in `u32` or the total index count
    /// overflows `u32` (frames are far below both limits).
    pub fn push_row<I: IntoIterator<Item = usize>>(&mut self, row: I) {
        for idx in row {
            self.indices
                .push(u32::try_from(idx).expect("neighbor index fits in u32"));
        }
        self.offsets
            .push(u32::try_from(self.indices.len()).expect("index count fits in u32"));
    }

    /// Appends one neighbor list already expressed as `u32`s.
    pub fn push_row_u32(&mut self, row: &[u32]) {
        self.indices.extend_from_slice(row);
        self.offsets
            .push(u32::try_from(self.indices.len()).expect("index count fits in u32"));
    }

    /// Appends one neighbor list from a `u32` iterator.
    pub fn push_row_u32_iter<I: IntoIterator<Item = u32>>(&mut self, row: I) {
        self.indices.extend(row);
        self.offsets
            .push(u32::try_from(self.indices.len()).expect("index count fits in u32"));
    }

    /// Appends `rows` rows of uniform `stride` entries each and returns the
    /// mutable slice of their freshly reserved index storage
    /// (`rows * stride` entries, zero-filled) for the caller to fill with
    /// scatter writes — the batched kNN driver and the SR engine's
    /// incremental row-reuse path emit every row directly into its final
    /// location this way, with no intermediate buffer.
    ///
    /// # Panics
    /// Panics when the resulting index count overflows `u32`.
    pub fn push_uniform_rows(&mut self, rows: usize, stride: usize) -> &mut [u32] {
        let base = self.indices.len();
        let total = rows * stride;
        u32::try_from(base + total).expect("index count fits in u32");
        self.indices.resize(base + total, 0);
        self.offsets.reserve(rows);
        let mut off = base as u32;
        for _ in 0..rows {
            off += stride as u32;
            self.offsets.push(off);
        }
        &mut self.indices[base..]
    }

    /// Appends `rows` rows of at most `stride` entries each, written in place
    /// by `fill`: it receives the row's ordinal and a `stride`-wide slot at
    /// the row's final location and returns how many leading entries it kept.
    /// The next row starts right behind them, so ragged rows need no second
    /// pass and uniform ones cost what [`Self::push_uniform_rows`] costs —
    /// one resize for the whole batch, no per-row capacity check.
    ///
    /// # Panics
    /// Panics when `fill` returns more than `stride`, or when the index
    /// count overflows `u32`.
    pub fn push_bounded_rows(
        &mut self,
        rows: usize,
        stride: usize,
        mut fill: impl FnMut(usize, &mut [u32]) -> usize,
    ) {
        let mut at = self.indices.len();
        u32::try_from(at + rows * stride).expect("index count fits in u32");
        self.indices.resize(at + rows * stride, 0);
        self.offsets.reserve(rows);
        for row in 0..rows {
            let kept = fill(row, &mut self.indices[at..at + stride]);
            assert!(kept <= stride, "a row keeps at most its slot");
            at += kept;
            self.offsets.push(at as u32);
        }
        self.indices.truncate(at);
    }

    /// Appends all rows of `other` (used to merge per-worker partial CSRs
    /// after a parallel build — two `extend`s plus an offset rebase).
    pub fn append(&mut self, other: &Neighborhoods) {
        let base = u32::try_from(self.indices.len()).expect("index count fits in u32");
        self.indices.extend_from_slice(&other.indices);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// Removes all rows, keeping the allocations (for frame-scratch reuse).
    pub fn clear(&mut self) {
        self.indices.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Row `i` as a slice of neighbor indices.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.indices[start..end]
    }

    /// Iterator over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Borrowed view over all rows.
    #[inline]
    pub fn view(&self) -> NeighborhoodsView<'_> {
        NeighborhoodsView {
            indices: &self.indices,
            offsets: &self.offsets,
        }
    }

    /// Builds the CSR form from nested per-point lists.
    pub fn from_nested(nested: &[Vec<usize>]) -> Self {
        let total: usize = nested.iter().map(Vec::len).sum();
        let mut out = Self::with_capacity(nested.len(), total);
        for row in nested {
            out.push_row(row.iter().copied());
        }
        out
    }

    /// Expands back into nested per-point lists (tests / interop).
    pub fn to_nested(&self) -> Vec<Vec<usize>> {
        self.iter()
            .map(|row| row.iter().map(|&i| i as usize).collect())
            .collect()
    }

    /// Capacity (bytes) currently reserved by the two CSR arrays — used by
    /// scratch-reuse assertions (steady-state frames must not grow it).
    pub fn reserved_bytes(&self) -> usize {
        (self.indices.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }

    /// The raw flat index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The raw offsets array (`len() + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat index array, writable, beside the offsets: a writer that
    /// sized its rows up front ([`Self::push_uniform_rows`]) fills them in
    /// place and reads views of the rows it has filled
    /// ([`NeighborhoodsView::from_raw`]).
    pub fn parts_mut(&mut self) -> (&mut [u32], &[u32]) {
        (&mut self.indices, &self.offsets)
    }
}

impl<'a> IntoIterator for &'a Neighborhoods {
    type Item = &'a [u32];
    type IntoIter = NeighborhoodsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        NeighborhoodsIter {
            view: self.view(),
            next: 0,
        }
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

/// Borrowed, sliceable window over CSR neighborhoods.
///
/// `offsets` always has one more entry than the number of rows; offsets are
/// absolute positions into the *original* index array, so a sliced view
/// subtracts its base offset on row access.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodsView<'a> {
    indices: &'a [u32],
    offsets: &'a [u32],
}

impl<'a> NeighborhoodsView<'a> {
    /// Builds a view from raw CSR parts.
    ///
    /// # Panics
    /// Panics when `offsets` is empty (a valid view has `rows + 1` offsets).
    pub fn from_raw(indices: &'a [u32], offsets: &'a [u32]) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        Self { indices, offsets }
    }

    /// Number of rows in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when the view contains no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Row `i` of the view.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [u32] {
        let base = self.offsets[0] as usize;
        let start = self.offsets[i] as usize - base;
        let end = self.offsets[i + 1] as usize - base;
        &self.indices[start..end]
    }

    /// Zero-copy sub-view over rows `start..end` (for parallel chunking).
    ///
    /// # Panics
    /// Panics when the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> NeighborhoodsView<'a> {
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        let base = self.offsets[0] as usize;
        let lo = self.offsets[start] as usize - base;
        let hi = self.offsets[end] as usize - base;
        NeighborhoodsView {
            indices: &self.indices[lo..hi],
            offsets: &self.offsets[start..=end],
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
        n.push_row([3, 1, 4]);
        n.push_row(std::iter::empty());
        n.push_row([1, 5]);
        n
    }

    #[test]
    fn default_upholds_offsets_invariant() {
        let d = Neighborhoods::default();
        assert_eq!(d.offsets(), &[0]);
        assert_eq!(d.len(), 0);
        let mut d = d;
        d.push_row([1usize, 2]);
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0), &[1, 2]);
    }

    #[test]
    fn rows_roundtrip() {
        let n = sample();
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
        assert_eq!(n.total_indices(), 5);
        assert_eq!(n.row(0), &[3, 1, 4]);
        assert_eq!(n.row(1), &[] as &[u32]);
        assert_eq!(n.row(2), &[1, 5]);
    }

    #[test]
    fn offsets_invariants() {
        let n = sample();
        let offsets = n.offsets();
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap() as usize, n.total_indices());
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(offsets.len(), n.len() + 1);
    }

    #[test]
    fn nested_roundtrip() {
        let nested = vec![vec![7usize, 2], vec![], vec![0, 1, 2, 3]];
        let n = Neighborhoods::from_nested(&nested);
        assert_eq!(n.to_nested(), nested);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_rows() {
        let mut n = sample();
        let cap = n.indices().len();
        n.clear();
        assert!(n.is_empty());
        assert_eq!(n.len(), 0);
        assert!(n.indices.capacity() >= cap);
        n.push_row([9usize]);
        assert_eq!(n.row(0), &[9]);
    }

    #[test]
    fn view_slicing_matches_owner() {
        let n = sample();
        let v = n.view();
        assert_eq!(v.len(), 3);
        let tail = v.slice_rows(1, 3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.row(0), &[] as &[u32]);
        assert_eq!(tail.row(1), &[1, 5]);
        let empty = v.slice_rows(1, 1);
        assert!(empty.is_empty());
        // Sub-views of sub-views still agree.
        let nested = tail.slice_rows(1, 2);
        assert_eq!(nested.row(0), &[1, 5]);
    }

    #[test]
    fn iteration_yields_all_rows() {
        let n = sample();
        let rows: Vec<Vec<u32>> = n.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(rows, vec![vec![3, 1, 4], vec![], vec![1, 5]]);
        let via_into: usize = (&n).into_iter().count();
        assert_eq!(via_into, 3);
        let via_view: usize = n.view().iter().map(<[u32]>::len).sum();
        assert_eq!(via_view, 5);
    }

    #[test]
    fn append_matches_sequential_pushes() {
        let mut a = sample();
        let mut b = Neighborhoods::new();
        b.push_row([8usize]);
        b.push_row([2usize, 6]);
        a.append(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.row(3), &[8]);
        assert_eq!(a.row(4), &[2, 6]);
        assert_eq!(*a.offsets().last().unwrap() as usize, a.total_indices());
        // Appending an empty container is a no-op.
        let before = a.clone();
        a.append(&Neighborhoods::new());
        assert_eq!(a, before);
    }

    #[test]
    fn push_row_u32_matches_push_row() {
        let mut a = Neighborhoods::new();
        a.push_row([1usize, 2, 3]);
        let mut b = Neighborhoods::new();
        b.push_row_u32(&[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_rows_match_row_by_row_pushes() {
        // Full, short and empty rows behind an existing row: each lands
        // right after the entries the previous one kept.
        let kept = [3usize, 1, 0, 3, 2];
        let mut a = sample();
        a.push_bounded_rows(kept.len(), 3, |row, slot| {
            assert_eq!(slot.len(), 3);
            for (s, v) in slot.iter_mut().enumerate() {
                *v = (10 * row + s) as u32;
            }
            kept[row]
        });
        let mut b = sample();
        for (row, &len) in kept.iter().enumerate() {
            b.push_row((0..len).map(|s| 10 * row + s));
        }
        assert_eq!(a, b);
        a.push_bounded_rows(2, 0, |_, slot| slot.len());
        assert_eq!(a.len(), b.len() + 2);
        assert_eq!(a.total_indices(), b.total_indices());
    }
}
