//! Nearest-neighbor search: the [`NeighborSearch`] interface, the shared
//! best-`k` accumulator and the brute-force oracle.
//!
//! The crate has one spatial index, [`crate::kdtree::KdTree`], and one
//! reference implementation, [`BruteForce`], which the property tests compare
//! it against. Both implement [`NeighborSearch`].
//!
//! The trait is **batch-first**: [`NeighborSearch::knn_batch`] answers a
//! whole slice of queries into a flat fixed-width [`Neighborhoods`]
//! container with zero per-query allocation, which is what the SR
//! interpolation hot path consumes; the per-query [`NeighborSearch::knn`]
//! remains for one-off lookups and as the oracle the batch parity tests
//! compare against.
//!
//! The k-d tree answers a batch with one of **two algorithms**, chosen once
//! per batch by a measured policy (see [`crate::dualtree`]):
//! * the *dual-tree self-join* — when the queries **are** the indexed cloud
//!   (the shape of the SR interpolators' frame-dominating kNN pass), the tree
//!   is walked against itself so whole (query-leaf, reference-node) pairs
//!   are pruned with one AABB–AABB distance test, and surviving leaf pairs
//!   run tile-vs-tile candidate scans;
//! * the *single-tree sweep* — one warm-started traversal per query, in
//!   Morton order with shared scratch (this module's `batch_queries`
//!   driver), for every other batch: any other query set, and large `k`.
//!
//! Both produce bit-identical rows — the same packed `(distance, index)` key
//! ordering decides survivors and ties everywhere — so the choice is
//! invisible in the output.

use crate::aabb::Aabb;
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;

/// A single neighbor returned by a kNN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbor in the indexed point set.
    pub index: usize,
    /// Squared Euclidean distance from the query point.
    pub distance_squared: f32,
}

/// Common interface of the k-d tree and its brute-force oracle.
///
/// Implementations index a fixed point set at construction time and answer
/// kNN queries against it. Results are sorted by increasing distance and
/// ties are broken by index so the index and the oracle agree exactly.
pub trait NeighborSearch: Send + Sync {
    /// Number of points indexed by this structure.
    fn len(&self) -> usize;

    /// Returns `true` when no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the `k` nearest neighbors of `query`, sorted by increasing
    /// distance (then index). Returns fewer than `k` entries when the indexed
    /// set is smaller than `k`; returns an empty vector when `k == 0`.
    fn knn(&self, query: Point3, k: usize) -> Vec<Neighbor>;

    /// Answers one kNN query per element of `queries`, **appending** one row
    /// of neighbor indices (sorted by increasing distance, ties broken by
    /// index) per query to `out`. Every row is `k.min(self.len())` wide, so
    /// `out` must be empty or already hold rows of that width.
    ///
    /// Rows mirror [`NeighborSearch::knn`] exactly: row `i` holds the same
    /// indices, in the same order, as `self.knn(queries[i], k)` — including
    /// the shorter-than-`k` rows of small clouds and the empty rows of
    /// `k == 0` or an empty index. The default implementation delegates to
    /// the per-query path; the k-d tree overrides it with shared-scratch
    /// implementations that allocate nothing per query.
    ///
    /// # Panics
    /// Panics when `out` holds rows of another width.
    fn knn_batch(&self, queries: &[Point3], k: usize, out: &mut Neighborhoods) {
        let stride = k.min(self.len());
        let slab = out.push_rows(queries.len(), stride);
        if stride == 0 {
            return;
        }
        for (&q, row) in queries.iter().zip(slab.chunks_exact_mut(stride)) {
            for (d, n) in row.iter_mut().zip(self.knn(q, k)) {
                *d = n.index as u32;
            }
        }
    }
}

/// Bounded best-`k` accumulator behind every per-query kNN scan.
///
/// The candidate list is a sorted array of packed `u64` keys (see the
/// `keys` field): at the SR pipeline's single-digit `k` a fixed-trip
/// branch-free insert beats both a heap and a replace-max rescan, and it
/// leaves the result ready to emit with **no per-query sort**. Ordering by
/// the packed key is ordering by `(distance, index)`, so distance ties are
/// broken by smaller index exactly like the seed's sorted formulation, and
/// the surviving set — and emitted order — is identical for every traversal
/// order.
#[derive(Debug)]
pub(crate) struct BestK {
    /// Packed candidates: high 32 bits are the squared distance's IEEE bits,
    /// low 32 the point index. Squared distances are never negative (each
    /// term is a square, `-0.0 * -0.0 == +0.0`), so the unsigned `u64`
    /// ordering is *exactly* the `(distance, index)` ordering — one compare
    /// replaces the two-field tie-break chain, and NaN distances sort after
    /// `+inf` just like `f32::total_cmp`. Sorted ascending at all times.
    keys: Vec<u64>,
    k: usize,
    /// Pruning cap: a proven upper bound on the final k-th squared distance
    /// (see [`BestK::begin_warm`]); `INFINITY` for unseeded queries.
    cap: f32,
}

/// Longest previous result [`BestK::begin_warm`] derives a cap from; queries
/// with `k` beyond this run cold (the SR pipeline's `k` is single-digit).
const WARM_TRACK: usize = 32;

impl Default for BestK {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            k: 0,
            cap: f32::INFINITY,
        }
    }
}

/// Packs `(d2, index)` into the order-preserving `u64` key.
#[inline(always)]
pub(crate) fn pack_key(index: usize, d2: f32) -> u64 {
    (u64::from(d2.to_bits()) << 32) | index as u64
}

/// Unpacks a key back into a [`Neighbor`] (exact `f32` bit roundtrip).
#[inline(always)]
fn unpack_key(key: u64) -> Neighbor {
    Neighbor {
        index: key as u32 as usize,
        distance_squared: f32::from_bits((key >> 32) as u32),
    }
}

/// Inserts `key` into the ascending list `keys`, dropping the largest of the
/// `len + 1` values: the fixed-trip network
/// `new[i] = max(old[i - 1], min(old[i], key))` with `old[-1] = 0`. Entries
/// below `key` keep their place (`min` picks them, and they are at least
/// their left neighbour), the first entry above it receives `key` (`min`
/// picks `key`, which is at least the left neighbour), and every later entry
/// receives its left neighbour — no rank scan, no `memmove`, no branch on
/// the data. A key at or above the last entry changes nothing, so callers
/// need no separate reject test. This is the one sorted insert of
/// [`BestK::push`]'s full-list branch and of the dual-tree join's rows, which
/// is what keeps their survivors — and index-broken ties — identical.
#[inline(always)]
pub(crate) fn insert_sorted(keys: &mut [u64], key: u64) {
    let mut left = 0u64;
    for slot in keys.iter_mut() {
        let old = *slot;
        *slot = left.max(old.min(key));
        left = old;
    }
}

impl BestK {
    /// Starts a new query wanting `k` neighbors (allocation reused).
    #[inline]
    pub(crate) fn begin(&mut self, k: usize) {
        self.keys.clear();
        self.k = k;
        self.cap = f32::INFINITY;
    }

    /// Starts a new query wanting `k` neighbors, warm-started from the
    /// accumulator's *previous* query against the same index, whose points
    /// are `points`: the largest squared distance from `query` to the
    /// previous result's points is a true upper bound on this query's final
    /// k-th distance (they are `k` distinct indexed points — or the entire
    /// cloud when it holds fewer than `k`), so it becomes the initial
    /// pruning cap. The batched sweeps visit queries in Morton order, making
    /// consecutive queries spatial neighbors and the cap tight from the very
    /// first node.
    ///
    /// The cap makes [`BestK::worst_d2`] — and therefore every traversal
    /// prune and scan filter built on it — tight before `k` candidates have
    /// been found. Results are **identical** to a cold query: a region or
    /// candidate is only skipped when strictly beyond the cap, and anything
    /// strictly beyond an upper bound of the k-th distance cannot appear in
    /// the result (ties at the cap still pass and are index-broken by
    /// [`BestK::push`] as usual). Callers must reuse one accumulator per
    /// (index, `k`) sweep — a fresh [`BestK`] starts cold.
    #[inline]
    pub(crate) fn begin_warm(&mut self, k: usize, query: Point3, points: &[Point3]) {
        let mut cap = f32::NEG_INFINITY;
        // The previous entries are a valid bound source only if they were a
        // complete result row for the same `k`.
        if self.k == k && self.keys.len() <= WARM_TRACK {
            for &key in &self.keys {
                cap = cap.max(points[key as u32 as usize].distance_squared(query));
            }
        }
        self.begin(k);
        if cap.is_finite() {
            self.cap = cap;
        }
    }

    /// Squared distance of the current worst entry; until `k` entries exist
    /// this is the warm-start cap (`INFINITY` when cold), so
    /// `bound > worst_d2()` is the universal prune test (and passes equality
    /// through for index-broken ties).
    #[inline]
    pub(crate) fn worst_d2(&self) -> f32 {
        if self.keys.len() == self.k {
            f32::from_bits((self.keys[self.k - 1] >> 32) as u32)
        } else {
            self.cap
        }
    }

    /// Offers a candidate.
    ///
    /// The key list is kept *sorted* at all times, so the worst entry is
    /// `keys[len - 1]` and result emission is a plain borrow — there is no
    /// per-query sort at all. A full list takes the candidate through the
    /// branch-free [`insert_sorted`] network; while the list is still
    /// filling (the first `k` offers of a query) a rank count places it.
    #[inline(always)]
    pub(crate) fn push(&mut self, index: usize, d2: f32) {
        debug_assert!(self.k > 0, "callers early-out on k == 0");
        let key = pack_key(index, d2);
        if self.keys.len() == self.k {
            insert_sorted(&mut self.keys, key);
            return;
        }
        let rank: usize = self.keys.iter().map(|&a| usize::from(a < key)).sum();
        self.keys.insert(rank, key);
    }

    /// The packed keys, sorted by `(distance, index)`; the low 32 bits of
    /// each key are the neighbor index, which is all the batched row
    /// emission needs (no unpacking, no sort — the list is always sorted).
    pub(crate) fn sorted_keys(&self) -> &[u64] {
        &self.keys
    }

    /// Unpacks the (already sorted) entries — the per-query convenience path.
    pub(crate) fn sorted(&mut self) -> Vec<Neighbor> {
        self.keys.iter().map(|&k| unpack_key(k)).collect()
    }
}

impl crate::kernels::ScanSink for BestK {
    #[inline(always)]
    fn worst_d2(&self) -> f32 {
        BestK::worst_d2(self)
    }

    #[inline(always)]
    fn push(&mut self, index: usize, d2: f32) {
        BestK::push(self, index, d2);
    }
}

/// Runs below this size skip the Morton reorder: the locality win cannot
/// amortize the sort. A session's recompute list is ordered by index, not
/// by space, so a fleet tenant's batch (≈ 100 rows at 512 points, ≈ 540 at
/// 4 096) gains from the reorder. Median µs of one sweep at `k = 9` on one
/// worker, over a humanoid cloud and an index-ordered random batch, for
/// each candidate value; medians of five interleaved rounds on the shared
/// 2-vCPU host (the 50k batch is reordered at every value and shows the
/// noise floor):
///
/// | points : batch | 16 | 64 | 256 | 1 024 |
/// |---|---:|---:|---:|---:|
/// | 512 : 16 | 9.3 | 8.6 | 8.9 | 8.7 |
/// | 512 : 32 | 18.0 | 18.6 | 19.4 | 18.5 |
/// | 512 : 64 | 30.6 | 30.8 | 34.7 | 37.0 |
/// | 512 : 100 | 47.2 | 47.1 | 58.8 | 58.2 |
/// | 4 096 : 64 | 43.6 | 43.3 | 49.3 | 47.0 |
/// | 4 096 : 200 | 122.1 | 122.6 | 151.4 | 147.4 |
/// | 4 096 : 540 | 394.7 | 405.3 | 411.9 | 470.1 |
/// | 50 000 : 6 000 | 5 507 | 5 750 | 5 874 | 5 765 |
///
/// An earlier round on a quieter host read the same order (512 : 100 at
/// 32.0 µs reordered against 37.4 not). Below 64 queries the sort costs
/// about what it saves. The table was read when the order was one bucket
/// pass over a code's top bits; the full [`sort_by_code`] order that
/// replaced it swept the 4 096- and 50 000-point delta batches at 0.95 and
/// 0.97× that time (16 alternating rounds).
const REORDER_MIN_QUERIES: usize = 64;

/// Expands the low 10 bits of `v` so they occupy every third bit.
#[inline]
fn expand_bits_10(v: u32) -> u32 {
    let mut x = v & 0x3FF;
    x = (x | (x << 16)) & 0x0300_00FF;
    x = (x | (x << 8)) & 0x0300_F00F;
    x = (x | (x << 4)) & 0x030C_30C3;
    x = (x | (x << 2)) & 0x0924_9249;
    x
}

/// 30-bit Morton code of `p` on the 1024³ grid that starts at `min` with
/// `inv_extent` cells per unit ([`morton_scale`]): bit `3 l + a` is bit `l`
/// of the cell coordinate on axis `a` (x = 0). Each coordinate's
/// quantization is monotone, which is what makes every code cut of the k-d
/// build an axis-aligned plane (see [`crate::kdtree`]).
#[inline(always)]
pub(crate) fn morton_code(p: Point3, min: Point3, inv_extent: Point3) -> u32 {
    // The cell is the floor of the clamped offset (NaN reads 0), taken in
    // exact float operations — adding and subtracting 2²³ rounds to the
    // nearest integer, one step back where that went up is the floor — and
    // read out of the mantissa of `floor + 2²³`: a float→int cast compiles
    // to one scalar convert with fix-up branches per lane, and this loop
    // runs over every point of a build.
    const MANTISSA_ONE: f32 = 8_388_608.0;
    let q = |v: f32, lo: f32, inv: f32| -> u32 {
        let t = (v - lo) * inv;
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < 1023.0 { t } else { 1023.0 };
        let near = (t + MANTISSA_ONE) - MANTISSA_ONE;
        let floor = near - if near > t { 1.0 } else { 0.0 };
        (floor + MANTISSA_ONE).to_bits() & 0x3FF
    };
    expand_bits_10(q(p.x, min.x, inv_extent.x))
        | (expand_bits_10(q(p.y, min.y, inv_extent.y)) << 1)
        | (expand_bits_10(q(p.z, min.z, inv_extent.z)) << 2)
}

/// The scale [`morton_code`] takes over `aabb`: one uniform `1024 / longest
/// edge` on all three axes, so grid cells are cubes (cells that follow the
/// box's aspect made the self-join 1.12–1.20× slower at 512–8 000 points
/// on the 2-vCPU host).
/// Zero for a box without extent; a longest edge that overflows to infinity
/// counts as `f32::MAX`, so distinct points still get distinct codes on it.
#[inline]
pub(crate) fn morton_scale(aabb: &Aabb) -> Point3 {
    let edge = aabb.longest_edge();
    Point3::splat(if edge > 0.0 {
        1024.0 / edge.min(f32::MAX)
    } else {
        0.0
    })
}

/// Sorts `keys` stably by their high halves — the `code << 32 | id` keys
/// every Morton order of the crate is made of — with `spare` (at least as
/// long) as the second buffer: least significant digit first, one counting
/// pass per digit, over only the code bits that differ across the keys.
/// Digits are about `log2(len)` bits wide (at most 11), so a 512-key sort
/// takes three passes over 1 024 entries, as a 50 000-point cloud does: a
/// pass has a fixed cost, and 512 keys sorted in 6.5 µs so against 7.2 in
/// four passes and 9.2 in five (random 30-bit codes, 2-vCPU host; the
/// standard library's unstable sort read 7.8). The one sort of the k-d
/// build, of a patch's dirty leaves and insert routing, and of the sweep's
/// query visit order.
pub(crate) fn sort_by_code(keys: &mut [u64], spare: &mut [u64]) {
    let n = keys.len();
    if n < 2 {
        return;
    }
    let (any, all) = keys
        .iter()
        .fold((0u64, u64::MAX), |(any, all), &k| (any | k, all & k));
    let differ = ((any ^ all) >> 32) as u32;
    if differ == 0 {
        return;
    }
    let bits = u32::BITS - differ.leading_zeros();
    let passes = bits.div_ceil((usize::BITS - n.leading_zeros()).min(11));
    let width = bits.div_ceil(passes);
    let mut small = [0u32; 1 << 6];
    let mut large;
    let counts: &mut [u32] = if width <= 6 {
        &mut small[..1 << width]
    } else {
        large = [0u32; 1 << 11];
        &mut large[..1 << width]
    };
    let (mut src, mut dst) = (keys, &mut spare[..n]);
    for pass in 0..passes {
        let shift = 32 + pass * width;
        let digit = |k: u64| (k >> shift) as usize & ((1 << width) - 1);
        counts.fill(0);
        for &k in src.iter() {
            counts[digit(k)] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &k in src.iter() {
            let slot = &mut counts[digit(k)];
            dst[*slot as usize] = k;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// Fills `keys` with the Morton order of `points` over their own box:
/// `code << 32 | index`, sorted by [`sort_by_code`] (so equal codes keep
/// index order), with `spare` as its second buffer. Both buffers are reused.
fn morton_order(points: &[Point3], keys: &mut Vec<u64>, spare: &mut Vec<u64>) {
    let aabb = Aabb::from_points(points.iter().copied()).unwrap_or(crate::kdtree::EMPTY_LEAF_AABB);
    let inv = morton_scale(&aabb);
    keys.clear();
    keys.extend(
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| u64::from(morton_code(p, aabb.min, inv)) << 32 | i as u64),
    );
    spare.resize(points.len(), 0);
    sort_by_code(keys, spare);
}

/// Drives the single-tree sweep over one run of queries: calls `query_fn`
/// once per query (filling a best list of exactly `stride =
/// k.min(indexed_len)` entries) and writes query `i`'s neighbor indices to
/// `rows[i * stride..][..stride]` — the caller's slice of the output
/// slab, whose layout is known up front because exact kNN rows are
/// stride-uniform.
///
/// Large runs are visited in Morton order — spatially adjacent queries walk
/// near-identical index regions, so the index's working set stays
/// cache-resident between consecutive queries instead of being re-fetched
/// for every random-order query. Rows land in the caller's order either way,
/// and their contents are decided by the packed `(distance, index)` keys
/// alone, so the reordering is invisible in the output even under distance
/// ties.
///
/// `query_fn` starts each query with [`BestK::begin_warm`], and the driver
/// hands every query of a run the *same* accumulator, `best`: the previous,
/// Morton-adjacent query's survivors give a tight warm-start pruning cap
/// for `k` point loads — a batch-only advantage (the cold per-query path
/// has no previous query) with bit-identical results. `best`, `keys` and
/// `spare` are the caller's reused buffers; `best` must not hold a row of
/// another cloud (`BestK::begin(0)` clears it).
pub(crate) fn batch_queries(
    queries: &[Point3],
    stride: usize,
    rows: &mut [u32],
    best: &mut BestK,
    keys: &mut Vec<u64>,
    spare: &mut Vec<u64>,
    mut query_fn: impl FnMut(Point3, &mut BestK),
) {
    debug_assert_eq!(rows.len(), queries.len() * stride);
    let mut answer = |qi: usize, rows: &mut [u32]| {
        query_fn(queries[qi], best);
        let row = best.sorted_keys();
        debug_assert_eq!(row.len(), stride, "exact kNN rows are stride-uniform");
        // The low 32 bits of a packed key ARE the neighbor index.
        for (d, &key) in rows[qi * stride..(qi + 1) * stride].iter_mut().zip(row) {
            *d = key as u32;
        }
    };
    if queries.len() < REORDER_MIN_QUERIES {
        (0..queries.len()).for_each(|qi| answer(qi, rows));
        return;
    }
    morton_order(queries, keys, spare);
    for (pos, &key) in keys.iter().enumerate() {
        // Pull the upcoming queries' cache lines in while this one runs —
        // the visit permutation makes them non-sequential loads.
        if let Some(&next) = keys.get(pos + 8) {
            crate::kernels::prefetch_read(&queries[next as u32 as usize]);
        }
        answer(key as u32 as usize, rows);
    }
}

/// Brute-force exact kNN over a point slice.
///
/// O(n) per query; used as the correctness oracle and for very small clouds
/// where building an index is not worthwhile.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{knn::{BruteForce, NeighborSearch}, Point3};
/// let pts = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 0.0, 0.0), Point3::new(5.0, 0.0, 0.0)];
/// let bf = BruteForce::new(&pts);
/// let nn = bf.knn(Point3::new(0.9, 0.0, 0.0), 2);
/// assert_eq!(nn[0].index, 1);
/// assert_eq!(nn[1].index, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BruteForce {
    points: Vec<Point3>,
    /// The same points as SoA lanes (original order) for the shared scan
    /// kernel; `ids` is the identity map the kernel expects.
    soa: crate::soa::SoaPositions,
    ids: Vec<u32>,
}

impl BruteForce {
    /// Indexes (copies) the given points.
    pub fn new(points: &[Point3]) -> Self {
        let mut soa = crate::soa::SoaPositions::default();
        soa.fill(points);
        Self {
            points: points.to_vec(),
            soa,
            ids: (0..points.len() as u32).collect(),
        }
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }
}

impl NeighborSearch for BruteForce {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn knn(&self, query: Point3, k: usize) -> Vec<Neighbor> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        // Bounded best-k accumulator: for the small k used by the SR
        // pipeline (k <= 32) this beats both a BinaryHeap and full sorts;
        // the candidate sweep is one streaming pass of the shared kernel.
        let mut best = BestK::default();
        best.begin(k);
        crate::kernels::scan_ids(&self.soa, &self.ids, 0, self.ids.len(), query, &mut best);
        best.sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point3> {
        let mut pts = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    pts.push(Point3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    #[test]
    fn knn_returns_sorted_results() {
        let pts = grid_points();
        let bf = BruteForce::new(&pts);
        let nn = bf.knn(Point3::new(0.1, 0.1, 0.1), 5);
        assert_eq!(nn.len(), 5);
        for w in nn.windows(2) {
            assert!(w[0].distance_squared <= w[1].distance_squared);
        }
        assert_eq!(nn[0].index, 0);
    }

    #[test]
    fn knn_k_zero_and_empty() {
        let bf = BruteForce::new(&[]);
        assert!(bf.knn(Point3::ZERO, 3).is_empty());
        assert!(bf.is_empty());
        let bf = BruteForce::new(&[Point3::ZERO]);
        assert!(bf.knn(Point3::ZERO, 0).is_empty());
    }

    #[test]
    fn knn_more_than_available() {
        let bf = BruteForce::new(&[Point3::ZERO, Point3::ONE]);
        let nn = bf.knn(Point3::ZERO, 10);
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn default_knn_batch_matches_per_query_loop() {
        let pts = grid_points();
        let bf = BruteForce::new(&pts);
        let queries = vec![
            Point3::new(0.1, 0.1, 0.1),
            Point3::new(3.9, 3.9, 3.9),
            Point3::new(-5.0, 0.0, 0.0),
        ];
        let mut batch = Neighborhoods::new();
        bf.knn_batch(&queries, 5, &mut batch);
        assert_eq!(batch.len(), queries.len());
        for (i, &q) in queries.iter().enumerate() {
            let expected: Vec<u32> = bf.knn(q, 5).iter().map(|n| n.index as u32).collect();
            assert_eq!(batch.row(i), expected.as_slice(), "query {i}");
        }
        // Appending semantics: a second batch of the same width extends the
        // container.
        bf.knn_batch(&queries[..1], 5, &mut batch);
        assert_eq!(batch.len(), queries.len() + 1);
        assert_eq!(batch.row(3), batch.row(0));
    }

    #[test]
    fn knn_batch_edge_cases() {
        let empty = BruteForce::new(&[]);
        let mut out = Neighborhoods::new();
        empty.knn_batch(&[Point3::ZERO, Point3::ONE], 3, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.row(0).is_empty() && out.row(1).is_empty());

        let two = BruteForce::new(&[Point3::ZERO, Point3::ONE]);
        // k = 0 appends empty rows; k > len returns all points.
        let mut out = Neighborhoods::new();
        two.knn_batch(&[Point3::ZERO], 0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.row(0).is_empty());
        let mut out = Neighborhoods::new();
        two.knn_batch(&[Point3::ZERO], 10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[0, 1]);
        // Rows of another width behind them are refused.
        let behind = std::panic::catch_unwind(move || {
            two.knn_batch(&[Point3::ZERO], 1, &mut out);
        });
        assert!(behind.is_err());
    }

    /// The insert network against sort-and-truncate, for every stride up to
    /// one past `DUAL_MAX_K`: random offers, duplicate-heavy offers (few
    /// distinct distances, few distinct indices — repeated keys included),
    /// offers tying the current worst distance on either side of its index,
    /// and rows still padded with the join's `+inf` sentinel.
    #[test]
    fn insert_sorted_matches_sort_and_truncate() {
        use crate::kernels::SENTINEL;
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(5);
        for stride in 1..=33usize {
            for shape in 0..4 {
                // Start from a sentinel-padded row (shape 3 keeps offering
                // fewer candidates than the row holds, so padding survives).
                let mut row = vec![SENTINEL; stride];
                let mut reference = row.clone();
                let offers = if shape == 3 {
                    stride / 2
                } else {
                    4 * stride + 7
                };
                for _ in 0..offers {
                    let key = match shape {
                        0 | 3 => pack_key(rng.random_range(0..1000), rng.random_range(0.0..10.0)),
                        1 => pack_key(rng.random_range(0..3), rng.random_range(0..3) as f32),
                        _ => {
                            // Tie the worst distance, index one above, at or
                            // one below the worst's.
                            let worst = row[stride - 1];
                            let index =
                                (worst & 0xFFFF_FFFF).saturating_sub(1) + rng.random_range(0..3u64);
                            (worst >> 32 << 32) | index.min(u64::from(u32::MAX - 1))
                        }
                    };
                    insert_sorted(&mut row, key);
                    reference.push(key);
                    reference.sort_unstable();
                    reference.truncate(stride);
                    assert_eq!(row, reference, "stride {stride} shape {shape}");
                }
            }
        }
    }

    /// The counting sort against a stable comparison sort by the high
    /// halves, over lengths on both sides of every digit width: random
    /// 30-bit codes, few distinct codes (long equal runs keep their input
    /// order) and a constant code.
    #[test]
    fn sort_by_code_is_a_stable_sort_by_the_high_halves() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(3);
        for n in [
            0usize, 1, 2, 3, 7, 63, 64, 65, 127, 128, 2_047, 2_048, 2_049, 50_000,
        ] {
            for distinct in [1u64 << 30, 5, 1] {
                let keys: Vec<u64> = (0..n as u64)
                    .map(|i| {
                        rng.random_range(0..distinct) << 32 | rng.random_range(0..1u64 << 32) ^ i
                    })
                    .collect();
                let mut expected = keys.clone();
                expected.sort_by_key(|&k| k >> 32);
                let mut sorted = keys;
                sort_by_code(&mut sorted, &mut vec![0; n]);
                assert_eq!(sorted, expected, "n {n} distinct {distinct}");
            }
        }
    }

    #[test]
    fn ties_broken_by_index() {
        let pts = vec![
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(-1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
        ];
        let bf = BruteForce::new(&pts);
        let nn = bf.knn(Point3::ZERO, 3);
        assert_eq!(
            nn.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
