//! Dual-tree (leaf-pair) exact all-kNN over the k-d tree.
//!
//! The SR engine's frame time is dominated by kNN *self-joins*: every point
//! of the frame cloud queries the index built over that same cloud (§4.1 —
//! interpolation is ≥70% of upsampling time, and nearly all of it is these
//! queries). The single-tree batch sweep answers them one query at a time;
//! after heavy tuning it is instruction-bound on per-query traversal
//! bookkeeping (~600 ns/query at 100k points) rather than on distance
//! arithmetic. This module removes that per-query bookkeeping
//! *algorithmically*: a k-d tree over the **queries** is traversed against
//! the k-d tree over the **reference points**, so traversal decisions are
//! made once per *node pair* instead of once per query:
//!
//! * every query leaf carries a shared pruning bound — the max over its
//!   queries' current k-th-best distances (and internal query nodes the max
//!   over their children), so one AABB–AABB distance test
//!   ([`crate::Aabb::distance_squared_to_aabb`]) rejects a whole
//!   (query-subtree, reference-subtree) pair before any point work;
//! * surviving leaf pairs run tile-vs-tile candidate scans through the same
//!   SoA/AVX2/AVX-512 kernels as the per-query path
//!   (`crate::kernels::scan_ids`, generic over the accumulator), with a
//!   per-row reference-leaf box pre-check mirroring the single-tree path's
//!   leaf arrival test;
//! * per-query results accumulate in a flat slab of packed
//!   `(distance-bits, index)` `u64` keys with exactly `BestK`'s
//!   replace-worst / rank-insert semantics, so survivors — and index-broken
//!   distance ties — are **bit-identical** to per-query [`KdTree::knn`] for
//!   any traversal order.
//!
//! The join is **bichromatic**: queries may be any point set (e.g. the
//! generated midpoints of the naive interpolator, or training-set
//! ground-truth lookups), in which case a query tree is built into the
//! caller's [`DualTreeScratch`]; when the query slice *is* the reference
//! cloud (the self-join case), the reference tree doubles as the query tree
//! and the build is skipped entirely. In the monochromatic case the
//! traversal visits diagonal (self) pairs first so every query's home leaf
//! seeds its pruning bound before any off-diagonal pair is scanned.
//!
//! # Selection policy
//!
//! [`KdTree`]'s `NeighborSearch::knn_batch` picks the algorithm per batch:
//! dual-tree for **self-joins** of at least [`DUAL_MIN_QUERIES_MONO`]
//! queries with `k ≤` [`DUAL_MAX_K`]; the single-tree sweep otherwise —
//! including all bichromatic batches, where the dual tree measured slower
//! (see [`DUAL_MIN_QUERIES_MONO`] for the numbers).
//! [`KdTree::knn_batch_with`] accepts an explicit [`BatchStrategy`] to
//! force either algorithm, plus a persistent [`DualTreeScratch`] so
//! steady-state frames allocate nothing.
//!
//! # Parallel traversal (query-leaf sharding)
//!
//! Under the `parallel` feature the traversal shards across the
//! work-stealing pool ([`crate::runtime`]) by partitioning the **query
//! tree**: a frontier of roughly `2 × workers` subtree roots covering the
//! leaf-slot space end to end (greedily splitting the widest shard) is
//! planned per batch, and each shard runs the ordinary pair traversal —
//! its query subtree against the whole reference tree — as one stealable
//! task. Shards are independent because all mutable traversal state is
//! per-shard: each owns the sub-slab of the flat row arena its leaf slots
//! map to (rebased via the traversal's slot base) and a private pruning-
//! bound vector drawn from a pool in [`DualTreeScratch`], so steady-state
//! frames still allocate nothing. Monochromatic shards schedule their
//! diagonal (self) pair first and the remaining reference subtrees
//! nearest-first, preserving the bound-seeding property within the shard.
//! Because bounds only *prune* pairs that provably cannot contribute and
//! row contents are decided by the packed key semantics alone, sharded
//! results are **bit-identical** to the sequential traversal at every
//! worker count (property-tested, including duplicate-heavy tie cases).
//! Batches smaller than a couple thousand queries per worker stay on the
//! single-shard sequential path.
//!
//! [`KdTree::knn`]: crate::knn::NeighborSearch::knn

use crate::kdtree::KdTree;
use crate::kernels::{self, ScanSink};
use crate::knn::pack_key;
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;

/// Which batch algorithm [`KdTree::knn_batch_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// Pick per batch: dual-tree for large batches (see the module docs for
    /// the thresholds), single-tree otherwise.
    #[default]
    Auto,
    /// Always the single-tree (per-query, warm-started, Morton-ordered)
    /// sweep.
    SingleTree,
    /// Always the dual-tree leaf-pair traversal.
    DualTree,
}

/// Default for the smallest self-join batch the auto policy sends to the
/// dual tree (override with the `VOLUT_DUAL_MIN_QUERIES` environment
/// variable — see [`dual_min_queries_mono`]). The traversal amortizes
/// per-node work over whole leaves, which needs enough queries per leaf
/// region to pay for the pair bookkeeping; below this the warm-started
/// single-tree sweep wins.
///
/// Bichromatic batches are **never** auto-selected: measured on the build
/// host (100k jittered queries over a 100k humanoid cloud, k=5), the dual
/// tree ran ~1.7× the candidate volume of the self-join case — without the
/// diagonal self-pair, query leaves fill their first rows from whichever
/// offset reference leaf happens to be box-nearest, so the pruning bounds
/// start loose — and the batch additionally pays an `O(m log m)` query-tree
/// build (~16 ms at 100k). Net ≈ 0.75× vs the single-tree sweep, so Auto
/// keeps bichromatic batches on the single tree; [`BatchStrategy::DualTree`]
/// still forces the leaf-pair path for either shape.
pub const DUAL_MIN_QUERIES_MONO: usize = 4096;

/// Largest `k` the auto policy sends to the dual tree (the flat row slab
/// does an `O(k)` rank scan per accepted candidate, same as `BestK`, but
/// large-`k` rows blow past the slab's cache-friendly regime).
pub const DUAL_MAX_K: usize = 32;

/// The auto policy's self-join crossover, resolved once per process:
/// `VOLUT_DUAL_MIN_QUERIES` when set to a parseable value, else
/// [`DUAL_MIN_QUERIES_MONO`]. The env override exists so the crossover can
/// be re-tuned per deployment without a rebuild — the committed default was
/// measured on the single-core build host, and multicore hosts (where the
/// sharded traversal has real workers) may profitably set it lower.
pub fn dual_min_queries_mono() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("VOLUT_DUAL_MIN_QUERIES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DUAL_MIN_QUERIES_MONO)
    })
}

/// Fewest queries a parallel shard is worth: below this per shard, the
/// leaf-pair traversal is too short to repay task scheduling and the
/// per-shard warm-up of pruning bounds, so the batch stays sequential.
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
const DUAL_MIN_QUERIES_PER_SHARD: usize = 2048;

/// Reusable state of the dual-tree all-kNN: the query-side tree (built only
/// for bichromatic joins, storage reused via [`KdTree::build_in`]), the flat
/// per-query result rows and the per-node pruning bounds. Owned by the
/// caller and tied to no particular tree: nothing in it outlives a batch,
/// so the SR engine keeps one per worker (on its frame arena), not one per
/// session, and repeated frames perform **zero** allocations here at steady
/// state.
#[derive(Debug, Default)]
pub struct DualTreeScratch {
    /// Query-side tree for bichromatic joins (self-joins reuse the
    /// reference tree and leave this untouched).
    qtree: KdTree,
    /// `stride` packed `(d2-bits, index)` keys per query, ascending, laid
    /// out in query-tree *leaf-slot* order so a leaf-pair scan touches one
    /// small contiguous run of rows (see [`RowSink`]); one scatter pass at
    /// emission restores caller order.
    rows: Vec<u64>,
    /// Per-query-node pruning bound (max k-th-best distance over the
    /// node's queries), indexed by query-tree node id.
    bounds: Vec<f32>,
    /// Per-shard pruning-bound vectors for the parallel traversal (each
    /// shard owns a full node-indexed vector so shards never alias; a shard
    /// only ever reads/writes bounds of query nodes inside its own
    /// subtree). Pooled here so steady-state parallel batches allocate
    /// nothing.
    shard_bounds: Vec<Vec<f32>>,
    /// How many batches ran through the dual-tree kernel with this scratch.
    invocations: u64,
}

impl DualTreeScratch {
    /// Creates an empty scratch (no allocations until the first batch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of batches the dual-tree kernel answered with this scratch.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Total capacity (in bytes) of the scratch's buffers — the row slab,
    /// the node bounds **and** the query-side tree — observable by tests
    /// asserting steady-state reuse (repeated same-shape batches must not
    /// grow it).
    pub fn reserved_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
            + self.bounds.capacity() * std::mem::size_of::<f32>()
            + self
                .shard_bounds
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
            + self.qtree.reserved_bytes()
    }
}

/// Sentinel key padding not-yet-filled row slots: squared distance `+inf`
/// with the largest index. Any real candidate's packed key compares below
/// it (real indices are `< u32::MAX` and real distances either `< +inf` or
/// tie at `+inf` with a smaller index), so a sentinel-padded row behaves
/// exactly like a [`BestK`] that is not yet full — its worst distance is
/// `+inf`, every candidate is accepted, and the sentinel is shifted out.
///
/// [`BestK`]: crate::knn::BestK
const SENTINEL: u64 = (f32::INFINITY.to_bits() as u64) << 32 | u32::MAX as u64;

/// One query's result row: `stride` packed keys kept sorted ascending at
/// all times, initially all [`SENTINEL`]. `push` replicates
/// [`BestK::push`]'s full-list branch (reject at-or-above the worst, rank
/// scan, shift, insert), which is the *only* branch a sentinel-full row
/// ever needs — so the surviving key set, and therefore every index-broken
/// tie, matches the per-query accumulator exactly.
///
/// `cap` is the dual-tree counterpart of [`BestK::begin_warm`]'s pruning
/// cap: a proven upper bound on the row's *final* k-th distance (or
/// `INFINITY`), folded into [`ScanSink::worst_d2`] so the vector compare
/// pre-filter and the box tests prune tightly before the row has filled
/// with real entries. Like the warm start, it cannot change results: a
/// candidate or region is only skipped when strictly beyond an upper bound
/// of the final k-th distance, and ties at the cap still pass through.
///
/// [`BestK::push`]: crate::knn::BestK::push
/// [`BestK::begin_warm`]: crate::knn::BestK::begin_warm
struct RowSink<'a> {
    keys: &'a mut [u64],
    cap: f32,
}

impl ScanSink for RowSink<'_> {
    #[inline(always)]
    fn worst_d2(&self) -> f32 {
        // Sentinel slots read as +inf, so this is the cap until the row is
        // full and the tighter of the two afterwards (both are valid upper
        // bounds on the final k-th distance).
        f32::from_bits((self.keys[self.keys.len() - 1] >> 32) as u32).min(self.cap)
    }

    #[inline(always)]
    fn push(&mut self, index: usize, d2: f32, _pos: Point3) {
        let key = pack_key(index, d2);
        let len = self.keys.len();
        if key >= self.keys[len - 1] {
            return;
        }
        // Branchless fixed-trip rank scan, as in `BestK::rank_of`.
        let rank: usize = self.keys.iter().map(|&a| usize::from(a < key)).sum();
        self.keys.copy_within(rank..len - 1, rank + 1);
        self.keys[rank] = key;
    }
}

/// Auto policy: should this batch run through the dual tree?
pub(crate) fn select_dual_tree(
    strategy: BatchStrategy,
    queries: &[Point3],
    k: usize,
    rtree: &KdTree,
) -> bool {
    match strategy {
        BatchStrategy::SingleTree => false,
        BatchStrategy::DualTree => true,
        BatchStrategy::Auto => {
            k <= DUAL_MAX_K
                && queries.len() >= dual_min_queries_mono()
                && is_self_join(queries, rtree)
        }
    }
}

/// `true` when the query slice is exactly the indexed cloud (one linear
/// compare — two orders of magnitude cheaper than the traversal it tunes).
#[inline]
fn is_self_join(queries: &[Point3], rtree: &KdTree) -> bool {
    queries.len() == rtree.points().len() && queries == rtree.points()
}

/// Runs the dual-tree all-kNN: appends one `stride`-wide row per query to
/// `out`, in query order, bit-identical to the per-query path. The caller
/// ([`KdTree::knn_batch_with`]) has already handled `k == 0`, an empty
/// reference cloud and row reservation; `stride = k.min(reference len)`.
pub(crate) fn all_knn(
    rtree: &KdTree,
    queries: &[Point3],
    stride: usize,
    out: &mut Neighborhoods,
    scratch: &mut DualTreeScratch,
) {
    if queries.is_empty() {
        return;
    }
    scratch.invocations += 1;
    let mono = is_self_join(queries, rtree);
    let qtree: &KdTree = if mono {
        rtree
    } else {
        scratch.qtree.build_in(queries);
        &scratch.qtree
    };
    // Sentinel-fill the row slab; it keeps its allocation across batches.
    scratch.rows.clear();
    scratch.rows.resize(queries.len() * stride, SENTINEL);
    // Shard the query-leaf set across pool workers when the batch is big
    // enough to repay it; otherwise run the classic sequential traversal.
    let shards = plan_shards(qtree, queries.len());
    if shards.len() > 1 {
        run_sharded(
            rtree,
            qtree,
            mono,
            stride,
            &shards,
            &mut scratch.rows,
            &mut scratch.shard_bounds,
        );
    } else {
        scratch.bounds.clear();
        scratch.bounds.resize(qtree.node_count(), f32::INFINITY);
        Traversal {
            qtree,
            rtree,
            rows: &mut scratch.rows,
            bounds: &mut scratch.bounds,
            stride,
            mono,
            slot_base: 0,
            prev_slot: usize::MAX,
        }
        .pair(qtree.root_id(), rtree.root_id(), 0.0);
    }
    // Every row is full (nothing prunes against a sentinel's infinite
    // bound) and already sorted by (distance, index); the low 32 bits of a
    // packed key are the neighbor index. Rows live in leaf-slot order, so
    // one scatter pass through the query tree's permutation restores the
    // caller's query order — the same emission shape as the single-tree
    // sweep's Morton un-permutation.
    let slab = out.push_uniform_rows(queries.len(), stride);
    for (slot, &qi) in qtree.order().iter().enumerate() {
        let src = &scratch.rows[slot * stride..(slot + 1) * stride];
        let dst = &mut slab[qi as usize * stride..(qi as usize + 1) * stride];
        for (d, &key) in dst.iter_mut().zip(src) {
            debug_assert_ne!(key, SENTINEL, "dual-tree rows end full");
            *d = key as u32;
        }
    }
}

/// One parallel shard of the query side: a query-tree node whose subtree
/// covers the contiguous leaf-slot range `lo..hi`. The shard set partitions
/// the whole leaf-slot space, so shards own disjoint row sub-slabs and can
/// traverse concurrently.
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
#[derive(Clone, Copy)]
struct Shard {
    root: u32,
    lo: usize,
    hi: usize,
}

/// Leaf-slot span of `n`'s subtree. Children are allocated over contiguous
/// slot sub-ranges at build time, so the span is (leftmost leaf's start,
/// rightmost leaf's end) — two root-to-leaf walks, no subtree scan.
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
fn subtree_span(tree: &KdTree, n: u32) -> (usize, usize) {
    let mut lo_n = n;
    let lo = loop {
        let node = tree.node(lo_n);
        if node.is_leaf() {
            break node.leaf_range().0;
        }
        lo_n = node.children().0;
    };
    let mut hi_n = n;
    let hi = loop {
        let node = tree.node(hi_n);
        if node.is_leaf() {
            break node.leaf_range().1;
        }
        hi_n = node.children().1;
    };
    (lo, hi)
}

/// Decides the parallel decomposition of a batch: a frontier of query-tree
/// nodes partitioning the leaf-slot space, sized to about twice the current
/// pool's worker count (slack for stealing to balance uneven shards).
/// Returns a single whole-tree shard — i.e. "stay sequential" — when the
/// pool has one executor or the batch is too small to repay sharding.
fn plan_shards(qtree: &KdTree, queries: usize) -> Vec<Shard> {
    let whole = || {
        let (lo, hi) = (0usize, queries);
        vec![Shard {
            root: qtree.root_id(),
            lo,
            hi,
        }]
    };
    #[cfg(not(feature = "parallel"))]
    {
        return whole();
    }
    #[cfg(feature = "parallel")]
    {
        let workers = crate::par::worker_count(queries, DUAL_MIN_QUERIES_PER_SHARD);
        if workers <= 1 {
            return whole();
        }
        let target = workers * 2;
        let mut frontier: Vec<Shard> = whole();
        while frontier.len() < target {
            // Split the widest shard; stop when only leaves remain.
            let Some(widest) = frontier
                .iter()
                .position(|s| !qtree.node(s.root).is_leaf())
                .map(|first| {
                    frontier
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| !qtree.node(s.root).is_leaf())
                        .max_by_key(|(_, s)| s.hi - s.lo)
                        .map_or(first, |(i, _)| i)
                })
            else {
                break;
            };
            let shard = frontier.swap_remove(widest);
            let (a, b) = qtree.node(shard.root).children();
            let (alo, ahi) = subtree_span(qtree, a);
            let (blo, bhi) = subtree_span(qtree, b);
            frontier.push(Shard {
                root: a,
                lo: alo,
                hi: ahi,
            });
            frontier.push(Shard {
                root: b,
                lo: blo,
                hi: bhi,
            });
        }
        frontier.sort_by_key(|s| s.lo);
        frontier
    }
}

/// Sequential-build stub: [`plan_shards`] never returns more than one shard
/// without the `parallel` feature, so the sharded branch is unreachable.
#[cfg(not(feature = "parallel"))]
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    _rtree: &KdTree,
    _qtree: &KdTree,
    _mono: bool,
    _stride: usize,
    _shards: &[Shard],
    _all_rows: &mut [u64],
    _bounds_pool: &mut Vec<Vec<f32>>,
) {
    unreachable!("plan_shards stays sequential without the parallel feature");
}

/// Runs the traversal sharded across the pool. Each shard task owns the
/// row sub-slab of its leaf-slot range and a full node-indexed bounds
/// vector (pooled in the scratch), so tasks share nothing mutable; results
/// are bit-identical to the sequential traversal because bounds only prune
/// provably irrelevant work and row contents are decided by packed
/// `(distance, index)` keys alone (see the module docs).
///
/// Scheduling inside a shard mirrors the sequential order's intent: in the
/// monochromatic case the shard scans its *diagonal* pair first (its
/// queries meet their own points, seeding tight pruning bounds — the very
/// property that makes self-joins the dual tree's winning case), then the
/// other shards' reference subtrees nearest-first. Bichromatic shards
/// descend the whole reference tree exactly like the sequential `(split,
/// split)` arm.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    rtree: &KdTree,
    qtree: &KdTree,
    mono: bool,
    stride: usize,
    shards: &[Shard],
    all_rows: &mut [u64],
    bounds_pool: &mut Vec<Vec<f32>>,
) {
    use crate::par::SendPtr;
    // Pooled per-shard bounds: grow the pool to the shard count, then reset
    // each vector to node-count ∞ entries (allocation-free at steady state).
    if bounds_pool.len() < shards.len() {
        bounds_pool.resize_with(shards.len(), Vec::new);
    }
    for b in &mut bounds_pool[..shards.len()] {
        b.clear();
        b.resize(qtree.node_count(), f32::INFINITY);
    }
    let mut shard_bounds: Vec<&mut [f32]> = bounds_pool[..shards.len()]
        .iter_mut()
        .map(|b| b.as_mut_slice())
        .collect();
    let bounds_ptr = SendPtr::new(shard_bounds.as_mut_ptr());
    let rows_ptr = SendPtr::new(all_rows.as_mut_ptr());
    crate::runtime::run_range(shards.len(), 1, |r| {
        for i in r {
            let shard = shards[i];
            // SAFETY: shard index `i` is visited by exactly one task, and
            // shard slot ranges are disjoint, so the bounds slot and the
            // rows sub-slab are exclusively this task's; both borrows end
            // before `run_range` returns.
            let bounds: &mut [f32] = unsafe { &mut *bounds_ptr.get().add(i) };
            let rows = unsafe {
                std::slice::from_raw_parts_mut(
                    rows_ptr.get().add(shard.lo * stride),
                    (shard.hi - shard.lo) * stride,
                )
            };
            let mut t = Traversal {
                qtree,
                rtree,
                rows,
                bounds,
                stride,
                mono,
                slot_base: shard.lo,
                prev_slot: usize::MAX,
            };
            if mono {
                // Diagonal first, then the other shards' subtrees as
                // reference sides, nearest box first.
                t.pair(shard.root, shard.root, 0.0);
                let mut others: Vec<(u32, f32)> = shards
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, s)| (s.root, t.child_dist(shard.root, s.root)))
                    .collect();
                others.sort_by(|a, b| a.1.total_cmp(&b.1));
                for (rn, d) in others {
                    t.pair(shard.root, rn, d);
                }
            } else {
                t.pair(shard.root, rtree.root_id(), 0.0);
            }
        }
    });
}

/// The recursive (query-node, reference-node) pair walk. Each pair is
/// visited at most once (the decomposition of a pair is a function of the
/// pair, so the call graph is a tree), descends the reference side
/// nearest-child-first so bounds tighten before far pairs are tested, and —
/// in the monochromatic case — descends diagonal pairs first so every query
/// leaf scans its own tile (which contains the queries themselves) before
/// anything else.
///
/// NOTE: the manual `work_count_probe` test below mirrors `pair` and
/// `scan_pair` with counters (the numbers behind the selection-policy
/// docs); keep it in sync when changing the traversal or scan logic.
struct Traversal<'a> {
    qtree: &'a KdTree,
    rtree: &'a KdTree,
    rows: &'a mut [u64],
    bounds: &'a mut [f32],
    stride: usize,
    mono: bool,
    /// First leaf slot covered by `rows` — zero for the sequential
    /// whole-tree traversal; a shard's range start for the parallel one
    /// (shards own the sub-slab of their own leaf-slot range, so absolute
    /// slots are rebased before indexing `rows`).
    slot_base: usize,
    /// Slot of the most recently scanned query row — the warm-start seed
    /// for the next cold row (usually the previous slot of the same leaf;
    /// across leaf boundaries, the last row of the previously scanned
    /// leaf). `usize::MAX` until the first row has been scanned.
    prev_slot: usize,
}

impl Traversal<'_> {
    /// Visits the pair `(qn, rn)` whose boxes are `d` apart (squared,
    /// computed by the caller — the root pair passes `0.0`, which is always
    /// a valid lower bound and never mis-prunes).
    fn pair(&mut self, qn: u32, rn: u32, d: f32) {
        // Node-pair rejection: if the boxes are farther apart than the
        // worst k-th-best any query below `qn` still holds, no point below
        // `rn` can enter any of those rows. Equality passes through —
        // boundary ties are resolved by the row insert, like everywhere
        // else.
        if d > self.bounds[qn as usize] {
            return;
        }
        let qnode = self.qtree.node(qn);
        let rnode = self.rtree.node(rn);
        match (qnode.is_leaf(), rnode.is_leaf()) {
            (true, true) => self.scan_pair(qn, rn),
            (true, false) => {
                let ((near, dn), (far, df)) = self.order_children(qn, rnode.children());
                self.pair(qn, near, dn);
                self.pair(qn, far, df);
            }
            (false, true) => {
                let (qa, qb) = qnode.children();
                self.pair(qa, rn, self.child_dist(qa, rn));
                self.pair(qb, rn, self.child_dist(qb, rn));
                self.refresh_bound(qn, qa, qb);
            }
            (false, false) => {
                let (qa, qb) = qnode.children();
                if self.mono && qn == rn {
                    // Diagonal pairs first: each query subtree meets its own
                    // points before any sibling's, seeding tight bounds.
                    let (ra, rb) = rnode.children();
                    self.pair(qa, ra, 0.0);
                    self.pair(qb, rb, 0.0);
                    self.pair(qa, rb, self.child_dist(qa, rb));
                    self.pair(qb, ra, self.child_dist(qb, ra));
                } else {
                    // Split the query side only: every query leaf ends up
                    // running its own nearest-first descent of the
                    // reference tree (the `(leaf, split)` arm) under the
                    // group bound, instead of inheriting reference-subtree
                    // commitments made high up where offset boxes all tie
                    // at distance zero. The extra node-pair visits are
                    // cheap box tests; the ordering quality decides how
                    // many leaf scans survive.
                    self.pair(qa, rn, self.child_dist(qa, rn));
                    self.pair(qb, rn, self.child_dist(qb, rn));
                }
                self.refresh_bound(qn, qa, qb);
            }
        }
    }

    /// Box distance between query node `qn` and reference node `rn`.
    #[inline(always)]
    fn child_dist(&self, qn: u32, rn: u32) -> f32 {
        self.qtree
            .node_aabb(qn)
            .distance_squared_to_aabb(&self.rtree.node_aabb(rn))
    }

    /// Orders a reference node's children by box distance to query node
    /// `qn` (nearest first), returning each with its distance so the
    /// recursion does not recompute it.
    #[inline(always)]
    fn order_children(&self, qn: u32, (ra, rb): (u32, u32)) -> ((u32, f32), (u32, f32)) {
        let da = self.child_dist(qn, ra);
        let db = self.child_dist(qn, rb);
        if da <= db {
            ((ra, da), (rb, db))
        } else {
            ((rb, db), (ra, da))
        }
    }

    /// Re-derives an internal query node's bound from its children's. The
    /// children only tighten, so the cached max stays a true upper bound on
    /// every row below `qn` between refreshes.
    #[inline(always)]
    fn refresh_bound(&mut self, qn: u32, qa: u32, qb: u32) {
        self.bounds[qn as usize] = self.bounds[qa as usize].max(self.bounds[qb as usize]);
    }

    /// Leaf-pair scan: every query row of leaf `qn` sweeps reference leaf
    /// `rn`'s SoA tile, guarded by the same tight-leaf-box test the
    /// single-tree path applies on leaf arrival. Afterwards the query
    /// leaf's shared bound is recomputed exactly (max over its rows'
    /// worsts).
    ///
    /// Rows that have not yet filled (their first scan — for the interior
    /// of the traversal that is the leaf's first surviving pair, which in
    /// the monochromatic case is the diagonal self-pair) are warm-started
    /// exactly like [`BestK::begin_warm`]: the previously scanned row's
    /// `stride` entries are that many *distinct* reference points, so the
    /// largest of their distances to this query is a true upper bound on
    /// this row's final k-th distance and becomes the initial pruning cap.
    /// Leaf slots are Morton-sorted at build time, making consecutive rows
    /// spatial neighbors and the cap tight from the first block of the very
    /// first tile scan; results are unaffected (candidates are only skipped
    /// when strictly beyond the bound, ties still pass).
    ///
    /// [`BestK::begin_warm`]: crate::knn::BestK::begin_warm
    fn scan_pair(&mut self, qn: u32, rn: u32) {
        let (qs, qe) = self.qtree.node(qn).leaf_range();
        let (rs, re) = self.rtree.node(rn).leaf_range();
        let rbox = self.rtree.node_aabb(rn);
        let (qxs, qys, qzs) = (
            self.qtree.soa().xs(),
            self.qtree.soa().ys(),
            self.qtree.soa().zs(),
        );
        // The reference tile is about to be streamed `qe - qs` times; pull
        // its lanes in behind the first row's scan.
        kernels::prefetch_read(&self.rtree.soa().xs()[rs]);
        kernels::prefetch_read(&self.rtree.soa().ys()[rs]);
        kernels::prefetch_read(&self.rtree.soa().zs()[rs]);
        let mut bound = 0.0f32;
        for slot in qs..qe {
            let q = Point3::new(qxs[slot], qys[slot], qzs[slot]);
            let local = slot - self.slot_base;
            let filled = {
                let row = &self.rows[local * self.stride..(local + 1) * self.stride];
                f32::from_bits((row[row.len() - 1] >> 32) as u32).is_finite()
            };
            let cap = if filled {
                f32::INFINITY
            } else {
                self.warm_cap(q)
            };
            let row = &mut self.rows[local * self.stride..(local + 1) * self.stride];
            let mut sink = RowSink { keys: row, cap };
            if rbox.distance_squared_to(q) <= sink.worst_d2() {
                kernels::scan_ids(self.rtree.soa(), self.rtree.order(), rs, re, q, &mut sink);
            }
            bound = bound.max(sink.worst_d2());
            self.prev_slot = slot;
        }
        self.bounds[qn as usize] = bound;
    }

    /// [`BestK::begin_warm`]'s bound for the dual tree: the largest squared
    /// distance from `q` to the entries of the previously scanned row (they
    /// are `stride` distinct reference points, or the whole cloud when it is
    /// smaller than `k`, so `q`'s final k-th distance cannot exceed it).
    /// Returns `INFINITY` when no previous row exists or it is not yet
    /// complete. Exact distances to real candidates — the same arithmetic
    /// the scan kernels use — so no rounding slack is needed.
    ///
    /// [`BestK::begin_warm`]: crate::knn::BestK::begin_warm
    #[inline]
    fn warm_cap(&self, q: Point3) -> f32 {
        if self.prev_slot == usize::MAX {
            return f32::INFINITY;
        }
        let local = self.prev_slot - self.slot_base;
        let prow = &self.rows[local * self.stride..(local + 1) * self.stride];
        if *prow.last().expect("stride > 0") == SENTINEL {
            return f32::INFINITY;
        }
        let points = self.rtree.points();
        let mut cap = 0.0f32;
        for &key in prow {
            let p = points[key as u32 as usize];
            cap = cap.max(q.distance_squared(p));
        }
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::NeighborSearch;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random_range(-10.0..10.0),
                    rng.random_range(-10.0..10.0),
                    rng.random_range(-10.0..10.0),
                )
            })
            .collect()
    }

    /// Forced dual-tree rows must equal the per-query oracle rows exactly.
    fn assert_dual_matches_per_query(points: &[Point3], queries: &[Point3], k: usize) {
        let tree = KdTree::build(points);
        let mut scratch = DualTreeScratch::new();
        let mut dual = Neighborhoods::new();
        tree.knn_batch_with(queries, k, &mut dual, BatchStrategy::DualTree, &mut scratch);
        assert_eq!(dual.len(), queries.len());
        for (i, &q) in queries.iter().enumerate() {
            let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
            assert_eq!(dual.row(i), expected.as_slice(), "k {k} query {i}");
        }
    }

    #[test]
    fn monochromatic_matches_per_query() {
        let pts = random_points(700, 1);
        for k in [1usize, 4, 9, 32] {
            assert_dual_matches_per_query(&pts, &pts, k);
        }
    }

    #[test]
    fn bichromatic_matches_per_query() {
        let pts = random_points(600, 2);
        let queries = random_points(450, 3);
        for k in [1usize, 5, 9] {
            assert_dual_matches_per_query(&pts, &queries, k);
        }
    }

    #[test]
    fn duplicate_points_break_ties_by_index() {
        let mut pts = vec![Point3::ONE; 30];
        pts.extend(random_points(200, 4));
        pts.extend(vec![Point3::ONE; 30]);
        let queries = pts.clone();
        assert_dual_matches_per_query(&pts, &queries, 8);
        // A bichromatic query landing exactly on the duplicates must get
        // the lowest indices.
        let tree = KdTree::build(&pts);
        let mut scratch = DualTreeScratch::new();
        let mut out = Neighborhoods::new();
        tree.knn_batch_with(
            &[Point3::ONE],
            6,
            &mut out,
            BatchStrategy::DualTree,
            &mut scratch,
        );
        assert_eq!(out.row(0), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn k_exceeding_cloud_and_small_clouds() {
        let pts = random_points(10, 5);
        assert_dual_matches_per_query(&pts, &pts, 25);
        let queries = random_points(5, 6);
        assert_dual_matches_per_query(&pts, &queries, 1000);
        // Two-point cloud, one query.
        let two = vec![Point3::ZERO, Point3::ONE];
        assert_dual_matches_per_query(&two, &[Point3::new(0.4, 0.0, 0.0)], 2);
    }

    #[test]
    fn degenerate_clouds_match_per_query() {
        // Identical points, collinear points, planar grid.
        let identical = vec![Point3::splat(2.5); 150];
        assert_dual_matches_per_query(&identical, &identical, 7);
        let collinear: Vec<Point3> = (0..200)
            .map(|i| Point3::new((i / 3) as f32, 0.0, 0.0))
            .collect();
        assert_dual_matches_per_query(&collinear, &collinear, 5);
        let planar: Vec<Point3> = (0..240)
            .map(|i| Point3::new((i % 16) as f32, (i / 16) as f32, 0.0))
            .collect();
        assert_dual_matches_per_query(&planar, &planar, 9);
        // Bichromatic over degenerate references.
        let queries = random_points(80, 7);
        assert_dual_matches_per_query(&collinear, &queries, 4);
    }

    #[test]
    fn empty_inputs_produce_empty_rows() {
        let tree = KdTree::build(&[]);
        let mut scratch = DualTreeScratch::new();
        let mut out = Neighborhoods::new();
        tree.knn_batch_with(
            &[Point3::ZERO, Point3::ONE],
            3,
            &mut out,
            BatchStrategy::DualTree,
            &mut scratch,
        );
        assert_eq!(out.len(), 2);
        assert!(out.row(0).is_empty() && out.row(1).is_empty());
        // k == 0 likewise; and an empty query slice appends nothing.
        let tree = KdTree::build(&random_points(50, 8));
        tree.knn_batch_with(
            &[Point3::ZERO],
            0,
            &mut out,
            BatchStrategy::DualTree,
            &mut scratch,
        );
        assert_eq!(out.len(), 3);
        assert!(out.row(2).is_empty());
        tree.knn_batch_with(&[], 4, &mut out, BatchStrategy::DualTree, &mut scratch);
        assert_eq!(out.len(), 3);
        assert_eq!(scratch.invocations(), 0, "empty batches bypass the kernel");
    }

    #[test]
    fn scratch_is_reused_without_growth() {
        let pts = random_points(3000, 9);
        let queries = random_points(2000, 10);
        let tree = KdTree::build(&pts);
        let mut scratch = DualTreeScratch::new();
        let mut out = Neighborhoods::new();
        tree.knn_batch_with(&queries, 8, &mut out, BatchStrategy::DualTree, &mut scratch);
        let reserved = scratch.reserved_bytes();
        assert!(reserved > 0);
        for round in 0..3 {
            let mut again = Neighborhoods::new();
            tree.knn_batch_with(
                &queries,
                8,
                &mut again,
                BatchStrategy::DualTree,
                &mut scratch,
            );
            assert_eq!(again, out, "round {round}");
            assert_eq!(
                scratch.reserved_bytes(),
                reserved,
                "steady-state batches must not grow the scratch"
            );
        }
        assert_eq!(scratch.invocations(), 4);
    }

    /// The sharded parallel traversal must produce byte-for-byte the same
    /// rows as the sequential one, for every worker count, both join
    /// shapes, and duplicate-heavy ties — and its per-shard bounds pool
    /// must reach a steady state (no growth on repeated same-shape
    /// batches).
    #[cfg(feature = "parallel")]
    #[test]
    fn sharded_traversal_matches_sequential() {
        let mut pts = random_points(6_000, 20);
        pts.extend(vec![Point3::ONE; 40]); // duplicate cluster: tie-breaking
        let tree = KdTree::build(&pts);
        let queries = random_points(5_000, 21);
        for k in [1usize, 5, 9] {
            let mut seq_mono = Neighborhoods::new();
            let mut seq_bi = Neighborhoods::new();
            let mut scratch = DualTreeScratch::new();
            crate::runtime::with_workers(1, || {
                tree.knn_batch_with(
                    &pts,
                    k,
                    &mut seq_mono,
                    BatchStrategy::DualTree,
                    &mut scratch,
                );
                tree.knn_batch_with(
                    &queries,
                    k,
                    &mut seq_bi,
                    BatchStrategy::DualTree,
                    &mut scratch,
                );
            });
            for workers in [2usize, 4, 8] {
                let mut scratch = DualTreeScratch::new();
                crate::runtime::with_workers(workers, || {
                    let mut mono = Neighborhoods::new();
                    tree.knn_batch_with(&pts, k, &mut mono, BatchStrategy::DualTree, &mut scratch);
                    assert_eq!(mono, seq_mono, "mono k {k} workers {workers}");
                    assert!(
                        !scratch.shard_bounds.is_empty(),
                        "parallel path must engage under a {workers}-worker pool"
                    );
                    let mut bi = Neighborhoods::new();
                    tree.knn_batch_with(
                        &queries,
                        k,
                        &mut bi,
                        BatchStrategy::DualTree,
                        &mut scratch,
                    );
                    assert_eq!(bi, seq_bi, "bichromatic k {k} workers {workers}");
                    // Both batch shapes have now sized every pooled buffer
                    // (row slab, shard bounds, query tree); repeats must
                    // reuse them without growth.
                    let reserved = scratch.reserved_bytes();
                    let mut again = Neighborhoods::new();
                    tree.knn_batch_with(&pts, k, &mut again, BatchStrategy::DualTree, &mut scratch);
                    assert_eq!(again, seq_mono);
                    tree.knn_batch_with(
                        &queries,
                        k,
                        &mut Neighborhoods::new(),
                        BatchStrategy::DualTree,
                        &mut scratch,
                    );
                    assert_eq!(
                        scratch.reserved_bytes(),
                        reserved,
                        "steady-state parallel batches must not grow the scratch"
                    );
                });
            }
        }
    }

    /// Shard planning partitions the leaf-slot space exactly.
    #[cfg(feature = "parallel")]
    #[test]
    fn shard_frontier_partitions_leaf_slots() {
        let pts = random_points(10_000, 22);
        let tree = KdTree::build(&pts);
        crate::runtime::with_workers(4, || {
            let shards = plan_shards(&tree, pts.len());
            assert!(shards.len() > 1);
            assert_eq!(shards[0].lo, 0);
            assert_eq!(shards.last().expect("nonempty").hi, pts.len());
            for pair in shards.windows(2) {
                assert_eq!(pair[0].hi, pair[1].lo, "spans must be contiguous");
            }
        });
        // One executor: a single whole-tree shard, i.e. stay sequential.
        crate::runtime::with_workers(1, || {
            assert_eq!(plan_shards(&tree, pts.len()).len(), 1);
        });
        // Too few queries per shard: likewise.
        crate::runtime::with_workers(8, || {
            assert_eq!(plan_shards(&tree, 100).len(), 1);
        });
    }

    #[test]
    fn auto_policy_selects_as_documented() {
        let pts = random_points(DUAL_MIN_QUERIES_MONO + 10, 11);
        let tree = KdTree::build(&pts);
        // Self-join at the mono threshold: dual.
        assert!(select_dual_tree(BatchStrategy::Auto, &pts, 5, &tree));
        // Same size but bichromatic: single (measured slower; see the
        // DUAL_MIN_QUERIES_MONO docs).
        let other = random_points(DUAL_MIN_QUERIES_MONO + 10, 12);
        assert!(!select_dual_tree(BatchStrategy::Auto, &other, 5, &tree));
        // Large k: single.
        assert!(!select_dual_tree(
            BatchStrategy::Auto,
            &pts,
            DUAL_MAX_K + 1,
            &tree
        ));
        // Small batch: single.
        assert!(!select_dual_tree(
            BatchStrategy::Auto,
            &pts[..100],
            5,
            &tree
        ));
        // Forcing wins over everything.
        assert!(select_dual_tree(
            BatchStrategy::DualTree,
            &pts[..2],
            5,
            &tree
        ));
        assert!(!select_dual_tree(BatchStrategy::SingleTree, &pts, 5, &tree));
    }

    #[test]
    fn auto_knn_batch_crosses_the_dual_threshold_transparently() {
        // A self-join big enough for Auto to pick the dual tree must still
        // be bit-identical to the per-query loop (this is the configuration
        // the SR interpolators hit every frame).
        let pts = random_points(DUAL_MIN_QUERIES_MONO + 500, 13);
        let tree = KdTree::build(&pts);
        let mut auto_rows = Neighborhoods::new();
        tree.knn_batch(&pts, 5, &mut auto_rows);
        let mut forced_single = Neighborhoods::new();
        let mut scratch = DualTreeScratch::new();
        tree.knn_batch_with(
            &pts,
            5,
            &mut forced_single,
            BatchStrategy::SingleTree,
            &mut scratch,
        );
        assert_eq!(auto_rows, forced_single);
    }

    /// Counting replica of [`Traversal::pair`]/[`Traversal::scan_pair`]
    /// (box tests, prunes, leaf scans, per-row skips, candidate volume,
    /// push traffic) — these numbers justify the auto-selection policy.
    /// It MUST be updated alongside any change to the real traversal; the
    /// parity property tests catch result drift, this probe only reports
    /// work counts.
    #[test]
    #[ignore = "manual instrumentation probe"]
    fn work_count_probe() {
        let pts = crate::synthetic::humanoid(100_000, 0.5, 3);
        for bichromatic in [false, true] {
            work_count_case(&pts, bichromatic);
        }
    }

    fn work_count_case(pts: &crate::PointCloud, bichromatic: bool) {
        let tree = KdTree::build(pts.positions());
        let jittered: Vec<Point3>;
        let (queries, qtree_owned): (&[Point3], Option<KdTree>) = if bichromatic {
            jittered = pts
                .positions()
                .iter()
                .map(|&p| p + Point3::new(0.013, -0.009, 0.011))
                .collect();
            let q = KdTree::build(&jittered);
            (&jittered, Some(q))
        } else {
            (pts.positions(), None)
        };
        let qtree = qtree_owned.as_ref().unwrap_or(&tree);
        let k = 5;
        let stride = k;
        let mut rows = vec![SENTINEL; queries.len() * stride];
        let mut bounds = vec![f32::INFINITY; qtree.node_count()];
        struct Probe<'a> {
            t: Traversal<'a>,
            pairs: u64,
            pruned: u64,
            scans: u64,
            rows_scanned: u64,
            rows_skipped: u64,
            cands: u64,
            offers: u64,
            accepts: u64,
        }
        struct CountingSink<'a> {
            inner: RowSink<'a>,
            offers: u64,
            accepts: u64,
        }
        impl ScanSink for CountingSink<'_> {
            fn worst_d2(&self) -> f32 {
                self.inner.worst_d2()
            }
            fn push(&mut self, index: usize, d2: f32, pos: Point3) {
                self.offers += 1;
                let len = self.inner.keys.len();
                if pack_key(index, d2) < self.inner.keys[len - 1] {
                    self.accepts += 1;
                }
                self.inner.push(index, d2, pos);
            }
        }
        impl Probe<'_> {
            fn pair(&mut self, qn: u32, rn: u32, d: f32) {
                self.pairs += 1;
                if d > self.t.bounds[qn as usize] {
                    self.pruned += 1;
                    return;
                }
                let qnode = self.t.qtree.node(qn);
                let rnode = self.t.rtree.node(rn);
                match (qnode.is_leaf(), rnode.is_leaf()) {
                    (true, true) => {
                        self.scans += 1;
                        let (qs, qe) = qnode.leaf_range();
                        let (rs, re) = rnode.leaf_range();
                        let rbox = self.t.rtree.node_aabb(rn);
                        let mut bound = 0.0f32;
                        for slot in qs..qe {
                            let q = self.t.qtree.soa().get(slot);
                            let filled = {
                                let row =
                                    &self.t.rows[slot * self.t.stride..(slot + 1) * self.t.stride];
                                f32::from_bits((row[row.len() - 1] >> 32) as u32).is_finite()
                            };
                            let cap = if filled {
                                f32::INFINITY
                            } else {
                                self.t.warm_cap(q)
                            };
                            let row =
                                &mut self.t.rows[slot * self.t.stride..(slot + 1) * self.t.stride];
                            let mut sink = CountingSink {
                                inner: RowSink { keys: row, cap },
                                offers: 0,
                                accepts: 0,
                            };
                            if rbox.distance_squared_to(q) <= sink.worst_d2() {
                                self.rows_scanned += 1;
                                self.cands += (re - rs) as u64;
                                kernels::scan_ids(
                                    self.t.rtree.soa(),
                                    self.t.rtree.order(),
                                    rs,
                                    re,
                                    q,
                                    &mut sink,
                                );
                            } else {
                                self.rows_skipped += 1;
                            }
                            self.offers += sink.offers;
                            self.accepts += sink.accepts;
                            bound = bound.max(sink.worst_d2());
                            self.t.prev_slot = slot;
                        }
                        self.t.bounds[qn as usize] = bound;
                    }
                    (true, false) => {
                        let ((near, dn), (far, df)) = self.t.order_children(qn, rnode.children());
                        self.pair(qn, near, dn);
                        self.pair(qn, far, df);
                    }
                    (false, true) => {
                        let (qa, qb) = qnode.children();
                        self.pair(qa, rn, self.t.child_dist(qa, rn));
                        self.pair(qb, rn, self.t.child_dist(qb, rn));
                        self.t.refresh_bound(qn, qa, qb);
                    }
                    (false, false) => {
                        let (qa, qb) = qnode.children();
                        if self.t.mono && qn == rn {
                            let (ra, rb) = rnode.children();
                            self.pair(qa, ra, 0.0);
                            self.pair(qb, rb, 0.0);
                            self.pair(qa, rb, self.t.child_dist(qa, rb));
                            self.pair(qb, ra, self.t.child_dist(qb, ra));
                        } else {
                            self.pair(qa, rn, self.t.child_dist(qa, rn));
                            self.pair(qb, rn, self.t.child_dist(qb, rn));
                        }
                        self.t.refresh_bound(qn, qa, qb);
                    }
                }
            }
        }
        let mut probe = Probe {
            t: Traversal {
                qtree,
                rtree: &tree,
                rows: &mut rows,
                bounds: &mut bounds,
                stride,
                mono: !bichromatic,
                slot_base: 0,
                prev_slot: usize::MAX,
            },
            pairs: 0,
            pruned: 0,
            scans: 0,
            rows_scanned: 0,
            rows_skipped: 0,
            cands: 0,
            offers: 0,
            accepts: 0,
        };
        probe.pair(qtree.root_id(), tree.root_id(), 0.0);
        let nq = queries.len() as f64;
        println!(
            "bichromatic {bichromatic}: pairs {} pruned {} leaf-scans {} | per query: rows_scanned {:.2} rows_skipped {:.2} cands {:.1} offers {:.2} accepts {:.2}",
            probe.pairs,
            probe.pruned,
            probe.scans,
            probe.rows_scanned as f64 / nq,
            probe.rows_skipped as f64 / nq,
            probe.cands as f64 / nq,
            probe.offers as f64 / nq,
            probe.accepts as f64 / nq,
        );
    }

    #[test]
    #[ignore = "manual timing probe"]
    fn self_join_timing_probe() {
        use std::time::Instant;
        for n in [10_000usize, 100_000] {
            let pts = crate::synthetic::humanoid(n, 0.5, 3);
            let queries = pts.positions();
            let tree = KdTree::build(queries);
            for k in [5usize, 9] {
                let mut scratch = DualTreeScratch::new();
                let mut out = Neighborhoods::with_capacity(queries.len(), queries.len() * k);
                for round in 0..3 {
                    let t = Instant::now();
                    out.clear();
                    tree.knn_batch_with(
                        queries,
                        k,
                        &mut out,
                        BatchStrategy::SingleTree,
                        &mut scratch,
                    );
                    let single = t.elapsed();
                    let t = Instant::now();
                    out.clear();
                    tree.knn_batch_with(
                        queries,
                        k,
                        &mut out,
                        BatchStrategy::DualTree,
                        &mut scratch,
                    );
                    let dual = t.elapsed();
                    println!(
                        "n {n} k {k} round {round}: single {single:?} dual {dual:?} ratio {:.2}",
                        single.as_secs_f64() / dual.as_secs_f64()
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "manual timing probe"]
    fn bichromatic_timing_probe() {
        use std::time::Instant;
        // Generated-midpoint-style queries: jittered copies of the cloud
        // (what the naive interpolator's new-point pass looks like).
        let pts = crate::synthetic::humanoid(100_000, 0.5, 3);
        let tree = KdTree::build(pts.positions());
        let queries: Vec<Point3> = pts
            .positions()
            .iter()
            .map(|&p| p + Point3::new(0.013, -0.009, 0.011))
            .collect();
        let k = 5;
        let mut scratch = DualTreeScratch::new();
        let mut out = Neighborhoods::with_capacity(queries.len(), queries.len() * k);
        for round in 0..3 {
            let t = Instant::now();
            let mut qtree = KdTree::default();
            qtree.build_in(&queries);
            let build = t.elapsed();
            std::hint::black_box(&qtree);
            let t = Instant::now();
            out.clear();
            tree.knn_batch_with(
                &queries,
                k,
                &mut out,
                BatchStrategy::SingleTree,
                &mut scratch,
            );
            let single = t.elapsed();
            let t = Instant::now();
            out.clear();
            tree.knn_batch_with(&queries, k, &mut out, BatchStrategy::DualTree, &mut scratch);
            let dual = t.elapsed();
            println!(
                "round {round}: single {single:?} dual(+qtree build) {dual:?} qtree_build alone {build:?} ratio {:.2}",
                single.as_secs_f64() / dual.as_secs_f64()
            );
        }
    }
}
