//! Dual-tree (leaf-pair) exact all-kNN over the k-d tree.
//!
//! The SR engine's frame time is dominated by kNN *self-joins*: every point
//! of the frame cloud queries the index built over that same cloud (§4.1 —
//! interpolation is ≥70% of upsampling time, and nearly all of it is these
//! queries). The single-tree batch sweep answers them one query at a time
//! and pays a root-to-leaf descent, a deferred-subtree stack and a fresh
//! accumulator for each (≈ 600 ns/query on a 50k-point frame, one thread).
//! This module removes that per-query bookkeeping *algorithmically*: a k-d
//! tree over the **queries** is traversed against the k-d tree over the
//! **reference points**, so traversal decisions are made once per *node
//! pair* instead of once per query (≈ 360 ns/query on the same frame, and
//! the traversal shards across workers):
//!
//! * every query leaf carries a shared pruning bound — the max over its
//!   queries' current k-th-best distances (and internal query nodes the max
//!   over their children), so one AABB–AABB distance test
//!   ([`crate::Aabb::distance_squared_to_aabb`]) rejects a whole
//!   (query-subtree, reference-subtree) pair before any point work;
//! * a surviving leaf pair is one call of `crate::kernels::join_leaf_pair`:
//!   the up-to-64 rows of the query leaf are tested against the reference
//!   leaf's tight box 16 at a time — each row's own bound sits in an `f32`
//!   array beside the row slab, and the test is
//!   [`crate::Aabb::distance_squared_to`]'s arithmetic term for term, the
//!   same arrival test the single-tree path applies — and only the rows that
//!   pass sweep the reference tile, through the same SoA scan kernel
//!   (scalar / AVX2 / AVX-512, resolved once per batch) as every other
//!   traversal;
//! * per-query results accumulate in a flat slab of packed
//!   `(distance-bits, index)` `u64` keys, kept sorted by the branch-free
//!   insert network `BestK`'s full list uses (`crate::knn::insert_sorted`),
//!   so survivors — and index-broken distance ties — are **bit-identical**
//!   to per-query [`KdTree::knn`] for any traversal order.
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
//! including all bichromatic batches, where the dual tree does not win
//! (see [`DUAL_MIN_QUERIES_MONO`] for the numbers).
//! [`KdTree::knn_batch_with`] accepts an explicit [`BatchStrategy`] to
//! force either algorithm, plus a persistent [`DualTreeScratch`] so
//! steady-state frames allocate nothing.
//!
//! # Sharding (query-leaf partition)
//!
//! A batch is cut along the **query tree**: under the `parallel` feature a
//! frontier of roughly `2 × workers` subtree roots covering the leaf-slot
//! space end to end (greedily splitting the widest shard) is planned per
//! batch — a single whole-tree shard when the pool has one executor or the
//! batch holds under a couple thousand queries per worker — and each shard
//! runs as one stealable task of the work-stealing pool
//! ([`crate::runtime`]). A shard does everything its rows need: it fills its
//! sub-slab of the row arena with sentinels, runs the ordinary pair
//! traversal — its query subtree against the whole reference tree — and
//! scatters its finished rows from leaf-slot order to the caller's query
//! order, so no serial pass over the rows runs before or after the tasks.
//! Shards are independent because all mutable state is per-shard: the row
//! and row-bound sub-slabs of its leaf slots and a private node-bound vector
//! drawn from a pool in [`DualTreeScratch`], so steady-state frames still
//! allocate nothing. Monochromatic shards schedule their diagonal (self)
//! pair first and the remaining reference subtrees nearest-first,
//! preserving the bound-seeding property within the shard. Because bounds
//! only *prune* pairs that provably cannot contribute and row contents are
//! decided by the packed key semantics alone, results are **bit-identical**
//! at every worker count (property-tested, including duplicate-heavy tie
//! cases).
//!
//! [`KdTree::knn`]: crate::knn::NeighborSearch::knn

use crate::kdtree::KdTree;
use crate::kernels::{self, JoinRows, RefLeaf, Tier, SENTINEL};
use crate::neighborhoods::Neighborhoods;
use crate::par::SendPtr;
use crate::point::Point3;

/// Which batch algorithm [`KdTree::knn_batch_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// Pick per batch: dual-tree for self-joins (see the module docs for the
    /// thresholds), single-tree otherwise.
    #[default]
    Auto,
    /// Always the single-tree (per-query, warm-started, Morton-ordered)
    /// sweep.
    SingleTree,
    /// Always the dual-tree leaf-pair traversal.
    DualTree,
}

/// The smallest self-join batch the auto policy sends to the dual tree: the
/// bottom of the range the crossover was measured over, because no crossover
/// turned up inside it. Humanoid clouds, self-join, medians of 20–2000
/// batches on the 2-vCPU reference host (AVX-512), single-tree time over
/// dual-tree time:
///
/// | points | k = 5 | k = 9 | k = 9, 2 workers |
/// |-------:|------:|------:|-----------------:|
/// |     16 |  1.18 |  1.14 |                — |
/// |     64 |  1.48 |  1.44 |                — |
/// |    128 |  1.73 |  1.56 |             1.69 |
/// |    512 |  1.96 |  1.75 |             1.76 |
/// |  1 024 |  1.72 |  1.53 |             1.51 |
/// |  4 096 |  1.71 |  1.55 |             2.03 |
/// |  8 192 |  1.71 |  1.55 |             2.65 |
///
/// (512 points at k = 9: 161 µs against 282 µs. The 2-worker column leaves
/// the sweep on one thread; chunked across both, as the engine runs it from
/// about 4 000 queries up, it roughly halves and still trails.) Clouds
/// smaller than the table's first row were not measured and stay on the
/// sweep.
///
/// Bichromatic batches are **never** auto-selected. Jittered copies of a
/// humanoid cloud as queries, one thread: at equal sizes (50k or 100k
/// queries over as many points) the dual tree, query-tree build included,
/// runs 0.95× (k = 9) to 1.02× (k = 5) the sweep's speed — without the
/// diagonal self-pair, query leaves fill their first rows from whichever
/// offset reference leaf happens to be box-nearest, so the pruning bounds
/// start loose — and on the engine's own bichromatic shape, a sparse tenth
/// of the cloud recomputed on a delta frame (5k queries over 50k points), it
/// runs 0.55–0.59×. Auto keeps bichromatic batches on the single tree;
/// [`BatchStrategy::DualTree`] still forces the leaf-pair path for either
/// shape.
pub const DUAL_MIN_QUERIES_MONO: usize = 16;

/// Largest `k` the auto policy sends to the dual tree (the row insert is an
/// `O(k)` fixed-trip network per offered candidate, same as `BestK`, but
/// large-`k` rows blow past the slab's cache-friendly regime).
pub const DUAL_MAX_K: usize = 32;

/// Fewest queries a parallel shard is worth: below this per shard, the
/// leaf-pair traversal is too short to repay task scheduling and the
/// per-shard warm-up of pruning bounds, so the batch stays sequential.
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
const DUAL_MIN_QUERIES_PER_SHARD: usize = 2048;

/// Reusable state of the dual-tree all-kNN: the query-side tree (built only
/// for bichromatic joins, storage reused via [`KdTree::build_in`]), the flat
/// per-query result rows and the pruning bounds. Owned by the caller and
/// tied to no particular tree: nothing in it outlives a batch, so the SR
/// engine keeps one per worker (on its frame arena), not one per session,
/// and repeated frames perform **zero** allocations here at steady state.
#[derive(Debug, Default)]
pub struct DualTreeScratch {
    /// Query-side tree for bichromatic joins (self-joins reuse the
    /// reference tree and leave this untouched).
    qtree: KdTree,
    /// `stride` packed `(d2-bits, index)` keys per query, ascending, laid
    /// out in query-tree *leaf-slot* order so a leaf-pair scan touches one
    /// small contiguous run of rows (see [`JoinRows`]); each shard scatters
    /// its rows back to caller order when its traversal ends.
    rows: Vec<u64>,
    /// Per-slot pruning bound beside the row slab (see
    /// [`JoinRows::bounds`]).
    row_bounds: Vec<f32>,
    /// Per-shard node-indexed pruning bounds (max k-th-best distance over a
    /// query node's rows). Every shard owns a full vector so shards never
    /// alias; a shard only ever reads/writes bounds of query nodes inside
    /// its own subtree. Pooled here so steady-state batches allocate
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
    /// the bounds **and** the query-side tree — observable by tests
    /// asserting steady-state reuse (repeated same-shape batches must not
    /// grow it).
    pub fn reserved_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
            + self.row_bounds.capacity() * std::mem::size_of::<f32>()
            + self
                .shard_bounds
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
            + self.qtree.reserved_bytes()
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
                && queries.len() >= DUAL_MIN_QUERIES_MONO
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
///
/// The batch is cut into shards of the query tree (one, when the pool has a
/// single executor or the batch is small) and everything per-row happens
/// inside the shard tasks — sentinel fill, traversal, and the scatter from
/// leaf-slot order back to the caller's query order — so no serial pass
/// over the rows brackets the parallel part.
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
    let DualTreeScratch {
        qtree,
        rows,
        row_bounds,
        shard_bounds,
        ..
    } = scratch;
    let qtree: &KdTree = if mono {
        rtree
    } else {
        qtree.build_in(queries);
        qtree
    };
    let shards = plan_shards(qtree, queries.len());
    // Sized here, initialized by the shards (each fills its own share).
    rows.resize(queries.len() * stride, SENTINEL);
    row_bounds.resize(queries.len(), f32::INFINITY);
    if shard_bounds.len() < shards.len() {
        shard_bounds.resize_with(shards.len(), Vec::new);
    }
    // Every row ends full (nothing prunes against a sentinel's infinite
    // bound) and sorted by (distance, index), and exact kNN rows are
    // stride-uniform, so each row's final location is known up front.
    let slab = out.push_uniform_rows(queries.len(), stride);
    // One ISA resolution per batch; the shards inherit it.
    let tier = Tier::detect();
    let keys_ptr = SendPtr::new(rows.as_mut_ptr());
    let row_bounds_ptr = SendPtr::new(row_bounds.as_mut_ptr());
    let node_bounds_ptr = SendPtr::new(shard_bounds.as_mut_ptr());
    let slab_ptr = SendPtr::new(slab.as_mut_ptr());
    let run_shard = |i: usize| {
        let shard = shards[i];
        let len = shard.hi - shard.lo;
        // SAFETY: shard `i` is visited by exactly one task. The shards
        // partition the leaf-slot space, so the key and bound sub-slabs of
        // `lo..hi` and the pooled node-bounds vector `i` are exclusively
        // this task's; all four buffers outlive the blocking dispatch below.
        let (keys, bounds, node_bounds) = unsafe {
            (
                std::slice::from_raw_parts_mut(keys_ptr.get().add(shard.lo * stride), len * stride),
                std::slice::from_raw_parts_mut(row_bounds_ptr.get().add(shard.lo), len),
                &mut *node_bounds_ptr.get().add(i),
            )
        };
        keys.fill(SENTINEL);
        bounds.fill(f32::INFINITY);
        node_bounds.clear();
        node_bounds.resize(qtree.node_count(), f32::INFINITY);
        let mut t = Traversal {
            qtree,
            rtree,
            rows: JoinRows {
                keys,
                bounds,
                stride,
                base: shard.lo,
                prev: usize::MAX,
            },
            node_bounds,
            mono,
            tier,
        };
        if mono && shards.len() > 1 {
            // Diagonal first — the shard's queries meet their own points,
            // seeding tight pruning bounds (the very property that makes
            // self-joins the dual tree's winning case) — then the other
            // shards' subtrees as reference sides, nearest box first.
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
        // Rows live in leaf-slot order; the query tree's permutation maps
        // each back to the caller's query index. The low 32 bits of a packed
        // key are the neighbor index.
        for (slot, &qi) in qtree.order()[shard.lo..shard.hi].iter().enumerate() {
            let src = &t.rows.keys[slot * stride..(slot + 1) * stride];
            // SAFETY: `order` is a permutation of the query indices, so row
            // `qi` of the output slab is written by this iteration alone.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(slab_ptr.get().add(qi as usize * stride), stride)
            };
            for (d, &key) in dst.iter_mut().zip(src) {
                debug_assert_ne!(key, SENTINEL, "dual-tree rows end full");
                *d = key as u32;
            }
        }
    };
    #[cfg(feature = "parallel")]
    crate::runtime::run_range(shards.len(), 1, |r| r.for_each(&run_shard));
    #[cfg(not(feature = "parallel"))]
    (0..shards.len()).for_each(run_shard);
}

/// One shard of the query side: a query-tree node whose subtree covers the
/// contiguous leaf-slot range `lo..hi`. The shard set partitions the whole
/// leaf-slot space, so shards own disjoint row sub-slabs and can traverse
/// concurrently.
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

/// Decides the decomposition of a batch: a frontier of query-tree nodes
/// partitioning the leaf-slot space, sized to about twice the current
/// pool's worker count (slack for stealing to balance uneven shards).
/// Returns a single whole-tree shard when the pool has one executor or the
/// batch is too small to repay sharding.
fn plan_shards(qtree: &KdTree, queries: usize) -> Vec<Shard> {
    let whole = || {
        vec![Shard {
            root: qtree.root_id(),
            lo: 0,
            hi: queries,
        }]
    };
    #[cfg(not(feature = "parallel"))]
    {
        whole()
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

/// The recursive (query-node, reference-node) pair walk of one shard. Each
/// pair is visited at most once (the decomposition of a pair is a function
/// of the pair, so the call graph is a tree), descends the reference side
/// nearest-child-first so bounds tighten before far pairs are tested, and —
/// in the monochromatic case — descends diagonal pairs first so every query
/// leaf scans its own tile (which contains the queries themselves) before
/// anything else.
///
/// Shards are independent because everything mutable here is the shard's
/// own, and their results are bit-identical to a whole-tree traversal
/// because bounds only prune provably irrelevant work and row contents are
/// decided by packed `(distance, index)` keys alone (see the module docs).
struct Traversal<'a> {
    qtree: &'a KdTree,
    rtree: &'a KdTree,
    /// The shard's result rows and per-row bounds.
    rows: JoinRows<'a>,
    /// Per-query-node pruning bound, indexed by query-tree node id.
    node_bounds: &'a mut [f32],
    mono: bool,
    tier: Tier,
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
        if d > self.node_bounds[qn as usize] {
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
        self.node_bounds[qn as usize] =
            self.node_bounds[qa as usize].max(self.node_bounds[qb as usize]);
    }

    /// Leaf-pair base case: hands query leaf `qn` and reference leaf `rn`
    /// to [`kernels::join_leaf_pair`] — the leaf's rows are tested against
    /// `rn`'s tight box a block at a time (the same test the single-tree
    /// path applies on leaf arrival) and the survivors sweep its SoA tile —
    /// and records the query leaf's new shared bound.
    ///
    /// Rows that have not yet filled (their first scan — for the interior
    /// of the traversal that is the leaf's first surviving pair, which in
    /// the monochromatic case is the diagonal self-pair) are warm-started
    /// there exactly like [`BestK::begin_warm`]. Leaf slots are
    /// Morton-sorted at build time, making consecutive rows spatial
    /// neighbors and the cap tight from the first block of the very first
    /// tile scan; results are unaffected (candidates are only skipped when
    /// strictly beyond the bound, ties still pass).
    ///
    /// [`BestK::begin_warm`]: crate::knn::BestK::begin_warm
    fn scan_pair(&mut self, qn: u32, rn: u32) {
        let (qs, qe) = self.qtree.node(qn).leaf_range();
        let (rs, re) = self.rtree.node(rn).leaf_range();
        if rs == re {
            // A leaf a patch emptied: nothing to offer.
            return;
        }
        let rsoa = self.rtree.soa();
        // The reference tile is about to be streamed up to `qe - qs` times;
        // pull its lanes in behind the first row's scan.
        kernels::prefetch_read(&rsoa.xs()[rs]);
        kernels::prefetch_read(&rsoa.ys()[rs]);
        kernels::prefetch_read(&rsoa.zs()[rs]);
        let leaf = RefLeaf {
            soa: rsoa,
            ids: self.rtree.order(),
            points: self.rtree.points(),
            start: rs,
            end: re,
            aabb: self.rtree.node_aabb(rn),
        };
        self.node_bounds[qn as usize] =
            kernels::join_leaf_pair(self.tier, &mut self.rows, self.qtree.soa(), qs, qe, &leaf);
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
                        scratch.shard_bounds.len() > 1,
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
        let pts = random_points(600, 11);
        let tree = KdTree::build(&pts);
        // A self-join, fleet-tenant sized: dual.
        assert!(select_dual_tree(BatchStrategy::Auto, &pts, 5, &tree));
        // Same size but bichromatic: single (measured slower; see the
        // DUAL_MIN_QUERIES_MONO docs) — and a prefix of the cloud is
        // bichromatic too.
        let other = random_points(600, 12);
        assert!(!select_dual_tree(BatchStrategy::Auto, &other, 5, &tree));
        assert!(!select_dual_tree(
            BatchStrategy::Auto,
            &pts[..100],
            5,
            &tree
        ));
        // Large k: single.
        assert!(!select_dual_tree(
            BatchStrategy::Auto,
            &pts,
            DUAL_MAX_K + 1,
            &tree
        ));
        // A self-join below the measured range: single.
        let tiny = &pts[..DUAL_MIN_QUERIES_MONO - 1];
        assert!(!select_dual_tree(
            BatchStrategy::Auto,
            tiny,
            5,
            &KdTree::build(tiny)
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
    fn auto_knn_batch_selects_the_dual_tree_transparently() {
        // A self-join Auto sends to the dual tree must still be
        // bit-identical to the per-query loop (this is the configuration
        // the SR interpolators hit every cold frame).
        let pts = random_points(4_600, 13);
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

    /// Every kernel tier this host can execute — scalar, AVX2, AVX-512 —
    /// must emit the scalar tier's rows, for both join shapes, across
    /// strides on both sides of a 16-row pre-filter block and a 16-lane
    /// scan block, on a cloud with a duplicate cluster and (after a patch)
    /// emptied leaves, at one worker and sharded.
    #[test]
    fn every_kernel_tier_matches_the_scalar_tier() {
        use crate::kernels::tier_override::{available, with_tier};
        let mut pts = random_points(5_000, 30);
        pts.extend(vec![Point3::ONE; 40]);
        let mut tree = KdTree::build(&pts);
        // Empty a spatial corner so the self-join meets emptied leaves.
        let removed: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| pts[i as usize].x > 6.0 && pts[i as usize].y > 0.0)
            .collect();
        let survivors = pts.len() - removed.len();
        let delta = crate::FrameDelta::from_parts(pts.len(), survivors, removed, Vec::new())
            .expect("valid delta");
        let pts: Vec<Point3> = (0..pts.len())
            .filter(|&i| delta.map_old(i).is_some())
            .map(|i| pts[i])
            .collect();
        tree.patch(&delta, &pts);
        let queries = random_points(900, 31);
        let join = |workers: usize, k: usize| {
            crate::runtime::with_workers(workers, || {
                let mut scratch = DualTreeScratch::new();
                let (mut mono, mut bi) = (Neighborhoods::new(), Neighborhoods::new());
                tree.knn_batch_with(&pts, k, &mut mono, BatchStrategy::DualTree, &mut scratch);
                tree.knn_batch_with(&queries, k, &mut bi, BatchStrategy::DualTree, &mut scratch);
                (mono, bi)
            })
        };
        let tiers = available();
        for k in [1usize, 7, 9, 16, 17, 33] {
            let scalar = with_tier(tiers[0], || join(1, k));
            for (i, &q) in queries.iter().enumerate().step_by(37) {
                let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(
                    scalar.1.row(i),
                    expected.as_slice(),
                    "scalar tier k {k} query {i}"
                );
            }
            for &tier in &tiers {
                for workers in [1usize, 2] {
                    let got = with_tier(tier, || join(workers, k));
                    assert_eq!(got, scalar, "{tier:?} k {k} workers {workers}");
                }
            }
        }
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
