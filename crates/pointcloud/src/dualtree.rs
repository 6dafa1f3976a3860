//! Dual-tree (leaf-pair) exact all-kNN self-join over the k-d tree.
//!
//! The SR engine's frame time is dominated by kNN *self-joins*: every point
//! of the frame cloud queries the index built over that same cloud (§4.1 —
//! interpolation is ≥70% of upsampling time, and nearly all of it is these
//! queries). The single-tree batch sweep answers them one query at a time
//! and pays a root-to-leaf descent, a deferred-subtree stack and a fresh
//! accumulator for each (≈ 600 ns/query on a 50k-point frame, one thread).
//! This module removes that per-query bookkeeping *algorithmically*: the
//! queries are the indexed points, so the tree is its own query tree and is
//! traversed **against itself**, making traversal decisions once per *node
//! pair* instead of once per query (≈ 360 ns/query on the same frame, and
//! the traversal shards across workers):
//!
//! * every query leaf carries a shared pruning bound — the max over its
//!   queries' current k-th-best distances (and internal query nodes the max
//!   over their children), so one AABB–AABB distance test
//!   ([`crate::Aabb::distance_squared_to_aabb`]) rejects a whole
//!   (query-subtree, reference-subtree) pair before any point work;
//! * diagonal (self) pairs are visited first, so every query's home leaf —
//!   which contains the query itself and its nearest neighbors — seeds a
//!   tight bound before any off-diagonal pair is scanned;
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
//! # Which batches come here
//!
//! [`KdTree::knn_batch_with`] decides once per batch: a **self-join** (the
//! query slice equals the indexed cloud) of at least
//! [`DUAL_MIN_QUERIES_MONO`] points with `k ≤` [`DUAL_MAX_K`] runs here;
//! every other batch runs the single-tree sweep. There is no way to force
//! either: the join is self-join-only by construction, and a join over a
//! separate query tree was measured and removed (see
//! [`DUAL_MIN_QUERIES_MONO`] for the numbers).
//!
//! # Sharding (query-leaf partition)
//!
//! A batch is cut along the query side of the tree: a frontier of roughly
//! `2 × workers` subtree roots covering the leaf-slot space end to end
//! (greedily splitting the widest shard) is planned per batch — a single
//! whole-tree shard when the pool has one executor or the batch is small
//! (see `DUAL_MIN_QUERIES_PER_SHARD` for the exact rule) — and each shard
//! runs as one chunk of [`crate::runtime::for_each_chunk_mut`].
//! The frontier is sorted by leaf slot, so the row and row-bound arenas split
//! front to back into one `&mut` sub-slice per shard, and each shard also
//! takes one pooled node-bound vector from [`DualTreeScratch`]: all mutable
//! state is per-shard, so the shards are independent by construction and the
//! buffers are reused across batches. A shard fills its rows with sentinels
//! and runs the ordinary pair traversal — its query subtree against the
//! whole tree — scheduling its diagonal (self) pair first and the other
//! shards' subtrees nearest-first, preserving the bound-seeding property
//! within the shard. Once every shard is done, the rows are gathered from
//! leaf-slot order back to the caller's point order, again one chunk per
//! shard, through the inverse of the tree's slot permutation (built once per
//! batch). Because bounds only *prune* pairs that provably cannot contribute
//! and row contents are decided by the packed key semantics alone, results
//! are **bit-identical** at every worker count (property-tested, including
//! duplicate-heavy tie cases).
//!
//! [`KdTree::knn`]: crate::knn::NeighborSearch::knn

use crate::kdtree::{KdTree, SweepScratch};
use crate::kernels::{self, JoinRows, RefLeaf, Tier, SENTINEL};
use crate::neighborhoods::Neighborhoods;
use crate::runtime;
use std::sync::{Mutex, PoisonError};

/// The smallest self-join batch the batch policy sends to the dual tree: the
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
/// Only self-joins come here. A *bichromatic* join — a second k-d tree built
/// over an arbitrary query set and walked against this one — existed until
/// PR 21 and never won. Jittered copies of a humanoid cloud as queries, one
/// thread: at equal sizes (50k or 100k queries over as many points) it ran,
/// query-tree build included, 0.95× (k = 9) to 1.02× (k = 5) the sweep's
/// speed — without the diagonal self-pair, query leaves fill their first
/// rows from whichever offset reference leaf happens to be box-nearest, so
/// the pruning bounds start loose — and on the engine's own bichromatic
/// shape, a sparse tenth of the cloud recomputed on a delta frame (5k
/// queries over 50k points), 0.55–0.59×. Those batches run the single-tree
/// sweep.
pub const DUAL_MIN_QUERIES_MONO: usize = 16;

/// Largest `k` the batch policy sends to the dual tree (the row insert is an
/// `O(k)` fixed-trip network per offered candidate, same as `BestK`, but
/// large-`k` rows blow past the slab's cache-friendly regime).
pub const DUAL_MAX_K: usize = 32;

/// Queries per worker at which a self-join starts to shard. The batch is cut
/// for `w = runtime::workers_for(q, 2048) = min(W, q / 2048 + 1)` workers on
/// a `W`-worker pool and planned as about `2 w` shards (slack to balance),
/// so a one-worker pool or a batch under 2048 queries keeps one whole-tree
/// shard. It is where cutting starts, not a floor on shard size: on two
/// workers a 2048-query batch is planned as four shards of about 512
/// queries, and a 4096-query batch (every `fleet_256_lossy` tenant) as four
/// of about 1024.
const DUAL_MIN_QUERIES_PER_SHARD: usize = 2048;

/// Reusable state of a kNN batch: the dual-tree self-join's flat per-query
/// result rows and pruning bounds, and the single-tree sweep's per-run
/// buffers. Owned by the caller and tied to no particular tree: nothing in
/// it outlives a batch, so the SR engine keeps one per worker (on its frame
/// arena), not one per session, and repeated frames perform **zero**
/// allocations here at steady state.
#[derive(Debug, Default)]
pub struct DualTreeScratch {
    /// `stride` packed `(d2-bits, index)` keys per query, ascending, laid
    /// out in the tree's *leaf-slot* order so a leaf-pair scan touches one
    /// small contiguous run of rows (see [`JoinRows`]); gathered back to
    /// caller order once every shard is done.
    rows: Vec<u64>,
    /// Leaf slot of each point: the inverse of the tree's slot permutation,
    /// which the gather reads.
    slot_of_point: Vec<u32>,
    /// Per-slot pruning bound beside the row slab (see
    /// [`JoinRows::bounds`]).
    row_bounds: Vec<f32>,
    /// Per-shard node-indexed pruning bounds (max k-th-best distance over a
    /// query node's rows). Every shard owns a full vector so shards never
    /// alias; a shard only ever reads/writes bounds of query nodes inside
    /// its own subtree. Pooled here so steady-state batches allocate
    /// nothing.
    shard_bounds: Vec<Vec<f32>>,
    /// The single-tree sweep's buffers, one per run (see `KdTree::sweep`).
    /// A run locks only its own, so the lock is never contended.
    pub(crate) sweep_runs: Vec<Mutex<SweepScratch>>,
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
    /// the bounds and the sweep's runs — observable by tests asserting
    /// steady-state reuse (repeated same-shape batches must not grow it).
    pub fn reserved_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
            + self.slot_of_point.capacity() * std::mem::size_of::<u32>()
            + self.row_bounds.capacity() * std::mem::size_of::<f32>()
            + self
                .shard_bounds
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
            + self
                .sweep_runs
                .iter()
                .map(|run| {
                    run.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .reserved_bytes()
                })
                .sum::<usize>()
    }
}

/// Runs the dual-tree self-join: appends one `stride`-wide row per indexed
/// point to `out`, in point order, bit-identical to the per-query path. The
/// caller ([`KdTree::knn_batch_with`]) has already handled `k == 0` and an
/// empty cloud; `stride = k.min(tree len)`.
///
/// The batch is cut into shards of the tree's query side (one, when the pool
/// has a single executor or the batch is small); each shard task fills and
/// traverses its own rows, and a second chunked pass gathers the rows from
/// leaf-slot order back to point order.
pub(crate) fn self_join(
    tree: &KdTree,
    stride: usize,
    out: &mut Neighborhoods,
    scratch: &mut DualTreeScratch,
) {
    let n = tree.points().len();
    debug_assert!(stride > 0 && stride <= n);
    scratch.invocations += 1;
    let DualTreeScratch {
        rows,
        slot_of_point,
        row_bounds,
        shard_bounds,
        ..
    } = scratch;
    let shards = plan_shards(tree, n);
    // Sized here, initialized by the shards (each fills its own share).
    rows.resize(n * stride, SENTINEL);
    row_bounds.resize(n, f32::INFINITY);
    if shard_bounds.len() < shards.len() {
        shard_bounds.resize_with(shards.len(), Vec::new);
    }
    // The shards tile the leaf-slot space in slot order, so cutting both
    // row arenas front to back hands each shard exactly its own rows.
    let (mut keys_rest, mut bounds_rest) = (rows.as_mut_slice(), row_bounds.as_mut_slice());
    let mut work: Vec<_> = shards
        .iter()
        .zip(shard_bounds.iter_mut())
        .map(|(shard, node_bounds)| {
            let len = shard.hi - shard.lo;
            let (keys, rest) = std::mem::take(&mut keys_rest).split_at_mut(len * stride);
            keys_rest = rest;
            let (bounds, rest) = std::mem::take(&mut bounds_rest).split_at_mut(len);
            bounds_rest = rest;
            (keys, bounds, node_bounds)
        })
        .collect();
    // One ISA resolution per batch; the shards inherit it.
    let tier = Tier::detect();
    runtime::for_each_chunk_mut(&mut work, 1, |i, _, job| {
        let shard = shards[i];
        let (keys, bounds, node_bounds) = &mut job[0];
        keys.fill(SENTINEL);
        bounds.fill(f32::INFINITY);
        node_bounds.clear();
        node_bounds.resize(tree.node_count(), f32::INFINITY);
        let mut t = Traversal {
            tree,
            rows: JoinRows {
                keys,
                bounds,
                stride,
                base: shard.lo,
                prev: usize::MAX,
            },
            node_bounds,
            tier,
        };
        // Diagonal first — the shard's queries meet their own points,
        // seeding tight pruning bounds (the very property that makes
        // self-joins the dual tree's winning case) — then the other shards'
        // subtrees (none, for a whole-tree shard) as reference sides,
        // nearest box first.
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
    });
    // Rows live in leaf-slot order; gather each point's row from its slot,
    // one chunk of points per shard. Every row ends full (nothing prunes
    // against a sentinel's infinite bound) and exact kNN rows are
    // stride-uniform, so the output block is sized up front. The low 32 bits
    // of a packed key are the neighbor index.
    slot_of_point.resize(n, 0);
    for (slot, &qi) in tree.order().iter().enumerate() {
        slot_of_point[qi as usize] = slot as u32;
    }
    let (rows, slot_of_point) = (&*rows, &*slot_of_point);
    let slab = out.push_rows(n, stride);
    let chunk_rows = n.div_ceil(shards.len());
    runtime::for_each_chunk_mut(slab, chunk_rows * stride, |c, _, chunk| {
        let first = c * chunk_rows;
        for (dst, &slot) in chunk.chunks_exact_mut(stride).zip(&slot_of_point[first..]) {
            let slot = slot as usize;
            for (d, &key) in dst
                .iter_mut()
                .zip(&rows[slot * stride..(slot + 1) * stride])
            {
                debug_assert_ne!(key, SENTINEL, "dual-tree rows end full");
                *d = key as u32;
            }
        }
    });
}

/// One shard of the query side: a tree node whose subtree covers the
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

/// Decides the decomposition of a batch: a frontier of tree nodes
/// partitioning the leaf-slot space, sized to about twice the current
/// pool's worker count (slack for the chunk cursor to balance uneven
/// shards).
/// Returns a single whole-tree shard when the pool has one executor or the
/// batch is too small to repay sharding.
fn plan_shards(tree: &KdTree, queries: usize) -> Vec<Shard> {
    let mut frontier = vec![Shard {
        root: tree.root_id(),
        lo: 0,
        hi: queries,
    }];
    let workers = runtime::workers_for(queries, DUAL_MIN_QUERIES_PER_SHARD);
    if workers <= 1 {
        return frontier;
    }
    let target = workers * 2;
    while frontier.len() < target {
        // Split the widest shard; stop when only leaves remain.
        let Some(widest) = frontier
            .iter()
            .position(|s| !tree.node(s.root).is_leaf())
            .map(|first| {
                frontier
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !tree.node(s.root).is_leaf())
                    .max_by_key(|(_, s)| s.hi - s.lo)
                    .map_or(first, |(i, _)| i)
            })
        else {
            break;
        };
        let shard = frontier.swap_remove(widest);
        let (a, b) = tree.node(shard.root).children();
        let (alo, ahi) = subtree_span(tree, a);
        let (blo, bhi) = subtree_span(tree, b);
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

/// The recursive (query-node, reference-node) pair walk of one shard. Each
/// pair is visited at most once (the decomposition of a pair is a function
/// of the pair, so the call graph is a tree), descends the reference side
/// nearest-child-first so bounds tighten before far pairs are tested, and
/// descends diagonal pairs first so every query leaf scans its own tile
/// (which contains the queries themselves) before anything else.
///
/// Shards are independent because everything mutable here is the shard's
/// own, and their results are bit-identical to a whole-tree traversal
/// because bounds only prune provably irrelevant work and row contents are
/// decided by packed `(distance, index)` keys alone (see the module docs).
struct Traversal<'a> {
    /// Both sides of every pair: the query node and the reference node are
    /// nodes of this one tree.
    tree: &'a KdTree,
    /// The shard's result rows and per-row bounds.
    rows: JoinRows<'a>,
    /// Per-query-node pruning bound, indexed by node id.
    node_bounds: &'a mut [f32],
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
        let qnode = self.tree.node(qn);
        let rnode = self.tree.node(rn);
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
                if qn == rn {
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
        self.tree
            .node_aabb(qn)
            .distance_squared_to_aabb(&self.tree.node_aabb(rn))
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
    /// Rows that have not yet filled (their first scan — the leaf's first
    /// surviving pair, which is its diagonal self-pair) are warm-started
    /// there exactly like [`BestK::begin_warm`]. Leaf slots are in Morton
    /// order — the build sorts the whole cloud by code before it cuts, and
    /// a patch re-sorts each dirty leaf by code over its own box — making
    /// consecutive rows spatial neighbors and the cap tight from the first
    /// block of the very first tile scan; results are unaffected
    /// (candidates are only skipped when strictly beyond the bound, ties
    /// still pass).
    ///
    /// [`BestK::begin_warm`]: crate::knn::BestK::begin_warm
    fn scan_pair(&mut self, qn: u32, rn: u32) {
        let (qs, qe) = self.tree.node(qn).leaf_range();
        let (rs, re) = self.tree.node(rn).leaf_range();
        if rs == re {
            // A leaf a patch emptied: nothing to offer.
            return;
        }
        let soa = self.tree.soa();
        // The reference tile is about to be streamed up to `qe - qs` times;
        // pull its lanes in behind the first row's scan.
        kernels::prefetch_read(&soa.xs()[rs]);
        kernels::prefetch_read(&soa.ys()[rs]);
        kernels::prefetch_read(&soa.zs()[rs]);
        let leaf = RefLeaf {
            soa,
            ids: self.tree.order(),
            points: self.tree.points(),
            start: rs,
            end: re,
            aabb: self.tree.node_aabb(rn),
        };
        self.node_bounds[qn as usize] =
            kernels::join_leaf_pair(self.tier, &mut self.rows, soa, qs, qe, &leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::NeighborSearch;
    use crate::point::Point3;
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

    /// The join, called directly (the facade only routes a batch here when
    /// the policy says so): rows of the self-join of `tree` at `k`.
    fn join_rows(tree: &KdTree, k: usize, scratch: &mut DualTreeScratch) -> Neighborhoods {
        let mut out = Neighborhoods::new();
        self_join(tree, k.min(tree.points().len()), &mut out, scratch);
        out
    }

    /// The crate-private join and the crate-private sweep, each called
    /// directly on the self-join of `points`, must both equal the per-query
    /// oracle rows exactly — whatever the policy would have picked.
    fn assert_join_and_sweep_match_per_query(points: &[Point3], k: usize) {
        let tree = KdTree::build(points);
        let joined = join_rows(&tree, k, &mut DualTreeScratch::new());
        let mut swept = Neighborhoods::new();
        tree.sweep(points, k, &mut swept, &mut Vec::new());
        assert_eq!(joined.len(), points.len());
        assert_eq!(swept.len(), points.len());
        for (i, &q) in points.iter().enumerate() {
            let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
            assert_eq!(joined.row(i), expected.as_slice(), "join k {k} query {i}");
            assert_eq!(swept.row(i), expected.as_slice(), "sweep k {k} query {i}");
        }
    }

    #[test]
    fn join_and_sweep_match_per_query() {
        let pts = random_points(700, 1);
        for k in [1usize, 4, 9, 32] {
            assert_join_and_sweep_match_per_query(&pts, k);
        }
    }

    /// Both algorithms on both sides of each policy threshold: clouds of
    /// 1..=15 points (below `DUAL_MIN_QUERIES_MONO`, where the facade
    /// sweeps) and just above, and `k` 33..=40 (above `DUAL_MAX_K`).
    #[test]
    fn join_and_sweep_match_per_query_across_the_policy_thresholds() {
        for n in (1..=DUAL_MIN_QUERIES_MONO + 1).chain([63, 64, 65, 130]) {
            let pts = random_points(n, 40 + n as u64);
            for k in [1usize, 5, DUAL_MAX_K, 1000] {
                assert_join_and_sweep_match_per_query(&pts, k);
            }
        }
        let pts = random_points(300, 2);
        for k in DUAL_MAX_K - 1..=DUAL_MAX_K + 8 {
            assert_join_and_sweep_match_per_query(&pts, k);
        }
    }

    #[test]
    fn duplicate_points_break_ties_by_index() {
        let mut pts = vec![Point3::ONE; 30];
        pts.extend(random_points(200, 4));
        pts.extend(vec![Point3::ONE; 30]);
        assert_join_and_sweep_match_per_query(&pts, 8);
        // Every copy of the duplicated point gets the lowest indices.
        let rows = join_rows(&KdTree::build(&pts), 6, &mut DualTreeScratch::new());
        assert_eq!(rows.row(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(rows.row(pts.len() - 1), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn degenerate_clouds_match_per_query() {
        // Identical points, collinear points, planar grid, two points.
        let identical = vec![Point3::splat(2.5); 150];
        assert_join_and_sweep_match_per_query(&identical, 7);
        let collinear: Vec<Point3> = (0..200)
            .map(|i| Point3::new((i / 3) as f32, 0.0, 0.0))
            .collect();
        assert_join_and_sweep_match_per_query(&collinear, 5);
        let planar: Vec<Point3> = (0..240)
            .map(|i| Point3::new((i % 16) as f32, (i / 16) as f32, 0.0))
            .collect();
        assert_join_and_sweep_match_per_query(&planar, 9);
        assert_join_and_sweep_match_per_query(&[Point3::ZERO, Point3::ONE], 2);
    }

    /// The policy as documented, and the facade acting on it: the scratch's
    /// invocation count advances exactly when `auto_selects_dual_tree` says
    /// the join runs, and rows match the per-query oracle either way.
    #[test]
    fn facade_runs_the_join_iff_the_policy_selects_it() {
        let pts = random_points(600, 11);
        let tree = KdTree::build(&pts);
        let other = random_points(600, 12);
        let tiny = &pts[..DUAL_MIN_QUERIES_MONO - 1];
        let tiny_tree = KdTree::build(tiny);
        let cases: [(&KdTree, &[Point3], usize, bool); 7] = [
            // A self-join, fleet-tenant sized: join.
            (&tree, &pts, 5, true),
            (&tree, &pts, DUAL_MAX_K, true),
            // Same size but another point set, and a prefix of the cloud:
            // sweep (measured slower on a join; see DUAL_MIN_QUERIES_MONO).
            (&tree, &other, 5, false),
            (&tree, &pts[..100], 5, false),
            // Large k: sweep.
            (&tree, &pts, DUAL_MAX_K + 1, false),
            // A self-join below the measured range: sweep.
            (&tiny_tree, tiny, 5, false),
            // Nothing to answer.
            (&tree, &[], 5, false),
        ];
        let mut scratch = DualTreeScratch::new();
        for (case, &(tree, queries, k, joins)) in cases.iter().enumerate() {
            assert_eq!(
                tree.auto_selects_dual_tree(queries, k),
                joins,
                "case {case}"
            );
            let before = scratch.invocations();
            let mut out = Neighborhoods::new();
            tree.knn_batch_with(queries, k, &mut out, &mut scratch);
            assert_eq!(
                scratch.invocations() - before,
                u64::from(joins),
                "case {case}"
            );
            assert_eq!(out.len(), queries.len(), "case {case}");
            for (i, &q) in queries.iter().enumerate().step_by(7) {
                let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(out.row(i), expected.as_slice(), "case {case} query {i}");
            }
        }
    }

    #[test]
    fn empty_inputs_produce_empty_rows() {
        let mut scratch = DualTreeScratch::new();
        let mut out = Neighborhoods::new();
        // An empty index, then k == 0 on a self-join: one empty row per
        // query; an empty query slice appends nothing.
        KdTree::build(&[]).knn_batch_with(&[Point3::ZERO, Point3::ONE], 3, &mut out, &mut scratch);
        assert_eq!(out.len(), 2);
        assert!(out.row(0).is_empty() && out.row(1).is_empty());
        let pts = random_points(50, 8);
        let tree = KdTree::build(&pts);
        tree.knn_batch_with(&pts, 0, &mut out, &mut scratch);
        assert_eq!(out.len(), 2 + pts.len());
        assert!(out.row(2).is_empty());
        tree.knn_batch_with(&[], 4, &mut out, &mut scratch);
        assert_eq!(out.len(), 2 + pts.len());
        assert_eq!(scratch.invocations(), 0, "empty batches bypass the kernel");
    }

    #[test]
    fn scratch_is_reused_without_growth() {
        let pts = random_points(3000, 9);
        let tree = KdTree::build(&pts);
        let mut scratch = DualTreeScratch::new();
        let out = join_rows(&tree, 8, &mut scratch);
        let reserved = scratch.reserved_bytes();
        assert!(reserved > 0);
        for round in 0..3 {
            assert_eq!(join_rows(&tree, 8, &mut scratch), out, "round {round}");
            assert_eq!(
                scratch.reserved_bytes(),
                reserved,
                "steady-state batches must not grow the scratch"
            );
        }
        assert_eq!(scratch.invocations(), 4);
    }

    /// The sharded parallel traversal must produce byte-for-byte the same
    /// rows as the sequential one, for every worker count, with
    /// duplicate-heavy ties — and its per-shard bounds pool must reach a
    /// steady state (no growth on repeated same-shape batches).
    #[test]
    fn sharded_traversal_matches_sequential() {
        let mut pts = random_points(6_000, 20);
        pts.extend(vec![Point3::ONE; 40]); // duplicate cluster: tie-breaking
        let tree = KdTree::build(&pts);
        for k in [1usize, 5, 9] {
            let sequential = crate::runtime::with_workers(1, || {
                join_rows(&tree, k, &mut DualTreeScratch::new())
            });
            for workers in [2usize, 4, 8] {
                let mut scratch = DualTreeScratch::new();
                crate::runtime::with_workers(workers, || {
                    let sharded = join_rows(&tree, k, &mut scratch);
                    assert_eq!(sharded, sequential, "k {k} workers {workers}");
                    assert!(
                        scratch.shard_bounds.len() > 1,
                        "parallel path must engage under a {workers}-worker pool"
                    );
                    // The first batch sized every pooled buffer (row slab,
                    // shard bounds); a repeat must reuse them without growth.
                    let reserved = scratch.reserved_bytes();
                    assert_eq!(join_rows(&tree, k, &mut scratch), sequential);
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

    /// Every kernel tier this host can execute — scalar, AVX2, AVX-512 —
    /// must emit the scalar tier's rows, across strides on both sides of a
    /// 16-row pre-filter block and a 16-lane scan block, on a cloud with a
    /// duplicate cluster and (after a patch) emptied leaves, at one worker
    /// and sharded.
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
        let join = |workers: usize, k: usize| {
            crate::runtime::with_workers(workers, || {
                join_rows(&tree, k, &mut DualTreeScratch::new())
            })
        };
        let tiers = available();
        for k in [1usize, 7, 9, 16, 17, 33] {
            let scalar = with_tier(tiers[0], || join(1, k));
            for (i, &q) in pts.iter().enumerate().step_by(37) {
                let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(
                    scalar.row(i),
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
}
