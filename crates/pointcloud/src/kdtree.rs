//! The k-d tree: this crate's one spatial index.
//!
//! This stands in for the cuKDTree GPU k-d tree used by the paper's CUDA
//! client: an exact, cache-friendly, array-backed k-d tree with median
//! splits. Every frame's self-join runs against it (see
//! [`crate::dualtree`]), every other batch sweeps it query by query, and the
//! Yuzu/GradPU baselines query it too; [`crate::knn::BruteForce`] is the
//! oracle it is tested against.
//!
//! # The record builder
//!
//! One builder makes every subtree: [`KdTree::build_in`] (cold frames, the
//! engine's periodic rebuild of a patched index, a delta frame's tree over
//! its inserted points) and the leaves [`KdTree::patch_with`] dirties. It
//! works on a contiguous array of `(Point3, u32)` records — position and
//! point index — so no pass chases `points[order[i]]`:
//!
//! * a split node streams its records once for their box (four independent
//!   accumulators of plain comparisons: one chain of `f32::min` made this
//!   pass cost more than the median select), whose widest extent picks the
//!   axis; writes one `u64` key per record (the coordinate's bits in
//!   [`f32::total_cmp`] order above the record's position, so keys are
//!   unique); selects the median key with `select_nth_unstable`; and
//!   permutes its records once, in place, by swapping the left-goers right
//!   of the middle with the right-goers left of it. The split value is the
//!   median coordinate, so the tree's shape is what a comparator median
//!   gives, up to where exact ties land — and every traversal is exact for
//!   any partition with left ≤ value ≤ right;
//! * a leaf orders its records by a `u64` Morton key over its box;
//! * the finished records are in slot order, so `order` and the SoA lanes
//!   are written from them in one sequential pass each.
//!
//! The record and key arrays are transient and belong to the caller's
//! [`IndexScratch`]: the engine keeps one on each worker's frame arena,
//! [`KdTree::build`] and [`KdTree::patch`] make a call-local one. A tree
//! never holds them, so per-session state does not grow, and a warm scratch
//! makes steady-state rebuilds allocate nothing. They cost 24 bytes per
//! point of the largest cloud the scratch has indexed.
//!
//! # Parallel build
//!
//! With median splits and a fixed leaf size, the node and leaf counts of a
//! subtree are a pure function of how many points it covers
//! (`subtree_counts`). [`KdTree::build_in`] therefore sizes the node, box
//! and leaf-box arrays up front and hands every subtree the disjoint slices
//! it will fill — its records and keys included — in the post-order layout a
//! sequential build produces. Above `BUILD_TASK_GRAIN` points on more than
//! one worker, the top of the tree splits level by level — one flat
//! [`crate::runtime::for_each_chunk_mut`] job per level, one subtree split
//! per chunk — until there are at least `2 × current_workers()` subtrees or
//! they reach the grain; that frontier then builds in one flat job, one
//! subtree per chunk, the shape of the dual-tree's shard frontier. Siblings
//! differ by at most a point, so the chunks of a level cost about the same.
//! At or below the grain, on one worker, or inside a running chunk (every
//! fleet tenant's frame) the whole tree builds inline and allocates nothing
//! for the frontier. Either way the tree is field-for-field the same at
//! every worker count.
//!
//! `build_in` on a `synthetic::humanoid` cloud, warm scratch, median of
//! eight alternating runs of 150 builds each, on a loaded 2-vCPU host (a
//! one-worker 50k build read 3.5 ms there when it was quiet) (ms):
//!
//! | points | workers | recursive forks | flat levels | flat, grain 1024 |
//! |-------:|--------:|----------------:|------------:|-----------------:|
//! |  4 096 |       1 |            0.37 |        0.35 |             0.38 |
//! |  4 096 |       2 |            0.38 |        0.36 |             0.27 |
//! | 50 000 |       1 |            6.77 |        6.21 |             6.81 |
//! | 50 000 |       2 |            4.03 |        4.16 |             4.25 |
//!
//! "Recursive forks" is the build this replaced, which forked the two halves
//! of every split above the grain as a nested two-chunk job; at 50 000
//! points the grain does not change the tree's frontier, so those columns
//! differ by host noise only. The host has two vCPUs, so frontiers above two
//! workers (8 and 16 subtrees) are covered by the field-for-field tests
//! only. A grain of 1024 splits a 4096-point cloud for two workers in three
//! flat jobs (a two-chunk job costs ≈ 1–2 µs back to back, ≈ 7–10 µs when
//! it wakes a parked worker), and a 20-pair series read 0.37 → 0.26 ms for
//! it (an earlier series on the same host read them equal). Yet only
//! top-level builds of 1 025–8 192 points would change: no fleet tenant,
//! which builds inside a chunk and so inline at any grain, and in the ledger
//! only the ≈ 5 000-point insert tree of a delta frame and the 8k cold
//! cloud, a fraction of a millisecond per frame. `BUILD_TASK_GRAIN` stays at
//! 4096 until a ledger row can show the difference.

use crate::aabb::Aabb;
use crate::delta::{FrameDelta, REMOVED};
use crate::dualtree::{self, DualTreeScratch};
use crate::kernels;
use crate::knn::{batch_queries, BestK, Neighbor, NeighborSearch};
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;
use crate::runtime;
use crate::soa::SoaPositions;

/// Maximum number of points stored in a leaf before the builder splits it.
/// Sized for the batched SoA sweep: 64 points are four 16-wide kernel
/// blocks, and the fat leaves cut two levels of node traversal and their
/// deferred far-subtree bookkeeping. With a warm-started bound plus the
/// tight leaf boxes, the batch path scans few extra candidates for that
/// saving; the cold per-query path would prefer smaller leaves, but the
/// batched sweep is the production hot path.
pub const LEAF_SIZE: usize = 64;

/// `Node::tag` value marking a leaf (split nodes store their axis, 0-2).
const LEAF_TAG: u32 = 3;

/// Fewest queries per worker the single-tree sweep is cut into: below this a
/// chunk is too short to repay a task submission and the cold start of its
/// warm-start chain, so smaller batches sweep on the calling thread.
const SWEEP_MIN_QUERIES_PER_WORKER: usize = 2_000;

/// Largest tree (in points) built inline; a bigger one, on more than one
/// worker, splits its top levels with flat jobs. A 4096-point cloud builds
/// in ≈ 0.35 ms on one thread of a loaded 2-vCPU host; a lower grain would
/// split it for two workers faster, but no ledger row would see it (see the
/// module docs). Everything at or below the grain submits nothing.
const BUILD_TASK_GRAIN: usize = 4096;

/// One packed tree node (16 bytes, down from a 40-byte enum): keeping the
/// node array small matters because kNN traversals chase it randomly — at
/// 100k points the packed array is ~256 KB and stays cache-resident.
///
/// Splits: `tag` = axis, `value` = plane, `a`/`b` = left/right child ids.
/// Leaves: `tag` = [`LEAF_TAG`], `a`/`b` = range into `KdTree::order`, and
/// `value` carries the leaf's ordinal in `KdTree::leaf_aabbs` (bit-cast).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    tag: u32,
    value: f32,
    a: u32,
    b: u32,
}

impl Node {
    /// `true` when this node is a leaf.
    #[inline(always)]
    pub(crate) fn is_leaf(self) -> bool {
        self.tag == LEAF_TAG
    }

    /// Child node ids of a split node.
    #[inline(always)]
    pub(crate) fn children(self) -> (u32, u32) {
        debug_assert!(!self.is_leaf());
        (self.a, self.b)
    }

    /// Slot range (`order` / SoA indices) covered by a leaf.
    #[inline(always)]
    pub(crate) fn leaf_range(self) -> (usize, usize) {
        debug_assert!(self.is_leaf());
        (self.a as usize, self.b as usize)
    }

    /// Placeholder of a node slot the build has sized but not yet written.
    const UNSET: Node = Node {
        tag: LEAF_TAG,
        value: 0.0,
        a: 0,
        b: 0,
    };
}

/// `(nodes, leaves)` of the subtree a build produces over `count` points.
/// Splits put `count / 2` points left and the rest right, and a range of at
/// most [`LEAF_SIZE`] points is a leaf, so both numbers depend on `count`
/// alone — which is what lets a build assign every subtree its slice of the
/// node arrays before any of them exists.
fn subtree_counts(count: usize) -> (usize, usize) {
    if count <= LEAF_SIZE {
        return (1, 1);
    }
    let (ln, ll) = subtree_counts(count / 2);
    let (rn, rl) = subtree_counts(count - count / 2);
    (ln + rn + 1, ll + rl)
}

/// One point of a build in progress: its position next to its index in the
/// indexed cloud, so every pass of the build streams one contiguous array
/// instead of chasing `points[order[i]]`. A finished build leaves the
/// records in slot order, from which `order` and the SoA lanes are written.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    p: Point3,
    id: u32,
}

/// Maps `v` to a `u32` whose unsigned order is [`f32::total_cmp`]'s:
/// positive floats get the sign bit set, negative ones are bit-flipped so a
/// larger magnitude sorts lower (and `-0.0` just below `+0.0`).
#[inline(always)]
fn sort_bits(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The split key of the record at position `pos` of a node: the coordinate's
/// [`sort_bits`] above the position, so keys are unique and order records by
/// coordinate, ties by position.
#[inline(always)]
fn split_key(coord: f32, pos: usize) -> u64 {
    (u64::from(sort_bits(coord)) << 32) | pos as u64
}

/// Splits `records` at their median along the axis `coord` reads and
/// returns the split value: writes every record's [`split_key`] and selects
/// the `len / 2`-th smallest, which leaves `keys[..len / 2]` naming exactly
/// the records that go left. Those records permute in place by swaps: the
/// left-goers sitting right of the middle and the right-goers sitting left
/// of it are equally many, and are compacted out of the keys and swapped
/// pairwise.
fn median_split(records: &mut [Record], keys: &mut [u64], coord: impl Fn(Point3) -> f32) -> f32 {
    for (pos, (key, r)) in keys.iter_mut().zip(records.iter()).enumerate() {
        *key = split_key(coord(r.p), pos);
    }
    let half = records.len() / 2;
    let pivot = *keys.select_nth_unstable(half).1;
    let value = coord(records[pivot as u32 as usize].p);
    let (left, right) = keys.split_at_mut(half);
    let moves = compact_positions(left, |pos| pos >= half);
    let moves_back = compact_positions(right, |pos| pos < half);
    debug_assert_eq!(moves, moves_back);
    for (&a, &b) in left[..moves].iter().zip(&right[..moves]) {
        records.swap(a as usize, b as usize);
    }
    value
}

/// Overwrites the front of `keys` with the positions (their low halves) that
/// `wrong_side` picks, in one branch-free pass, and returns their count.
#[inline(always)]
fn compact_positions(keys: &mut [u64], wrong_side: impl Fn(usize) -> bool) -> usize {
    let mut kept = 0;
    for r in 0..keys.len() {
        let pos = keys[r] as u32 as usize;
        keys[kept] = pos as u64;
        kept += usize::from(wrong_side(pos));
    }
    kept
}

/// Reusable buffers of [`KdTree::build_in`] and [`KdTree::patch_with`]: the
/// build's record and key arrays (a patch routes its insertions through the
/// key array first), and the patch's leaf list and dirty-leaf list. Nothing
/// in here outlives a call, so one scratch serves any number of trees (the
/// engine keeps it on its per-worker frame arena, not on every session's
/// tree) and steady-state builds and patches allocate nothing.
#[derive(Debug, Default)]
pub struct IndexScratch {
    records: Vec<Record>,
    keys: Vec<u64>,
    leaves: Vec<u32>,
    dirty: Vec<u32>,
}

impl IndexScratch {
    /// Capacity (in bytes) currently reserved by the scratch's buffers.
    pub fn reserved_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + (self.leaves.capacity() + self.dirty.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The tight box of `records` in one streaming pass ([`EMPTY_LEAF_AABB`]
/// when there are none). Four independent accumulators, so no comparison
/// waits on the one before it, and plain comparisons, one `minss`/`maxss`
/// each, which pass NaN over as [`f32::min`] does without its extra test.
fn records_aabb(records: &[Record]) -> Aabb {
    let mut lo = [[f32::INFINITY; 3]; 4];
    let mut hi = [[f32::NEG_INFINITY; 3]; 4];
    let mut fold = |lane: usize, r: &Record| {
        let p = [r.p.x, r.p.y, r.p.z];
        for axis in 0..3 {
            let (l, h) = (&mut lo[lane][axis], &mut hi[lane][axis]);
            *l = if p[axis] < *l { p[axis] } else { *l };
            *h = if p[axis] > *h { p[axis] } else { *h };
        }
    };
    let chunks = records.chunks_exact(4);
    let tail = chunks.remainder();
    for quad in chunks {
        for (lane, r) in quad.iter().enumerate() {
            fold(lane, r);
        }
    }
    for r in tail {
        fold(0, r);
    }
    let (mut min, mut max) = (lo[0], hi[0]);
    for lane in 1..4 {
        for axis in 0..3 {
            min[axis] = min[axis].min(lo[lane][axis]);
            max[axis] = max[axis].max(hi[lane][axis]);
        }
    }
    Aabb {
        min: Point3::new(min[0], min[1], min[2]),
        max: Point3::new(max[0], max[1], max[2]),
    }
}

/// One subtree of a build in progress: the records it partitions with a key
/// buffer of the same length, and the slices of the tree's arrays its nodes
/// will occupy — exactly [`subtree_counts`]`(records.len())` of each — with
/// the absolute offsets of those slices, since nodes name children, slots
/// and leaf boxes by absolute index. Sibling subtrees hold disjoint slices,
/// so they can build on different workers without sharing anything mutable.
struct Subtree<'a> {
    records: &'a mut [Record],
    keys: &'a mut [u64],
    nodes: &'a mut [Node],
    node_aabbs: &'a mut [Aabb],
    leaf_aabbs: &'a mut [Aabb],
    slot_base: usize,
    node_base: usize,
    leaf_base: usize,
}

impl<'a> Subtree<'a> {
    /// Builds the subtree on the calling thread, in post-order: the left
    /// subtree's nodes, the right subtree's, then the root — which is
    /// therefore the last node of the slice, with its box in the last slot
    /// of `node_aabbs`. The records end in slot order.
    fn build(self) {
        if self.records.len() <= LEAF_SIZE {
            return self.build_leaf();
        }
        for half in self.split() {
            half.build();
        }
    }

    /// Splits a subtree of more than [`LEAF_SIZE`] records at its median
    /// along its widest axis, writes its root node and box, and returns the
    /// left and right subtrees that fill the rest of its slices.
    fn split(self) -> [Subtree<'a>; 2] {
        let Subtree {
            records,
            keys,
            nodes,
            node_aabbs,
            leaf_aabbs,
            slot_base,
            node_base,
            leaf_base,
        } = self;
        // One streaming pass for the box, whose widest extent picks the
        // axis: better balance than round-robin on skewed data.
        let aabb = records_aabb(records);
        let ext = aabb.extent();
        let axis = if ext.x >= ext.y && ext.x >= ext.z {
            0
        } else if ext.y >= ext.z {
            1
        } else {
            2
        };
        // The median is the `half`-th smallest key; the keys below it are
        // exactly the `half` records that go left.
        let half = records.len() / 2;
        let value = match axis {
            0 => median_split(records, keys, |p| p.x),
            1 => median_split(records, keys, |p| p.y),
            _ => median_split(records, keys, |p| p.z),
        };

        let (left_nodes, left_leaves) = subtree_counts(half);
        let child_nodes = nodes.len() - 1;
        let (left_records, right_records) = records.split_at_mut(half);
        let (left_keys, right_keys) = keys.split_at_mut(half);
        let (children, root) = nodes.split_at_mut(child_nodes);
        let (child_aabbs, root_aabb) = node_aabbs.split_at_mut(child_nodes);
        let (ln, rn) = children.split_at_mut(left_nodes);
        let (la, ra) = child_aabbs.split_at_mut(left_nodes);
        let (ll, rl) = leaf_aabbs.split_at_mut(left_leaves);
        root_aabb[0] = aabb;
        root[0] = Node {
            tag: axis as u32,
            value,
            a: (node_base + left_nodes - 1) as u32,
            b: (node_base + child_nodes - 1) as u32,
        };
        [
            Subtree {
                records: left_records,
                keys: left_keys,
                nodes: ln,
                node_aabbs: la,
                leaf_aabbs: ll,
                slot_base,
                node_base,
                leaf_base,
            },
            Subtree {
                records: right_records,
                keys: right_keys,
                nodes: rn,
                node_aabbs: ra,
                leaf_aabbs: rl,
                slot_base: slot_base + half,
                node_base: node_base + left_nodes,
                leaf_base: leaf_base + left_leaves,
            },
        ]
    }

    /// Builds the subtree on the current pool: [`Self::build`] at or below
    /// [`BUILD_TASK_GRAIN`] points or on one worker, else one flat job per
    /// top level and one for the frontier (see the module docs).
    fn build_parallel(self) {
        let target = 2 * runtime::current_workers();
        if target <= 2 || self.records.len() <= BUILD_TASK_GRAIN {
            return self.build();
        }
        let mut frontier = vec![Some(self)];
        while frontier.len() < target
            && frontier
                .iter()
                .flatten()
                .all(|s| s.records.len() > BUILD_TASK_GRAIN)
        {
            // A free slot behind every subtree takes its right half.
            frontier = frontier.into_iter().flat_map(|s| [s, None]).collect();
            runtime::for_each_chunk_mut(&mut frontier, 2, |_, _, pair| {
                let [left, right] = pair[0].take().expect("a subtree").split();
                pair[0] = Some(left);
                pair[1] = Some(right);
            });
        }
        runtime::for_each_chunk_mut(&mut frontier, 1, |_, _, s| {
            s[0].take().expect("a subtree").build();
        });
    }

    /// Writes the single leaf node covering this subtree's records, with
    /// their tight box `aabb`, and puts the records in Morton order over
    /// that box so consecutive slots are spatial neighbors: that is what
    /// makes the dual-tree leaf scan's row-to-row warm-start chain tight
    /// (see `crate::dualtree`). Visit order cannot change results —
    /// survivors and ties are decided by the packed `(distance, index)`
    /// keys — and the scan kernels stream the SoA lanes the same either way.
    fn build_leaf(self) {
        let aabb = records_aabb(self.records);
        let count = self.records.len();
        let ext = aabb.extent();
        let inv = Point3::new(
            if ext.x > 0.0 { 1024.0 / ext.x } else { 0.0 },
            if ext.y > 0.0 { 1024.0 / ext.y } else { 0.0 },
            if ext.z > 0.0 { 1024.0 / ext.z } else { 0.0 },
        );
        let keys = &mut self.keys[..count];
        for (pos, (key, r)) in keys.iter_mut().zip(self.records.iter()).enumerate() {
            *key = (u64::from(crate::knn::morton_code(r.p, aabb.min, inv)) << 32) | pos as u64;
        }
        keys.sort_unstable();
        // Leaves hold at most LEAF_SIZE records.
        let mut sorted = [Record::default(); LEAF_SIZE];
        for (dst, &key) in sorted.iter_mut().zip(keys.iter()) {
            *dst = self.records[key as u32 as usize];
        }
        self.records.copy_from_slice(&sorted[..count]);
        self.leaf_aabbs[0] = aabb;
        self.node_aabbs[0] = aabb;
        self.nodes[0] = Node {
            tag: LEAF_TAG,
            value: f32::from_bits(self.leaf_base as u32),
            a: self.slot_base as u32,
            b: (self.slot_base + count) as u32,
        };
    }
}

/// A far subtree deferred during kNN traversal, tagged with the squared
/// distance lower bound from the query to its region and the per-axis
/// offset vector that bound was derived from (see `KdTree::knn_into`).
#[derive(Debug, Clone, Copy)]
pub struct DeferredSubtree {
    node: u32,
    bound: f32,
    off: Point3,
}

/// An array-backed k-d tree over a fixed point set.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{kdtree::KdTree, knn::NeighborSearch, Point3};
/// let pts: Vec<Point3> = (0..100).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let tree = KdTree::build(&pts);
/// let nn = tree.knn(Point3::new(42.4, 0.0, 0.0), 3);
/// assert_eq!(nn[0].index, 42);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Vec<Point3>,
    /// Permutation of point indices; leaves reference contiguous ranges.
    order: Vec<u32>,
    /// The points again, stored SoA in leaf-visit order (`soa[i]` is
    /// `points[order[i]]`): a leaf scan streams three contiguous coordinate
    /// lanes through the shared 8-wide distance kernel with no
    /// permutation-indirection on the load side — only the surviving
    /// candidates pay the `order` lookup.
    soa: SoaPositions,
    nodes: Vec<Node>,
    /// Tight bounding box of each leaf's actual points (indexed by the leaf
    /// ordinal stored in its node's `value`). Split planes only bound the
    /// *region*; the points usually occupy a much smaller box, so checking
    /// the query's distance against this box before a leaf scan skips most
    /// of the backtracking scans the region bound alone would still pay.
    leaf_aabbs: Vec<Aabb>,
    /// Tight bounding box of *every* node's points, parallel to `nodes`
    /// (internal boxes are the union of their children's). The dual-tree
    /// all-kNN traversal prunes (query-node, reference-node) pairs with
    /// box-to-box distance tests at every level, so it needs boxes for
    /// internal nodes too; the single-query paths keep using the compact
    /// `leaf_aabbs` array. ~24 bytes per node — a few tens of KB even at
    /// 100k points.
    node_aabbs: Vec<Aabb>,
    root: usize,
}

/// The bounding box of an emptied leaf: inverted extremes, so any distance
/// test against it returns `+inf` (the leaf attracts no traversal) and a
/// union with it is the identity.
pub(crate) const EMPTY_LEAF_AABB: Aabb = Aabb {
    min: Point3::splat(f32::INFINITY),
    max: Point3::splat(f32::NEG_INFINITY),
};

impl Default for KdTree {
    /// An empty tree (no points indexed); [`KdTree::build_in`] turns it into
    /// a live index without fresh allocations on rebuild.
    fn default() -> Self {
        Self::build(&[])
    }
}

impl KdTree {
    /// Builds a k-d tree over the given points (copied into the tree), with
    /// a call-local [`IndexScratch`].
    pub fn build(points: &[Point3]) -> Self {
        let mut tree = KdTree {
            points: Vec::new(),
            order: Vec::new(),
            soa: SoaPositions::default(),
            nodes: Vec::new(),
            leaf_aabbs: Vec::new(),
            node_aabbs: Vec::new(),
            root: 0,
        };
        tree.build_in(points, &mut IndexScratch::default());
        tree
    }

    /// Rebuilds this tree over `points`, reusing the point, permutation and
    /// node storage already owned by `self` and the record and key buffers
    /// of `scratch`. This is the streaming-session entry point: a
    /// scratch-resident tree is rebuilt in place when the frame geometry
    /// actually changes, so steady-state frames pay no allocation for index
    /// (re)construction. Large clouds build their subtrees as pool tasks
    /// (see the module docs); the result does not depend on the worker
    /// count.
    pub fn build_in(&mut self, points: &[Point3], scratch: &mut IndexScratch) {
        self.points.clear();
        self.points.extend_from_slice(points);
        let IndexScratch { records, keys, .. } = scratch;
        records.clear();
        records.extend(
            points
                .iter()
                .enumerate()
                .map(|(id, &p)| Record { p, id: id as u32 }),
        );
        if keys.len() < points.len() {
            keys.resize(points.len(), 0);
        }
        let (nodes, leaves) = subtree_counts(points.len());
        self.nodes.clear();
        self.nodes.resize(nodes, Node::UNSET);
        self.node_aabbs.clear();
        self.node_aabbs.resize(nodes, EMPTY_LEAF_AABB);
        self.leaf_aabbs.clear();
        self.leaf_aabbs.resize(leaves, EMPTY_LEAF_AABB);
        // Post-order layout: a subtree's root is its last node.
        self.root = nodes - 1;
        Subtree {
            records,
            keys: &mut keys[..points.len()],
            nodes: &mut self.nodes,
            node_aabbs: &mut self.node_aabbs,
            leaf_aabbs: &mut self.leaf_aabbs,
            slot_base: 0,
            node_base: 0,
            leaf_base: 0,
        }
        .build_parallel();
        self.write_slots(records);
    }

    /// Writes `order` and the SoA lanes from records in slot order, one
    /// sequential pass each: leaf ranges then address three streaming
    /// coordinate lanes instead of a permuted `Point3` gather.
    fn write_slots(&mut self, records: &[Record]) {
        self.order.clear();
        self.order.extend(records.iter().map(|r| r.id));
        self.soa.fill(records.iter().map(|r| &r.p));
    }

    /// The indexed points, in their original order.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Checks the tree's structural invariants, describing the first
    /// violation: `order` is a permutation of the point indices, the SoA
    /// lanes hold `points[order[i]]` bit for bit, the reachable leaves tile
    /// the slots with at most [`LEAF_SIZE`] points each inside their leaf
    /// box, and every point under a split lies on its side of the plane
    /// (left ≤ value ≤ right, as floats). `O(n · depth)`; for tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.points.len();
        if self.order.len() != n || self.soa.len() != n {
            return Err(format!(
                "{n} points, {} slots, {} SoA lanes",
                self.order.len(),
                self.soa.len()
            ));
        }
        let mut seen = vec![false; n];
        for (slot, &i) in self.order.iter().enumerate() {
            if seen.get(i as usize).is_none_or(|&s| s) {
                return Err(format!("order is no permutation: slot {slot} holds {i}"));
            }
            seen[i as usize] = true;
            let p = self.points[i as usize];
            let lanes = [
                self.soa.xs()[slot],
                self.soa.ys()[slot],
                self.soa.zs()[slot],
            ];
            if lanes.map(f32::to_bits) != [p.x, p.y, p.z].map(f32::to_bits) {
                return Err(format!("SoA slot {slot} is {lanes:?}, point {i} is {p:?}"));
            }
        }
        let mut ranges = Vec::new();
        let unbounded = (
            Point3::splat(f32::NEG_INFINITY),
            Point3::splat(f32::INFINITY),
        );
        self.validate_node(self.root, unbounded, &mut ranges)?;
        ranges.sort_unstable();
        let mut end = 0;
        for (s, e) in ranges {
            if s != end {
                return Err(format!("leaf slots {s}..{e} do not start at {end}"));
            }
            end = e;
        }
        if end != n {
            return Err(format!("leaves cover {end} of {n} slots"));
        }
        Ok(())
    }

    /// [`Self::validate`] below node `id`, whose points must lie inside the
    /// inclusive `(lo, hi)` bounds its ancestors' planes set; collects the
    /// leaves' slot ranges.
    fn validate_node(
        &self,
        id: usize,
        (lo, hi): (Point3, Point3),
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<(), String> {
        let node = *self.nodes.get(id).ok_or(format!("no node {id}"))?;
        if !node.is_leaf() {
            let (axis, value) = (node.tag as usize, node.value);
            let (a, b) = node.children();
            let (mut left_hi, mut right_lo) = (hi, lo);
            left_hi[axis] = hi[axis].min(value);
            right_lo[axis] = lo[axis].max(value);
            self.validate_node(a as usize, (lo, left_hi), ranges)?;
            return self.validate_node(b as usize, (right_lo, hi), ranges);
        }
        let (s, e) = node.leaf_range();
        if s > e || e > self.order.len() || e - s > LEAF_SIZE {
            return Err(format!("leaf {id} covers slots {s}..{e}"));
        }
        let ordinal = node.value.to_bits() as usize;
        let aabb = *self
            .leaf_aabbs
            .get(ordinal)
            .ok_or(format!("no leaf box {ordinal}"))?;
        for &i in &self.order[s..e] {
            let p = self.points[i as usize];
            if !(Aabb { min: lo, max: hi }).contains(p) {
                return Err(format!(
                    "point {i} {p:?} of leaf {id} is outside its planes"
                ));
            }
            if !aabb.contains(p) {
                return Err(format!("point {i} {p:?} is outside the box of leaf {id}"));
            }
        }
        ranges.push((s, e));
        Ok(())
    }

    // --- Internals shared with the dual-tree traversal (`crate::dualtree`).

    /// The node with the given id.
    #[inline(always)]
    pub(crate) fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// Tight bounding box of the node with the given id.
    #[inline(always)]
    pub(crate) fn node_aabb(&self, id: u32) -> Aabb {
        self.node_aabbs[id as usize]
    }

    /// Total number of nodes (ids are `0..node_count()`).
    #[inline(always)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Id of the root node.
    #[inline(always)]
    pub(crate) fn root_id(&self) -> u32 {
        self.root as u32
    }

    /// Slot → original-point-index permutation (leaf ranges index into it).
    #[inline(always)]
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// The points in leaf-visit order as SoA lanes (parallel to `order`).
    #[inline(always)]
    pub(crate) fn soa(&self) -> &SoaPositions {
        &self.soa
    }

    /// Capacity (in bytes) currently reserved by the tree's buffers — used
    /// by scratch-reuse assertions (steady-state `build_in` rebuilds over
    /// same-size clouds must not grow it).
    pub fn reserved_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point3>()
            + self.order.capacity() * std::mem::size_of::<u32>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + (self.leaf_aabbs.capacity() + self.node_aabbs.capacity())
                * std::mem::size_of::<Aabb>()
            + self.soa.reserved_bytes()
    }

    /// Incrementally re-indexes this tree for a delta-frame: surviving
    /// points keep their leaves (indices renumbered through the delta's
    /// survivor map), removed points are dropped from their leaves, and
    /// inserted points are routed down the existing split planes to their
    /// home leaves. Only **dirtied** leaves pay geometry work — an exact
    /// bounding-box recompute and a Morton slot re-sort, or a local subtree
    /// rebuild when the leaf overflows `LEAF_SIZE` — followed by one
    /// bottom-up refresh of the internal node boxes. The split planes
    /// themselves are left untouched, so the patch costs
    /// `O(n)` array rewrites plus `O(churn · log n)` routing instead of the
    /// full `O(n log n)` rebuild.
    ///
    /// Query results over a patched tree are **bit-identical** to a freshly
    /// built tree: every traversal is exact for any valid k-d partition, and
    /// insertion routing uses the same comparison as query descent, so the
    /// split-plane invariant (left subtree ≤ plane ≤ right subtree) is
    /// preserved. Tree *quality* can degrade as churn accumulates (split
    /// planes go stale, boxes of churned regions stop being tight); callers
    /// should schedule a periodic [`KdTree::build_in`] — the engine's index
    /// cache rebuilds once cumulative churn crosses a fraction of the cloud.
    ///
    /// `delta` must describe exactly the change from the currently indexed
    /// points to `new_points` (see [`FrameDelta::verify`]); mismatched
    /// inputs fall back to a full rebuild when detectable by length, and are
    /// the caller's contract otherwise.
    ///
    /// Convenience form of [`KdTree::patch_with`] with a call-local scratch.
    pub fn patch(&mut self, delta: &FrameDelta, new_points: &[Point3]) {
        self.patch_with(delta, new_points, &mut IndexScratch::default());
    }

    /// [`KdTree::patch`] with caller-owned buffers, so repeated patches — of
    /// this tree or any other — allocate nothing.
    pub fn patch_with(
        &mut self,
        delta: &FrameDelta,
        new_points: &[Point3],
        scratch: &mut IndexScratch,
    ) {
        if self.points.len() != delta.old_len()
            || new_points.len() != delta.new_len()
            || self.points.is_empty()
            || new_points.is_empty()
        {
            self.build_in(new_points, scratch);
            return;
        }
        if delta.is_identity() {
            // Bitwise-identical geometry: the index is already exact.
            return;
        }
        let IndexScratch {
            records,
            keys,
            leaves,
            dirty,
        } = scratch;

        // Route every inserted point down the split planes to its home
        // leaf, with the same comparison the query descent uses (so the
        // plane invariant holds for the routed points too), as
        // `leaf << 32 | index` keys, sorted.
        keys.clear();
        for &ni in delta.inserted() {
            let p = new_points[ni as usize];
            let mut id = self.root as u32;
            loop {
                let n = self.nodes[id as usize];
                if n.is_leaf() {
                    break;
                }
                id = if p[n.tag as usize] < n.value {
                    n.a
                } else {
                    n.b
                };
            }
            keys.push(u64::from(id) << 32 | u64::from(ni));
        }
        keys.sort_unstable();

        // The leaves tile the slots; rewrite them leaf by leaf in range
        // order, as records — survivors renumbered (relative order, and
        // therefore the Morton slot order of clean leaves, is preserved),
        // removed slots dropped, routed insertions appended to their leaf.
        // The leaf and dirty lists are sized to the node table's *capacity*
        // (both counts are bounded by the node count), so they only ever
        // grow when a node table does — no late capacity bumps for the
        // steady-state zero-growth assertions.
        leaves.clear();
        leaves.reserve(self.nodes.capacity());
        leaves.extend((0..self.nodes.len() as u32).filter(|&id| self.nodes[id as usize].is_leaf()));
        leaves.sort_unstable_by_key(|&id| self.nodes[id as usize].a);
        let old_to_new = delta.old_to_new();
        let record = |id: u32| Record {
            p: Point3::ZERO,
            id,
        };
        records.clear();
        dirty.clear();
        dirty.reserve(self.nodes.capacity());
        for &leaf_id in leaves.iter() {
            let (s, e) = self.nodes[leaf_id as usize].leaf_range();
            let new_start = records.len();
            let mut leaf_dirty = false;
            for slot in s..e {
                match old_to_new[self.order[slot] as usize] {
                    REMOVED => leaf_dirty = true,
                    ni => records.push(record(ni)),
                }
            }
            let lo = keys.partition_point(|&key| key >> 32 < u64::from(leaf_id));
            let hi = keys.partition_point(|&key| key >> 32 <= u64::from(leaf_id));
            for &key in &keys[lo..hi] {
                records.push(record(key as u32));
                leaf_dirty = true;
            }
            self.nodes[leaf_id as usize].a = new_start as u32;
            self.nodes[leaf_id as usize].b = records.len() as u32;
            if leaf_dirty {
                dirty.push(leaf_id);
            }
        }
        debug_assert_eq!(records.len(), new_points.len());
        // Positions in one tight gather, apart from the branchy walk.
        for r in records.iter_mut() {
            r.p = new_points[r.id as usize];
        }
        self.points.clear();
        self.points.extend_from_slice(new_points);

        // Geometry work only where membership changed: every dirty leaf is
        // rebuilt from its records by the builder — in place (exact box +
        // Morton order) while it fits a leaf, as a median-split subtree
        // appended behind the existing nodes, in the layout a full build
        // gives a subtree of its size, once it overflows. Either way the
        // subtree's root is copied over the old leaf node, so ancestors keep
        // their child ids.
        for &leaf_id in dirty.iter() {
            let leaf_id = leaf_id as usize;
            let (s, e) = self.nodes[leaf_id].leaf_range();
            let (nodes, leaves) = subtree_counts(e - s);
            let (node_base, leaf_base) = if e - s > LEAF_SIZE {
                let bases = (self.nodes.len(), self.leaf_aabbs.len());
                self.nodes.resize(bases.0 + nodes, Node::UNSET);
                self.node_aabbs.resize(bases.0 + nodes, EMPTY_LEAF_AABB);
                self.leaf_aabbs.resize(bases.1 + leaves, EMPTY_LEAF_AABB);
                bases
            } else {
                (leaf_id, self.nodes[leaf_id].value.to_bits() as usize)
            };
            if keys.len() < e - s {
                keys.resize(e - s, 0);
            }
            Subtree {
                records: &mut records[s..e],
                keys: &mut keys[..e - s],
                nodes: &mut self.nodes[node_base..node_base + nodes],
                node_aabbs: &mut self.node_aabbs[node_base..node_base + nodes],
                leaf_aabbs: &mut self.leaf_aabbs[leaf_base..leaf_base + leaves],
                slot_base: s,
                node_base,
                leaf_base,
            }
            .build();
            let root = node_base + nodes - 1;
            self.nodes[leaf_id] = self.nodes[root];
            self.node_aabbs[leaf_id] = self.node_aabbs[root];
        }

        self.write_slots(records);
        // Internal boxes: bottom-up union refresh over the whole (shallow)
        // node tree — a few thousand nodes even at 100k points.
        self.refresh_node_aabbs(self.root as u32);
    }

    /// Recomputes every internal node's box as the union of its children's
    /// (leaf boxes are exact at this point); returns the box of `id`.
    fn refresh_node_aabbs(&mut self, id: u32) -> Aabb {
        let n = self.nodes[id as usize];
        if n.is_leaf() {
            return self.node_aabbs[id as usize];
        }
        let (a, b) = n.children();
        let ba = self.refresh_node_aabbs(a);
        let bb = self.refresh_node_aabbs(b);
        let aabb = Aabb {
            min: ba.min.min(bb.min),
            max: ba.max.max(bb.max),
        };
        self.node_aabbs[id as usize] = aabb;
        aabb
    }

    /// `true` when any indexed point lies within squared distance `r2` of
    /// `query` (**inclusive** — a point at exactly `r2` counts, so callers
    /// testing kNN-ball intersection cover distance ties). Early-exits on
    /// the first hit and prunes whole subtrees by node-box distance, so a
    /// miss over a spatially compact cloud costs one root box test. The
    /// distance arithmetic is [`Point3::distance_squared`]'s — identical to
    /// the scan kernels', so the test is exact, not approximate.
    pub fn any_within(&self, query: Point3, r2: f32) -> bool {
        if self.points.is_empty() {
            return false;
        }
        self.any_within_rec(self.root as u32, query, r2)
    }

    fn any_within_rec(&self, id: u32, query: Point3, r2: f32) -> bool {
        if self.node_aabbs[id as usize].distance_squared_to(query) > r2 {
            return false;
        }
        let n = self.nodes[id as usize];
        if n.is_leaf() {
            let (s, e) = n.leaf_range();
            let (xs, ys, zs) = (self.soa.xs(), self.soa.ys(), self.soa.zs());
            for slot in s..e {
                let dx = xs[slot] - query.x;
                let dy = ys[slot] - query.y;
                let dz = zs[slot] - query.z;
                if dx * dx + dy * dy + dz * dz <= r2 {
                    return true;
                }
            }
            return false;
        }
        let (a, b) = n.children();
        // Nearer child first for earlier exits.
        let da = self.node_aabbs[a as usize].distance_squared_to(query);
        let db = self.node_aabbs[b as usize].distance_squared_to(query);
        let (first, second) = if da <= db { (a, b) } else { (b, a) };
        self.any_within_rec(first, query, r2) || self.any_within_rec(second, query, r2)
    }

    /// Allocation-free exact kNN: results land in `best` (cleared first,
    /// sorted by `(distance, index)`), `stack` is the reused traversal stack
    /// of deferred far subtrees tagged with their distance lower bound.
    ///
    /// Deferred subtrees carry the *incremental* squared distance from the
    /// query to their region (Arya & Mount): the per-axis offset vector is
    /// updated as splits accumulate, so a far subtree constrained on several
    /// axes gets the full sum of its axis penalties as a bound instead of
    /// just the last split's. The tighter bound prunes whole subtrees the
    /// single-axis formulation would still descend into; results are
    /// identical because the bound remains a true lower bound and equality
    /// still visits (distance ties are index-broken by [`push_best`]).
    ///
    /// This is the kernel behind both [`NeighborSearch::knn`] and the tuned
    /// [`NeighborSearch::knn_batch`]; one batch call reuses the same two
    /// buffers for every query, which also warm-starts each query's pruning
    /// bound from the previous one's result (see [`BestK::begin_warm`];
    /// results are unaffected, a fresh accumulator simply starts cold).
    pub(crate) fn knn_into(
        &self,
        query: Point3,
        k: usize,
        best: &mut BestK,
        stack: &mut Vec<DeferredSubtree>,
    ) {
        self.knn_into_with_path(query, k, best, stack, None);
    }

    /// [`KdTree::knn_into`] with an optional cached root-descent path: the
    /// batched sweep passes a scratch that remembers the previous query's
    /// root→leaf chain of `(node id, node)` pairs. Morton-consecutive
    /// queries share almost their entire descent, so the replay serves node
    /// data out of a small sequential buffer instead of re-chasing the node
    /// array, diverging (and refilling the tail) only where the paths
    /// split. Every visit decision is recomputed from the same node values,
    /// so results are bit-identical; `None` runs the plain descent.
    pub(crate) fn knn_into_with_path(
        &self,
        query: Point3,
        k: usize,
        best: &mut BestK,
        stack: &mut Vec<DeferredSubtree>,
        mut path: Option<&mut Vec<(u32, Node)>>,
    ) {
        // Morton-consecutive queries usually land in the same leaf as their
        // predecessor: start pulling its coordinate lanes in now, overlapped
        // with the cap computation and the descent (harmless when the leaf
        // differs — the descent just fetches the right one).
        if let Some(p) = path.as_deref() {
            if let Some(&(_, n)) = p.last() {
                if n.tag == LEAF_TAG {
                    let s = n.a as usize;
                    kernels::prefetch_read(&self.soa.xs()[s]);
                    kernels::prefetch_read(&self.soa.ys()[s]);
                    kernels::prefetch_read(&self.soa.zs()[s]);
                    kernels::prefetch_read(&self.order[s.min(self.order.len().saturating_sub(1))]);
                }
            }
        }
        best.begin_warm(k, query, &self.points);
        if k == 0 || self.points.is_empty() {
            return;
        }
        stack.clear();
        // Root descent (the long chain — with path replay when available).
        let mut node = self.root as u32;
        let mut level = 0usize;
        loop {
            let n = match path.as_deref_mut() {
                Some(p) => {
                    if let Some(&(id, cached)) = p.get(level) {
                        if id == node {
                            cached
                        } else {
                            p.truncate(level);
                            let n = self.nodes[node as usize];
                            p.push((node, n));
                            n
                        }
                    } else {
                        let n = self.nodes[node as usize];
                        p.push((node, n));
                        n
                    }
                }
                None => self.nodes[node as usize],
            };
            level += 1;
            if n.tag == LEAF_TAG {
                self.scan_leaf(n, query, best);
                break;
            }
            node = self.split_step(n, query, Point3::ZERO, best, stack);
        }
        // Backtracking: process deferred far subtrees (short chains, plain
        // loads). The bound was computed when the subtree was deferred; the
        // best list has only tightened since, so this prune is at least as
        // strong as the recursive formulation's.
        while let Some(DeferredSubtree {
            node: deferred,
            bound,
            off,
        }) = stack.pop()
        {
            if bound > best.worst_d2() {
                continue;
            }
            let mut node = deferred;
            loop {
                let n = self.nodes[node as usize];
                if n.tag == LEAF_TAG {
                    self.scan_leaf(n, query, best);
                    break;
                }
                node = self.split_step(n, query, off, best, stack);
            }
        }
    }

    /// Leaf arrival: scans the leaf unless its tight bounding box is farther
    /// than the current k-th best. The box usually beats the region bound by
    /// a wide margin, so most backtracking arrivals are rejected here for
    /// the cost of one box distance instead of a full scan. Equality still
    /// scans (index-broken ties).
    #[inline(always)]
    fn scan_leaf(&self, n: Node, query: Point3, best: &mut BestK) {
        let lb = self.leaf_aabbs[n.value.to_bits() as usize];
        if lb.distance_squared_to(query) <= best.worst_d2() {
            kernels::scan_ids(
                &self.soa,
                &self.order,
                n.a as usize,
                n.b as usize,
                query,
                best,
            );
        }
    }

    /// One split-node step: defers the far child when its region could still
    /// matter and returns the near child. The near child keeps the current
    /// offsets; the far child's offset on this axis grows to |diff| (the
    /// split plane lies between the query side and it).
    #[inline(always)]
    fn split_step(
        &self,
        n: Node,
        query: Point3,
        off: Point3,
        best: &mut BestK,
        stack: &mut Vec<DeferredSubtree>,
    ) -> u32 {
        let axis = n.tag as usize;
        let diff = query[axis] - n.value;
        let (near, far) = if diff < 0.0 { (n.a, n.b) } else { (n.b, n.a) };
        let mut far_off = off;
        far_off[axis] = diff.abs();
        let far_bound = far_off.norm_squared();
        if far_bound <= best.worst_d2() {
            // Pull the deferred node in ahead of its (likely) pop.
            kernels::prefetch_read(&self.nodes[far as usize]);
            stack.push(DeferredSubtree {
                node: far,
                bound: far_bound,
                off: far_off,
            });
        }
        near
    }

    /// [`NeighborSearch::knn_batch`] with a caller-owned [`DualTreeScratch`]
    /// (reused across batches, so the dual-tree path performs no
    /// steady-state allocation) — the entry point the SR engine routes every
    /// frame batch through, with its frame arena's scratch.
    ///
    /// This is where a batch's algorithm is decided, once: a self-join
    /// inside the measured range ([`KdTree::auto_selects_dual_tree`]) runs
    /// the dual-tree join, everything else the single-tree sweep. Each
    /// parallelizes itself — the join by sharding its query leaves, the
    /// sweep by cutting the query list into one run per worker — so callers
    /// hand batches over whole. Rows are **bit-identical** either way, at
    /// every worker count, and to the per-query [`NeighborSearch::knn`]
    /// loop: both algorithms decide survivors and distance ties with the
    /// same packed `(distance, index)` keys.
    pub fn knn_batch_with(
        &self,
        queries: &[Point3],
        k: usize,
        out: &mut Neighborhoods,
        scratch: &mut DualTreeScratch,
    ) {
        let stride = k.min(self.points.len());
        if stride == 0 {
            out.push_rows(queries.len(), 0);
        } else if self.auto_selects_dual_tree(queries, k) {
            dualtree::self_join(self, stride, out, scratch);
        } else {
            self.sweep(queries, k, out);
        }
    }

    /// The single-tree batch sweep: one warm-started traversal per query,
    /// appending one `k.min(len)`-wide row per query to `out`. Exact kNN
    /// rows are stride-uniform, so the whole row block is reserved up front
    /// and the query list is cut into one contiguous run per worker, each
    /// writing its rows straight into place. A run shares one traversal
    /// stack, one cached descent path and one best list across its queries
    /// (zero allocations per query) and visits them in Morton order when it
    /// is long enough to repay the sort (see `batch_queries`). The caller
    /// has handled `k == 0` and the empty cloud.
    pub(crate) fn sweep(&self, queries: &[Point3], k: usize, out: &mut Neighborhoods) {
        let stride = k.min(self.points.len());
        debug_assert!(stride > 0);
        let slab = out.push_rows(queries.len(), stride);
        let workers = runtime::workers_for(queries.len(), SWEEP_MIN_QUERIES_PER_WORKER);
        let run_len = queries.len().div_ceil(workers).max(1);
        runtime::for_each_chunk_mut(slab, run_len * stride, |_, start, rows| {
            let first = start / stride;
            let run = &queries[first..first + rows.len() / stride];
            let mut stack: Vec<DeferredSubtree> = Vec::with_capacity(64);
            let mut path: Vec<(u32, Node)> = Vec::with_capacity(32);
            batch_queries(run, stride, rows, |q, best| {
                self.knn_into_with_path(q, k, best, &mut stack, Some(&mut path));
            });
        });
    }

    /// Whether [`KdTree::knn_batch_with`] answers this batch with the
    /// dual-tree join: `queries` is exactly the indexed cloud, of at least
    /// [`dualtree::DUAL_MIN_QUERIES_MONO`] points, with `k ≤`
    /// [`dualtree::DUAL_MAX_K`]. This is the whole policy; the thresholds'
    /// doc comments carry the measurements behind it. The self-join test is
    /// one linear compare, two orders of magnitude cheaper than the
    /// traversal it routes.
    pub fn auto_selects_dual_tree(&self, queries: &[Point3], k: usize) -> bool {
        k <= dualtree::DUAL_MAX_K
            && queries.len() >= dualtree::DUAL_MIN_QUERIES_MONO
            && queries == self.points
    }
}

impl NeighborSearch for KdTree {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn knn(&self, query: Point3, k: usize) -> Vec<Neighbor> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let mut best = BestK::default();
        let mut stack: Vec<DeferredSubtree> = Vec::new();
        self.knn_into(query, k, &mut best, &mut stack);
        best.sorted()
    }

    fn knn_batch(&self, queries: &[Point3], k: usize, out: &mut Neighborhoods) {
        // A batch-local scratch: empty `Vec`s cost nothing when the sweep is
        // chosen, and a join pays its one-off growth. Callers with per-frame
        // batches should prefer [`KdTree::knn_batch_with`] and a persistent
        // scratch.
        self.knn_batch_with(queries, k, out, &mut DualTreeScratch::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::BruteForce;
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

    #[test]
    fn agrees_with_brute_force_knn() {
        let pts = random_points(500, 1);
        let tree = KdTree::build(&pts);
        let bf = BruteForce::new(&pts);
        let queries = random_points(30, 2);
        for q in queries {
            let a = tree.knn(q, 8);
            let b = bf.knn(q, 8);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.index, y.index);
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let tree = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert!(tree.knn(Point3::ZERO, 4).is_empty());

        // All points identical: still returns k results.
        let pts = vec![Point3::ONE; 40];
        let tree = KdTree::build(&pts);
        let nn = tree.knn(Point3::ZERO, 5);
        assert_eq!(nn.len(), 5);
        assert!(nn.iter().all(|n| (n.distance_squared - 3.0).abs() < 1e-6));
    }

    #[test]
    fn build_in_reuses_storage_and_matches_fresh_build() {
        let mut tree = KdTree::default();
        let mut scratch = IndexScratch::default();
        assert!(tree.is_empty());
        for seed in [13, 11, 12] {
            // A scratch left over from a larger build changes nothing.
            let pts = random_points(400 + seed as usize * 37, seed);
            tree.build_in(&pts, &mut scratch);
            let fresh = KdTree::build(&pts);
            assert_same_tree(&tree, &fresh, &format!("seed {seed}"));
            for q in random_points(10, seed + 100) {
                let a = tree.knn(q, 6);
                let b = fresh.knn(q, 6);
                assert_eq!(
                    a.iter().map(|n| n.index).collect::<Vec<_>>(),
                    b.iter().map(|n| n.index).collect::<Vec<_>>()
                );
            }
        }
        // Shrinking back to empty leaves a valid (empty) tree.
        tree.build_in(&[], &mut scratch);
        assert!(tree.knn(Point3::ZERO, 3).is_empty());
    }

    /// Field-for-field equality of two trees (bit patterns where a field
    /// is a float that may carry a bit-cast ordinal).
    fn assert_same_tree(a: &KdTree, b: &KdTree, what: &str) {
        assert_eq!(a.points, b.points, "{what}: points");
        assert_eq!(a.order, b.order, "{what}: order");
        assert_eq!(a.root, b.root, "{what}: root");
        let bits = |n: &Node| (n.tag, n.value.to_bits(), n.a, n.b);
        assert!(
            a.nodes.iter().map(bits).eq(b.nodes.iter().map(bits)),
            "{what}: nodes"
        );
        assert_eq!(a.node_aabbs, b.node_aabbs, "{what}: node boxes");
        assert_eq!(a.leaf_aabbs, b.leaf_aabbs, "{what}: leaf boxes");
        let n = a.points.len();
        assert_eq!(a.soa.len(), b.soa.len(), "{what}: soa length");
        assert_eq!(a.soa.xs()[..n], b.soa.xs()[..n], "{what}: soa x");
        assert_eq!(a.soa.ys()[..n], b.soa.ys()[..n], "{what}: soa y");
        assert_eq!(a.soa.zs()[..n], b.soa.zs()[..n], "{what}: soa z");
    }

    /// A churn delta over `pts` — a tenth removed, a tenth inserted at the
    /// tail, a third of the insertions piled onto one existing point so a
    /// leaf overflows — and the frame it leads to.
    fn churn(pts: &[Point3], seed: u64) -> (crate::FrameDelta, Vec<Point3>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = pts.len();
        let removed: Vec<u32> = (0..n as u32)
            .filter(|_| rng.random_range(0..10) == 0)
            .collect();
        let insert_count = n / 10 + 70;
        let center = pts[rng.random_range(0..n)];
        let inserted_pts: Vec<Point3> = (0..insert_count)
            .map(|i| {
                if i % 3 == 0 {
                    center
                } else {
                    random_points(1, seed * 1000 + i as u64)[0]
                }
            })
            .collect();
        let new_len = n - removed.len() + insert_count;
        let inserted: Vec<u32> = ((new_len - insert_count) as u32..new_len as u32).collect();
        let delta = crate::FrameDelta::from_parts(n, new_len, removed, inserted).unwrap();
        let new_pts = apply_delta(pts, &delta, &inserted_pts);
        (delta, new_pts)
    }

    /// The parallel build writes the tree a one-worker build writes, field
    /// for field: sizes around multiples of the leaf size (where the shape
    /// of the last levels changes) and around the task grain (where the
    /// level-by-level split starts), on distinct and duplicate-heavy clouds,
    /// at 2, 4 and 8 workers (frontiers of up to 4, 8 and 16 subtrees; the
    /// largest size reaches 16) — and a patch on top keeps them equal,
    /// including the subtree a leaf overflow appends.
    #[test]
    fn parallel_build_matches_one_worker_build_field_by_field() {
        let mut sizes = vec![0usize, 1, 2];
        for around in [
            LEAF_SIZE,
            2 * LEAF_SIZE,
            3 * LEAF_SIZE,
            BUILD_TASK_GRAIN,
            2 * BUILD_TASK_GRAIN,
            4 * BUILD_TASK_GRAIN + LEAF_SIZE,
        ] {
            sizes.extend([around - 1, around, around + 1]);
        }
        sizes.extend([20_011, 8 * (BUILD_TASK_GRAIN + LEAF_SIZE)]);
        for (case, &n) in sizes.iter().enumerate() {
            for duplicate_heavy in [false, true] {
                let pts: Vec<Point3> = if duplicate_heavy {
                    // Forty distinct positions: every split is full of ties.
                    let pool = random_points(40, 900 + case as u64);
                    let mut rng = StdRng::seed_from_u64(case as u64);
                    (0..n)
                        .map(|_| pool[rng.random_range(0..pool.len())])
                        .collect()
                } else {
                    random_points(n, 700 + case as u64)
                };
                let what = format!("n {n} duplicates {duplicate_heavy}");
                let serial = crate::runtime::with_workers(1, || KdTree::build(&pts));
                serial.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
                let (nodes, leaves) = subtree_counts(n);
                assert_eq!(
                    (serial.nodes.len(), serial.leaf_aabbs.len()),
                    (nodes, leaves)
                );
                assert_eq!(serial.nodes.iter().filter(|n| n.is_leaf()).count(), leaves);
                let patch = (n >= 2).then(|| {
                    let (delta, new_pts) = churn(&pts, case as u64 + 1);
                    let mut patched = serial.clone();
                    crate::runtime::with_workers(1, || patched.patch(&delta, &new_pts));
                    patched
                        .validate()
                        .unwrap_or_else(|e| panic!("{what} patched: {e}"));
                    (delta, new_pts, patched)
                });
                for workers in [2usize, 4, 8] {
                    crate::runtime::with_workers(workers, || {
                        let mut tree = KdTree::default();
                        tree.build_in(&pts, &mut IndexScratch::default());
                        assert_same_tree(&tree, &serial, &format!("{what} workers {workers}"));
                        if let Some((delta, new_pts, patched)) = &patch {
                            tree.patch(delta, new_pts);
                            assert_same_tree(
                                &tree,
                                patched,
                                &format!("{what} workers {workers} patched"),
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn knn_batch_matches_per_query_loop() {
        let pts = random_points(700, 21);
        let tree = KdTree::build(&pts);
        let queries = random_points(60, 22);
        for k in [0usize, 1, 4, 9, 1000] {
            let mut batch = crate::Neighborhoods::new();
            tree.knn_batch(&queries, k, &mut batch);
            assert_eq!(batch.len(), queries.len(), "k {k}");
            for (i, &q) in queries.iter().enumerate() {
                let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(batch.row(i), expected.as_slice(), "k {k} query {i}");
            }
        }
    }

    /// The sweep cuts a long batch into one run per worker, each writing
    /// its rows straight into the output block: rows must not depend on the
    /// cut — runs short of and past the Morton-reorder size included — and
    /// a batch appended behind existing rows of its width must leave them
    /// alone.
    #[test]
    fn sweep_rows_do_not_depend_on_the_worker_count() {
        let pts = random_points(3_000, 23);
        let tree = KdTree::build(&pts);
        let queries = random_points(9_001, 24);
        for k in [1usize, 5] {
            let sweep = |workers: usize| {
                crate::runtime::with_workers(workers, || {
                    let mut out = crate::Neighborhoods::new();
                    out.push_rows(1, k).fill(7);
                    tree.knn_batch(&queries, k, &mut out);
                    out
                })
            };
            let one = sweep(1);
            assert_eq!(one.len(), queries.len() + 1);
            assert!(one.row(0).iter().all(|&i| i == 7));
            for (i, &q) in queries.iter().enumerate().step_by(101) {
                let expected: Vec<u32> = tree.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(one.row(i + 1), expected.as_slice(), "k {k} query {i}");
            }
            for workers in [2usize, 4, 8] {
                assert_eq!(sweep(workers), one, "k {k} workers {workers}");
            }
        }
    }

    #[test]
    fn knn_batch_handles_duplicate_points_ties() {
        // Duplicate positions force exact distance ties; batched and
        // per-query paths must both resolve them by ascending index.
        let mut pts = vec![Point3::ONE; 20];
        pts.extend(random_points(100, 31));
        pts.extend(vec![Point3::ONE; 20]);
        let tree = KdTree::build(&pts);
        let nn = tree.knn(Point3::ONE, 8);
        assert_eq!(
            nn.iter().map(|n| n.index).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        let mut batch = crate::Neighborhoods::new();
        tree.knn_batch(&[Point3::ONE], 8, &mut batch);
        assert_eq!(batch.row(0), (0..8u32).collect::<Vec<_>>().as_slice());
    }

    /// Applies a delta to a point vector the way a streaming layer would:
    /// survivors in order, insertions interleaved at their new indices.
    fn apply_delta(
        old: &[Point3],
        delta: &crate::FrameDelta,
        inserted_points: &[Point3],
    ) -> Vec<Point3> {
        let mut new = vec![Point3::ZERO; delta.new_len()];
        for (old_i, &p) in old.iter().enumerate() {
            if let Some(ni) = delta.map_old(old_i) {
                new[ni] = p;
            }
        }
        for (&ni, &p) in delta.inserted().iter().zip(inserted_points) {
            new[ni as usize] = p;
        }
        new
    }

    #[test]
    fn patched_tree_matches_fresh_build_across_churn_sequence() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut pts = random_points(900, 41);
        let mut tree = KdTree::build(&pts);
        for round in 0..6 {
            // Remove a random slice of indices, insert a cluster (dense, to
            // force leaf overflows) plus some scattered points.
            let n = pts.len();
            let removed: Vec<u32> = (0..n as u32)
                .filter(|_| rng.random_range(0..10) < 2)
                .collect();
            let insert_count = rng.random_range(50..200usize);
            let center = pts[rng.random_range(0..n)];
            let inserted_pts: Vec<Point3> = (0..insert_count)
                .map(|i| {
                    if i % 3 == 0 {
                        // Tight cluster around an existing point.
                        center
                            + Point3::new(
                                rng.random_range(-0.01..0.01),
                                rng.random_range(-0.01..0.01),
                                rng.random_range(-0.01..0.01),
                            )
                    } else {
                        random_points(1, round * 1000 + i as u64)[0]
                    }
                })
                .collect();
            let new_len = n - removed.len() + insert_count;
            // Insertions appended at the tail.
            let inserted: Vec<u32> = ((new_len - insert_count) as u32..new_len as u32).collect();
            let delta = crate::FrameDelta::from_parts(n, new_len, removed, inserted).unwrap();
            let new_pts = apply_delta(&pts, &delta, &inserted_pts);
            assert!(delta.verify(&pts, &new_pts).is_ok());

            tree.patch(&delta, &new_pts);
            let fresh = KdTree::build(&new_pts);
            assert_eq!(tree.points(), fresh.points());
            // Exact parity on the per-query path and the dual-tree join.
            for k in [1usize, 5, 70] {
                let queries = random_points(40, round * 7 + 3);
                for q in queries.iter().chain(new_pts.iter().step_by(97)) {
                    let a: Vec<usize> = tree.knn(*q, k).iter().map(|n| n.index).collect();
                    let b: Vec<usize> = fresh.knn(*q, k).iter().map(|n| n.index).collect();
                    assert_eq!(a, b, "round {round} k {k}");
                }
            }
            let mut scratch = DualTreeScratch::default();
            let mut a = crate::Neighborhoods::new();
            tree.knn_batch_with(&new_pts, 5, &mut a, &mut scratch);
            let mut b = crate::Neighborhoods::new();
            fresh.knn_batch_with(&new_pts, 5, &mut b, &mut scratch);
            assert_eq!(scratch.invocations(), 2, "both batches are self-joins");
            assert_eq!(a, b, "round {round} dual-tree self-join");
            pts = new_pts;
        }
    }

    #[test]
    fn patch_handles_emptied_leaves_and_identity() {
        let pts = random_points(300, 51);
        let mut tree = KdTree::build(&pts);
        // Remove a whole spatial half: many leaves become empty.
        let removed: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| pts[i as usize].x > 0.0)
            .collect();
        let survivors = pts.len() - removed.len();
        let delta =
            crate::FrameDelta::from_parts(pts.len(), survivors, removed, Vec::new()).unwrap();
        let new_pts = apply_delta(&pts, &delta, &[]);
        tree.patch(&delta, &new_pts);
        let fresh = KdTree::build(&new_pts);
        for q in random_points(30, 52) {
            assert_eq!(
                tree.knn(q, 6).iter().map(|n| n.index).collect::<Vec<_>>(),
                fresh.knn(q, 6).iter().map(|n| n.index).collect::<Vec<_>>()
            );
        }
        // Identity patch is a no-op.
        let before = tree.clone();
        let id = crate::FrameDelta::diff(&new_pts, &new_pts);
        tree.patch(&id, &new_pts);
        assert_eq!(tree.points(), before.points());
        // Length-mismatched inputs fall back to a full rebuild.
        let shrunk = &new_pts[..new_pts.len() / 2];
        tree.patch(&id, shrunk);
        assert_eq!(tree.points(), shrunk);
        tree.patch(&crate::FrameDelta::diff(shrunk, &[]), &[]);
        assert!(tree.is_empty());
    }

    #[test]
    fn patch_with_duplicates_keeps_tie_order() {
        let mut pts = vec![Point3::ONE; 10];
        pts.extend(random_points(200, 61));
        pts.extend(vec![Point3::ONE; 10]);
        let mut tree = KdTree::build(&pts);
        // Remove a few of the duplicates and insert more duplicates at the
        // same position (appended at the tail).
        let removed = vec![0u32, 3, 212];
        let insert_count = 5usize;
        let new_len = pts.len() - removed.len() + insert_count;
        let inserted: Vec<u32> = ((new_len - insert_count) as u32..new_len as u32).collect();
        let delta = crate::FrameDelta::from_parts(pts.len(), new_len, removed, inserted).unwrap();
        let new_pts = apply_delta(&pts, &delta, &vec![Point3::ONE; insert_count]);
        tree.patch(&delta, &new_pts);
        let fresh = KdTree::build(&new_pts);
        let a: Vec<usize> = tree.knn(Point3::ONE, 12).iter().map(|n| n.index).collect();
        let b: Vec<usize> = fresh.knn(Point3::ONE, 12).iter().map(|n| n.index).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn any_within_agrees_with_brute_force() {
        let pts = random_points(400, 71);
        let tree = KdTree::build(&pts);
        let bf = BruteForce::new(&pts);
        for (qi, q) in random_points(60, 72).into_iter().enumerate() {
            // Exercise exact-boundary radii: the squared distance of a real
            // neighbor must count as "within" (inclusive test).
            let nn = bf.knn(q, 3);
            for n in &nn {
                assert!(
                    tree.any_within(q, n.distance_squared),
                    "query {qi}: tie at the boundary must count"
                );
            }
            let r2 = nn[0].distance_squared;
            if r2 > 0.0 {
                // Strictly inside the nearest neighbor: nothing is within.
                assert!(!tree.any_within(q, r2 * 0.99));
            }
        }
        assert!(!KdTree::build(&[]).any_within(Point3::ZERO, 1e30));
    }

    #[test]
    fn exact_self_query() {
        let pts = random_points(200, 5);
        let tree = KdTree::build(&pts);
        for (i, &p) in pts.iter().enumerate().step_by(17) {
            let nn = tree.knn(p, 1);
            assert_eq!(nn[0].index, i);
            assert_eq!(nn[0].distance_squared, 0.0);
        }
    }
}
