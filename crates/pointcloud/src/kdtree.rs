//! The k-d tree: this crate's one spatial index.
//!
//! This stands in for the cuKDTree GPU k-d tree used by the paper's CUDA
//! client: an exact, cache-friendly, array-backed k-d tree. Every frame's
//! self-join runs against it (see [`crate::dualtree`]), every other batch
//! sweeps it query by query, and the Yuzu/GradPU baselines query it too;
//! [`crate::knn::BruteForce`] is the oracle it is tested against.
//!
//! # The sort and the cut
//!
//! One routine makes every subtree: [`KdTree::build_in`] (cold frames, the
//! engine's periodic rebuild of a patched index, a delta frame's tree over
//! its inserted points) and the leaves [`KdTree::patch_with`] dirties.
//!
//! * **Sort.** Every point gets a 30-bit Morton code over the cloud's box
//!   with one uniform scale, `1024 / longest edge` (cubic cells,
//!   `knn::morton_scale`), and the points are sorted stably by code
//!   (`knn::sort_by_code`, a counting sort per digit). `order` and
//!   the SoA lanes are written in that order once.
//! * **Cut.** A range of at most [`LEAF_SIZE`] slots is a leaf. Any other
//!   range splits at the first slot whose code has the range's highest
//!   differing bit set. Above that bit the range's codes agree, so on the
//!   bit's axis (`bit % 3`) every left point sits in a lower grid cell than
//!   every right point: the bit is a cell face, an axis-aligned plane.
//!   Quantization is monotone, so with `value` the left child's box max on
//!   that axis, left ≤ `value` < right — the invariant the traversals, the
//!   patch's insert routing and [`KdTree::validate`] rely on. Nodes are
//!   post-order (root last), every subtree covers a contiguous slot range
//!   (the dual-tree shard plan needs that), and leaves hold their points in
//!   Morton order, which keeps the join's row-to-row warm start tight.
//! * **One fallback.** A range of more than [`LEAF_SIZE`] slots whose codes
//!   are all equal sits in one grid cell; it is re-sorted by code over its
//!   own box, the call a dirty leaf makes. If that leaves the codes equal,
//!   the points coincide and the range is cut at its middle.
//!
//! The build runs inline at every size and submits no job. A counting pass
//! over the sorted codes sizes the node arrays before the cut (when they
//! must grow, to the count and half as much again, room for the subtrees
//! later patches append). The two key buffers are the caller's
//! [`IndexScratch`]: the engine keeps one on each worker's frame arena,
//! [`KdTree::build`] and [`KdTree::patch`] make a call-local one.
//!
//! The sort and the cut replaced a median-select builder, whose subtree
//! sizes were a function of the point count alone and fed a level-by-level
//! parallel build; every kNN row and every end-to-end digest stayed
//! bit-identical. Median select → cut on `synthetic::humanoid(n, 0.4, 7)`
//! at `k = 9`, warm scratch, both builders linked into one process and
//! timed alternately, each cell the median of 8 rounds of 30 repetitions on
//! the shared 2-vCPU host (ms; "patch" is a 10 %-churn `patch_with` from
//! [`crate::synthetic::DeltaStream`], "sweep" the kNN sweep of that
//! delta's inserted points on the patched tree):
//!
//! | points | workers | leaves | build | self-join | build + join | patch | sweep |
//! |---:|---:|---|---|---|---|---|---|
//! | 512 | 1 | 8 → 14 | 0.017 → 0.011 | 0.148 → 0.150 | 0.166 → 0.161 | 0.0060 → 0.0062 | 0.019 → 0.019 |
//! | 512 | 2 | 8 → 14 | 0.017 → 0.011 | 0.153 → 0.155 | 0.171 → 0.167 | 0.0060 → 0.0064 | 0.020 → 0.020 |
//! | 4 096 | 1 | 64 → 103 | 0.219 → 0.095 | 1.51 → 1.58 | 1.73 → 1.66 | 0.067 → 0.059 | 0.252 → 0.265 |
//! | 4 096 | 2 | 64 → 103 | 0.283 → 0.110 | 1.20 → 1.13 | 1.50 → 1.22 | 0.089 → 0.073 | 0.307 → 0.281 |
//! | 8 000 | 1 | 128 → 194 | 0.754 → 0.281 | 4.38 → 4.38 | 5.08 → 4.62 | 0.232 → 0.194 | 0.798 → 0.834 |
//! | 8 000 | 2 | 128 → 194 | 0.447 → 0.284 | 2.23 → 2.06 | 2.66 → 2.35 | 0.203 → 0.174 | 0.757 → 0.801 |
//! | 50 000 | 1 | 1 024 → 1 276 | 3.98 → 1.58 | 20.2 → 20.3 | 24.9 → 21.6 | 1.15 → 1.02 | 3.42 → 3.58 |
//! | 50 000 | 2 | 1 024 → 1 276 | 3.24 → 1.63 | 14.0 → 12.5 | 17.0 → 14.1 | 1.41 → 1.08 | 2.48 → 2.62 |
//!
//! Build plus self-join is never slower (0.82–0.98×), the join alone reads
//! 0.90–1.05×, the patch 0.77–1.05× and the sweep 0.92–1.06× (ratios of the
//! unrounded medians). The cut makes more,
//! smaller leaves, so the sweep visits more of them per query.

use crate::aabb::Aabb;
use crate::delta::{FrameDelta, REMOVED};
use crate::dualtree::{self, DualTreeScratch};
use crate::kernels;
use crate::knn::{
    batch_queries, morton_code, morton_scale, sort_by_code, BestK, Neighbor, NeighborSearch,
};
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;
use crate::runtime;
use crate::soa::SoaPositions;
use std::sync::{Mutex, PoisonError};

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

/// One packed tree node (16 bytes, down from a 40-byte enum): keeping the
/// node array small matters because kNN traversals chase it randomly — at
/// 100k points the packed array is ~256 KB and stays cache-resident.
///
/// Splits: `tag` = axis, `value` = plane, `a`/`b` = left/right child ids.
/// Leaves: `tag` = [`LEAF_TAG`], `a`/`b` = range into `KdTree::order`;
/// `value` is unused.
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
}

/// Reusable buffers of [`KdTree::build_in`] and [`KdTree::patch_with`]: two
/// `u64` key buffers (a Morton code above a point index, sorted from one
/// into the other; a patch routes its insertions through them first), and
/// the patch's leaf list and dirty-leaf list. Nothing in here outlives a
/// call, so one scratch serves any number of trees (the engine keeps it on
/// its per-worker frame arena, not on every session's tree) and
/// steady-state builds and patches allocate nothing. It holds 16 bytes per
/// point of the largest cloud it has indexed, plus 8 bytes per node of the
/// largest tree it has patched (about 0.3 bytes per point).
#[derive(Debug, Default)]
pub struct IndexScratch {
    keys: Vec<u64>,
    spare: Vec<u64>,
    leaves: Vec<u32>,
    dirty: Vec<u32>,
}

impl IndexScratch {
    /// Capacity (in bytes) currently reserved by the scratch's buffers.
    pub fn reserved_bytes(&self) -> usize {
        (self.keys.capacity() + self.spare.capacity()) * std::mem::size_of::<u64>()
            + (self.leaves.capacity() + self.dirty.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Where the cut splits a range whose Morton-sorted keys are `keys`: the
/// first slot whose code has the range's highest differing bit set, and
/// that bit's axis; `None` when every code is equal.
fn code_split(keys: &[u64]) -> Option<(usize, usize)> {
    let differ = (keys[0] ^ keys[keys.len() - 1]) >> 32;
    if differ == 0 {
        return None;
    }
    let bit = 63 - differ.leading_zeros();
    let at = keys.partition_point(|&k| (k >> 32 >> bit) & 1 == 0);
    Some((at, bit as usize % 3))
}

/// Nodes the cut makes of a range whose Morton-sorted keys are `keys`. A
/// range of equal codes above [`LEAF_SIZE`] counts as one node: the cut
/// re-sorts it first, so its share is only known then.
fn cut_nodes(keys: &[u64]) -> usize {
    if keys.len() <= LEAF_SIZE {
        return 1;
    }
    match code_split(keys) {
        Some((at, _)) => 1 + cut_nodes(&keys[..at]) + cut_nodes(&keys[at..]),
        None => 1,
    }
}

/// Smallest and largest value of `lane` (`+inf`, `-inf` when it is empty;
/// NaN is passed over): eight independent accumulators, so the pass
/// vectorizes. ([`f32::min`] read 0.43 ns a value on the 2-vCPU host,
/// against 1.05 for `if v < lo { v } else { lo }`, which compiles to a
/// compare and three mask operations.)
fn lane_bounds(lane: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let (blocks, tail) = lane.as_chunks::<8>();
    for block in blocks {
        for i in 0..8 {
            lo[i] = lo[i].min(block[i]);
            hi[i] = hi[i].max(block[i]);
        }
    }
    for &v in tail {
        lo[0] = lo[0].min(v);
        hi[0] = hi[0].max(v);
    }
    (
        lo.into_iter().fold(f32::INFINITY, f32::min),
        hi.into_iter().fold(f32::NEG_INFINITY, f32::max),
    )
}

/// One run's reusable buffers of the single-tree sweep: its traversal
/// stack, cached descent path, best list and Morton visit keys. The caller's
/// [`DualTreeScratch`] keeps one per run, so a steady-state sweep allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    stack: Vec<DeferredSubtree>,
    path: Vec<(u32, Node)>,
    best: BestK,
    keys: Vec<u64>,
    spare: Vec<u64>,
}

impl SweepScratch {
    /// Capacity (in bytes) reserved by the run's buffers (the best list's
    /// few keys aside).
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<DeferredSubtree>()
            + self.path.capacity() * std::mem::size_of::<(u32, Node)>()
            + (self.keys.capacity() + self.spare.capacity()) * std::mem::size_of::<u64>()
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
    /// Tight bounding box of every node's points, parallel to `nodes`
    /// (internal boxes are the union of their children's). Split planes
    /// only bound a leaf's *region*; its points usually occupy a much
    /// smaller box, so checking the query's distance against the leaf's box
    /// before a scan skips most of the backtracking scans the region bound
    /// alone would still pay, and the dual-tree join prunes (query-node,
    /// reference-node) pairs with box-to-box tests at every level. 24 bytes
    /// per node — a few tens of KB even at 100k points.
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
            node_aabbs: Vec::new(),
            root: 0,
        };
        tree.build_in(points, &mut IndexScratch::default());
        tree
    }

    /// Rebuilds this tree over `points`, reusing the point, permutation and
    /// node storage already owned by `self` and the key buffers of
    /// `scratch`. This is the streaming-session entry point: a
    /// scratch-resident tree is rebuilt in place when the frame geometry
    /// actually changes, so steady-state frames pay no allocation for index
    /// (re)construction. One Morton sort and one recursive cut (see the
    /// module docs), inline on the calling thread.
    pub fn build_in(&mut self, points: &[Point3], scratch: &mut IndexScratch) {
        let n = points.len();
        self.points.clear();
        self.points.extend_from_slice(points);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.soa.fill(points);
        let IndexScratch { keys, spare, .. } = scratch;
        keys.resize(n, 0);
        spare.resize(n, 0);
        self.sort_slots(0, n, keys, spare);
        // Node arrays that must grow take the cut's count and half as much
        // again. A session's count moves with the content at each rebuild,
        // and between rebuilds its overflowing leaves append subtrees: in
        // 40-frame 10 %-churn streams of 512 and 4 096 points it peaked at
        // 1.16–1.26× the first build's. The margin covers that, so a
        // steady-state session stops reallocating its tree; `Vec` doubling
        // would leave twice the room.
        let nodes = cut_nodes(keys);
        self.nodes.clear();
        self.node_aabbs.clear();
        if nodes > self.nodes.capacity() {
            self.nodes.reserve_exact(nodes + nodes / 2);
            self.node_aabbs.reserve_exact(nodes + nodes / 2);
        }
        self.root = self.cut(0, n, keys, spare) as usize;
    }

    /// Re-sorts slots `s..e` by Morton code over their own box, which it
    /// returns: writes each slot's `code << 32 | point` key into `keys`,
    /// sorts them (with `spare`), and rewrites `order` and the SoA lanes of
    /// the range from the sorted keys, the lanes in one gather from
    /// `points`. A range that fits a leaf is never cut, and its order only
    /// keeps the scans' warm start tight: it sorts by the code's top 12
    /// bits (a 16³ grid over its box), two counting passes instead of five.
    fn sort_slots(&mut self, s: usize, e: usize, keys: &mut [u64], spare: &mut [u64]) -> Aabb {
        let aabb = self.slots_aabb(s, e);
        let [xs, ys, zs] = self.soa.lanes_mut();
        let inv = morton_scale(&aabb);
        let shift = if e - s <= LEAF_SIZE { 18 } else { 0 };
        let lanes = xs[s..e].iter().zip(&ys[s..e]).zip(&zs[s..e]);
        for ((key, &id), ((&x, &y), &z)) in keys[s..e].iter_mut().zip(&self.order[s..e]).zip(lanes)
        {
            let code = morton_code(Point3::new(x, y, z), aabb.min, inv);
            *key = u64::from(code >> shift) << 32 | u64::from(id);
        }
        sort_by_code(&mut keys[s..e], &mut spare[..e - s]);
        for slot in s..e {
            let id = keys[slot] as u32;
            let p = self.points[id as usize];
            self.order[slot] = id;
            (xs[slot], ys[slot], zs[slot]) = (p.x, p.y, p.z);
        }
        aabb
    }

    /// Cuts slots `s..e`, whose keys are Morton-sorted, into a subtree (see
    /// the module docs), appending its nodes and boxes in post-order, and
    /// returns its root's id.
    fn cut(&mut self, s: usize, e: usize, keys: &mut [u64], spare: &mut [u64]) -> u32 {
        if e - s <= LEAF_SIZE {
            let aabb = self.slots_aabb(s, e);
            let leaf = Node {
                tag: LEAF_TAG,
                value: 0.0,
                a: s as u32,
                b: e as u32,
            };
            return self.push_node(leaf, aabb);
        }
        let split = code_split(&keys[s..e]).or_else(|| {
            // One grid cell holds the whole range: zoom in on its box.
            self.sort_slots(s, e, keys, spare);
            code_split(&keys[s..e])
        });
        // Equal codes over the range's own box: coincident points.
        let (mid, axis) = split.map_or(((s + e) / 2, 0), |(at, axis)| (s + at, axis));
        let left = self.cut(s, mid, keys, spare);
        let right = self.cut(mid, e, keys, spare);
        let (l, r) = (
            self.node_aabbs[left as usize],
            self.node_aabbs[right as usize],
        );
        let split = Node {
            tag: axis as u32,
            value: l.max[axis],
            a: left,
            b: right,
        };
        let aabb = Aabb {
            min: l.min.min(r.min),
            max: l.max.max(r.max),
        };
        self.push_node(split, aabb)
    }

    /// The tight box of slots `s..e` ([`EMPTY_LEAF_AABB`] when empty), one
    /// pass over each SoA lane.
    fn slots_aabb(&self, s: usize, e: usize) -> Aabb {
        let (x0, x1) = lane_bounds(&self.soa.xs()[s..e]);
        let (y0, y1) = lane_bounds(&self.soa.ys()[s..e]);
        let (z0, z1) = lane_bounds(&self.soa.zs()[s..e]);
        Aabb {
            min: Point3::new(x0, y0, z0),
            max: Point3::new(x1, y1, z1),
        }
    }

    /// Appends a node and its box; returns its id.
    fn push_node(&mut self, node: Node, aabb: Aabb) -> u32 {
        self.nodes.push(node);
        self.node_aabbs.push(aabb);
        (self.nodes.len() - 1) as u32
    }

    /// The indexed points, in their original order.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Checks the tree's structural invariants, describing the first
    /// violation: `order` is a permutation of the point indices, the SoA
    /// lanes hold `points[order[i]]` bit for bit, the reachable leaves, left
    /// to right, tile the slots (so every subtree covers a contiguous slot
    /// range) with at most [`LEAF_SIZE`] points each inside their leaf box,
    /// and every point under a split lies on its side of the plane (left ≤
    /// value ≤ right, as floats). `O(n · depth)`; for tests.
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
        let aabb = *self
            .node_aabbs
            .get(id)
            .ok_or(format!("no box for leaf {id}"))?;
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
            + self.node_aabbs.capacity() * std::mem::size_of::<Aabb>()
            + self.soa.reserved_bytes()
    }

    /// Incrementally re-indexes this tree for a delta-frame: surviving
    /// points keep their leaves (indices renumbered through the delta's
    /// survivor map), removed points are dropped from their leaves, and
    /// inserted points are routed down the existing split planes to their
    /// home leaves. Only **dirtied** leaves pay geometry work — a Morton
    /// re-sort over their own box, which is their new exact box, and a local
    /// cut when the leaf overflows [`LEAF_SIZE`] — followed by one
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
            keys,
            spare,
            leaves,
            dirty,
        } = scratch;

        // Route every inserted point down the split planes to its home
        // leaf, with the same comparison the query descent uses (so the
        // plane invariant holds for the routed points too), as
        // `leaf << 32 | index` keys, sorted by leaf.
        keys.clear();
        for &ni in delta.inserted() {
            let p = new_points[ni as usize];
            let coords = [p.x, p.y, p.z];
            let mut id = self.root as u32;
            loop {
                let n = self.nodes[id as usize];
                if n.is_leaf() {
                    break;
                }
                id = if coords[n.tag as usize] < n.value {
                    n.a
                } else {
                    n.b
                };
            }
            keys.push(u64::from(id) << 32 | u64::from(ni));
        }
        spare.resize(keys.len(), 0);
        sort_by_code(keys, spare);

        // The leaves tile the slots left to right; rewrite them leaf by leaf
        // in that order into `spare` — survivors renumbered (relative
        // order, and therefore the Morton slot order of clean leaves, is
        // preserved), removed slots dropped, routed insertions appended to
        // their leaf. A dirty leaf is listed as `leaf << 1 | gained`, where
        // `gained` says an insertion landed in it. The leaf and dirty lists
        // are sized to the node table's *capacity* (both counts are bounded
        // by the node count), so they only ever grow when a node table does
        // — no late capacity bumps for the steady-state zero-growth
        // assertions.
        leaves.clear();
        leaves.reserve(self.nodes.capacity());
        self.collect_leaves(self.root as u32, leaves);
        let old_to_new = delta.old_to_new();
        spare.clear();
        dirty.clear();
        dirty.reserve(self.nodes.capacity());
        for &leaf_id in leaves.iter() {
            let (s, e) = self.nodes[leaf_id as usize].leaf_range();
            let new_start = spare.len();
            for slot in s..e {
                let ni = old_to_new[self.order[slot] as usize];
                if ni != REMOVED {
                    spare.push(u64::from(ni));
                }
            }
            let lost = spare.len() - new_start < e - s;
            let lo = keys.partition_point(|&key| key >> 32 < u64::from(leaf_id));
            let hi = keys.partition_point(|&key| key >> 32 <= u64::from(leaf_id));
            spare.extend(keys[lo..hi].iter().map(|&key| u64::from(key as u32)));
            self.nodes[leaf_id as usize].a = new_start as u32;
            self.nodes[leaf_id as usize].b = spare.len() as u32;
            if lost || hi > lo {
                dirty.push(leaf_id << 1 | u32::from(hi > lo));
            }
        }
        debug_assert_eq!(spare.len(), new_points.len());
        self.points.clear();
        self.points.extend_from_slice(new_points);
        self.order.clear();
        self.order.extend(spare.iter().map(|&id| id as u32));
        // Positions in one tight gather, apart from the branchy walk.
        self.soa
            .fill(self.order.iter().map(|&i| &self.points[i as usize]));

        // Geometry work only where membership changed. A leaf that only
        // lost points keeps its survivors' Morton order and recomputes its
        // box. One that gained points re-sorts them by code over its own
        // box, which is its new box; if it overflows, it is then cut into a
        // subtree appended behind the existing nodes, whose root takes the
        // old leaf node's slot, so ancestors keep their child ids.
        keys.resize(new_points.len(), 0);
        spare.resize(new_points.len(), 0);
        for &entry in dirty.iter() {
            let leaf_id = (entry >> 1) as usize;
            let (s, e) = self.nodes[leaf_id].leaf_range();
            if entry & 1 == 0 {
                self.node_aabbs[leaf_id] = self.slots_aabb(s, e);
                continue;
            }
            let aabb = self.sort_slots(s, e, keys, spare);
            if e - s <= LEAF_SIZE {
                self.node_aabbs[leaf_id] = aabb;
            } else {
                // The cut pushes its root last; it moves into the leaf's
                // slot instead of staying behind as a dead copy.
                self.cut(s, e, keys, spare);
                self.nodes[leaf_id] = self.nodes.pop().expect("the cut's root");
                self.node_aabbs[leaf_id] = self.node_aabbs.pop().expect("the cut's root box");
            }
        }
        // Internal boxes: bottom-up union refresh over the whole (shallow)
        // node tree — a few thousand nodes even at 100k points.
        self.refresh_node_aabbs(self.root as u32);
    }

    /// Appends the ids of the leaves below `id` to `leaves`, left to right
    /// — in slot order.
    fn collect_leaves(&self, id: u32, leaves: &mut Vec<u32>) {
        let n = self.nodes[id as usize];
        if n.is_leaf() {
            leaves.push(id);
        } else {
            self.collect_leaves(n.a, leaves);
            self.collect_leaves(n.b, leaves);
        }
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
                self.scan_leaf(node, n, query, best);
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
                    self.scan_leaf(node, n, query, best);
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
    fn scan_leaf(&self, id: u32, n: Node, query: Point3, best: &mut BestK) {
        if self.node_aabbs[id as usize].distance_squared_to(query) <= best.worst_d2() {
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
            self.sweep(queries, k, out, &mut scratch.sweep_runs);
        }
    }

    /// The single-tree batch sweep: one warm-started traversal per query,
    /// appending one `k.min(len)`-wide row per query to `out`. Exact kNN
    /// rows are stride-uniform, so the whole row block is reserved up front
    /// and the query list is cut into one contiguous run per worker, each
    /// writing its rows straight into place. A run shares one traversal
    /// stack, one cached descent path and one best list across its queries
    /// and visits them in Morton order when it is long enough to repay the
    /// sort (see `batch_queries`); those buffers are `runs[run]`, kept by
    /// the caller, so a steady-state sweep allocates nothing. The caller has
    /// handled `k == 0` and the empty cloud.
    pub(crate) fn sweep(
        &self,
        queries: &[Point3],
        k: usize,
        out: &mut Neighborhoods,
        runs: &mut Vec<Mutex<SweepScratch>>,
    ) {
        let stride = k.min(self.points.len());
        debug_assert!(stride > 0);
        let slab = out.push_rows(queries.len(), stride);
        let workers = runtime::workers_for(queries.len(), SWEEP_MIN_QUERIES_PER_WORKER);
        let run_len = queries.len().div_ceil(workers).max(1);
        if runs.len() < workers {
            runs.resize_with(workers, Mutex::default);
        }
        let runs = &*runs;
        runtime::for_each_chunk_mut(slab, run_len * stride, |c, start, rows| {
            let first = start / stride;
            let run = &queries[first..first + rows.len() / stride];
            // Each run locks only its own buffers; a panic elsewhere leaves
            // nothing in them that the resets below do not clear.
            let mut scratch = runs[c].lock().unwrap_or_else(PoisonError::into_inner);
            let SweepScratch {
                stack,
                path,
                best,
                keys,
                spare,
            } = &mut *scratch;
            // The last batch's descent path and row belong to another tree.
            path.clear();
            best.begin(0);
            batch_queries(run, stride, rows, best, keys, spare, |q, best| {
                self.knn_into_with_path(q, k, best, stack, Some(&mut *path));
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

    /// Field-for-field equality of two trees (split values by bit pattern).
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

    /// A build under a multi-worker pool writes the tree a one-worker build
    /// writes, field for field: sizes around multiples of the leaf size and
    /// around 4 096, 8 192 and 16 448 points, on distinct and
    /// duplicate-heavy clouds, at 2, 4 and 8 workers — and a patch on top
    /// keeps them equal, including the subtree a leaf overflow appends.
    #[test]
    fn parallel_build_matches_one_worker_build_field_by_field() {
        let mut sizes = vec![0usize, 1, 2];
        for around in [
            LEAF_SIZE,
            2 * LEAF_SIZE,
            3 * LEAF_SIZE,
            4096,
            2 * 4096,
            4 * 4096 + LEAF_SIZE,
        ] {
            sizes.extend([around - 1, around, around + 1]);
        }
        sizes.extend([20_011, 8 * (4096 + LEAF_SIZE)]);
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

    /// The counting pass sizes the node arrays: on a cloud of distinct
    /// points no range falls back to a re-sort, so a fresh tree has room
    /// for exactly the nodes the cut made and half as many again, and a
    /// rebuild that fits reallocates nothing. The build's scratch is its
    /// two key buffers, 16 bytes per point.
    #[test]
    fn build_reserves_the_nodes_it_cuts_and_half_again() {
        for n in [1usize, 64, 65, 512, 4_096, 9_000] {
            let mut tree = KdTree::default();
            let mut scratch = IndexScratch::default();
            tree.build_in(&random_points(n, 80 + n as u64), &mut scratch);
            assert!(scratch.reserved_bytes() <= 16 * n.max(4), "n {n}");
            let room = tree.nodes.len() + tree.nodes.len() / 2;
            assert_eq!(tree.nodes.capacity(), room, "n {n}");
            assert_eq!(tree.node_aabbs.capacity(), room, "n {n}");
            let reserved = tree.reserved_bytes();
            tree.build_in(&random_points(n, 90 + n as u64), &mut scratch);
            if tree.nodes.len() <= room {
                assert_eq!(tree.reserved_bytes(), reserved, "n {n}");
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
