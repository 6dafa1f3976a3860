//! Stage one of the VoLUT pipeline: interpolation (§4.1).
//!
//! Two implementations are provided behind the [`Interpolator`] trait:
//! * [`NaiveInterpolator`] / [`naive::naive_interpolate`] — the vanilla kNN
//!   midpoint interpolation the paper uses as its baseline (`K4d1`, no
//!   dilation, no reuse, fresh neighbor query per generated point);
//! * [`DilatedInterpolator`] / [`dilated::dilated_interpolate`] — VoLUT's
//!   enhanced interpolation with dilation (Eq. 1), a k-d tree self-join
//!   for the neighbor search (the paper's structure is an octree; the k-d
//!   tree is the only index this path builds), neighbor relationship reuse
//!   (Eq. 2) and multi-threaded execution.
//!
//! Both return an [`InterpolationResult`] that carries the upsampled cloud,
//! the parent/neighborhood bookkeeping that later stages reuse (as a flat
//! CSR [`Neighborhoods`] — one allocation for the whole frame instead of
//! one per generated point), and stage timings.
//!
//! # Session state vs frame arena
//!
//! A frame's memory is split by lifetime. [`FrameScratch`] is **session
//! state**: what the *next* frame of the same session reads — the cached
//! spatial index, the previous frame's self-join rows, interpolation outputs
//! and refined tail, the counters and serials, a pending declared delta.
//! Passing the same scratch to every `upsample` call of a streaming session
//! is what makes delta frames cost `O(churn)`. Everything a frame clears,
//! fills and forgets — raw and dilated neighbor lists, the reuse plan, the
//! dual-tree slab, kd-tree patch lists, fresh-row batches, refinement gather
//! buffers — lives on a [`FrameArena`] instead, checked out from a
//! per-thread free-list for the duration of one frame, so a process holds
//! about one arena per worker however many sessions it serves. The
//! re-entrancy rule (a frame nested inside another on the same thread gets
//! its own arena) is spelled out in [`arena`].

pub mod arena;
pub mod colorize;
pub mod dilated;
pub mod naive;
pub mod reuse;
pub mod temporal;

use crate::config::SrConfig;
use crate::Result;
use arena::ArenaLease;
pub use arena::{FrameArena, RowBatch};
use serde::Serialize;
use std::time::Duration;
pub use temporal::TemporalStats;
use volut_pointcloud::delta::FrameDelta;
use volut_pointcloud::kdtree::{KdTree, PatchScratch};
use volut_pointcloud::{Neighborhoods, Point3, PointCloud};

/// Output of an interpolation pass.
///
/// The upsampled cloud stores the original points first (indices
/// `0..original_len`) followed by the newly generated points; the
/// `parents` and `neighborhoods` containers are indexed by *new-point
/// ordinal* (i.e. `cloud index - original_len`).
#[derive(Debug, Clone)]
pub struct InterpolationResult {
    /// The upsampled cloud (original points followed by interpolated points).
    pub cloud: PointCloud,
    /// Number of original (input) points at the front of `cloud`.
    pub original_len: usize,
    /// For each new point, the indices (into the original cloud) of the two
    /// points whose midpoint generated it.
    pub parents: Vec<(usize, usize)>,
    /// For each new point, the (approximate) `k` nearest original-point
    /// indices ordered by increasing distance, stored as one flat CSR
    /// container. Reused by colorization and by the LUT refinement stage so
    /// no further kNN queries (and no per-point allocations) are needed.
    pub neighborhoods: Neighborhoods,
    /// Stage timings measured on the host.
    pub timings: InterpolationTimings,
    /// Operation counters used for reporting and cost modeling.
    pub ops: OpCounts,
}

impl InterpolationResult {
    /// Number of newly generated points.
    pub fn new_points(&self) -> usize {
        self.cloud.len() - self.original_len
    }

    /// The achieved upsampling ratio (output size / input size).
    pub fn achieved_ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.cloud.len() as f64 / self.original_len as f64
        }
    }
}

/// Wall-clock time spent in each sub-stage of interpolation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterpolationTimings {
    /// Time spent (re)building or validating the spatial index. Streaming
    /// sessions with static geometry amortize this to ~zero after the first
    /// frame thanks to the scratch-resident index cache.
    pub index_build: Duration,
    /// Time spent answering kNN queries against the index.
    pub knn: Duration,
    /// Time spent generating midpoints and bookkeeping.
    pub interpolation: Duration,
    /// Time spent assigning colors to the new points.
    pub colorization: Duration,
}

impl InterpolationTimings {
    /// Total time across all sub-stages.
    pub fn total(&self) -> Duration {
        self.index_build + self.knn + self.interpolation + self.colorization
    }
}

/// Counters describing how much work an interpolation pass performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of kNN queries issued against a spatial index.
    pub knn_queries: u64,
    /// Number of candidate points examined across all queries
    /// (an upper bound proxy for distance evaluations).
    pub candidates_examined: u64,
    /// Number of interpolated points generated.
    pub points_generated: u64,
    /// Number of neighbor lists produced by reuse instead of a fresh query.
    pub reused_neighborhoods: u64,
}

impl OpCounts {
    /// Component-wise sum of two counters.
    pub fn combine(self, other: OpCounts) -> OpCounts {
        OpCounts {
            knn_queries: self.knn_queries + other.knn_queries,
            candidates_examined: self.candidates_examined + other.candidates_examined,
            points_generated: self.points_generated + other.points_generated,
            reused_neighborhoods: self.reused_neighborhoods + other.reused_neighborhoods,
        }
    }
}

/// Usage counters of the scratch-resident spatial index and the temporal
/// (delta-frame) reuse layer built on top of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Frames that paid a full index rebuild.
    pub rebuilds: u64,
    /// Frames served from the cached index (matched content).
    pub reuses: u64,
    /// Frames whose index was incrementally patched for a frame delta
    /// ([`KdTree::patch`]) instead of rebuilt.
    pub patches: u64,
    /// kNN self-join rows copied forward from the previous frame by the
    /// incremental path (see [`temporal`]).
    pub rows_reused: u64,
    /// kNN self-join rows recomputed by the incremental path (inserted
    /// queries plus rows invalidated by the churn).
    pub rows_recomputed: u64,
    /// Batches answered by the dual-tree (leaf-pair) all-kNN kernel — the
    /// self-join fast path the interpolators hit once per cold frame at
    /// production sizes.
    pub dual_tree_batches: u64,
}

/// Scratch-resident spatial index shared by the interpolation stages of
/// consecutive frames.
///
/// Streaming sessions repeatedly upsample frames whose geometry is often
/// unchanged (static chunks, paused playback, repeated calibration frames).
/// The cache keeps the k-d tree built for the previous frame and revalidates
/// it per frame by content: the cached tree's own point copy is compared
/// against the frame positions (a linear memcmp-speed scan, two orders of
/// magnitude cheaper than the O(n log n) rebuild it avoids).
///
/// A hit skips both the `positions().to_vec()` clone and the rebuild. The
/// content check is two-tier: a memoized 64-bit
/// geometry digest ([`PointCloud::geometry_digest`]) is compared first, so
/// mismatched frames short-circuit without scanning the cloud, and only a
/// digest match pays the element-wise verify (which also guards against
/// digest collisions). A miss either rebuilds in place via
/// [`KdTree::build_in`] or — when the temporal layer hands it a frame delta
/// — incrementally patches the tree via [`KdTree::patch`], with a full
/// rebuild forced once cumulative patched churn crosses
/// [`PATCH_REBUILD_FRACTION`] of the cloud (stale split planes and bloated
/// node boxes degrade query time, and an occasional rebuild is cheaper than
/// slowly losing the tree's quality).
#[derive(Debug, Default)]
pub struct IndexCache {
    tree: KdTree,
    built: bool,
    built_digest: u64,
    /// Cumulative churn absorbed by patches since the last full build.
    patched_churn: usize,
    /// Bumped whenever the indexed points change (rebuild or patch), so the
    /// temporal layer can tell whether the tree still holds the frame its
    /// cached rows were joined against.
    version: u64,
    stats: IndexCacheStats,
}

/// Cumulative patched churn (fraction of the cloud) that forces the next
/// delta frame onto a full rebuild instead of another patch.
pub const PATCH_REBUILD_FRACTION: f64 = 0.5;

impl IndexCache {
    /// `true` when the cached tree already indexes `positions`, by
    /// digest-then-content comparison.
    pub(crate) fn is_fresh(&self, positions: &[Point3], digest: u64) -> bool {
        self.built && self.built_digest == digest && self.tree.points() == positions
    }

    /// Identifies the current content of the tree (see the field docs).
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// `true` when the tree is live and unchanged since `version`.
    pub(crate) fn holds(&self, version: u64) -> bool {
        self.built && self.version == version
    }

    /// Counts a cache hit and returns the cached tree.
    pub(crate) fn reuse(&mut self) -> &KdTree {
        self.stats.reuses += 1;
        &self.tree
    }

    /// Rebuilds the index over `positions` in place.
    pub(crate) fn rebuild(&mut self, positions: &[Point3], digest: u64) -> &KdTree {
        self.tree.build_in(positions);
        self.built = true;
        self.built_digest = digest;
        self.patched_churn = 0;
        self.version += 1;
        self.stats.rebuilds += 1;
        &self.tree
    }

    /// Incrementally patches the cached index for a frame delta, falling
    /// back to a full rebuild when the cache is cold, the delta's old side
    /// does not match the indexed cloud, or cumulative patched churn
    /// crosses [`PATCH_REBUILD_FRACTION`]. The caller guarantees `delta`
    /// describes the change from the indexed points to `positions`.
    pub(crate) fn patch(
        &mut self,
        positions: &[Point3],
        digest: u64,
        delta: &FrameDelta,
        scratch: &mut PatchScratch,
    ) -> &KdTree {
        if !self.built || self.tree.points().len() != delta.old_len() {
            return self.rebuild(positions, digest);
        }
        self.patched_churn += delta.removed().len().max(delta.inserted().len());
        let budget = (positions.len().max(1) as f64 * PATCH_REBUILD_FRACTION) as usize;
        if self.patched_churn > budget {
            return self.rebuild(positions, digest);
        }
        self.tree.patch_with(delta, positions, scratch);
        self.built_digest = digest;
        self.version += 1;
        self.stats.patches += 1;
        &self.tree
    }

    /// The cached tree. Only meaningful after a `reuse`/`rebuild`/`patch`
    /// established it for the current frame.
    pub(crate) fn cached_tree(&self) -> &KdTree {
        debug_assert!(self.built, "cached_tree before any build");
        &self.tree
    }

    /// Returns the cached tree for `positions`, rebuilding it only when the
    /// indexed content (digest first, then element-wise) does not match.
    /// The second element reports whether a rebuild happened.
    pub(crate) fn get_or_build(&mut self, positions: &[Point3], digest: u64) -> (&KdTree, bool) {
        if self.is_fresh(positions, digest) {
            (self.reuse(), false)
        } else {
            (self.rebuild(positions, digest), true)
        }
    }

    /// Usage counters since this cache was created.
    pub fn stats(&self) -> IndexCacheStats {
        self.stats
    }

    /// Drops the cached index (the next frame rebuilds unconditionally).
    pub fn invalidate(&mut self) {
        self.built = false;
    }
}

/// Bytes of cross-frame state a session holds, by component (capacities,
/// not lengths — what the allocator was asked for).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionStateBytes {
    /// The cached spatial index (points, permutation, SoA lanes, nodes).
    pub index: usize,
    /// The previous frame's self-join rows.
    pub rows: usize,
    /// The previous frame's interpolation outputs (generated positions,
    /// parents, neighborhoods, colors).
    pub outputs: usize,
    /// The previous frame's refined tail.
    pub refined: usize,
}

impl SessionStateBytes {
    /// Sum over the components.
    pub fn total(&self) -> usize {
        self.index + self.rows + self.outputs + self.refined
    }
}

/// The cross-frame state of one streaming session (see the module docs:
/// *session state vs frame arena*).
///
/// A streaming client upsamples tens of frames per second whose geometry
/// mostly repeats. A `FrameScratch` owned by the session (see
/// `volut_stream::client::SrSession`) is threaded through
/// [`crate::SrPipeline::upsample_with`] and carries exactly what the next
/// frame reads: the spatial index ([`IndexCache`]), the previous frame's
/// self-join rows, interpolation outputs and refined tail ([`temporal`]),
/// the reuse counters, and a declared delta waiting for its frame. It owns
/// no buffer that a frame clears before use — those live on the
/// [`FrameArena`] a frame checks out — so its footprint is what a resident
/// tenant costs between frames.
#[derive(Debug, Default)]
pub struct FrameScratch {
    /// Cached spatial index, revalidated per frame.
    pub(crate) index: IndexCache,
    /// The previous frame's self-join rows and downstream outputs — the
    /// temporal-coherence layer that turns delta frames into `O(churn)`
    /// work (see [`temporal`]).
    pub(crate) temporal: temporal::TemporalCache,
    /// The arena of the pipeline frame in flight, parked here between its
    /// stages so the interpolator (reached through the arena-blind
    /// [`Interpolator`] signature) and the refinement stage share it.
    /// `None` between frames.
    frame: Option<ArenaLease>,
}

impl FrameScratch {
    /// Creates an empty session state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a multi-stage frame (interpolate, then refine): checks an
    /// arena out and parks it where [`Self::with_arena`] finds it. Pair
    /// with [`Self::finish_frame`].
    pub(crate) fn begin_frame(&mut self) {
        self.frame = Some(FrameArena::checkout());
    }

    /// Takes the frame's arena back for the stages after interpolation; it
    /// returns to the thread's free-list when the lease drops.
    pub(crate) fn finish_frame(&mut self) -> ArenaLease {
        self.frame
            .take()
            .expect("finish_frame follows begin_frame on the same scratch")
    }

    /// Runs one interpolation with the frame's arena: the one
    /// [`Self::begin_frame`] parked (handed back afterwards for the later
    /// stages), or — for a bare `interpolate` call — one checked out for
    /// just this call. The arena is *moved* out for the duration, so a
    /// frame re-entered on this thread meanwhile can only ever take a
    /// different one.
    pub(crate) fn with_arena<R>(
        &mut self,
        f: impl FnOnce(&mut FrameScratch, &mut FrameArena) -> R,
    ) -> R {
        let parked = self.frame.take();
        let in_pipeline_frame = parked.is_some();
        let mut arena = parked.unwrap_or_else(FrameArena::checkout);
        let dual_before = arena.knn.invocations();
        let result = f(self, &mut arena);
        self.temporal.dual_tree_batches += arena.knn.invocations() - dual_before;
        if in_pipeline_frame {
            self.frame = Some(arena);
        }
        result
    }

    /// Returns a result's neighborhood container for reuse: to the frame in
    /// flight if there is one, else to the arena this thread's next frame
    /// will check out.
    pub fn recycle_neighborhoods(&mut self, neighborhoods: Neighborhoods) {
        match &mut self.frame {
            Some(arena) => arena.neighborhoods = Some(neighborhoods),
            None => FrameArena::adopt_neighborhoods(neighborhoods),
        }
    }

    /// Usage counters of the session's index cache, including the
    /// incremental row-reuse counters of the temporal layer and how many of
    /// this session's batches ran through the dual-tree kernel.
    pub fn index_stats(&self) -> IndexCacheStats {
        let mut stats = self.index.stats();
        stats.dual_tree_batches = self.temporal.dual_tree_batches;
        stats.rows_reused = self.temporal.stats.rows_reused;
        stats.rows_recomputed = self.temporal.stats.rows_recomputed;
        stats
    }

    /// Frame- and row-level counters of the temporal (delta-frame) reuse
    /// layer.
    pub fn temporal_stats(&self) -> TemporalStats {
        self.temporal.stats
    }

    /// Enables or disables incremental (temporal) kNN reuse for subsequent
    /// frames. Enabled by default; disabling also drops the cached frame,
    /// so re-enabling starts cold. Results are bit-identical either way —
    /// this is the ablation/benchmark switch.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.temporal.enabled = enabled;
        if !enabled {
            self.temporal.invalidate();
        }
    }

    /// Whether incremental (temporal) kNN reuse is enabled.
    pub fn incremental(&self) -> bool {
        self.temporal.enabled
    }

    /// Declares the exact delta from the previous upsampled frame to the
    /// next one, sparing the engine its bitwise diff. The delta is verified
    /// against both frames before use (one linear pass); a delta that does
    /// not match falls back to the engine's own diff, so a wrong
    /// declaration costs time, never correctness. Consumed by the next
    /// frame.
    pub fn set_frame_delta(&mut self, delta: FrameDelta) {
        self.temporal.pending_delta = Some(delta);
    }

    /// Flushes every cross-frame cache: the temporal layer (cached rows,
    /// interpolation outputs, refined tail, any pending delta) and the
    /// spatial-index cache, together. The next frame recomputes cold, so
    /// its output depends only on that frame's bits — the resync primitive
    /// of fault-tolerant streaming sessions whose cached state may no
    /// longer describe a frame that was actually processed (see the
    /// cache-flush invariants in [`temporal`]'s module docs). Buffers keep
    /// their capacity; incremental reuse re-arms on the following frame.
    pub fn flush_temporal(&mut self) {
        self.temporal.invalidate();
        self.index.invalidate();
    }

    /// Why the most recent externally supplied frame delta
    /// ([`Self::set_frame_delta`]) was rejected by verification, or `None`
    /// when it verified (or none was consumed since). A rejected delta never
    /// corrupts output — the engine falls back to its own bitwise diff — but
    /// a resilient transport reads the reason to distinguish mangled
    /// payloads from genuine geometry divergence.
    pub fn last_delta_error(&self) -> Option<volut_pointcloud::DeltaError> {
        self.temporal.last_delta_error
    }

    /// Capacity (bytes) reserved by the session state, by component.
    pub fn state_bytes(&self) -> SessionStateBytes {
        SessionStateBytes {
            index: self.index.tree.reserved_bytes(),
            rows: self.temporal.rows_bytes(),
            outputs: self.temporal.outputs_bytes(),
            refined: self.temporal.refined_bytes(),
        }
    }

    /// Capacity (bytes) reserved by the session state — everything this
    /// scratch keeps between frames. Frame transients are accounted on the
    /// arena ([`FrameArena::idle_bytes`]). Steady-state frames of a
    /// stable-size churned session must not grow it (asserted by the
    /// streaming-session tests).
    pub fn reserved_bytes(&self) -> usize {
        self.state_bytes().total()
    }
}

/// A strategy for the interpolation stage, unifying the naive baseline and
/// VoLUT's dilated interpolation behind [`crate::SrPipeline`].
pub trait Interpolator: Send + Sync {
    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Upsamples `low` to roughly `ratio ×` its point count, reusing the
    /// buffers in `scratch` where possible.
    ///
    /// # Errors
    /// Returns an error when the configuration or ratio is invalid, or when
    /// the input has fewer than two points.
    fn interpolate(
        &self,
        low: &PointCloud,
        config: &SrConfig,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<InterpolationResult>;
}

/// Vanilla kNN midpoint interpolation (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveInterpolator;

impl Interpolator for NaiveInterpolator {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn interpolate(
        &self,
        low: &PointCloud,
        config: &SrConfig,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<InterpolationResult> {
        naive::naive_interpolate_with(low, config, ratio, scratch)
    }
}

/// VoLUT's dilated, reuse-enabled, data-parallel interpolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DilatedInterpolator;

impl Interpolator for DilatedInterpolator {
    fn name(&self) -> &'static str {
        "dilated"
    }

    fn interpolate(
        &self,
        low: &PointCloud,
        config: &SrConfig,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<InterpolationResult> {
        dilated::dilated_interpolate_with(low, config, ratio, scratch)
    }
}

/// Computes how many new points must be generated to reach `ratio`, and how
/// they are distributed over the source points (round-robin, earlier points
/// first). Fills `counts` (cleared first) with one entry per source point.
pub(crate) fn distribute_new_points_into(n: usize, ratio: f64, counts: &mut Vec<usize>) {
    counts.clear();
    if n == 0 {
        return;
    }
    let target_total = (n as f64 * ratio).round() as usize;
    let new_total = target_total.saturating_sub(n);
    let base = new_total / n;
    let extra = new_total % n;
    counts.extend((0..n).map(|i| base + usize::from(i < extra)));
}

/// Per-row RNG seed derived from the session seed and the source point's
/// *position bits* (splitmix64-style finalizer). Seeding partner draws by
/// content rather than by row index makes every row's output sequence
/// invariant under index remapping — the property that lets the temporal
/// layer copy interpolated outputs forward across frames whose surviving
/// rows moved to new indices (see [`temporal`]).
pub(crate) fn row_seed(seed: u64, p: Point3) -> u64 {
    fn mix(mut h: u64) -> u64 {
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
    let xy = u64::from(p.x.to_bits()) | (u64::from(p.y.to_bits()) << 32);
    let h = mix(seed ^ 0x9E37_79B9_7F4A_7C15 ^ xy);
    mix(h.wrapping_add(u64::from(p.z.to_bits())))
}

/// Allocating convenience wrapper around [`distribute_new_points_into`].
#[cfg(test)]
pub(crate) fn distribute_new_points(n: usize, ratio: f64) -> Vec<usize> {
    let mut counts = Vec::new();
    distribute_new_points_into(n, ratio, &mut counts);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_reaches_target() {
        let d = distribute_new_points(100, 2.0);
        assert_eq!(d.iter().sum::<usize>(), 100);
        let d = distribute_new_points(100, 2.5);
        assert_eq!(d.iter().sum::<usize>(), 150);
        let d = distribute_new_points(7, 3.3);
        assert_eq!(d.iter().sum::<usize>(), (7.0f64 * 3.3).round() as usize - 7);
    }

    #[test]
    fn distribution_handles_identity_and_empty() {
        assert_eq!(distribute_new_points(10, 1.0).iter().sum::<usize>(), 0);
        assert!(distribute_new_points(0, 4.0).is_empty());
    }

    #[test]
    fn distribution_is_balanced() {
        let d = distribute_new_points(10, 2.35);
        let min = d.iter().min().unwrap();
        let max = d.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn distribution_into_reuses_buffer() {
        let mut counts = vec![99; 3];
        distribute_new_points_into(5, 2.0, &mut counts);
        assert_eq!(counts.len(), 5);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        distribute_new_points_into(0, 2.0, &mut counts);
        assert!(counts.is_empty());
    }

    #[test]
    fn op_counts_combine() {
        let a = OpCounts {
            knn_queries: 1,
            candidates_examined: 10,
            points_generated: 5,
            reused_neighborhoods: 2,
        };
        let b = OpCounts {
            knn_queries: 2,
            candidates_examined: 20,
            points_generated: 1,
            reused_neighborhoods: 0,
        };
        let c = a.combine(b);
        assert_eq!(c.knn_queries, 3);
        assert_eq!(c.candidates_examined, 30);
        assert_eq!(c.points_generated, 6);
        assert_eq!(c.reused_neighborhoods, 2);
    }

    #[test]
    fn recycled_neighborhoods_reach_the_next_frame_cleared() {
        // Outside a frame the container goes to the thread's idle arena —
        // there is one after the first frame — and comes back cleared.
        let mut scratch = FrameScratch::new();
        drop(FrameArena::checkout());
        let mut n = Neighborhoods::new();
        n.push_row([1usize, 2]);
        let reserved = n.reserved_bytes();
        scratch.recycle_neighborhoods(n);
        let mut arena = FrameArena::checkout();
        let n2 = arena.take_neighborhoods();
        assert!(n2.is_empty(), "recycled container must come back cleared");
        assert_eq!(n2.reserved_bytes(), reserved, "and keep its allocation");
    }

    #[test]
    fn interpolator_objects_dispatch() {
        use volut_pointcloud::synthetic;
        let low = synthetic::sphere(200, 1.0, 3);
        let mut scratch = FrameScratch::new();
        let interpolators: Vec<Box<dyn Interpolator>> =
            vec![Box::new(NaiveInterpolator), Box::new(DilatedInterpolator)];
        for interp in &interpolators {
            let cfg = if interp.name() == "naive" {
                SrConfig::k4d1()
            } else {
                SrConfig::default()
            };
            let out = interp.interpolate(&low, &cfg, 2.0, &mut scratch).unwrap();
            assert_eq!(out.cloud.len(), 400, "{}", interp.name());
            assert_eq!(out.neighborhoods.len(), 200);
        }
    }
}
