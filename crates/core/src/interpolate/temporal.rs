//! Temporally coherent incremental kNN across streaming delta-frames.
//!
//! The kNN *self-join* — every frame point queries the index over the frame
//! cloud — dominates steady-state SR frame time (≈65% at 50k points; see the
//! `sr_stage_breakdown` bench), and volumetric streams rarely change that
//! cloud wholesale: consecutive frames share most of their geometry, with
//! churn arriving as spatially coherent removals and insertions (chunked
//! delivery, moving subjects). This module exploits that coherence: the
//! session's [`FrameScratch`] keeps the previous frame's raw self-join rows,
//! and a new frame only recomputes the rows the churn can actually affect.
//! Everything else is copied forward — and the result is **bit-identical to
//! a full recompute**.
//!
//! # What survives a frame, and what does not
//!
//! The layer's memory is split by lifetime (see *session state vs frame
//! arena* in the [parent module](super)):
//!
//! * **Session state** (`TemporalCache`, on [`FrameScratch`]) is what the
//!   *next* frame reads: the self-join rows, the interpolation outputs
//!   (`OutputCache`), the refined tail (`RefinedCache`), the digest and
//!   serials that correlate them, the counters, and a declared delta
//!   waiting for its frame. The previous frame's *positions* are not
//!   duplicated here — while the rows are usable the session's index tree
//!   still holds exactly those points (`IndexCache::version` says so), and
//!   the diff/verify pass reads them from the tree **before** patching it.
//! * **Frame transients** (`JoinScratch`, `FramePlan`, on the
//!   [`FrameArena`]) are written and consumed inside one frame: the
//!   removed-neighbor bitmap, the kd-tree over inserted points, the
//!   recompute list and its fresh rows, the old→new map and per-row
//!   verdicts `plan_outputs` reads, and the plan itself. An arena serves
//!   whatever session's frame its worker runs next, so nothing here is
//!   trusted across a checkout: the plan's `active` bit and the join
//!   outcome are reset when an arena is taken, and every list is cleared
//!   before it is filled. A frame nested inside another on the same thread
//!   (a worker helping out from inside `run_range`) holds a different arena
//!   — the re-entrancy rule of [`super::arena`].
//!
//! # The invalidation rule
//!
//! For a new frame differing from the cached one by removals `R` and
//! insertions `I` (diffed bitwise by [`FrameDelta::diff`], or supplied
//! explicitly through `SrSession::upsample_frame_delta`), a surviving
//! query's cached row must be recomputed when — and only when — one of:
//!
//! 1. the row references a removed neighbor (a member of its k-set is gone);
//! 2. an inserted point lies within the row's kNN ball: squared distance
//!    `<=` the row's k-th (worst) distance, the `<=` covering distance ties,
//!    tested exactly against an arena-resident kd-tree over the inserted
//!    points ([`KdTree::any_within`]). The radius is taken from the new
//!    frame through the survivor map — query and k-th entry both survived,
//!    so their positions are bitwise the cached frame's.
//!
//! Rows for inserted query points are always computed fresh. Everything
//! else is copied forward with its neighbor indices remapped through the
//! delta's survivor map.
//!
//! # Why the copied rows are bit-identical
//!
//! A cached row holds the `k` nearest old-cloud points of its query, sorted
//! by `(distance, index)` with ties broken by ascending index. If none of
//! its members were removed, every other *old* point still loses to them —
//! removals only shrink the competition. If additionally no inserted point
//! is inside (or on) the row's kNN ball, no *new* point can displace a
//! member or change the k-th distance. What remains is the tie order under
//! the new indices: [`FrameDelta`] guarantees survivors keep their relative
//! order (the diff conservatively churns anything reordered), distances are
//! unchanged (survivor positions are bitwise identical), so remapping the
//! indices preserves the row's `(distance, index)` sort exactly. Rows that
//! fail either test are recomputed through the very same batch machinery a
//! cold frame uses ([`KdTree::knn_batch_with`] — a batch that is not the
//! indexed cloud, so it runs the warm single-tree sweep), so recomputed rows
//! match by construction.
//!
//! The engine falls back to the untouched full-recompute path whenever the
//! cache cannot help: the first frame of a session, a changed `k`, clouds
//! smaller than `k` (every row holds the whole cloud), an index that was
//! re-built over other geometry since the rows were captured (an unplanned
//! frame in between), survivor fractions below [`MIN_SURVIVOR_FRACTION`] (at 100% churn the only cost over the
//! cold path is the failed diff — one linear pass), or when incremental
//! reuse is disabled via [`FrameScratch::set_incremental`].
//!
//! # Downstream output reuse (churn-proportional interpolation)
//!
//! Row reuse propagates past the kNN stage: an interpolated point, its
//! blended color and its refined position depend only on the source row's
//! neighborhood and the neighbor positions/colors, all of which are bitwise
//! unchanged for a row that was copied forward. The cache therefore also
//! snapshots the previous frame's *outputs* per source row — generated
//! positions, parents, generated-point neighborhoods, colors
//! (`OutputCache`) and the refined tail (`RefinedCache`) — and each
//! frame `plan_outputs` classifies every new row as copy-forward or
//! recompute (`FramePlan`):
//!
//! * a **dilated** row's outputs are reusable when the row itself and every
//!   cached partner's row were copied forward (the generated neighborhoods
//!   are derived from the parents' rows, so parent-row validity covers
//!   them);
//! * a **naive** row additionally checks each cached generated point's own
//!   exact-kNN ball against the removals and the inserted-point kd-tree —
//!   the same rule the row cache uses, applied per generated point.
//!
//! Both interpolators draw partners from an RNG seeded by the *source
//! point's position bits* (`super::row_seed`), so a copied-forward row
//! replays the identical draw sequence under its new index and reuse stays
//! bit-identical to a cold recompute. Colors are copied forward only when
//! every survivor's color is unchanged (`colors_ok`); refined positions
//! only when the same pipeline (by id) refined the previous frame. Staleness
//! is guarded by a per-`self_join` serial: outputs must have been captured
//! by the join immediately preceding the current one, otherwise the plan
//! degrades to a cold recompute (never to wrong output). Forcing the cold
//! path — e.g. for benchmarking — is one call:
//! [`FrameScratch::set_incremental`]`(false)`.
//!
//! # Cache-flush invariants
//!
//! The caches are only ever *consulted* after re-validation against the
//! current frame (digest + bitwise position compare, or a verified /
//! re-diffed [`FrameDelta`]), so a stale entry can cost time but never
//! correctness — **provided the cached state actually describes a frame the
//! session once processed**. A transport layer that feeds the session
//! reconstructed geometry (delta streaming with loss recovery) must uphold
//! that provenance; when it cannot — a gap it could not splice, a checksum
//! mismatch, any doubt about what the previous frame really was — it flushes
//! via [`FrameScratch::flush_temporal`], which drops the temporal cache
//! (rows, outputs, refined tail, any pending delta) *and* the spatial index
//! cache together. The two must fall together: the index tree *is* the
//! cached frame's positions (the old side of every delta), so a flushed
//! temporal cache with a live index (or vice versa) would re-correlate
//! state across the discontinuity. After a flush the next frame takes the cold full-recompute
//! path, whose output depends only on that frame's bits (the interpolators
//! seed per-row RNG from position bits, `super::row_seed`) — which is what
//! makes post-resync output bit-identical to a never-faulted session.
//!
//! [`FrameScratch::flush_temporal`]: super::FrameScratch::flush_temporal
//!
//! [`FrameDelta`]: volut_pointcloud::delta::FrameDelta
//! [`FrameDelta::diff`]: volut_pointcloud::delta::FrameDelta::diff
//! [`KdTree::any_within`]: volut_pointcloud::kdtree::KdTree::any_within
//! [`FrameScratch`]: super::FrameScratch
//! [`FrameArena`]: super::FrameArena
//! [`FrameScratch::set_incremental`]: super::FrameScratch::set_incremental

use super::arena::{FrameArena, RowBatch};
use super::{FrameScratch, InterpolationTimings};
use crate::config::SrConfig;
use std::time::Instant;
use volut_pointcloud::delta::{DeltaError, FrameDelta, REMOVED};
use volut_pointcloud::dualtree::DualTreeScratch;
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::{Color, Neighborhoods, Point3, PointCloud};

/// Smallest fraction of surviving points for which the incremental path is
/// attempted; below it (heavy churn) the copy-forward bookkeeping cannot
/// beat the plain full sweep, so the engine takes the untouched cold path.
pub const MIN_SURVIVOR_FRACTION: f64 = 0.5;

/// Row-reuse counters of the incremental kNN path (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemporalStats {
    /// Self-join rows copied forward from the previous frame's cache.
    pub rows_reused: u64,
    /// Self-join rows recomputed: inserted queries plus invalidated rows.
    pub rows_recomputed: u64,
    /// Frames answered incrementally (including identical-frame wholesale
    /// row reuse).
    pub incremental_frames: u64,
    /// Frames that took the full-recompute path (cold frames, heavy churn,
    /// ineligible shapes).
    pub full_frames: u64,
    /// Generated points whose interpolated outputs (position, parents,
    /// neighborhood) were copied forward from the previous frame.
    pub gen_points_reused: u64,
    /// Generated points recomputed through the interpolation cold path.
    pub gen_points_recomputed: u64,
    /// Generated points whose refined positions were copied forward (no LUT
    /// lookup / NN inference performed).
    pub refined_points_reused: u64,
    /// Generated points refined fresh (lookup stats cover exactly these).
    pub refined_points_recomputed: u64,
}

/// How [`self_join`] answered the current frame — the anchor for every
/// downstream reuse decision of the same frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum JoinOutcome {
    /// Full recompute: nothing about the previous frame applies.
    #[default]
    Cold,
    /// The frame is bitwise identical to the cached one.
    Identical,
    /// The frame was answered through the incremental row machinery;
    /// `old_to_new_buf` / `row_valid` describe the old→new relation.
    Incremental,
}

/// Which interpolator captured / wants the cached outputs. The per-row
/// validity rule differs (see the module docs), so cached outputs are never
/// served across kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputKind {
    /// Dilated interpolation with neighbor-relationship reuse.
    Dilated,
    /// Naive baseline (exact per-generated-point kNN rows).
    Naive,
}

/// Everything that must match before cached outputs may be consulted at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutputKey {
    config: SrConfig,
    ratio_bits: u64,
    kind: OutputKind,
}

/// The previous frame's interpolation outputs, per source row: the reuse
/// source for positions, parents, generated-point neighborhoods and colors.
/// All buffers are cleared + refilled per capture (capacity is monotone).
#[derive(Debug, Default)]
pub(crate) struct OutputCache {
    valid: bool,
    /// `join_serial` of the frame that captured these outputs; a plan only
    /// trusts them when that was the join immediately before the current one.
    serial: u64,
    key: Option<OutputKey>,
    /// Per-source-row prefix sums into the tail arrays (`old_n + 1` entries).
    pub(crate) offsets: Vec<u32>,
    /// Generated positions (the previous frame's tail, in output order).
    pub(crate) points: Vec<Point3>,
    /// Parent pairs (old indices; `.0` is the source row).
    pub(crate) parents: Vec<(u32, u32)>,
    /// Generated-point neighborhoods (old indices), one row per tail point.
    pub(crate) hoods: Neighborhoods,
    /// Whether the captured frame carried colors.
    has_colors: bool,
    /// Colors of the generated tail.
    pub(crate) colors: Vec<Color>,
    /// Colors of the captured frame's source points (survivor-change check).
    low_colors: Vec<Color>,
}

/// The previous frame's refined tail, owned by the pipeline that produced it.
#[derive(Debug, Default)]
pub(crate) struct RefinedCache {
    valid: bool,
    /// Id of the [`crate::SrPipeline`] that refined it (refiners differ).
    owner: u64,
    /// `join_serial` of the frame whose tail this is.
    serial: u64,
    points: Vec<Point3>,
}

/// How much of the cached outputs the current frame may copy forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PlanMode {
    /// Recompute everything (no cache, staleness, key mismatch, heavy churn).
    #[default]
    Cold,
    /// The frame equals the cached one: every output copies forward wholesale.
    Identical,
    /// Per-row: `row_src` maps reusable new rows to their cached source row.
    Incremental,
}

/// The per-frame reuse plan produced by [`plan_outputs`] and consumed by the
/// interpolator's assembly, the colorizer and the pipeline's refinement
/// stage. Frame-scoped: it lives on the [`FrameArena`] and is deactivated
/// whenever an arena is checked out, so a plan is only ever consulted by the
/// frame that wrote it.
#[derive(Debug, Default)]
pub(crate) struct FramePlan {
    /// `true` between [`plan_outputs`] / [`note_unplanned_frame`] and the end
    /// of the frame ([`capture_refined`] consumes it) — the guard that keeps
    /// refined-tail reuse from ever crossing an interpolation it did not plan.
    active: bool,
    /// `join_serial` the plan was computed for.
    serial: u64,
    pub(crate) mode: PlanMode,
    /// Per new row: cached source row, or `u32::MAX` to recompute
    /// (`Incremental` mode only).
    pub(crate) row_src: Vec<u32>,
    /// Per new tail ordinal: cached source ordinal, or `u32::MAX` if fresh.
    pub(crate) ordinal_src: Vec<u32>,
    /// New rows to generate fresh, ascending. All rows in `Cold` mode.
    pub(crate) fresh_rows: Vec<u32>,
    /// New tail ordinals to colorize/refine fresh, ascending.
    pub(crate) fresh_ordinals: Vec<u32>,
    /// `true` when every survivor's color is unchanged, so cached tail
    /// colors may be copied forward.
    pub(crate) colors_ok: bool,
    /// Tail length of the cached outputs (refined-reuse length guard).
    old_tail_len: usize,
}

impl FramePlan {
    /// Forgets whatever frame last planned with these buffers.
    pub(crate) fn deactivate(&mut self) {
        self.active = false;
    }

    /// Starts a `Cold` plan for the join numbered `serial`.
    fn begin(&mut self, serial: u64) {
        self.active = true;
        self.serial = serial;
        self.mode = PlanMode::Cold;
        self.row_src.clear();
        self.ordinal_src.clear();
        self.fresh_rows.clear();
        self.fresh_ordinals.clear();
        self.colors_ok = false;
        self.old_tail_len = 0;
    }

    pub(crate) fn reserved_bytes(&self) -> usize {
        (self.row_src.capacity()
            + self.ordinal_src.capacity()
            + self.fresh_rows.capacity()
            + self.fresh_ordinals.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// What a frame's [`self_join`] leaves behind for the same frame's
/// [`plan_outputs`] / [`assemble_outputs`], plus the buffers the incremental
/// update works in. Frame-scoped: it lives on the [`FrameArena`].
#[derive(Debug, Default)]
pub(crate) struct JoinScratch {
    /// How the current frame's self-join was answered.
    outcome: JoinOutcome,
    /// Removed-id membership bitmap over old indices.
    removed_mark: Vec<bool>,
    /// Gathered positions of the inserted points.
    insert_positions: Vec<Point3>,
    /// kd-tree over the inserted points (ball-intersection tests).
    insert_tree: KdTree,
    /// Whether the current incremental frame had any inserted points (the
    /// `insert_tree` is only meaningful then).
    has_inserts: bool,
    /// New-frame indices whose rows must be recomputed.
    recompute: Vec<u32>,
    /// Query positions of `recompute`.
    queries: Vec<Point3>,
    /// Freshly computed rows for `recompute`, scattered into the output
    /// slab afterwards.
    fresh_rows: Neighborhoods,
    /// Copy of the frame delta's old→new survivor map (`Incremental`
    /// frames only; old-indexed, [`REMOVED`] for removals).
    pub(crate) old_to_new: Vec<u32>,
    /// Old-indexed: `true` when that row was copied forward this frame.
    row_valid: Vec<bool>,
}

impl JoinScratch {
    /// Forgets whatever frame last joined with these buffers.
    pub(crate) fn reset(&mut self) {
        self.outcome = JoinOutcome::Cold;
    }

    pub(crate) fn reserved_bytes(&self) -> usize {
        (self.insert_positions.capacity() + self.queries.capacity()) * std::mem::size_of::<Point3>()
            + self.removed_mark.capacity()
            + self.row_valid.capacity()
            + (self.recompute.capacity() + self.old_to_new.capacity()) * std::mem::size_of::<u32>()
            + self.insert_tree.reserved_bytes()
            + self.fresh_rows.reserved_bytes()
    }
}

/// The previous frame's self-join rows and downstream outputs — the
/// cross-frame half of the temporal layer, owned by [`FrameScratch`]. The
/// previous frame's *positions* are not kept here: whenever the rows are
/// usable the session's index tree still holds them (`index_version`
/// records which build or patch of the tree the rows belong to).
#[derive(Debug)]
pub(crate) struct TemporalCache {
    /// `false` forces the engine onto the full-recompute path (and stops
    /// capturing) — the ablation/bench switch.
    pub(crate) enabled: bool,
    /// `true` when `rows` describe the last processed frame.
    valid: bool,
    /// Row stride of the cached self-join (`k + 1` of the interpolator that
    /// captured it); a changed stride invalidates the cache.
    kq: usize,
    /// Geometry digest of the cached frame (first-pass identity check).
    digest: u64,
    /// [`IndexCache::version`](super::IndexCache) of the tree when the rows
    /// were captured: while it still matches, the tree's points *are* the
    /// cached frame (the delta's old side, the identity check's reference).
    index_version: u64,
    /// The cached raw self-join rows (uniform stride `kq`, ascending
    /// `(distance, index)` within each row).
    rows: Neighborhoods,
    /// Delta supplied explicitly by the streaming layer for the next frame
    /// (verified before use; wrong deltas fall back to the bitwise diff).
    pub(crate) pending_delta: Option<FrameDelta>,
    /// Why the most recent externally supplied delta was rejected (`None`
    /// when it verified, or when no external delta was consumed yet) — the
    /// poisoning-detection signal a resilient session inspects after a
    /// frame whose delta it did not trust.
    pub(crate) last_delta_error: Option<DeltaError>,
    pub(crate) stats: TemporalStats,
    /// Batches the dual-tree kernel answered for this session.
    pub(crate) dual_tree_batches: u64,
    /// Bumped at every [`self_join`] / [`note_unplanned_frame`]; correlates
    /// the caches with the frame they were captured on.
    join_serial: u64,
    /// The previous frame's interpolation outputs.
    pub(crate) outputs: OutputCache,
    /// The previous frame's refined tail.
    refined: RefinedCache,
}

impl Default for TemporalCache {
    fn default() -> Self {
        Self {
            enabled: true,
            valid: false,
            kq: 0,
            digest: 0,
            index_version: 0,
            rows: Neighborhoods::new(),
            pending_delta: None,
            last_delta_error: None,
            stats: TemporalStats::default(),
            dual_tree_batches: 0,
            join_serial: 0,
            outputs: OutputCache::default(),
            refined: RefinedCache::default(),
        }
    }
}

impl TemporalCache {
    /// Drops the cached frame and every downstream output cache (the next
    /// frame recomputes in full).
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
        self.pending_delta = None;
        self.outputs.valid = false;
        self.refined.valid = false;
    }

    /// Capacity (bytes) reserved by the cached self-join rows.
    pub(crate) fn rows_bytes(&self) -> usize {
        self.rows.reserved_bytes()
    }

    /// Capacity (bytes) reserved by the cached interpolation outputs.
    pub(crate) fn outputs_bytes(&self) -> usize {
        let o = &self.outputs;
        o.offsets.capacity() * std::mem::size_of::<u32>()
            + o.points.capacity() * std::mem::size_of::<Point3>()
            + o.parents.capacity() * std::mem::size_of::<(u32, u32)>()
            + o.hoods.reserved_bytes()
            + (o.colors.capacity() + o.low_colors.capacity()) * std::mem::size_of::<Color>()
    }

    /// Capacity (bytes) reserved by the cached refined tail.
    pub(crate) fn refined_bytes(&self) -> usize {
        self.refined.points.capacity() * std::mem::size_of::<Point3>()
    }
}

/// The self-join kNN pass of both interpolators: fills `arena.raw_hoods`
/// with one `kq`-wide row per point of `low`, bit-identical to
/// [`KdTree::knn_batch_with`] over a fresh index, while reusing the session's
/// spatial index and — when the previous frame is coherent with this one —
/// the previous frame's rows. Updates `timings.index_build` (index
/// validation, patch or rebuild) and `timings.knn` (diff, invalidation,
/// copy-forward and recompute).
pub(crate) fn self_join(
    low: &PointCloud,
    kq: usize,
    scratch: &mut FrameScratch,
    arena: &mut FrameArena,
    timings: &mut InterpolationTimings,
) {
    let FrameArena {
        raw_hoods: out,
        knn,
        patch,
        join,
        ..
    } = arena;
    out.clear();
    let positions = low.positions();
    let n = positions.len();
    let digest = low.geometry_digest();
    let FrameScratch {
        index, temporal: t, ..
    } = scratch;
    let pending = t.pending_delta.take();
    if pending.is_some() {
        // A fresh external delta resets the rejection record; a rejection
        // below re-arms it for the streaming layer to inspect.
        t.last_delta_error = None;
    }
    t.join_serial += 1;
    join.outcome = JoinOutcome::Cold;

    // Eligibility of the cached rows (not yet of this specific frame). They
    // are only usable while the tree they were joined against is still the
    // session's index — its points are then the cached frame, which is what
    // the identity check and the delta's old side read below. Anything that
    // re-indexed in between (an unplanned frame over other geometry) sends
    // this frame down the cold path.
    let cache_ready = t.enabled
        && t.valid
        && t.kq == kq
        && index.holds(t.index_version)
        && t.rows.len() > kq
        && n > kq;

    // --- Unchanged frame: cached index, and (when available) every cached
    // row reused wholesale.
    let t0 = Instant::now();
    if index.is_fresh(positions, digest) {
        index.reuse();
        timings.index_build += t0.elapsed();
        let t1 = Instant::now();
        if cache_ready && t.digest == digest && index.cached_tree().points() == positions {
            let slab = out.push_uniform_rows(n, kq);
            slab.copy_from_slice(t.rows.indices());
            t.stats.rows_reused += n as u64;
            t.stats.incremental_frames += 1;
            join.outcome = JoinOutcome::Identical;
            timings.knn += t1.elapsed();
            return;
        }
        index.cached_tree().knn_batch_with(positions, kq, out, knn);
        timings.knn += t1.elapsed();
        capture(t, index.version(), positions.len(), digest, kq, out);
        t.stats.full_frames += 1;
        return;
    }
    timings.index_build += t0.elapsed();

    // --- Changed frame: relate it to the cached one, read from the tree
    // before anything re-indexes it. The diff aborts as soon as the
    // survivor threshold is unreachable, so a scene cut pays about half a
    // diff walk on top of the cold path it then takes.
    let t1 = Instant::now();
    let delta = if cache_ready {
        let old = index.cached_tree().points();
        let min_survivors = (old.len().max(n) as f64 * MIN_SURVIVOR_FRACTION).ceil() as usize;
        let external = pending.and_then(|d| match d.verify(old, positions) {
            Ok(()) => Some(d),
            Err(e) => {
                // A wrong external delta is recorded (streaming layers read
                // the reason as their cache-poisoning signal) and the
                // engine falls back to its own diff.
                t.last_delta_error = Some(e);
                None
            }
        });
        external.or_else(|| FrameDelta::diff_bounded(old, positions, min_survivors))
    } else {
        None
    };
    let delta = delta.filter(|d| {
        d.new_len() == n
            && d.survivors() as f64 >= d.old_len().max(n) as f64 * MIN_SURVIVOR_FRACTION
    });
    timings.knn += t1.elapsed();

    let Some(delta) = delta else {
        // The untouched cold path: full rebuild, full sweep.
        let t2 = Instant::now();
        index.rebuild(positions, digest);
        timings.index_build += t2.elapsed();
        let t3 = Instant::now();
        index.cached_tree().knn_batch_with(positions, kq, out, knn);
        timings.knn += t3.elapsed();
        capture(t, index.version(), positions.len(), digest, kq, out);
        t.stats.full_frames += 1;
        return;
    };

    let t2 = Instant::now();
    index.patch(positions, digest, &delta, patch);
    timings.index_build += t2.elapsed();

    let t3 = Instant::now();
    incremental_rows(
        index.cached_tree(),
        t,
        join,
        knn,
        positions,
        kq,
        &delta,
        out,
    );
    timings.knn += t3.elapsed();
    capture(t, index.version(), positions.len(), digest, kq, out);
    t.stats.incremental_frames += 1;
    join.outcome = JoinOutcome::Incremental;
}

/// Registers a frame that bypassed [`self_join`] (the naive interpolator's
/// partial-prefix path): the serial bump and a `Cold` plan over the first
/// `active` rows keep every cache from being correlated across the
/// discontinuity.
pub(crate) fn note_unplanned_frame(t: &mut TemporalCache, arena: &mut FrameArena, active: usize) {
    t.join_serial += 1;
    arena.join.outcome = JoinOutcome::Cold;
    arena.plan.begin(t.join_serial);
    arena.plan.fresh_rows.extend(0..active as u32);
}

/// Produces the new frame's rows from the cached ones: copy-forward with
/// index remap for rows the churn cannot affect, a bichromatic batch
/// recompute against `tree` (the already patched index over `positions`)
/// for the rest (see the module docs for the invalidation rule).
#[allow(clippy::too_many_arguments)]
fn incremental_rows(
    tree: &KdTree,
    t: &mut TemporalCache,
    join: &mut JoinScratch,
    knn: &mut DualTreeScratch,
    positions: &[Point3],
    kq: usize,
    delta: &FrameDelta,
    out: &mut Neighborhoods,
) {
    let n = positions.len();
    let old_n = delta.old_len();
    debug_assert_eq!(t.rows.total_indices(), old_n * kq);

    // Removed-neighbor membership bitmap.
    join.removed_mark.clear();
    join.removed_mark.resize(old_n, false);
    for &i in delta.removed() {
        join.removed_mark[i as usize] = true;
    }
    // Ball-intersection index over the inserted points.
    join.has_inserts = !delta.inserted().is_empty();
    join.insert_positions.clear();
    join.insert_positions
        .extend(delta.inserted().iter().map(|&i| positions[i as usize]));
    join.insert_tree.build_in(&join.insert_positions);

    // Classify every surviving row; copy the valid ones forward. The
    // old→new map and the per-row validity verdicts stay on the arena:
    // [`plan_outputs`] reuses them to classify the downstream outputs.
    join.recompute.clear();
    let slab = out.push_uniform_rows(n, kq);
    let old_to_new = delta.old_to_new();
    join.old_to_new.clear();
    join.old_to_new.extend_from_slice(old_to_new);
    join.row_valid.clear();
    join.row_valid.resize(old_n, false);
    for old_i in 0..old_n {
        let new_i = old_to_new[old_i];
        if new_i == REMOVED {
            continue;
        }
        let row = t.rows.row(old_i);
        let mut invalid = row.iter().any(|&j| join.removed_mark[j as usize]);
        if !invalid && join.has_inserts {
            // The row's kNN ball: squared distance to its k-th (worst)
            // entry, recomputed lazily with [`Point3::distance_squared`] —
            // the scan kernels' exact arithmetic, so the `<=` intersection
            // test below covers distance ties precisely. Query and entry
            // both survive (no member was removed), so the new frame holds
            // their unchanged positions under the remapped indices.
            let query = positions[new_i as usize];
            let worst = positions[old_to_new[row[kq - 1] as usize] as usize];
            invalid = join
                .insert_tree
                .any_within(query, query.distance_squared(worst));
        }
        if invalid {
            join.recompute.push(new_i);
        } else {
            join.row_valid[old_i] = true;
            let dst = &mut slab[new_i as usize * kq..(new_i as usize + 1) * kq];
            for (d, &j) in dst.iter_mut().zip(row) {
                *d = old_to_new[j as usize];
            }
        }
    }
    join.recompute.extend_from_slice(delta.inserted());
    t.stats.rows_reused += (n - join.recompute.len()) as u64;
    t.stats.rows_recomputed += join.recompute.len() as u64;

    // Recompute the dirty rows as one batch against the patched index (a
    // subset of the cloud, so it runs the warm single-tree sweep, cut across
    // the workers) and scatter them into their final slots.
    join.queries.clear();
    join.queries
        .extend(join.recompute.iter().map(|&i| positions[i as usize]));
    join.fresh_rows.clear();
    tree.knn_batch_with(&join.queries, kq, &mut join.fresh_rows, knn);
    for (r, &new_i) in join.recompute.iter().enumerate() {
        let src = join.fresh_rows.row(r);
        slab[new_i as usize * kq..(new_i as usize + 1) * kq].copy_from_slice(src);
    }
}

/// Snapshots this frame's rows as the next frame's reuse source, tagged
/// with the index version they were joined against. Frames the cache cannot
/// describe (tiny clouds whose rows are shorter than `kq`) invalidate it
/// instead.
fn capture(
    t: &mut TemporalCache,
    index_version: u64,
    n: usize,
    digest: u64,
    kq: usize,
    out: &Neighborhoods,
) {
    if !t.enabled {
        return;
    }
    if kq == 0 || n <= kq {
        t.valid = false;
        return;
    }
    debug_assert_eq!(out.len(), n);
    debug_assert_eq!(out.total_indices(), n * kq);
    t.kq = kq;
    t.digest = digest;
    t.index_version = index_version;
    t.rows.clear();
    t.rows.append(out);
    t.valid = true;
}

/// Whether every source color the cached outputs blended from is unchanged
/// in the new frame (tail colors may then copy forward bit-identically).
fn colors_match(
    o: &OutputCache,
    low: &PointCloud,
    outcome: JoinOutcome,
    old_to_new: &[u32],
) -> bool {
    match (o.has_colors, low.colors()) {
        (false, None) => true,
        (true, Some(lc)) => match outcome {
            JoinOutcome::Identical => o.low_colors.as_slice() == lc,
            JoinOutcome::Incremental => {
                o.low_colors.len() == old_to_new.len()
                    && old_to_new.iter().enumerate().all(|(old_i, &new_i)| {
                        new_i == REMOVED || o.low_colors[old_i] == lc[new_i as usize]
                    })
            }
            JoinOutcome::Cold => false,
        },
        _ => false,
    }
}

/// Classifies every new source row as copy-forward or recompute against the
/// cached outputs, filling the arena's [`FramePlan`]. Must run directly after
/// the frame's [`self_join`] on the same arena (it keys off the join outcome
/// and the row-validity scratch that join left there). `arena.counts[i]` is
/// the number of points the interpolator will generate for row `i`. Any
/// doubt degrades the plan to `Cold` — wrong reuse is never an outcome, only
/// missed reuse.
pub(crate) fn plan_outputs(
    t: &mut TemporalCache,
    arena: &mut FrameArena,
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    kind: OutputKind,
) -> PlanMode {
    let FrameArena {
        counts,
        join,
        plan: p,
        ..
    } = arena;
    let n = counts.len();
    let total: usize = counts.iter().sum();
    let serial = t.join_serial;
    p.begin(serial);
    let key = OutputKey {
        config: *config,
        ratio_bits: ratio.to_bits(),
        kind,
    };
    // Dilated outputs are only row-deterministic when neighbor reuse is on
    // (the no-reuse path recomputes generated-point kNN globally).
    let hood_capable = kind == OutputKind::Naive || config.reuse_neighbors;
    let eligible = t.enabled
        && hood_capable
        && t.outputs.valid
        && t.outputs.serial + 1 == serial
        && t.outputs.key == Some(key);
    let o = &t.outputs;

    let mode = 'plan: {
        if !eligible {
            break 'plan PlanMode::Cold;
        }
        match join.outcome {
            JoinOutcome::Cold => PlanMode::Cold,
            JoinOutcome::Identical => {
                if o.offsets.len() != n + 1 || o.offsets[n] as usize != total {
                    break 'plan PlanMode::Cold;
                }
                debug_assert!(
                    (0..n).all(|i| (o.offsets[i + 1] - o.offsets[i]) as usize == counts[i]),
                    "identical frame must reproduce the cached per-row counts"
                );
                p.colors_ok = colors_match(o, low, JoinOutcome::Identical, &[]);
                p.old_tail_len = o.points.len();
                t.stats.gen_points_reused += total as u64;
                PlanMode::Identical
            }
            JoinOutcome::Incremental => {
                let JoinScratch {
                    row_valid,
                    removed_mark,
                    old_to_new,
                    insert_tree,
                    has_inserts,
                    ..
                } = &*join;
                let old_n = row_valid.len();
                if o.offsets.len() != old_n + 1 || old_to_new.len() != old_n {
                    break 'plan PlanMode::Cold;
                }
                // Invert the survivor map over rows: new row -> cached row.
                p.row_src.resize(n, u32::MAX);
                for old_i in 0..old_n {
                    if row_valid[old_i] {
                        p.row_src[old_to_new[old_i] as usize] = old_i as u32;
                    }
                }
                let positions = low.positions();
                let mut new_off: u32 = 0;
                let mut reused: u64 = 0;
                for (new_i, &count) in counts.iter().enumerate() {
                    let src = p.row_src[new_i];
                    let mut ok = src != u32::MAX;
                    if ok {
                        let o0 = o.offsets[src as usize] as usize;
                        let o1 = o.offsets[src as usize + 1] as usize;
                        ok = o1 - o0 == count
                            && match kind {
                                // A dilated row's outputs (points, parents,
                                // merged generated-point hoods) derive from
                                // the source row and its partners' rows.
                                OutputKind::Dilated => o.parents[o0..o1]
                                    .iter()
                                    .all(|&(_, b)| row_valid[b as usize]),
                                // A naive generated point owns an exact kNN
                                // row; apply the row invalidation rule to it.
                                OutputKind::Naive => (o0..o1).all(|ord| {
                                    let hood = o.hoods.row(ord);
                                    !hood.is_empty()
                                        && hood.iter().all(|&b| !removed_mark[b as usize])
                                        && (!*has_inserts || {
                                            let mid = o.points[ord];
                                            let last = *hood.last().unwrap() as usize;
                                            let r2 = mid.distance_squared(
                                                positions[old_to_new[last] as usize],
                                            );
                                            !insert_tree.any_within(mid, r2)
                                        })
                                }),
                            };
                    }
                    if ok {
                        let o0 = o.offsets[src as usize];
                        let o1 = o.offsets[src as usize + 1];
                        p.ordinal_src.extend(o0..o1);
                        reused += count as u64;
                    } else {
                        p.row_src[new_i] = u32::MAX;
                        p.fresh_rows.push(new_i as u32);
                        p.fresh_ordinals.extend(new_off..new_off + count as u32);
                        p.ordinal_src.resize(p.ordinal_src.len() + count, u32::MAX);
                    }
                    new_off += count as u32;
                }
                debug_assert_eq!(new_off as usize, total);
                p.colors_ok = colors_match(o, low, JoinOutcome::Incremental, old_to_new);
                p.old_tail_len = o.points.len();
                t.stats.gen_points_reused += reused;
                t.stats.gen_points_recomputed += total as u64 - reused;
                PlanMode::Incremental
            }
        }
    };
    if mode == PlanMode::Cold {
        p.fresh_rows.extend(0..n as u32);
        t.stats.gen_points_recomputed += total as u64;
    }
    p.mode = mode;
    mode
}

/// Interleaves cached (index-remapped) and fresh outputs into the final
/// frame order dictated by `counts`, appending to `cloud`/`parents` and —
/// when requested — `hoods_out`. `fresh` holds the outputs of the plan's
/// `fresh_rows`, compacted in row order; `old_to_new` is the join's survivor
/// map.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_outputs(
    o: &OutputCache,
    p: &FramePlan,
    old_to_new: &[u32],
    counts: &[usize],
    fresh: &RowBatch,
    cloud: &mut PointCloud,
    parents: &mut Vec<(usize, usize)>,
    mut hoods_out: Option<&mut Neighborhoods>,
) {
    match p.mode {
        PlanMode::Cold => {
            cloud.extend_positions(&fresh.points);
            parents.extend(fresh.parents());
            if let Some(out) = hoods_out.as_deref_mut() {
                out.append(&fresh.hoods);
            }
        }
        PlanMode::Identical => {
            cloud.extend_positions(&o.points);
            parents.extend(o.parents.iter().map(|&(a, b)| (a as usize, b as usize)));
            if let Some(out) = hoods_out.as_deref_mut() {
                out.append(&o.hoods);
            }
        }
        PlanMode::Incremental => {
            let total: usize = counts.iter().sum();
            parents.reserve(total);
            if let Some(out) = hoods_out.as_deref_mut() {
                out.reserve_rows(total, o.hoods.total_indices() + fresh.hoods.total_indices());
            }
            let mut fc = 0usize;
            for (new_i, &count) in counts.iter().enumerate() {
                let src = p.row_src[new_i];
                if src == u32::MAX {
                    cloud.extend_positions(&fresh.points[fc..fc + count]);
                    parents.extend(fresh.parents_of(fc..fc + count));
                    if let Some(out) = hoods_out.as_deref_mut() {
                        for r in 0..count {
                            out.push_row_u32(fresh.hoods.row(fc + r));
                        }
                    }
                    fc += count;
                } else {
                    let o0 = o.offsets[src as usize] as usize;
                    let o1 = o.offsets[src as usize + 1] as usize;
                    cloud.extend_positions(&o.points[o0..o1]);
                    parents.extend(o.parents[o0..o1].iter().map(|&(a, b)| {
                        (
                            old_to_new[a as usize] as usize,
                            old_to_new[b as usize] as usize,
                        )
                    }));
                    if let Some(out) = hoods_out.as_deref_mut() {
                        for ord in o0..o1 {
                            out.push_row_u32_iter(
                                o.hoods.row(ord).iter().map(|&j| old_to_new[j as usize]),
                            );
                        }
                    }
                }
            }
            debug_assert_eq!(fc, fresh.points.len());
        }
    }
}

/// Copies the cached tail colors forward for every reused ordinal (fresh
/// ordinals keep their placeholder and must be colorized by the caller).
/// Returns `false` — leaving the cloud untouched — unless the plan vouched
/// for the source colors (`colors_ok`) and every length lines up.
pub(crate) fn scatter_cached_colors(
    o: &OutputCache,
    p: &FramePlan,
    cloud: &mut PointCloud,
    original_len: usize,
) -> bool {
    if !p.colors_ok || p.mode == PlanMode::Cold || !o.has_colors || !cloud.has_colors() {
        return false;
    }
    let tail_len = cloud.len() - original_len;
    let len_ok = match p.mode {
        PlanMode::Identical => o.colors.len() == tail_len,
        PlanMode::Incremental => p.ordinal_src.len() == tail_len,
        PlanMode::Cold => false,
    };
    if !len_ok {
        return false;
    }
    let mut colors = cloud.take_colors().expect("has_colors checked above");
    match p.mode {
        PlanMode::Identical => colors[original_len..].copy_from_slice(&o.colors),
        PlanMode::Incremental => {
            for (i, &src) in p.ordinal_src.iter().enumerate() {
                if src != u32::MAX {
                    colors[original_len + i] = o.colors[src as usize];
                }
            }
        }
        PlanMode::Cold => unreachable!(),
    }
    cloud
        .set_colors(colors)
        .expect("color count unchanged by scatter");
    true
}

/// Snapshots this frame's interpolation outputs as the next frame's reuse
/// source. Ineligible frames (disabled cache, no captured rows, hood-blind
/// dilated mode) invalidate the cache instead — never leave it stale.
#[allow(clippy::too_many_arguments)]
pub(crate) fn capture_outputs(
    t: &mut TemporalCache,
    plan: &FramePlan,
    counts: &[usize],
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    kind: OutputKind,
    cloud: &PointCloud,
    parents: &[(usize, usize)],
    hoods: &Neighborhoods,
) {
    let hood_capable = kind == OutputKind::Naive || config.reuse_neighbors;
    if !t.enabled || !t.valid || !hood_capable {
        t.outputs.valid = false;
        return;
    }
    let original_len = low.len();
    // Identical frames already have this tail captured bit-exactly: refresh
    // the serial (and colors, if those drifted) without the bulk copies.
    if plan.active
        && plan.serial == t.join_serial
        && plan.mode == PlanMode::Identical
        && t.outputs.valid
    {
        t.outputs.serial = t.join_serial;
        if !plan.colors_ok {
            capture_colors(&mut t.outputs, low, cloud, original_len);
        }
        return;
    }
    debug_assert_eq!(counts.len(), low.len());
    debug_assert_eq!(hoods.len(), parents.len());
    // The offsets below are derived from `counts`; a tail that does not add
    // up (degenerate inputs) must not be captured as a reuse source.
    let total: usize = counts.iter().sum();
    if cloud.len() - original_len != total || parents.len() != total {
        t.outputs.valid = false;
        return;
    }
    let o = &mut t.outputs;
    o.serial = t.join_serial;
    o.key = Some(OutputKey {
        config: *config,
        ratio_bits: ratio.to_bits(),
        kind,
    });
    o.offsets.clear();
    o.offsets.reserve(counts.len() + 1);
    let mut acc = 0u32;
    o.offsets.push(0);
    for &c in counts {
        acc += c as u32;
        o.offsets.push(acc);
    }
    o.points.clear();
    o.points
        .extend_from_slice(&cloud.positions()[original_len..]);
    o.parents.clear();
    o.parents
        .extend(parents.iter().map(|&(a, b)| (a as u32, b as u32)));
    o.hoods.clear();
    o.hoods.append(hoods);
    capture_colors(o, low, cloud, original_len);
    o.valid = true;
}

/// Captures the tail + source colors the output cache needs for `colors_ok`.
fn capture_colors(o: &mut OutputCache, low: &PointCloud, cloud: &PointCloud, original_len: usize) {
    o.colors.clear();
    o.low_colors.clear();
    if let (Some(cc), Some(lc)) = (cloud.colors(), low.colors()) {
        o.colors.extend_from_slice(&cc[original_len..]);
        o.low_colors.extend_from_slice(lc);
        o.has_colors = true;
    } else {
        o.has_colors = false;
    }
}

/// Copies cached refined positions onto the tail for every reused ordinal.
/// Returns `false` (tail untouched, caller refines in full) unless the
/// refined cache belongs to this pipeline (`owner`), covers exactly the
/// frame the current plan reuses from, and every length lines up. On `true`
/// the caller must still refine `plan.fresh_ordinals`.
pub(crate) fn reuse_refined_into(
    t: &mut TemporalCache,
    p: &FramePlan,
    owner: u64,
    cloud: &mut PointCloud,
    original_len: usize,
) -> bool {
    let tail_len = cloud.len() - original_len;
    let r = &t.refined;
    let ok = t.enabled
        && p.active
        && p.serial == t.join_serial
        && r.valid
        && r.owner == owner
        && r.serial + 1 == t.join_serial
        && r.points.len() == p.old_tail_len
        && match p.mode {
            PlanMode::Identical => tail_len == p.old_tail_len,
            PlanMode::Incremental => p.ordinal_src.len() == tail_len,
            PlanMode::Cold => false,
        };
    if !ok {
        t.stats.refined_points_recomputed += tail_len as u64;
        return false;
    }
    let tail = &mut cloud.positions_mut()[original_len..];
    match p.mode {
        PlanMode::Identical => {
            tail.copy_from_slice(&r.points);
            t.stats.refined_points_reused += tail_len as u64;
        }
        PlanMode::Incremental => {
            for (i, &src) in p.ordinal_src.iter().enumerate() {
                if src != u32::MAX {
                    tail[i] = r.points[src as usize];
                }
            }
            let fresh = p.fresh_ordinals.len() as u64;
            t.stats.refined_points_reused += tail_len as u64 - fresh;
            t.stats.refined_points_recomputed += fresh;
        }
        PlanMode::Cold => unreachable!(),
    }
    true
}

/// Snapshots the refined tail as the next frame's reuse source and consumes
/// the frame's plan. Runs at the end of every pipeline frame; frames whose
/// interpolation did not plan (custom interpolators, bypassed paths)
/// invalidate the refined cache instead.
pub(crate) fn capture_refined(
    t: &mut TemporalCache,
    plan: &mut FramePlan,
    owner: u64,
    cloud: &PointCloud,
    original_len: usize,
) {
    let plan_ok = plan.active && plan.serial == t.join_serial;
    plan.active = false;
    if !t.enabled || !plan_ok {
        t.refined.valid = false;
        return;
    }
    let r = &mut t.refined;
    r.points.clear();
    r.points
        .extend_from_slice(&cloud.positions()[original_len..]);
    r.owner = owner;
    r.serial = t.join_serial;
    r.valid = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SrConfig;
    use crate::interpolate::dilated::dilated_interpolate_with;
    use crate::interpolate::naive::naive_interpolate_with;
    use volut_pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
    use volut_pointcloud::{Color, Point3};

    /// Quantizes a cloud to a coarse grid: many exact duplicate positions
    /// and massive distance ties — the adversarial input for any index-order
    /// dependent path.
    fn quantized(n: usize, seed: u64) -> PointCloud {
        let cloud = synthetic::humanoid(n, 0.3, seed);
        let positions: Vec<Point3> = cloud
            .positions()
            .iter()
            .map(|p| {
                Point3::new(
                    (p.x * 8.0).round() / 8.0,
                    (p.y * 8.0).round() / 8.0,
                    (p.z * 8.0).round() / 8.0,
                )
            })
            .collect();
        let colors = vec![Color::new(128, 128, 128); n];
        PointCloud::from_positions_and_colors(positions, colors).unwrap()
    }

    /// Runs a churned sequence twice — incremental on vs off — through both
    /// interpolators and asserts bit-identical outputs frame by frame.
    fn assert_sequence_bit_identity(base: PointCloud, churn: f64, frames: usize, ratio: f64) {
        let cfg_stream = DeltaStreamConfig {
            churn,
            drift: 0.05,
            jitter: 0.008,
            seed: churn.to_bits(),
        };
        let sequence = synthetic::delta_frame_sequence(&base, frames, cfg_stream);
        for (name, sr_cfg) in [
            ("dilated", SrConfig::default()),
            ("naive", SrConfig::k4d1()),
        ] {
            let mut on = FrameScratch::new();
            let mut off = FrameScratch::new();
            off.set_incremental(false);
            assert!(on.incremental() && !off.incremental());
            for (frame_no, frame) in sequence.iter().enumerate() {
                let (a, b) = if name == "dilated" {
                    (
                        dilated_interpolate_with(frame, &sr_cfg, ratio, &mut on),
                        dilated_interpolate_with(frame, &sr_cfg, ratio, &mut off),
                    )
                } else {
                    (
                        naive_interpolate_with(frame, &sr_cfg, ratio, &mut on),
                        naive_interpolate_with(frame, &sr_cfg, ratio, &mut off),
                    )
                };
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.cloud, b.cloud,
                            "{name} churn {churn} frame {frame_no}: clouds diverge"
                        );
                        assert_eq!(
                            a.neighborhoods, b.neighborhoods,
                            "{name} churn {churn} frame {frame_no}: neighborhoods diverge"
                        );
                        assert_eq!(a.parents, b.parents);
                        on.recycle_neighborhoods(a.neighborhoods);
                        off.recycle_neighborhoods(b.neighborhoods);
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{name}: one path errored: {:?} {:?}", a.is_ok(), b.is_ok()),
                }
            }
        }
    }

    #[test]
    fn incremental_is_bit_identical_across_churn_levels() {
        for churn in [0.0, 0.01, 0.1, 0.5, 1.0] {
            assert_sequence_bit_identity(synthetic::humanoid(1_500, 0.4, 3), churn, 4, 2.0);
        }
    }

    #[test]
    fn incremental_is_bit_identical_on_tie_heavy_quantized_clouds() {
        for churn in [0.05, 0.3] {
            assert_sequence_bit_identity(quantized(1_200, 5), churn, 4, 2.0);
        }
    }

    #[test]
    fn incremental_is_bit_identical_with_duplicate_points() {
        let mut cloud = synthetic::sphere(600, 1.0, 7);
        let dup = cloud.select(&(0..50).collect::<Vec<_>>());
        cloud.merge(&dup);
        cloud.merge(&dup);
        assert_sequence_bit_identity(cloud, 0.1, 4, 2.0);
    }

    #[test]
    fn tiny_clouds_fall_back_to_full_recompute() {
        // Clouds at or below kq: every row holds the whole cloud, the cache
        // is ineligible, and both paths must still agree.
        for n in [3usize, 6, 9] {
            assert_sequence_bit_identity(synthetic::sphere(n, 1.0, 11), 0.3, 3, 2.0);
        }
    }

    #[test]
    fn heavy_churn_takes_the_full_path_and_counts_it() {
        let base = synthetic::humanoid(1_000, 0.2, 13);
        let seq = synthetic::delta_frame_sequence(
            &base,
            3,
            DeltaStreamConfig {
                churn: 0.9,
                ..DeltaStreamConfig::default()
            },
        );
        let mut scratch = FrameScratch::new();
        for frame in &seq {
            let r =
                dilated_interpolate_with(frame, &SrConfig::default(), 2.0, &mut scratch).unwrap();
            scratch.recycle_neighborhoods(r.neighborhoods);
        }
        let t = scratch.temporal_stats();
        assert_eq!(t.incremental_frames, 0, "{t:?}");
        assert_eq!(t.full_frames, 3, "{t:?}");
        assert_eq!(t.rows_reused, 0, "{t:?}");
    }

    #[test]
    fn light_churn_reuses_most_rows() {
        let base = synthetic::humanoid(2_000, 0.2, 17);
        let seq = synthetic::delta_frame_sequence(
            &base,
            4,
            DeltaStreamConfig {
                churn: 0.05,
                drift: 0.03,
                jitter: 0.005,
                seed: 19,
            },
        );
        let mut scratch = FrameScratch::new();
        for frame in &seq {
            let r =
                dilated_interpolate_with(frame, &SrConfig::default(), 2.0, &mut scratch).unwrap();
            scratch.recycle_neighborhoods(r.neighborhoods);
        }
        let t = scratch.temporal_stats();
        assert_eq!(t.incremental_frames, 3, "{t:?}");
        assert!(
            t.rows_reused as f64 > t.rows_recomputed as f64 * 2.0,
            "coherent 5% churn should reuse most rows: {t:?}"
        );
    }

    #[test]
    fn changed_k_invalidates_the_row_cache_safely() {
        // Alternate interpolator configs (different kq) over one scratch:
        // the cache must never serve rows captured for another stride.
        let base = synthetic::sphere(800, 1.0, 23);
        let mut stream = DeltaStream::new(
            base,
            DeltaStreamConfig {
                churn: 0.1,
                ..DeltaStreamConfig::default()
            },
        );
        let mut scratch = FrameScratch::new();
        for i in 0..4 {
            let frame = stream.frame().clone();
            let cfg = if i % 2 == 0 {
                SrConfig::default() // kq = 9
            } else {
                SrConfig::k4d1() // kq = 5
            };
            let fresh =
                dilated_interpolate_with(&frame, &cfg, 2.0, &mut FrameScratch::new()).unwrap();
            let reused = dilated_interpolate_with(&frame, &cfg, 2.0, &mut scratch).unwrap();
            assert_eq!(fresh.cloud, reused.cloud, "frame {i}");
            scratch.recycle_neighborhoods(reused.neighborhoods);
            stream.advance();
        }
    }

    #[test]
    fn index_cache_digest_short_circuits_mismatches() {
        use crate::interpolate::IndexCache;
        let a = synthetic::sphere(500, 1.0, 29);
        let b = synthetic::sphere(500, 1.0, 31);
        let mut cache = IndexCache::default();
        let (_, rebuilt) = cache.get_or_build(a.positions(), a.geometry_digest());
        assert!(rebuilt);
        // Same digest + content: reuse.
        let (_, rebuilt) = cache.get_or_build(a.positions(), a.geometry_digest());
        assert!(!rebuilt);
        // Different digest: rebuild without a content scan (observable only
        // as a rebuild; the digest gate is what makes it cheap).
        let (_, rebuilt) = cache.get_or_build(b.positions(), b.geometry_digest());
        assert!(rebuilt);
        assert_eq!(cache.stats().rebuilds, 2);
        assert_eq!(cache.stats().reuses, 1);
    }
}
