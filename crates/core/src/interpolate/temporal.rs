//! Temporally coherent incremental kNN across streaming delta-frames.
//!
//! The kNN *self-join* — every frame point queries the index over the frame
//! cloud — dominates a cold SR frame (the benchmark ledger's
//! `knn.self_join_ms` row on the cold viewer workloads), and volumetric
//! streams rarely change that cloud wholesale: consecutive frames share most
//! of their geometry, with churn arriving as spatially coherent removals and
//! insertions (chunked delivery, moving subjects). This module exploits that
//! coherence: the
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
//! * **Session state** (`TemporalCache`, on [`FrameScratch`]) is one record
//!   of the previous frame, which the *next* frame reads: the k-d tree over
//!   its points (the session's spatial index, the old side of every delta
//!   and the identity check's reference — its positions are kept nowhere
//!   else), its digest, its self-join rows, its interpolation outputs
//!   (`OutputCache`) and its refined tail (`RefinedCache`); beside the
//!   record sit the counters and a declared delta waiting for its frame.
//!   One rule keeps the record coherent: **every frame rewrites or clears
//!   every part of it before it returns.** Every path of `self_join`
//!   leaves the tree holding the frame and recaptures or drops the rows;
//!   the frame pass then captures or drops the outputs, and refreshes the
//!   refined tail — or, in a frame that does not refine, drops it. So each
//!   part describes the frame before the current one, or is empty, and none
//!   needs a serial or a version to say so. Only the outputs' key (config
//!   and ratio) and the refined tail's owner (the pipeline id) are checked,
//!   because pipelines and ratios do alternate on one session.
//! * **Frame transients** (`JoinScratch`, on the [`FrameArena`]) are
//!   written and consumed inside one frame: the removed-neighbor bitmap,
//!   the kd-tree over inserted points, the recompute list and its fresh
//!   rows, and the old→new map and per-row verdicts `plan_outputs` reads.
//!   An arena serves whatever session's frame its worker runs next, so
//!   nothing here is trusted across a checkout: every list is cleared
//!   before it is filled, and the join's verdict (`Reuse`) is not stored
//!   at all — `self_join` returns it, and `plan_outputs` reads the join's
//!   buffers only on that verdict, in the same frame. The plan itself
//!   (`FramePlan`) is a view that borrows these and the session's record
//!   for the one frame that computed it. A frame nested inside another on
//!   the same thread (caller code may start one from inside a frame) holds a
//!   different arena — the re-entrancy rule of [`super::arena`].
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
//! smaller than `k` (every row holds the whole cloud), survivor fractions
//! below [`MIN_SURVIVOR_FRACTION`] (at 100% churn the only cost over the
//! cold path is the failed diff — one linear pass). A
//! session flushed before a frame ([`FrameScratch::flush_temporal`]) takes
//! that path too, which is how the tests build their cold oracle.
//!
//! # Downstream output reuse (churn-proportional interpolation)
//!
//! Row reuse propagates past the kNN stage: an interpolated point, its
//! neighborhood and its refined position depend only on the source row's
//! neighborhood and the neighbor positions, all of which are bitwise
//! unchanged for a row that was copied forward. The cache therefore also
//! keeps the previous frame's *outputs*, but only the ones that cost real
//! work to rebuild: each generated point's partner (the draw) and its
//! merged-and-pruned neighborhood (`OutputCache`), and the refined tail (a
//! LUT probe per point, `RefinedCache`). `plan_outputs` decides per frame
//! how much of them may apply (the join's `Reuse` verdict, or `Cold`),
//! and the frame pass asks the resulting `FramePlan` about each row as it
//! reaches it (`FramePlan::source`): a row's outputs copy forward when the row itself
//! and every cached partner's row were copied forward by the join (the
//! generated neighborhoods are derived from the parents' rows, so
//! parent-row validity covers them). Such a row's outputs are then
//! *derived* straight into their final slots of the frame, bit-identically:
//!
//! * a source row's tail offset is closed-form (`r·base + min(r, extra)`
//!   for the cached frame's point count and the ratio), so no offset array
//!   is kept;
//! * a point's first parent is its source row (the draw pairs every partner
//!   with its row), so only the partner is kept, and is remapped;
//! * a reused point's unrefined position is the midpoint of its parents,
//!   read from the new frame — both survived with their bits — by
//!   [`Point3::midpoint`], the arithmetic that generated it;
//! * its neighborhood is the cached one, remapped;
//! * colors are not cached at all: a generated point takes its
//!   neighborhood head's color, so the pass recolors every point it
//!   writes, and a survivor that changed color (or a frame that drops or
//!   restores colors) needs no check;
//! * its refined position is the cached one when the previous frame was
//!   refined, by the pipeline refining this one (by id); otherwise the
//!   point is refined like a fresh one.
//!
//! Every other row is drawn, merged, colored and refined fresh in the same
//! pass. A cached frame has more points than its self-join row, so every
//! self-join row is `kq` wide and every generated neighborhood exactly `k`:
//! both caches are flat arrays with a fixed stride, and a capture that does
//! not fit that shape drops the cache instead. The captures run after
//! the pass, as copies into the session's one buffer of each kind.
//!
//! The interpolator draws partners from an RNG seeded by the *source
//! point's position bits* (`super::row_seed`), so a copied-forward row
//! replays the identical draw sequence under its new index and reuse stays
//! bit-identical to a cold recompute. Stale outputs cannot reach a frame:
//! the record holds only what the frame before wrote (see *What survives a
//! frame*), and the plan starts from the verdict this frame's join
//! returned, lowered to a cold recompute when the outputs were generated
//! under another config or ratio (never to wrong output).
//!
//! # Every pass on every worker
//!
//! A delta frame's copy-forward work is as parallel as its recompute sweep.
//! Two passes touch every row: classify (the join's copy-forward of the
//! surviving rows, which also inverts the survivor map for the plan) and
//! the frame pass (generation, color and refinement, in
//! [`super::dilated`]). Classify cuts its old rows into
//! `runtime::workers_for(rows, COPY_ROWS_PER_TASK)` chunks and hands every
//! chunk disjoint `&mut` slices through `runtime::for_each_chunk_mut`:
//! survivors keep their relative order, so a chunk of old rows copies
//! forward into one contiguous range of new rows, and the per-chunk
//! recompute lists are appended to the first chunk's in chunk order, which
//! is the order one chunk would have produced. The frame pass cuts the new
//! rows by the points they generate, and each range owns its slice of the
//! output. Frames below the grains — every fleet tenant — run inline.
//!
//! *Retired table.* The per-phase cost of these frames was once tabled here
//! for the separate plan, assembly, color and refined-tail scatter passes
//! (`viewer_delta_50k_x2`, 2-vCPU host: plan 0.52, assemble 1.10, color
//! and scatter 0.23 ms per frame at two workers). Those passes are now
//! rows of one pass whose stage times are summed worker time
//! ([`crate::pipeline::StageTimings`]), so no per-phase wall time of theirs
//! exists to table any more; classify read 2.77 and the recompute sweep
//! 3.38 ms in the same runs. About 0.85 ms of classify stays serial: the
//! removed-point bitmap, the kd-tree over the inserted points and the
//! zero-filled output buffers.
//!
//! The index phases of the same frames, before and after the k-d record
//! builder (`volut_pointcloud::kdtree`): the engine alone on that content,
//! instrumented, 150 frames, median of three alternating runs (ms in a
//! frame that runs the phase):
//!
//! | phase                                  | frames | comparator select | record builder |
//! |----------------------------------------|-------:|------------------:|---------------:|
//! | index patch                            | 5 in 6 | 1.21              | 1.19           |
//! | index rebuild (patch budget spent)     | 1 in 6 | 5.53              | 3.22           |
//! | insert tree (in classify's serial head)| all    | 0.52              | 0.34           |
//!
//! The rebuild frames are the p90 frames; the engine's frame p90 went from
//! 13.9 to 12.1 ms in the same runs.
//!
//! # Cache-flush invariants
//!
//! The record is only ever *consulted* after re-validation against the
//! current frame (digest + bitwise position compare, or a verified /
//! re-diffed [`FrameDelta`]), so a stale entry can cost time but never
//! correctness — **provided the record actually describes a frame the
//! session once processed**. A transport layer that feeds the session
//! reconstructed geometry (delta streaming with loss recovery) must uphold
//! that provenance; when it cannot — a gap it could not splice, a checksum
//! mismatch, any doubt about what the previous frame really was — it flushes
//! via [`FrameScratch::flush_temporal`], which clears the whole record (the
//! tree, rows, outputs and refined tail) and any pending delta. Its parts
//! fall together because they are one record: the tree *is* the previous
//! frame's positions (the old side of every delta), so rows or outputs that
//! outlived it would re-correlate state across the discontinuity. A frame
//! that unwinds (a panicking refiner) returns before the rule above is
//! met, so a caller that catches the panic and keeps the session flushes it
//! first. After a flush the next frame takes the cold full-recompute
//! path, whose output depends only on that frame's bits (the interpolator
//! seeds per-row RNG from position bits, `super::row_seed`) — which is what
//! makes post-resync output bit-identical to a never-faulted session.
//!
//! [`FrameScratch::flush_temporal`]: super::FrameScratch::flush_temporal
//!
//! [`FrameDelta`]: volut_pointcloud::delta::FrameDelta
//! [`FrameDelta::diff`]: volut_pointcloud::delta::FrameDelta::diff
//! [`KdTree::any_within`]: volut_pointcloud::kdtree::KdTree::any_within
//! [`FrameScratch`]: super::FrameScratch
//! [`FrameArena`]: super::FrameArena

use super::arena::FrameArena;
use super::{run_jobs, take_front, PointSplit, SessionStateBytes, PATCH_REBUILD_FRACTION};
use crate::config::SrConfig;
use crate::pipeline::StageTimings;
use std::ops::Range;
use std::time::Instant;
use volut_pointcloud::delta::{DeltaError, FrameDelta, REMOVED};
use volut_pointcloud::dualtree::DualTreeScratch;
use volut_pointcloud::kdtree::{IndexScratch, KdTree};
use volut_pointcloud::{runtime, Neighborhoods, Point3, PointCloud};

/// Smallest fraction of surviving points for which the incremental path is
/// attempted; below it (heavy churn) the copy-forward bookkeeping cannot
/// beat the plain full sweep, so the engine takes the untouched cold path.
pub const MIN_SURVIVOR_FRACTION: f64 = 0.5;

/// Source rows per task of the classify pass: it cuts its rows into
/// `runtime::workers_for(rows, COPY_ROWS_PER_TASK)` chunks, so every frame
/// below 8192 rows (each fleet tenant's 512 or 4096) runs as one inline
/// chunk and submits no task.
///
/// Measured on the 2-vCPU host (seed 1, 10 s runs, alternating binaries,
/// medians; "one chunk" never cuts), when this grain also cut the plan,
/// assembly and refined-tail scatter passes the frame pass has since
/// replaced. On 2 workers any grain up to 25k cuts a 50k-row frame in two,
/// so the grain decides only which frames split:
///
/// | grain     | `viewer_delta_50k_x2` p50 | `fleet_256_lossy` p50, peak RSS |
/// |-----------|--------------------------:|--------------------------------:|
/// | 2048      | (two chunks, as 8192)     | 259 ms, 367 MiB (3 runs)        |
/// | 8192      | 14.09 ms (4 runs)         | 229 ms, 267 MiB (3 runs)        |
/// | one chunk | 15.59 ms (4 runs)         | (one chunk, as 8192)            |
///
/// Cutting a 4096-row tenant frame in two costs more than it saves: the
/// other workers are already busy with other tenants, and while a split
/// frame waits, its worker starts further tenants' frames nested on arenas
/// of their own (the RSS jump).
const COPY_ROWS_PER_TASK: usize = 8_192;

/// A session's counters: its spatial index and the reuse of the incremental
/// kNN path and its downstream outputs (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemporalStats {
    /// Frames that paid a full index rebuild.
    pub rebuilds: u64,
    /// Frames served from the cached index (matched content).
    pub reuses: u64,
    /// Frames whose index was incrementally patched for a frame delta
    /// ([`KdTree::patch`]) instead of rebuilt.
    pub patches: u64,
    /// Batches answered by the dual-tree (leaf-pair) all-kNN kernel — the
    /// self-join fast path the interpolator hits once per cold frame at
    /// production sizes.
    pub dual_tree_batches: u64,
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

/// How a frame reuses the previous one: the verdict [`self_join`] returns,
/// which [`plan_outputs`] may lower to `Cold` for the frame's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reuse {
    /// Full recompute: nothing about the previous frame applies.
    Cold,
    /// The frame is bitwise identical to the previous one: every row and
    /// output copies forward wholesale.
    Identical,
    /// The frame was answered through the incremental row machinery; the
    /// join's `old_to_new` / `row_valid` / `row_src` describe the old→new
    /// relation, and a row copied forward whose cached partners' rows were
    /// copied forward too reuses its cached outputs.
    Incremental,
}

/// Everything that must match before cached outputs may be consulted at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutputKey {
    config: SrConfig,
    ratio_bits: u64,
}

/// The previous frame's interpolation outputs, per tail point: only what
/// costs real work to rebuild. Everything else is derived from the new frame
/// (see *Downstream output reuse* in the module docs): a source row's tail
/// offset is closed-form ([`PointSplit`] of `sources` at the key's ratio),
/// a point's first parent is its source row, its position the midpoint of
/// its parents, its color its neighborhood head's. Buffers are cleared and
/// refilled per capture (capacity is monotone).
#[derive(Debug, Default)]
pub(crate) struct OutputCache {
    /// Config and ratio the outputs were generated under; `None` when the
    /// previous frame left no outputs to reuse.
    key: Option<OutputKey>,
    /// Source points of the captured frame.
    sources: usize,
    /// Second parent of every tail point, in output order (old indices).
    partner: Vec<u32>,
    /// Generated-point neighborhoods (old indices): `k` entries per tail
    /// point, flat — a cached frame has more points than its self-join row,
    /// so every merged row is exactly `k` wide.
    hoods: Vec<u32>,
}

/// The previous frame's refined tail, owned by the pipeline that produced it.
#[derive(Debug, Default)]
pub(crate) struct RefinedCache {
    /// Id of the [`crate::SrPipeline`] that refined it (refiners differ);
    /// `None` when the previous frame was not refined.
    owner: Option<u64>,
    points: Vec<Point3>,
}

/// The current frame's view of the previous frame's outputs, from
/// [`plan_outputs`]: the frame pass asks it, row by row, whether a row's
/// outputs copy forward ([`FramePlan::source`]) and reads them through it,
/// remapped to the new frame's indices. Frame-local: it borrows the session's
/// caches and the join's old→new relation, and nothing of it outlives the
/// frame.
#[derive(Debug)]
pub(crate) struct FramePlan<'a> {
    pub(crate) mode: Reuse,
    outputs: &'a OutputCache,
    /// The cached frame's tail split (`sources` points at the key's ratio).
    split: PointSplit,
    /// The join's old→new survivor map, and per new row the cached row it
    /// was copied from (`u32::MAX` when recomputed); `Incremental` only.
    old_to_new: &'a [u32],
    copied_from: &'a [u32],
    /// Old-indexed: `true` when that row was copied forward this frame.
    row_valid: &'a [bool],
    /// The previous refined tail, when it belongs to the refining pipeline
    /// and to the frame the outputs come from; reused rows take their
    /// refined positions from it.
    pub(crate) refined: Option<&'a [Point3]>,
}

impl FramePlan<'_> {
    /// Tail ordinal of the first cached output new row `r` (which generates
    /// `count` points) copies forward, or `None` when the row is generated
    /// fresh. Outputs hold when the row itself was copied forward and so was
    /// every cached partner's row: the partners are drawn from the row, and
    /// the generated neighborhoods derive from the parents' rows.
    pub(crate) fn source(&self, r: usize, count: usize) -> Option<usize> {
        let src = match self.mode {
            Reuse::Cold => return None,
            Reuse::Identical => return Some(self.split.offset(r)),
            Reuse::Incremental => match self.copied_from[r] {
                u32::MAX => return None,
                src => src as usize,
            },
        };
        let o0 = self.split.offset(src);
        (self.split.count(src) == count
            && self.outputs.partner[o0..o0 + count]
                .iter()
                .all(|&b| self.row_valid[b as usize]))
        .then_some(o0)
    }

    /// Rows of `rows` the join recomputed, which the frame pass therefore
    /// generates fresh: a range's share of the pass's heavy rows (fresh
    /// rows cluster where the churn was). Zero when no row copies forward.
    pub(crate) fn recomputed_rows(&self, rows: Range<usize>) -> usize {
        match self.mode {
            Reuse::Incremental => self.copied_from[rows]
                .iter()
                .filter(|&&src| src == u32::MAX)
                .count(),
            _ => 0,
        }
    }

    /// Cached output `o`'s partner, as a new-frame index.
    pub(crate) fn partner(&self, o: usize) -> usize {
        self.remap(self.outputs.partner[o]) as usize
    }

    /// Cached output `o`'s `k`-wide neighborhood, written into `dst` in
    /// new-frame indices.
    pub(crate) fn hood_into(&self, o: usize, dst: &mut [u32]) {
        let k = dst.len();
        for (d, &j) in dst.iter_mut().zip(&self.outputs.hoods[o * k..(o + 1) * k]) {
            *d = self.remap(j);
        }
    }

    fn remap(&self, j: u32) -> u32 {
        match self.mode {
            Reuse::Incremental => self.old_to_new[j as usize],
            _ => j,
        }
    }
}

/// What a frame's [`self_join`] leaves behind for the same frame's
/// [`plan_outputs`], plus the buffers the incremental update works in.
/// Frame-scoped: it lives on the [`FrameArena`].
#[derive(Debug, Default)]
pub(crate) struct JoinScratch {
    /// Removed-id membership bitmap over old indices.
    removed_mark: Vec<bool>,
    /// Gathered positions of the inserted points.
    insert_positions: Vec<Point3>,
    /// kd-tree over the inserted points (ball-intersection tests).
    insert_tree: KdTree,
    /// New-frame indices whose rows must be recomputed.
    recompute: Vec<u32>,
    /// Query positions of `recompute`.
    queries: Vec<Point3>,
    /// Freshly computed rows for `recompute`, scattered into the output
    /// slab afterwards.
    fresh_rows: Neighborhoods,
    /// Copy of the frame delta's old→new survivor map (`Incremental`
    /// frames only; old-indexed, [`REMOVED`] for removals).
    old_to_new: Vec<u32>,
    /// Old-indexed: `true` when that row was copied forward this frame.
    row_valid: Vec<bool>,
    /// New-indexed: the cached row a copied-forward row came from, or
    /// `u32::MAX` (the old→new inversion [`plan_outputs`] starts from).
    row_src: Vec<u32>,
    /// Invalid rows found by every classify task after the first (the first
    /// writes `recompute` itself), appended to it in chunk order.
    later_recompute: Vec<Vec<u32>>,
}

impl JoinScratch {
    pub(crate) fn reserved_bytes(&self) -> usize {
        (self.insert_positions.capacity() + self.queries.capacity()) * std::mem::size_of::<Point3>()
            + self.removed_mark.capacity()
            + self.row_valid.capacity()
            + (self.recompute.capacity()
                + self.old_to_new.capacity()
                + self.row_src.capacity()
                + self
                    .later_recompute
                    .iter()
                    .map(Vec::capacity)
                    .sum::<usize>())
                * std::mem::size_of::<u32>()
            + self.later_recompute.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.insert_tree.reserved_bytes()
            + self.fresh_rows.reserved_bytes()
    }
}

/// One record of the previous frame — the cross-frame half of the temporal
/// layer, owned by [`FrameScratch`]: the k-d tree over its points, its
/// digest, its self-join rows, interpolation outputs and refined tail. Every
/// frame rewrites or clears every part of it before it returns (see *What
/// survives a frame* in the module docs), so each part describes the frame
/// before the current one, or is empty.
#[derive(Debug, Default)]
pub(crate) struct TemporalCache {
    /// k-d tree over the previous frame's points: the session's spatial
    /// index, the old side of every delta and the identity check's
    /// reference.
    tree: KdTree,
    /// Geometry digest of the frame the tree holds; `None` when it holds
    /// none (a new or flushed session).
    digest: Option<u64>,
    /// Cumulative churn absorbed by patches since the last full build.
    patched_churn: usize,
    /// Row stride of the cached self-join (the dilated neighborhood plus the
    /// self-match); `None` when no rows are cached.
    kq: Option<usize>,
    /// The cached raw self-join rows, flat: `kq` entries per point (a cached
    /// frame has more than `kq` points, so every row is full), ascending
    /// `(distance, index)` within each row.
    rows: Vec<u32>,
    /// Delta supplied explicitly by the streaming layer for the next frame
    /// (verified before use; wrong deltas fall back to the bitwise diff).
    pub(crate) pending_delta: Option<FrameDelta>,
    /// Why the most recent externally supplied delta was rejected (`None`
    /// when it verified, or when no external delta was consumed yet) — the
    /// poisoning-detection signal a resilient session inspects after a
    /// frame whose delta it did not trust.
    pub(crate) last_delta_error: Option<DeltaError>,
    pub(crate) stats: TemporalStats,
    /// The previous frame's interpolation outputs.
    outputs: OutputCache,
    /// The previous frame's refined tail.
    refined: RefinedCache,
}

impl TemporalCache {
    /// Drops the whole record and any pending delta (the next frame
    /// recomputes cold); buffers keep their capacity.
    pub(crate) fn clear(&mut self) {
        self.digest = None;
        self.kq = None;
        self.outputs.key = None;
        self.refined.owner = None;
        self.pending_delta = None;
    }

    /// `true` when the tree already indexes `positions`, by digest-then-
    /// content comparison: a mismatched digest short-circuits without
    /// scanning the cloud, and a match pays the element-wise verify (which
    /// also guards against digest collisions).
    fn is_fresh(&self, positions: &[Point3], digest: u64) -> bool {
        self.digest == Some(digest) && self.tree.points() == positions
    }

    /// Rebuilds the tree over `positions` in place.
    fn rebuild(&mut self, positions: &[Point3], digest: u64, scratch: &mut IndexScratch) {
        self.tree.build_in(positions, scratch);
        self.digest = Some(digest);
        self.patched_churn = 0;
    }

    /// Incrementally patches the tree for `delta` (from the indexed points
    /// to `positions`), falling back to a full rebuild once cumulative
    /// patched churn crosses [`PATCH_REBUILD_FRACTION`] of the cloud (stale
    /// split planes and bloated node boxes degrade query time, and an
    /// occasional rebuild is cheaper than slowly losing the tree's quality);
    /// `true` when it patched.
    fn patch(
        &mut self,
        positions: &[Point3],
        digest: u64,
        delta: &FrameDelta,
        scratch: &mut IndexScratch,
    ) -> bool {
        debug_assert_eq!(self.tree.points().len(), delta.old_len());
        self.patched_churn += delta.removed().len().max(delta.inserted().len());
        let budget = (positions.len().max(1) as f64 * PATCH_REBUILD_FRACTION) as usize;
        if self.patched_churn > budget {
            self.rebuild(positions, digest, scratch);
            return false;
        }
        self.tree.patch_with(delta, positions, scratch);
        self.digest = Some(digest);
        true
    }

    /// Capacity (bytes) reserved by the record, by component.
    pub(crate) fn state_bytes(&self) -> SessionStateBytes {
        SessionStateBytes {
            index: self.tree.reserved_bytes(),
            rows: self.rows.capacity() * std::mem::size_of::<u32>(),
            outputs: (self.outputs.partner.capacity() + self.outputs.hoods.capacity())
                * std::mem::size_of::<u32>(),
            refined: self.refined.points.capacity() * std::mem::size_of::<Point3>(),
        }
    }
}

/// The interpolator's self-join kNN pass: fills `arena.raw_hoods`
/// with one `kq`-wide row per point of `low`, bit-identical to
/// [`KdTree::knn_batch_with`] over a fresh index, while reusing the session's
/// spatial index and — when the previous frame is coherent with this one —
/// the previous frame's rows. Every path leaves the tree holding `low` and
/// the rows recaptured (or dropped), and returns how it answered the frame.
/// Updates `timings.index_build` (index validation, patch or rebuild) and
/// `timings.knn` (diff, invalidation, copy-forward and recompute).
pub(crate) fn self_join(
    low: &PointCloud,
    kq: usize,
    t: &mut TemporalCache,
    arena: &mut FrameArena,
    timings: &mut StageTimings,
) -> Reuse {
    let FrameArena {
        raw_hoods: out,
        knn,
        index_scratch,
        join,
        ..
    } = arena;
    out.clear();
    let positions = low.positions();
    let n = positions.len();
    let digest = low.geometry_digest();
    let pending = t.pending_delta.take();
    if pending.is_some() {
        // A fresh external delta resets the rejection record; a rejection
        // below re-arms it for the streaming layer to inspect.
        t.last_delta_error = None;
    }

    // Eligibility of the cached rows (not yet of this specific frame). The
    // frame that captured them left the tree holding its points, so they
    // are the identity check's and the delta's old side below.
    let cache_ready = t.kq == Some(kq) && n > kq;

    // --- Unchanged frame: cached index, and (when available) every cached
    // row reused wholesale.
    let t0 = Instant::now();
    if t.is_fresh(positions, digest) {
        t.stats.reuses += 1;
        timings.index_build += t0.elapsed();
        let t1 = Instant::now();
        if cache_ready {
            out.push_rows(n, kq).copy_from_slice(&t.rows);
            t.stats.rows_reused += n as u64;
            t.stats.incremental_frames += 1;
            timings.knn += t1.elapsed();
            return Reuse::Identical;
        }
        t.tree.knn_batch_with(positions, kq, out, knn);
        timings.knn += t1.elapsed();
        capture(t, kq, out);
        t.stats.full_frames += 1;
        return Reuse::Cold;
    }
    timings.index_build += t0.elapsed();

    // --- Changed frame: relate it to the cached one, read from the tree
    // before anything re-indexes it. The diff aborts as soon as the
    // survivor threshold is unreachable, so a scene cut pays about half a
    // diff walk on top of the cold path it then takes.
    let t1 = Instant::now();
    let delta = if cache_ready {
        let old = t.tree.points();
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
        t.rebuild(positions, digest, index_scratch);
        t.stats.rebuilds += 1;
        timings.index_build += t2.elapsed();
        let t3 = Instant::now();
        t.tree.knn_batch_with(positions, kq, out, knn);
        timings.knn += t3.elapsed();
        capture(t, kq, out);
        t.stats.full_frames += 1;
        return Reuse::Cold;
    };

    let t2 = Instant::now();
    if t.patch(positions, digest, &delta, index_scratch) {
        t.stats.patches += 1;
    } else {
        t.stats.rebuilds += 1;
    }
    timings.index_build += t2.elapsed();

    let t3 = Instant::now();
    incremental_rows(t, join, knn, index_scratch, positions, kq, &delta, out);
    timings.knn += t3.elapsed();
    capture(t, kq, out);
    t.stats.incremental_frames += 1;
    Reuse::Incremental
}

/// Produces the new frame's rows from the cached ones: copy-forward with
/// index remap for rows the churn cannot affect, a bichromatic batch
/// recompute against the session's tree (already patched to `positions`)
/// for the rest (see the module docs for the invalidation rule).
#[allow(clippy::too_many_arguments)]
fn incremental_rows(
    t: &mut TemporalCache,
    join: &mut JoinScratch,
    knn: &mut DualTreeScratch,
    index_scratch: &mut IndexScratch,
    positions: &[Point3],
    kq: usize,
    delta: &FrameDelta,
    out: &mut Neighborhoods,
) {
    let n = positions.len();
    let old_n = delta.old_len();
    debug_assert_eq!(t.rows.len(), old_n * kq);
    let JoinScratch {
        removed_mark,
        insert_positions,
        insert_tree,
        recompute,
        queries,
        fresh_rows,
        old_to_new: map,
        row_valid,
        row_src,
        later_recompute,
        ..
    } = join;

    // Removed-neighbor membership bitmap.
    removed_mark.clear();
    removed_mark.resize(old_n, false);
    for &i in delta.removed() {
        removed_mark[i as usize] = true;
    }
    // Ball-intersection index over the inserted points.
    let has_inserts = !delta.inserted().is_empty();
    insert_positions.clear();
    insert_positions.extend(delta.inserted().iter().map(|&i| positions[i as usize]));
    insert_tree.build_in(insert_positions, index_scratch);

    // Classify every surviving row and copy the valid ones forward, one task
    // per chunk of old rows. Survivors keep their relative order, so a
    // chunk's copy-forward rows land in one new-index range, ending where
    // the next chunk's first survivor lands: the slab and `row_src` split
    // there. The old→new map, the verdicts and `row_src` stay on the arena
    // for [`plan_outputs`].
    let slab = out.push_rows(n, kq);
    let old_to_new = delta.old_to_new();
    map.clear();
    map.extend_from_slice(old_to_new);
    row_valid.clear();
    row_valid.resize(old_n, false);
    row_src.clear();
    row_src.resize(n, u32::MAX);
    let chunk = old_n
        .div_ceil(runtime::workers_for(old_n, COPY_ROWS_PER_TASK))
        .max(1);
    let cut = old_n.div_ceil(chunk).max(1);
    if later_recompute.len() < cut - 1 {
        later_recompute.resize_with(cut - 1, Vec::new);
    }
    let lists = std::iter::once(&mut *recompute).chain(&mut later_recompute[..cut - 1]);
    let (mut slab_rest, mut src_rest, mut valid_rest) =
        (&mut *slab, row_src.as_mut_slice(), row_valid.as_mut_slice());
    let mut new_start = 0;
    let jobs = lists.enumerate().map(|(c, list)| {
        let old = c * chunk..((c + 1) * chunk).min(old_n);
        let new_end = old_to_new[old.end..]
            .iter()
            .find(|&&j| j != REMOVED)
            .map_or(n, |&j| j as usize);
        let rows = take_front(&mut slab_rest, (new_end - new_start) * kq);
        let src = take_front(&mut src_rest, new_end - new_start);
        let valid = take_front(&mut valid_rest, old.len());
        let job = (old, new_start, rows, src, valid, list);
        new_start = new_end;
        job
    });
    let (cached_rows, removed_mark, insert_tree) = (&t.rows, &*removed_mark, &*insert_tree);
    run_jobs(
        jobs,
        |_| 0,
        |(old, new_start, slab, row_src, row_valid, recompute)| {
            recompute.clear();
            for (old_i, valid) in old.clone().zip(row_valid.iter_mut()) {
                let new_i = old_to_new[old_i];
                if new_i == REMOVED {
                    continue;
                }
                let row = &cached_rows[old_i * kq..(old_i + 1) * kq];
                let mut invalid = row.iter().any(|&j| removed_mark[j as usize]);
                if !invalid && has_inserts {
                    // The row's kNN ball: squared distance to its k-th (worst)
                    // entry, recomputed lazily with [`Point3::distance_squared`]
                    // — the scan kernels' exact arithmetic, so the `<=`
                    // intersection test below covers distance ties precisely.
                    // Query and entry both survive (no member was removed), so
                    // the new frame holds their unchanged positions under the
                    // remapped indices.
                    let query = positions[new_i as usize];
                    let worst = positions[old_to_new[row[kq - 1] as usize] as usize];
                    invalid = insert_tree.any_within(query, query.distance_squared(worst));
                }
                if invalid {
                    recompute.push(new_i);
                } else {
                    *valid = true;
                    let local = new_i as usize - new_start;
                    row_src[local] = old_i as u32;
                    for (d, &j) in slab[local * kq..(local + 1) * kq].iter_mut().zip(row) {
                        *d = old_to_new[j as usize];
                    }
                }
            }
        },
    );
    for later in &later_recompute[..cut - 1] {
        recompute.extend_from_slice(later);
    }
    recompute.extend_from_slice(delta.inserted());
    t.stats.rows_reused += (n - recompute.len()) as u64;
    t.stats.rows_recomputed += recompute.len() as u64;

    // Recompute the dirty rows as one batch against the patched index (a
    // subset of the cloud, so it runs the warm single-tree sweep, cut across
    // the workers) and scatter them into their final slots.
    queries.clear();
    queries.extend(recompute.iter().map(|&i| positions[i as usize]));
    fresh_rows.clear();
    t.tree.knn_batch_with(queries, kq, fresh_rows, knn);
    for (r, &new_i) in recompute.iter().enumerate() {
        let src = fresh_rows.row(r);
        slab[new_i as usize * kq..(new_i as usize + 1) * kq].copy_from_slice(src);
    }
}

/// Snapshots this frame's rows as the next frame's reuse source. Frames the
/// cache cannot describe (tiny clouds whose rows are shorter than `kq`)
/// drop the cached rows instead.
fn capture(t: &mut TemporalCache, kq: usize, out: &Neighborhoods) {
    let n = out.len();
    t.rows.clear();
    if n <= kq {
        t.kq = None;
        return;
    }
    debug_assert_eq!(out.total_indices(), n * kq);
    t.kq = Some(kq);
    t.rows.extend_from_slice(out.indices());
}

/// How much of the cached outputs the current frame may copy forward, as
/// the view the frame pass reads them through. `reuse` is the verdict of
/// the frame's [`self_join`], which left its row verdicts in `join`; it is
/// lowered to `Cold` when the previous frame's outputs were generated under
/// another config or ratio, or not kept. `owner` is the id of the pipeline
/// that refines this frame, if one does. Any doubt degrades the plan to
/// `Cold` — wrong reuse is never an outcome, only missed reuse.
pub(crate) fn plan_outputs<'a>(
    t: &'a TemporalCache,
    join: &'a JoinScratch,
    reuse: Reuse,
    config: &SrConfig,
    ratio: f64,
    owner: Option<u64>,
) -> FramePlan<'a> {
    let o = &t.outputs;
    let key = OutputKey {
        config: *config,
        ratio_bits: ratio.to_bits(),
    };
    let mode = if o.key == Some(key) {
        reuse
    } else {
        Reuse::Cold
    };
    debug_assert!(mode != Reuse::Incremental || join.old_to_new.len() == o.sources);
    let r = &t.refined;
    let refined =
        (mode != Reuse::Cold && owner.is_some() && r.owner == owner).then_some(r.points.as_slice());
    debug_assert!(refined.is_none_or(|p| p.len() == o.partner.len()));
    FramePlan {
        mode,
        outputs: o,
        split: PointSplit::new(o.sources, ratio),
        old_to_new: &join.old_to_new,
        copied_from: &join.row_src,
        row_valid: &join.row_valid,
        refined,
    }
}

/// Counts a frame pass's outputs: `reused` of its `total` generated points
/// copied forward, and — when the frame was refined — whether their refined
/// positions came from the refined cache too.
pub(crate) fn record_outputs(
    t: &mut TemporalCache,
    total: usize,
    reused: usize,
    refined: Option<bool>,
) {
    let s = &mut t.stats;
    s.gen_points_reused += reused as u64;
    s.gen_points_recomputed += (total - reused) as u64;
    if let Some(replayed) = refined {
        let refined_reused = if replayed { reused } else { 0 };
        s.refined_points_reused += refined_reused as u64;
        s.refined_points_recomputed += (total - refined_reused) as u64;
    }
}

/// Snapshots this frame's interpolation outputs as the next frame's reuse
/// source: each tail point's partner and `k`-wide neighborhood. Ineligible
/// frames (no captured rows, a tail that is not `k` wide) drop the cached
/// outputs instead — never leave them stale or store ragged rows.
pub(crate) fn capture_outputs(
    t: &mut TemporalCache,
    mode: Reuse,
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    parents: &[(usize, usize)],
    hoods: &Neighborhoods,
) {
    // An identical frame's tail is already captured bit-exactly.
    if mode == Reuse::Identical {
        return;
    }
    // Without rows the next frame is cold. The plan derives tail offsets
    // from the point count and the ratio, and neighborhood rows from the
    // stride `k`; a tail that does not match them (degenerate inputs) must
    // not be captured as a reuse source.
    let split = PointSplit::new(low.len(), ratio);
    let total = split.offset(low.len());
    let o = &mut t.outputs;
    o.key = None;
    if t.kq.is_none()
        || parents.len() != total
        || hoods.len() != total
        || hoods.total_indices() != total * config.k
    {
        return;
    }
    // A point's first parent is its source row, so only the partner is kept.
    debug_assert!((0..low.len()).all(|r| {
        parents[split.offset(r)..split.offset(r + 1)]
            .iter()
            .all(|&(a, _)| a == r)
    }));
    o.sources = low.len();
    o.partner.clear();
    o.partner.extend(parents.iter().map(|&(_, b)| b as u32));
    o.hoods.clear();
    o.hoods.extend_from_slice(hoods.indices());
    o.key = Some(OutputKey {
        config: *config,
        ratio_bits: ratio.to_bits(),
    });
}

/// Snapshots the refined tail as the next frame's reuse source, stamped with
/// the refining pipeline's id — or, for a frame that did not refine
/// (`owner` is `None`), drops it. Runs at the end of every frame.
pub(crate) fn capture_refined(t: &mut TemporalCache, owner: Option<u64>, tail: &[Point3]) {
    let r = &mut t.refined;
    r.owner = owner;
    r.points.clear();
    if owner.is_some() {
        r.points.extend_from_slice(tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SrConfig;
    use crate::interpolate::dilated::dilated_interpolate_with;
    use crate::interpolate::FrameScratch;
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

    /// Runs a churned sequence twice — on a warm session, and on one
    /// flushed before every frame (the cold oracle) — through the
    /// interpolator at the default config and at dilation 1 (`k4d1`, a
    /// narrower self-join row) and asserts bit-identical outputs frame by
    /// frame.
    fn assert_sequence_bit_identity(base: PointCloud, churn: f64, frames: usize, ratio: f64) {
        let cfg_stream = DeltaStreamConfig {
            churn,
            drift: 0.05,
            jitter: 0.008,
            seed: churn.to_bits(),
        };
        let sequence = synthetic::delta_frame_sequence(&base, frames, cfg_stream);
        for (name, sr_cfg) in [
            ("default", SrConfig::default()),
            ("dilation one", SrConfig::k4d1()),
        ] {
            let mut on = FrameScratch::new();
            let mut off = FrameScratch::new();
            for (frame_no, frame) in sequence.iter().enumerate() {
                let a = dilated_interpolate_with(frame, &sr_cfg, ratio, &mut on);
                off.flush_temporal();
                let b = dilated_interpolate_with(frame, &sr_cfg, ratio, &mut off);
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
    fn fractional_ratios_with_empty_rows_stay_bit_identical() {
        // Below ratio 2 some rows generate nothing; a reused row may then
        // sit at the very end of the tail.
        for ratio in [1.5, 1.01, 2.7] {
            assert_sequence_bit_identity(synthetic::humanoid(900, 0.4, 43), 0.1, 4, ratio);
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
    fn session_state_keeps_only_partners_hoods_and_flat_rows() {
        // A fleet tenant's shape: 512 points at ratio 2, ten declared-delta
        // frames. The output cache holds one partner and `k` neighbors per
        // generated point, the row cache `kq` entries per point — no
        // positions, colors or offset arrays.
        let config = SrConfig::default();
        let n = 512;
        let mut stream = DeltaStream::new(
            synthetic::humanoid(n, 0.3, 37),
            DeltaStreamConfig::default(),
        );
        let mut scratch = FrameScratch::new();
        let mut generated = 0;
        for frame_no in 0..=10 {
            if frame_no > 0 {
                scratch.set_frame_delta(stream.advance());
            }
            let r = dilated_interpolate_with(stream.frame(), &config, 2.0, &mut scratch).unwrap();
            generated = r.new_points();
            scratch.recycle_neighborhoods(r.neighborhoods);
        }
        let stats = scratch.temporal_stats();
        assert_eq!(stats.incremental_frames, 10, "{stats:?}");
        assert!(stats.gen_points_reused > 0, "{stats:?}");
        assert!(scratch.last_delta_error().is_none());
        let bytes = scratch.state_bytes();
        let (k, kq) = (config.k, config.dilated_neighborhood() + 1);
        let outputs_cap = 1.1 * (generated * (4 + 4 * k)) as f64;
        let rows_cap = 1.1 * (n * kq * 4) as f64;
        assert!(
            bytes.outputs > 0 && bytes.outputs as f64 <= outputs_cap,
            "{bytes:?}"
        );
        assert!(bytes.rows as f64 <= rows_cap, "{bytes:?}");
    }

    /// Upsamples `frame` on the session `scratch` and asserts the result
    /// equals a cold recompute: positions, colors, parents, neighborhoods.
    fn assert_matches_cold(frame: &PointCloud, scratch: &mut FrameScratch, what: &str) {
        let config = SrConfig::default();
        let warm = dilated_interpolate_with(frame, &config, 2.0, scratch).unwrap();
        let cold = dilated_interpolate_with(frame, &config, 2.0, &mut FrameScratch::new()).unwrap();
        assert_eq!(warm.cloud.positions(), cold.cloud.positions(), "{what}");
        assert_eq!(warm.cloud.colors(), cold.cloud.colors(), "{what}");
        assert_eq!(warm.parents, cold.parents, "{what}");
        assert_eq!(warm.neighborhoods, cold.neighborhoods, "{what}");
        scratch.recycle_neighborhoods(warm.neighborhoods);
    }

    /// `frame`'s positions with `colors` (none when `None`).
    fn recolored(frame: &PointCloud, colors: Option<Vec<Color>>) -> PointCloud {
        let positions = frame.positions().to_vec();
        match colors {
            Some(c) => PointCloud::from_positions_and_colors(positions, c).unwrap(),
            None => PointCloud::from_positions(positions),
        }
    }

    #[test]
    fn color_changes_through_reused_outputs_match_a_cold_recompute() {
        let mut stream = DeltaStream::new(
            synthetic::humanoid(1_200, 0.3, 41),
            DeltaStreamConfig::default(),
        );
        let mut scratch = FrameScratch::new();
        assert_matches_cold(stream.frame(), &mut scratch, "first frame");

        // Survivors change color, positions stay put (declared delta).
        let delta = stream.advance();
        let shifted: Vec<Color> = (0..stream.frame().len())
            .map(|i| Color::new(i as u8, (i / 3) as u8, 200))
            .collect();
        scratch.set_frame_delta(delta);
        assert_matches_cold(
            &recolored(stream.frame(), Some(shifted)),
            &mut scratch,
            "survivors recolored",
        );

        // Colors dropped, then restored (declared deltas both ways).
        scratch.set_frame_delta(stream.advance());
        assert_matches_cold(
            &recolored(stream.frame(), None),
            &mut scratch,
            "colors dropped",
        );
        scratch.set_frame_delta(stream.advance());
        assert_matches_cold(stream.frame(), &mut scratch, "colors restored");

        // Identical geometry carrying new colors (the wholesale path).
        let inverted = stream
            .frame()
            .colors()
            .unwrap()
            .iter()
            .map(|c| Color::new(255 - c.r, 255 - c.g, 255 - c.b))
            .collect();
        assert_matches_cold(
            &recolored(stream.frame(), Some(inverted)),
            &mut scratch,
            "identical geometry, new colors",
        );

        let stats = scratch.temporal_stats();
        assert_eq!(stats.incremental_frames, 4, "{stats:?}");
        assert!(scratch.last_delta_error().is_none());
        assert!(
            stats.gen_points_reused > stats.gen_points_recomputed,
            "the color cases must run through reused outputs: {stats:?}"
        );
    }

    #[test]
    fn index_cache_digest_short_circuits_mismatches() {
        let a = synthetic::sphere(500, 1.0, 29);
        let b = synthetic::sphere(500, 1.0, 31);
        let mut cache = TemporalCache::default();
        let mut scratch = IndexScratch::default();
        assert!(!cache.is_fresh(a.positions(), a.geometry_digest()));
        cache.rebuild(a.positions(), a.geometry_digest(), &mut scratch);
        // Same digest + content: reuse.
        assert!(cache.is_fresh(a.positions(), a.geometry_digest()));
        assert_eq!(cache.tree.points(), a.positions());
        // Different digest: stale without a content scan (the digest gate is
        // what makes the miss cheap), even against the same point count.
        assert!(!cache.is_fresh(b.positions(), b.geometry_digest()));
        assert!(!cache.is_fresh(a.positions(), b.geometry_digest()));
        cache.rebuild(b.positions(), b.geometry_digest(), &mut scratch);
        assert!(cache.is_fresh(b.positions(), b.geometry_digest()));
    }
}
