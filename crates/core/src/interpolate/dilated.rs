//! VoLUT's enhanced dilated interpolation (§4.1).
//!
//! Compared to the naive baseline ([`crate::baselines::naive`]) this stage:
//! * expands each point's candidate neighborhood to `k × d` neighbors
//!   (Eq. 1) and samples interpolation partners from the *dilated* set,
//!   which breaks the density-reinforcement artifact of vanilla kNN;
//! * issues exactly one kNN query per *original* point instead of one per
//!   generated point, against a k-d tree (the paper's spatial structure is
//!   an octree; on CPU the k-d tree answers the same queries faster and is
//!   the only index the production path builds). The tree is session state
//!   (see [`super::IndexCache`]): frames whose geometry is unchanged skip
//!   the rebuild entirely, and the queries go through
//!   `KdTree::knn_batch_with` with the frame arena's scratch — a *self-join*
//!   of the frame cloud against itself, which the tree answers with the
//!   dual-tree leaf-pair kernel of [`volut_pointcloud::dualtree`] at
//!   production sizes;
//! * derives each new point's neighborhood via neighbor-relationship reuse
//!   (Eq. 2): [`super::reuse::merge_and_prune_rows`] runs every generated
//!   point of a batch through the branch-free kernel
//!   [`volut_pointcloud::kernels::merge_prune_row`] — `2k` distances, `2k`
//!   sorted inserts, no tree query. At `ratio` 8 this loop, not the
//!   self-join, is the largest block of the frame;
//! * runs the per-point work in parallel across CPU threads (the stand-in
//!   for the paper's CUDA kernels), storing all neighbor lists in flat CSR
//!   [`volut_pointcloud::Neighborhoods`] buffers of the frame's [`super::FrameArena`], which
//!   the next frame on the same worker reuses;
//! * on delta frames, generates only the rows the churn invalidated: the
//!   temporal layer classifies every source row against the previous
//!   frame's cached outputs (`super::temporal::plan_outputs`), the fresh
//!   subset runs as one compacted batch through
//!   [`dilated_interpolate_rows_into`] (midpoints via the SIMD SoA kernel
//!   [`volut_pointcloud::kernels::pair_midpoints_into`]), and everything
//!   else is rebuilt from the cached partners and neighborhoods,
//!   index-remapped and bit-identically.
//!
//! Interpolation partners are drawn from a small RNG seeded per *source
//! point* by the point's position bits (`super::row_seed`), so the output
//! is bit-identical regardless of worker count, chunking, or how rows moved
//! between frames — the invariance the copy-forward path relies on.

use super::arena::zip_pairs;
use super::{
    colorize, distribute_new_points_into, FrameArena, FrameScratch, InterpolationResult, OpCounts,
    RowBatch,
};
use crate::config::SrConfig;
use crate::error::Error;
use crate::pipeline::StageTimings;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;
use volut_pointcloud::kernels;
use volut_pointcloud::knn::NeighborSearch;
use volut_pointcloud::soa::SoaPositions;
use volut_pointcloud::{runtime, NeighborhoodsView, Point3, PointCloud};

/// Rows per task of the self-strip copy in `dilated_frame`: a few
/// thousand 8-entry rows, tens of microseconds of work each.
const STRIP_ROWS_PER_TASK: usize = 4096;

/// Upsamples `low` to roughly `ratio ×` its point count using dilated
/// interpolation with neighbor reuse.
///
/// # Errors
/// Returns an error when the configuration or ratio is invalid, or when the
/// input has fewer than two points.
///
/// # Example
///
/// ```
/// use volut_core::{config::SrConfig, interpolate::dilated::dilated_interpolate};
/// use volut_pointcloud::synthetic;
///
/// # fn main() -> Result<(), volut_core::Error> {
/// let low = synthetic::sphere(500, 1.0, 1);
/// let out = dilated_interpolate(&low, &SrConfig::default(), 2.0)?;
/// assert_eq!(out.cloud.len(), 1000);
/// # Ok(())
/// # }
/// ```
pub fn dilated_interpolate(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
) -> Result<InterpolationResult> {
    dilated_interpolate_with(low, config, ratio, &mut FrameScratch::new())
}

/// Generates the interpolated outputs of a *subset* of source rows into
/// `out` (cleared first): positions, parent pairs and — when `with_hoods` —
/// one Eq. 2 merged-and-pruned neighborhood row per generated point.
///
/// `rows` lists the source rows to generate, ascending; `counts[i]` is the
/// per-row generation count (see `super::distribute_new_points_into`);
/// `soa` must mirror `positions` ([`SoaPositions::fill`]). Calling this over
/// the full row set is bit-identical to the legacy whole-frame batch — the
/// partial-batch entry exists so the temporal layer can recompute *only*
/// churn-invalidated rows. Midpoints are computed by the SIMD SoA kernel
/// [`kernels::pair_midpoints_into`] (scalar fallback bit-identical). A
/// reused `out` makes the call allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn dilated_interpolate_rows_into(
    positions: &[Point3],
    soa: &SoaPositions,
    dilated: NeighborhoodsView<'_>,
    config: &SrConfig,
    counts: &[usize],
    rows: &[u32],
    with_hoods: bool,
    out: &mut RowBatch,
) {
    // (An empty batch never reads `soa`: the caller skips the mirror fill,
    // and on a shared arena it then still describes some other frame.)
    debug_assert!(rows.is_empty() || soa.len() == positions.len());
    out.clear();
    let RowBatch {
        points,
        hoods,
        pair_a,
        pair_b,
        drawn,
    } = out;
    for &row in rows {
        let i = row as usize;
        let count = counts[i];
        if count == 0 {
            continue;
        }
        let hood = dilated.row(i);
        debug_assert!(!hood.is_empty(), "stripped dilated row {i} is empty");
        if hood.is_empty() {
            continue;
        }
        // Seeding per source point — by position bits — keeps the draw
        // sequence independent of chunking *and* of the row's index.
        let mut rng = StdRng::seed_from_u64(super::row_seed(config.seed, positions[i]));
        // Random subset S_i of the dilated neighborhood, one partner per
        // generated point — drawn *without replacement* (a repeated partner
        // would duplicate a midpoint and add no coverage), falling back to
        // repeats only once the neighborhood is exhausted. The hood holds
        // distinct indices, so a drawn slot is a drawn partner, and
        // rejection always terminates.
        drawn.clear();
        drawn.resize(hood.len().div_ceil(64), 0);
        for taken in 0..count {
            let mut s = rng.random_range(0..hood.len());
            if taken < hood.len() {
                while drawn[s / 64] >> (s % 64) & 1 != 0 {
                    s = rng.random_range(0..hood.len());
                }
                drawn[s / 64] |= 1 << (s % 64);
            }
            pair_a.push(row);
            pair_b.push(hood[s]);
        }
    }
    points.resize(pair_a.len(), Point3::ZERO);
    kernels::pair_midpoints_into(soa, pair_a, pair_b, points);
    if with_hoods {
        // Derive every generated point's neighborhood in one batched
        // merge-and-prune pass (Eq. 2): the k-nearest subsets (heads of the
        // dilated lists) serve as the parents' neighbor lists for reuse.
        super::reuse::merge_and_prune_rows(
            points,
            zip_pairs(pair_a, pair_b),
            dilated,
            positions,
            config.k,
            hoods,
        );
    }
}

/// [`dilated_interpolate`] with caller-provided session state (reused
/// across frames of a streaming session).
///
/// # Errors
/// Same as [`dilated_interpolate`].
pub fn dilated_interpolate_with(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    scratch: &mut FrameScratch,
) -> Result<InterpolationResult> {
    dilated_interpolate_in(low, config, ratio, scratch, &mut FrameArena::checkout())
}

/// [`dilated_interpolate_with`] on an arena the caller checked out, so the
/// stages after interpolation (the pipeline's refinement) can share it.
pub(crate) fn dilated_interpolate_in(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    session: &mut FrameScratch,
    arena: &mut FrameArena,
) -> Result<InterpolationResult> {
    config.validate()?;
    config.validate_ratio(ratio)?;
    if low.len() < 2 {
        return Err(Error::InsufficientPoints {
            required: 2,
            available: low.len(),
        });
    }
    let dual_before = arena.knn.invocations();
    let result = dilated_frame(low, config, ratio, session, arena);
    session.temporal.dual_tree_batches += arena.knn.invocations() - dual_before;
    Ok(result)
}

/// One validated dilated frame: `session` is what the next frame will read,
/// `arena` everything this frame clears, fills and forgets. Apart from the
/// output cloud, a steady-state frame allocates nothing.
fn dilated_frame(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    session: &mut FrameScratch,
    arena: &mut FrameArena,
) -> InterpolationResult {
    let mut timings = StageTimings::default();
    let positions = low.positions();
    let dilated_k = config.dilated_neighborhood();
    let mut neighborhoods = arena.take_neighborhoods();
    let mut parents = arena.take_parents();

    // --- Index + kNN stage: one dilated query per original point — the
    // self-join that dominates frame time (§4.1). The temporal layer owns
    // the whole pass: the session's k-d tree is reused, patched or rebuilt
    // depending on how the frame relates to the previous one, and rows
    // whose kNN ball the churn cannot touch are copied forward from the
    // previous frame instead of recomputed (bit-identical either way — see
    // [`super::temporal`]). Cold frames run the full dual-tree /
    // single-tree batch machinery exactly as before.
    super::temporal::self_join(low, dilated_k + 1, session, arena, &mut timings);

    // Strip the self-match from each row and cap at the dilated size. Raw
    // rows are uniform — `min(dilated_k + 1, n)` entries — and a row either
    // holds its own point or (behind that many lower-indexed duplicates of
    // it) is cut by the cap, so every stripped row is exactly one shorter:
    // the output slab is sized up front and filled as range tasks, leaving
    // no serial pass behind the join.
    let t0 = Instant::now();
    let raw = arena.raw_hoods.indices();
    let raw_width = raw.len() / low.len();
    debug_assert!(arena.raw_hoods.iter().all(|row| row.len() == raw_width));
    let width = raw_width - 1;
    arena.dilated.clear();
    let stripped = arena.dilated.push_uniform_rows(low.len(), width);
    runtime::for_each_chunk_mut(stripped, STRIP_ROWS_PER_TASK * width, |_, start, chunk| {
        let first = start / width;
        for (r, dst) in chunk.chunks_exact_mut(width).enumerate() {
            let i = first + r;
            let kept = raw[i * raw_width..(i + 1) * raw_width]
                .iter()
                .filter(|&&j| j as usize != i);
            for (d, &j) in dst.iter_mut().zip(kept) {
                *d = j;
            }
        }
    });
    timings.knn += t0.elapsed();

    let mut ops = OpCounts {
        knn_queries: low.len() as u64,
        candidates_examined: arena.dilated.total_indices() as u64 * 4,
        points_generated: 0,
        reused_neighborhoods: 0,
    };

    // --- Plan: classify every row as copy-forward or recompute against the
    // previous frame's cached outputs (Cold plans recompute everything).
    let t1 = Instant::now();
    distribute_new_points_into(low.len(), ratio, &mut arena.counts);
    super::temporal::plan_outputs(&mut session.temporal, arena, config, ratio);

    // --- Interpolation stage: generate only the fresh rows, as one
    // compacted batch — one arena batch per worker chunk of the fresh-row
    // list (a single one on one worker), the later ones appended to the
    // first in chunk order.
    let FrameArena {
        counts,
        dilated,
        soa,
        batches,
        join,
        plan,
        ..
    } = arena;
    let counts = counts.as_slice();
    let fresh_rows = plan.fresh_rows.as_slice();
    if !fresh_rows.is_empty() {
        soa.fill(positions);
    }
    let soa = &*soa;
    let with_hoods = config.reuse_neighbors;
    let workers = runtime::workers_for(fresh_rows.len(), 2_000);
    let chunk = fresh_rows.len().div_ceil(workers).max(1);
    let n_chunks = fresh_rows.len().div_ceil(chunk).max(1);
    if batches.len() < n_chunks {
        batches.resize_with(n_chunks, RowBatch::default);
    }
    runtime::for_each_chunk_mut(&mut batches[..n_chunks], 1, |c, _, batch| {
        let range = (c * chunk).min(fresh_rows.len())..((c + 1) * chunk).min(fresh_rows.len());
        dilated_interpolate_rows_into(
            positions,
            soa,
            dilated.view(),
            config,
            counts,
            &fresh_rows[range],
            with_hoods,
            &mut batch[0],
        );
    });
    let (fresh, rest) = batches[..n_chunks]
        .split_first_mut()
        .expect("at least one batch");
    for part in rest.iter() {
        fresh.append(part);
    }
    let fresh = &*fresh;

    // --- Assemble: interleave copied-forward (rebuilt from the cached
    // partners and neighborhoods) and fresh outputs into final frame order.
    let mut cloud = low.clone();
    super::temporal::assemble_outputs(
        &session.temporal.outputs,
        plan,
        &join.old_to_new,
        positions,
        counts,
        config.k,
        fresh,
        &mut cloud,
        &mut parents,
        &mut neighborhoods,
    );
    ops.points_generated = (cloud.len() - low.len()) as u64;
    if config.reuse_neighbors {
        ops.reused_neighborhoods = ops.points_generated;
    }
    timings.interpolation += t1.elapsed();
    if !config.reuse_neighbors {
        // No-reuse ablation: exact batched queries for every generated point
        // (the plan is always Cold here, so `fresh.points` is all of them).
        let t = Instant::now();
        session
            .index
            .cached_tree()
            .knn_batch(&fresh.points, config.k, &mut neighborhoods);
        timings.knn += t.elapsed();
        ops.knn_queries += fresh.points.len() as u64;
        ops.candidates_examined += fresh.points.len() as u64 * config.k as u64 * 4;
    }

    // --- Colorization stage: every generated point takes its neighborhood
    // head's color, recomputed each frame rather than held as session state.
    let t2 = Instant::now();
    colorize::colorize_new_points(&mut cloud, low, low.len(), neighborhoods.view(), &parents);
    timings.colorization += t2.elapsed();

    // --- Capture this frame's outputs as the next frame's reuse source.
    let t3 = Instant::now();
    super::temporal::capture_outputs(
        &mut session.temporal,
        plan,
        low,
        config,
        ratio,
        &parents,
        &neighborhoods,
    );
    timings.interpolation += t3.elapsed();

    InterpolationResult {
        cloud,
        original_len: low.len(),
        parents,
        neighborhoods,
        timings,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::{metrics, sampling, synthetic};

    #[test]
    fn reaches_requested_ratio() {
        let low = synthetic::sphere(500, 1.0, 1);
        for ratio in [1.5, 2.0, 3.0, 4.0] {
            let out = dilated_interpolate(&low, &SrConfig::default(), ratio).unwrap();
            assert_eq!(
                out.cloud.len(),
                (500.0 * ratio).round() as usize,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn improves_chamfer_distance() {
        let gt = synthetic::torus(3000, 1.0, 0.3, 2);
        let low = sampling::random_downsample_exact(&gt, 1000, 1).unwrap();
        let out = dilated_interpolate(&low, &SrConfig::default(), 3.0).unwrap();
        let before = metrics::chamfer_distance(&low, &gt);
        let after = metrics::chamfer_distance(&out.cloud, &gt);
        assert!(after < before);
    }

    #[test]
    fn dilated_beats_naive_on_nonuniform_density() {
        // On a biased (non-uniform) downsample the dilated interpolation
        // should achieve a lower Chamfer distance than the naive baseline,
        // mirroring Figure 4 / Figures 7-10.
        let gt = synthetic::humanoid(4000, 0.3, 3);
        let low = sampling::biased_downsample(&gt, 0.25, 5).unwrap();
        let naive =
            crate::baselines::naive::naive_interpolate(&low, &SrConfig::k4d1(), 4.0).unwrap();
        let dilated = dilated_interpolate(&low, &SrConfig::k4d2(), 4.0).unwrap();
        let cd_naive = metrics::chamfer_distance(&naive.cloud, &gt);
        let cd_dilated = metrics::chamfer_distance(&dilated.cloud, &gt);
        assert!(
            cd_dilated < cd_naive * 1.05,
            "dilated ({cd_dilated}) should not be worse than naive ({cd_naive})"
        );
    }

    #[test]
    fn neighborhoods_are_populated_and_valid() {
        let low = synthetic::sphere(300, 1.0, 4);
        let cfg = SrConfig::default();
        let out = dilated_interpolate(&low, &cfg, 2.0).unwrap();
        assert_eq!(out.neighborhoods.len(), out.new_points());
        for hood in out.neighborhoods.iter() {
            assert!(!hood.is_empty());
            assert!(hood.len() <= cfg.k);
            assert!(hood.iter().all(|&i| (i as usize) < low.len()));
        }
        assert!(out.ops.reused_neighborhoods > 0);
    }

    #[test]
    fn reuse_disabled_still_produces_neighborhoods() {
        let low = synthetic::sphere(200, 1.0, 5);
        let cfg = SrConfig {
            reuse_neighbors: false,
            ..SrConfig::default()
        };
        let out = dilated_interpolate(&low, &cfg, 2.0).unwrap();
        assert_eq!(out.neighborhoods.len(), out.new_points());
        for hood in out.neighborhoods.iter() {
            assert!(!hood.is_empty());
        }
        assert_eq!(out.ops.reused_neighborhoods, 0);
    }

    #[test]
    fn colors_are_propagated() {
        let low = synthetic::sphere(200, 1.0, 6);
        let out = dilated_interpolate(&low, &SrConfig::default(), 2.5).unwrap();
        assert!(out.cloud.has_colors());
        assert_eq!(out.cloud.colors().unwrap().len(), out.cloud.len());
    }

    #[test]
    fn rejects_bad_inputs() {
        let low = synthetic::sphere(50, 1.0, 7);
        assert!(dilated_interpolate(&low, &SrConfig::default(), 0.2).is_err());
        let tiny = volut_pointcloud::PointCloud::from_positions(vec![Point3::ZERO]);
        assert!(dilated_interpolate(&tiny, &SrConfig::default(), 2.0).is_err());
    }

    #[test]
    fn timings_are_recorded() {
        let low = synthetic::sphere(500, 1.0, 8);
        let out = dilated_interpolate(&low, &SrConfig::default(), 2.0).unwrap();
        assert!(out.timings.total() > std::time::Duration::ZERO);
        assert_eq!(out.ops.knn_queries, 500);
    }

    #[test]
    fn deterministic_and_scratch_independent() {
        // Per-source-point RNG seeding makes the result independent of the
        // worker count and of scratch reuse.
        let low = synthetic::sphere(2500, 1.0, 11);
        let a = dilated_interpolate(&low, &SrConfig::default(), 2.3).unwrap();
        let mut scratch = FrameScratch::new();
        let warmup =
            dilated_interpolate_with(&low, &SrConfig::default(), 2.3, &mut scratch).unwrap();
        scratch.recycle_neighborhoods(warmup.neighborhoods);
        let b = dilated_interpolate_with(&low, &SrConfig::default(), 2.3, &mut scratch).unwrap();
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(a.neighborhoods, b.neighborhoods);
        assert_eq!(a.parents, b.parents);
    }

    #[test]
    fn rows_into_over_full_set_matches_whole_frame_batch() {
        // The partial-batch entry over the complete row list must reproduce
        // the legacy whole-frame output bit for bit.
        let low = synthetic::humanoid(900, 0.35, 21);
        let cfg = SrConfig::default();
        let ratio = 2.4;
        let full = dilated_interpolate(&low, &cfg, ratio).unwrap();

        // Rebuild the inputs the partial entry needs: the self-join rows,
        // self-match stripped and capped at the dilated size.
        let positions = low.positions();
        let dilated_k = cfg.dilated_neighborhood();
        let mut raw = volut_pointcloud::Neighborhoods::new();
        volut_pointcloud::kdtree::KdTree::build(positions).knn_batch(
            positions,
            dilated_k + 1,
            &mut raw,
        );
        let mut dilated = volut_pointcloud::Neighborhoods::new();
        for (i, row) in raw.iter().enumerate() {
            dilated.push_row_u32_iter(
                row.iter()
                    .copied()
                    .filter(|&j| j as usize != i)
                    .take(dilated_k),
            );
        }
        let mut soa = SoaPositions::default();
        soa.fill(positions);
        let mut counts = Vec::new();
        distribute_new_points_into(low.len(), ratio, &mut counts);
        let rows: Vec<u32> = (0..low.len() as u32).collect();
        let mut batch = RowBatch::default();
        dilated_interpolate_rows_into(
            positions,
            &soa,
            dilated.view(),
            &cfg,
            &counts,
            &rows,
            true,
            &mut batch,
        );
        assert_eq!(
            batch.points.as_slice(),
            &full.cloud.positions()[low.len()..]
        );
        assert_eq!(batch.parents().collect::<Vec<_>>(), full.parents);
        assert_eq!(batch.hoods, full.neighborhoods);
    }

    #[test]
    fn more_uniform_than_naive() {
        // Dilation should spread new points more uniformly: measure the mean
        // nearest-neighbor spacing variance proxy via mean spacing of new points.
        let gt = synthetic::sphere(3000, 1.0, 9);
        let low = sampling::biased_downsample(&gt, 0.3, 11).unwrap();
        let naive =
            crate::baselines::naive::naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        let dilated = dilated_interpolate(&low, &SrConfig::k4d2(), 2.0).unwrap();
        // Hausdorff to ground truth captures coverage of sparse regions.
        let h_naive = metrics::hausdorff_distance(&naive.cloud, &gt);
        let h_dilated = metrics::hausdorff_distance(&dilated.cloud, &gt);
        assert!(h_dilated <= h_naive * 1.2);
    }
}
