//! Vanilla kNN midpoint interpolation — the paper's baseline.
//!
//! Every generated point costs a fresh kNN query (no dilation: the candidate
//! set is exactly the `k` closest neighbors, and no neighbor relationships
//! are reused). This reproduces both the quality artifacts (density patterns
//! are reinforced, Figure 4) and the cost profile (≥70% of frame time, §4.1)
//! that motivate VoLUT's enhanced interpolation — the baseline still pays
//! one query per source point *plus* one per generated point, roughly twice
//! the dilated path's query budget.
//!
//! The queries themselves run through the same batch machinery as the rest
//! of the engine: the spatial index is the session's cached k-d tree
//! (rebuilt only when the frame geometry changes) and both query passes go
//! through `KdTree::knn_batch_with` with the frame arena's scratch — the
//! source pass is a self-join, which the tree answers with the dual-tree
//! leaf-pair kernel ([`volut_pointcloud::dualtree`]) at production sizes, the
//! new-point pass a batch of midpoints on the warm single-tree sweep. Partner selection
//! draws from a small RNG seeded per *source point* by the point's position
//! bits (`super::row_seed`), which keeps the output independent of row
//! order — the invariance that lets the temporal layer copy a surviving
//! row's generated points (and their exact kNN rows, colors and refined
//! positions) forward across delta frames; on such frames only the
//! churn-invalidated rows are regenerated, as one compacted batch
//! ([`naive_interpolate_rows_into`]) whose midpoints run through the SIMD
//! SoA kernel [`volut_pointcloud::kernels::pair_midpoints_into`].

use super::temporal::OutputKind;
use super::{
    colorize, distribute_new_points_into, FrameArena, FrameScratch, InterpolationResult,
    InterpolationTimings, OpCounts, RowBatch,
};
use crate::config::SrConfig;
use crate::error::Error;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;
use volut_pointcloud::kernels;
use volut_pointcloud::soa::SoaPositions;
use volut_pointcloud::{NeighborhoodsView, Point3, PointCloud};

/// Upsamples `low` to roughly `ratio ×` its point count using vanilla kNN
/// midpoint interpolation.
///
/// # Errors
/// Returns an error when the configuration or ratio is invalid, or when the
/// input has fewer than two points.
///
/// # Example
///
/// ```
/// use volut_core::{config::SrConfig, interpolate::naive::naive_interpolate};
/// use volut_pointcloud::synthetic;
///
/// # fn main() -> Result<(), volut_core::Error> {
/// let low = synthetic::sphere(500, 1.0, 1);
/// let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0)?;
/// assert_eq!(out.cloud.len(), 1000);
/// # Ok(())
/// # }
/// ```
pub fn naive_interpolate(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
) -> Result<InterpolationResult> {
    naive_interpolate_with(low, config, ratio, &mut FrameScratch::new())
}

/// Generates the midpoints of a *subset* of source rows into `out` (cleared
/// first; its `hoods` stay empty — the caller derives them with a kNN pass).
///
/// `source_hoods.row(i)` is the batched `(k+1)`-NN row of source point `i`
/// *including* its self-match (stripped here); `counts[i]` is the per-row
/// generation count; `soa` must mirror `positions` ([`SoaPositions::fill`]).
/// Calling this over the full row set is bit-identical to the whole-frame
/// pass — the partial-batch entry exists so the temporal layer can
/// regenerate *only* churn-invalidated rows. Midpoints are computed by the
/// SIMD SoA kernel [`kernels::pair_midpoints_into`] (scalar fallback
/// bit-identical). A reused `out` makes the call allocation-free.
pub fn naive_interpolate_rows_into(
    positions: &[Point3],
    soa: &SoaPositions,
    source_hoods: NeighborhoodsView<'_>,
    config: &SrConfig,
    counts: &[usize],
    rows: &[u32],
    out: &mut RowBatch,
) {
    out.clear();
    let RowBatch {
        points,
        pair_a,
        pair_b,
        partners: neighbor_ids,
        ..
    } = out;
    for &row in rows {
        let i = row as usize;
        let count = counts[i];
        if count == 0 {
            continue;
        }
        // Drop the self-match from the batched row.
        neighbor_ids.clear();
        neighbor_ids.extend(
            source_hoods
                .row(i)
                .iter()
                .copied()
                .filter(|&j| j as usize != i),
        );
        debug_assert!(!neighbor_ids.is_empty(), "stripped kNN row {i} is empty");
        if neighbor_ids.is_empty() {
            continue;
        }
        // Seeding per source point — by position bits — keeps the draw
        // sequence independent of the row's index across frames.
        let mut rng = StdRng::seed_from_u64(super::row_seed(config.seed, positions[i]));
        for _ in 0..count {
            let j = neighbor_ids[rng.random_range(0..neighbor_ids.len())];
            pair_a.push(row);
            pair_b.push(j);
        }
    }
    debug_assert!(pair_a.is_empty() || soa.len() == positions.len());
    points.resize(pair_a.len(), Point3::ZERO);
    kernels::pair_midpoints_into(soa, pair_a, pair_b, points);
}

/// [`naive_interpolate`] with caller-provided session state (reused across
/// frames of a streaming session).
///
/// # Errors
/// Same as [`naive_interpolate`].
pub fn naive_interpolate_with(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    scratch: &mut FrameScratch,
) -> Result<InterpolationResult> {
    config.validate()?;
    config.validate_ratio(ratio)?;
    if low.len() < 2 {
        return Err(Error::InsufficientPoints {
            required: 2,
            available: low.len(),
        });
    }
    Ok(scratch.with_arena(|session, arena| naive_frame(low, config, ratio, session, arena)))
}

/// One validated naive frame: `session` is what the next frame will read,
/// `arena` everything this frame clears, fills and forgets.
fn naive_frame(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    session: &mut FrameScratch,
    arena: &mut FrameArena,
) -> InterpolationResult {
    let mut ops = OpCounts::default();
    let mut timings = InterpolationTimings::default();
    let positions = low.positions();

    distribute_new_points_into(low.len(), ratio, &mut arena.counts);
    // Counts are distributed round-robin with the remainder on the earliest
    // points, so the sources that generate anything form a prefix.
    let active = arena
        .counts
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i + 1);
    let mut neighborhoods = arena.take_neighborhoods();
    let mut parents = arena.take_parents();

    // --- Source queries: one batched (k+1)-NN pass over the active prefix.
    // With a full prefix this is the frame's kNN self-join, which the
    // temporal layer owns end to end: index reuse/patch/rebuild plus
    // incremental row reuse across delta frames (bit-identical to a full
    // recompute — see [`super::temporal`]). Partial prefixes (ratios below
    // 2×) are not a self-join over the whole cloud, so they take the plain
    // batched path against the cached index — and register as an unplanned
    // frame so no cross-frame output reuse spans them.
    let full_prefix = active == low.len();
    if full_prefix {
        super::temporal::self_join(low, config.k + 1, session, arena, &mut timings);
    } else {
        super::temporal::note_unplanned_frame(&mut session.temporal, arena, active);
        let t0 = Instant::now();
        let (tree, _rebuilt) = session.index.get_or_build(positions, low.geometry_digest());
        timings.index_build += t0.elapsed();
        let tq = Instant::now();
        arena.raw_hoods.clear();
        tree.knn_batch_with(
            &positions[..active],
            config.k + 1,
            &mut arena.raw_hoods,
            &mut arena.knn,
        );
        timings.knn += tq.elapsed();
    }
    ops.knn_queries += active as u64;
    ops.candidates_examined += active as u64 * (low.len().min(64)) as u64;

    // --- Plan: classify every row as copy-forward or recompute against the
    // previous frame's cached outputs (partial prefixes already registered a
    // Cold plan over their active rows above).
    let ti = Instant::now();
    if full_prefix {
        super::temporal::plan_outputs(
            &mut session.temporal,
            arena,
            low,
            config,
            ratio,
            OutputKind::Naive,
        );
    } else {
        let total: usize = arena.counts.iter().sum();
        session.temporal.stats.gen_points_recomputed += total as u64;
    }

    // --- Midpoint generation: only the fresh rows, as one compacted batch.
    // On a Cold plan this is every active row — the whole-frame baseline.
    let FrameArena {
        counts,
        raw_hoods,
        soa,
        batches,
        knn,
        join,
        plan,
        ..
    } = arena;
    if !plan.fresh_rows.is_empty() {
        soa.fill(positions);
    }
    if batches.is_empty() {
        batches.push(RowBatch::default());
    }
    let fresh = &mut batches[0];
    naive_interpolate_rows_into(
        positions,
        soa,
        raw_hoods.view(),
        config,
        counts,
        &plan.fresh_rows,
        fresh,
    );
    timings.interpolation += ti.elapsed();

    // --- New-point queries: the naive pipeline re-derives every *fresh*
    // generated point's own neighborhood with a batched kNN pass; reused
    // points copy their cached rows forward index-remapped. The queries are
    // midpoints, not the indexed cloud, so they run the warm single-tree
    // sweep (see `volut_pointcloud::dualtree` for why no join is built over
    // them).
    let tq = Instant::now();
    session
        .index
        .cached_tree()
        .knn_batch_with(&fresh.points, config.k, &mut fresh.hoods, knn);
    timings.knn += tq.elapsed();
    ops.knn_queries += fresh.points.len() as u64;
    ops.candidates_examined += fresh.points.len() as u64 * (low.len().min(64)) as u64;

    // --- Assemble: interleave copied-forward (index-remapped) and fresh
    // outputs into final frame order.
    let ta = Instant::now();
    let mut cloud = low.clone();
    super::temporal::assemble_outputs(
        &session.temporal.outputs,
        plan,
        &join.old_to_new,
        counts,
        fresh,
        &mut cloud,
        &mut parents,
        Some(&mut neighborhoods),
    );
    ops.points_generated = (cloud.len() - low.len()) as u64;
    timings.interpolation += ta.elapsed();

    // --- Colorization: copy cached tail colors forward when every source
    // color is unchanged, blending only the fresh ordinals.
    let tc = Instant::now();
    if super::temporal::scatter_cached_colors(
        &session.temporal.outputs,
        plan,
        &mut cloud,
        low.len(),
    ) {
        colorize::colorize_rows(
            &mut cloud,
            low,
            low.len(),
            neighborhoods.view(),
            &parents,
            &plan.fresh_ordinals,
        );
    } else {
        colorize::colorize_new_points(&mut cloud, low, low.len(), neighborhoods.view(), &parents);
    }
    timings.colorization += tc.elapsed();

    // --- Capture this frame's outputs as the next frame's reuse source.
    // Partial prefixes skip the capture: their generation did not run over
    // the self-join rows the next frame's plan would correlate against.
    if full_prefix {
        let t3 = Instant::now();
        super::temporal::capture_outputs(
            &mut session.temporal,
            plan,
            counts,
            low,
            config,
            ratio,
            OutputKind::Naive,
            &cloud,
            &parents,
            &neighborhoods,
        );
        timings.interpolation += t3.elapsed();
    }

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
        let low = synthetic::sphere(400, 1.0, 1);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        assert_eq!(out.cloud.len(), 800);
        assert!((out.achieved_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(out.new_points(), 400);
        assert_eq!(out.parents.len(), 400);
        assert_eq!(out.neighborhoods.len(), 400);
    }

    #[test]
    fn supports_fractional_ratios() {
        let low = synthetic::sphere(300, 1.0, 2);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 1.7).unwrap();
        assert_eq!(out.cloud.len(), (300.0f64 * 1.7).round() as usize);
    }

    #[test]
    fn improves_coverage_of_ground_truth() {
        // The low cloud is an exact subset of the ground truth, so the
        // symmetric Chamfer distance is dominated by the coverage term
        // (ground truth -> reconstruction); interpolation must improve it.
        let gt = synthetic::torus(3000, 1.0, 0.3, 3);
        let low = sampling::random_downsample_exact(&gt, 1000, 1).unwrap();
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 3.0).unwrap();
        let before = metrics::one_sided_chamfer(&gt, &low);
        let after = metrics::one_sided_chamfer(&gt, &out.cloud);
        assert!(after < before, "after {after} should be < before {before}");
    }

    #[test]
    fn colors_are_propagated() {
        let low = synthetic::sphere(200, 1.0, 4);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        assert!(out.cloud.has_colors());
    }

    #[test]
    fn rejects_bad_inputs() {
        let low = synthetic::sphere(10, 1.0, 5);
        assert!(naive_interpolate(&low, &SrConfig::k4d1(), 0.5).is_err());
        let tiny =
            volut_pointcloud::PointCloud::from_positions(vec![volut_pointcloud::Point3::ZERO]);
        assert!(naive_interpolate(&tiny, &SrConfig::k4d1(), 2.0).is_err());
        let bad_cfg = SrConfig {
            k: 0,
            ..SrConfig::default()
        };
        assert!(naive_interpolate(&low, &bad_cfg, 2.0).is_err());
    }

    #[test]
    fn ratio_one_is_identity_size() {
        let low = synthetic::sphere(100, 1.0, 6);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 1.0).unwrap();
        assert_eq!(out.cloud.len(), 100);
        assert_eq!(out.new_points(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let low = synthetic::sphere(150, 1.0, 7);
        let a = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        let b = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        assert_eq!(a.cloud, b.cloud);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let low = synthetic::sphere(150, 1.0, 8);
        let fresh = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        let mut scratch = FrameScratch::new();
        // Run two frames through the same scratch; the second must be
        // unaffected by buffers left over from the first.
        let first = naive_interpolate_with(&low, &SrConfig::k4d1(), 2.0, &mut scratch).unwrap();
        scratch.recycle_neighborhoods(first.neighborhoods);
        let second = naive_interpolate_with(&low, &SrConfig::k4d1(), 2.0, &mut scratch).unwrap();
        assert_eq!(second.cloud, fresh.cloud);
        assert_eq!(second.neighborhoods, fresh.neighborhoods);
    }

    #[test]
    fn fractional_ratio_frames_interleave_safely_with_full_ones() {
        // A partial-prefix (unplanned) frame between two full frames must
        // not let stale cached outputs cross the discontinuity: every frame
        // still matches a cold-scratch recompute bit for bit.
        let low = synthetic::sphere(500, 1.0, 12);
        let mut scratch = FrameScratch::new();
        for ratio in [2.0, 1.3, 2.0, 1.7, 2.0] {
            let reused =
                naive_interpolate_with(&low, &SrConfig::k4d1(), ratio, &mut scratch).unwrap();
            let fresh = naive_interpolate(&low, &SrConfig::k4d1(), ratio).unwrap();
            assert_eq!(reused.cloud, fresh.cloud, "ratio {ratio}");
            assert_eq!(reused.neighborhoods, fresh.neighborhoods, "ratio {ratio}");
            assert_eq!(reused.parents, fresh.parents, "ratio {ratio}");
            scratch.recycle_neighborhoods(reused.neighborhoods);
        }
    }

    #[test]
    fn rows_into_over_full_set_matches_whole_frame_batch() {
        // The partial-batch entry over the complete row list must reproduce
        // the whole-frame midpoints bit for bit.
        let low = synthetic::humanoid(700, 0.35, 23);
        let cfg = SrConfig::k4d1();
        let ratio = 2.0;
        let full = naive_interpolate(&low, &cfg, ratio).unwrap();

        let positions = low.positions();
        let mut source_hoods = volut_pointcloud::Neighborhoods::new();
        {
            use volut_pointcloud::knn::NeighborSearch;
            volut_pointcloud::kdtree::KdTree::build(positions).knn_batch(
                positions,
                cfg.k + 1,
                &mut source_hoods,
            );
        }
        let mut soa = SoaPositions::default();
        soa.fill(positions);
        let mut counts = Vec::new();
        distribute_new_points_into(low.len(), ratio, &mut counts);
        let rows: Vec<u32> = (0..low.len() as u32).collect();
        let mut batch = RowBatch::default();
        naive_interpolate_rows_into(
            positions,
            &soa,
            source_hoods.view(),
            &cfg,
            &counts,
            &rows,
            &mut batch,
        );
        assert_eq!(
            batch.points.as_slice(),
            &full.cloud.positions()[low.len()..]
        );
        assert_eq!(batch.parents().collect::<Vec<_>>(), full.parents);
    }
}
