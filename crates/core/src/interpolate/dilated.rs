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
//!   (see [`super::temporal`]): frames whose geometry is unchanged skip
//!   the rebuild entirely, and the queries go through
//!   `KdTree::knn_batch_with` with the frame arena's scratch — a *self-join*
//!   of the frame cloud against itself, which the tree answers with the
//!   dual-tree leaf-pair kernel of [`volut_pointcloud::dualtree`] at
//!   production sizes;
//! * derives each new point's neighborhood via neighbor-relationship reuse
//!   (Eq. 2): the branch-free kernel
//!   [`volut_pointcloud::kernels::merge_prune_row`] merges the parents'
//!   heads — `2k` distances, `2k` sorted inserts, no tree query — straight
//!   into the point's slot of the output. At `ratio` 8 this loop, not the
//!   self-join, is the largest block of the frame;
//! * writes every generated point in one pass over the source rows, the
//!   stand-in for the paper's one GPU kernel per stage: a range of rows owns
//!   its slices of the output positions, colors, parents and neighborhoods
//!   (the tail split is closed-form, `super::PointSplit`), and each row
//!   draws its partners, takes their midpoints, merges their neighborhoods,
//!   colors its points by their neighborhood heads and — in a pipeline frame
//!   — refines them in place, with no handoff buffer between the stages.
//!   The ranges are cut by generated points and run across the CPU workers;
//! * on delta frames, generates only the rows the churn invalidated: the
//!   temporal layer's plan (`super::temporal::plan_outputs`) tells the pass,
//!   row by row, which rows copy their outputs forward from the previous
//!   frame — partners, neighborhoods and refined positions, index-remapped
//!   and bit-identical — and only the rest are drawn and refined.
//!
//! Interpolation partners are drawn from a small RNG seeded per *source
//! point* by the point's position bits (`super::row_seed`), so the output
//! is bit-identical regardless of worker count, range cut, or how rows moved
//! between frames — the invariance the copy-forward path relies on.

use super::reuse::merge_parent_heads;
use super::temporal::{self, FramePlan};
use super::{row_seed, PointSplit};
use super::{run_jobs, take_front, FrameArena, FrameScratch, InterpolationResult};
use crate::config::SrConfig;
use crate::error::Error;
use crate::lut::LookupStats;
use crate::pipeline::StageTimings;
use crate::refine::Refiner;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use volut_pointcloud::{runtime, Color, NeighborhoodsView, Point3, PointCloud};

/// Rows per task of the self-strip copy in `dilated_frame`: a few
/// thousand 8-entry rows, tens of microseconds of work each.
const STRIP_ROWS_PER_TASK: usize = 4096;

/// Generated points per task of the frame pass: the pass cuts its source
/// rows into ranges that generate about this many points each, so a frame
/// at ratio 8 splits as finely as one at ratio 2, and a frame has several
/// ranges per worker for the runtime's cursor to balance (the fresh rows of
/// a delta frame cluster in space, and so in a few ranges). On one worker —
/// including every frame nested in a server tenant's task — the pass runs
/// as one inline range.
const PASS_POINTS_PER_TASK: usize = 4_096;

/// Source rows per block of the frame pass: each stage (generate, colour,
/// refine) reads the clock once per block.
const BLOCK_ROWS: usize = 64;

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
    dilated_interpolate_in(
        low,
        config,
        ratio,
        scratch,
        &mut FrameArena::checkout(),
        None,
    )
    .map(|(result, _)| result)
}

/// The refinement a pipeline frame runs inside the frame pass: its refiner,
/// and the pipeline id its refined tail is cached under.
#[derive(Clone, Copy)]
pub(crate) struct Refine<'a> {
    pub(crate) refiner: &'a dyn Refiner,
    pub(crate) owner: u64,
}

/// [`dilated_interpolate_with`] on an arena the caller checked out, refining
/// the generated points in the same pass when `refine` is given (the
/// pipeline's frame). Returns the frame's table lookups beside the result.
pub(crate) fn dilated_interpolate_in(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    session: &mut FrameScratch,
    arena: &mut FrameArena,
    refine: Option<Refine<'_>>,
) -> Result<(InterpolationResult, LookupStats)> {
    config.validate()?;
    config.validate_ratio(ratio)?;
    if low.len() < 2 {
        return Err(Error::InsufficientPoints {
            required: 2,
            available: low.len(),
        });
    }
    let dual_before = arena.knn.invocations();
    let result = dilated_frame(low, config, ratio, session, arena, refine);
    session.temporal.stats.dual_tree_batches += arena.knn.invocations() - dual_before;
    Ok(result)
}

/// One validated dilated frame: `session` is what the next frame will read,
/// `arena` everything this frame clears, fills and forgets. Apart from the
/// output cloud, a steady-state frame allocates nothing. Returns the frame's
/// table lookups beside the result.
fn dilated_frame(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
    session: &mut FrameScratch,
    arena: &mut FrameArena,
    refine: Option<Refine<'_>>,
) -> (InterpolationResult, LookupStats) {
    let mut timings = StageTimings::default();
    let positions = low.positions();
    let n = low.len();
    // Self-join row width: the dilated neighborhood plus the self-match.
    let kq = config.dilated_neighborhood() + 1;
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
    let reuse = temporal::self_join(low, kq, &mut session.temporal, arena, &mut timings);

    // Strip the self-match from each row and cap at the dilated size. Raw
    // rows are uniform — `min(kq, n)` entries — and a row either holds its
    // own point or (behind that many lower-indexed duplicates of it) is cut
    // by the cap, so every stripped row is exactly one shorter: the output
    // slab is sized up front and filled as range tasks, leaving no serial
    // pass behind the join.
    let t0 = Instant::now();
    let raw = arena.raw_hoods.indices();
    let raw_width = arena.raw_hoods.width();
    let width = raw_width - 1;
    arena.dilated.clear();
    let stripped = arena.dilated.push_rows(n, width);
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

    // --- The frame pass: the output is sized once, and every range of
    // source rows writes its generated points' positions, colors, parents
    // and neighborhoods — and, in a pipeline frame, their refined positions
    // — straight into its own slices of it.
    let t1 = Instant::now();
    let split = PointSplit::new(n, ratio);
    let total = split.offset(n);
    let hood_width = config.k.min(n);
    let mut points = Vec::with_capacity(n + total);
    points.extend_from_slice(positions);
    points.resize(n + total, Point3::ZERO);
    let mut colors = low.colors().map(|source| {
        let mut colors = Vec::with_capacity(n + total);
        colors.extend_from_slice(source);
        colors.resize(n + total, Color::BLACK);
        colors
    });
    parents.resize(total, (0, 0));
    let hoods = neighborhoods.push_rows(total, hood_width);
    let plan = temporal::plan_outputs(
        &session.temporal,
        &arena.join,
        reuse,
        config,
        ratio,
        refine.map(|r| r.owner),
    );
    let (mode, refined_replayed) = (plan.mode, plan.refined.is_some());
    let pass = FramePass {
        positions,
        colors: low.colors(),
        dilated: arena.dilated.view(),
        seed: config.seed,
        split,
        width: hood_width,
        plan,
        refine,
        tally: Tally::default(),
    };
    let ranges = if runtime::current_workers() > 1 {
        total.div_ceil(PASS_POINTS_PER_TASK).clamp(1, n)
    } else {
        1
    };
    let rows_per_range = n.div_ceil(ranges);
    let (mut tail, mut tail_colors) =
        (&mut points[n..], colors.as_deref_mut().map(|c| &mut c[n..]));
    let (mut tail_parents, mut tail_hoods) = (parents.as_mut_slice(), hoods);
    let jobs = (0..ranges).map(|c| {
        let rows = (c * rows_per_range).min(n)..((c + 1) * rows_per_range).min(n);
        let len = split.offset(rows.end) - split.offset(rows.start);
        RangeOut {
            rows,
            points: take_front(&mut tail, len),
            colors: tail_colors.as_mut().map(|c| take_front(c, len)),
            parents: take_front(&mut tail_parents, len),
            hoods: take_front(&mut tail_hoods, len * hood_width),
        }
    });
    let setup = t1.elapsed();
    // Ranges holding a delta frame's fresh rows start first.
    let weight = |out: &RangeOut<'_>| pass.plan.recomputed_rows(out.rows.clone());
    run_jobs(jobs, weight, |out| pass.run(out));
    let tally = pass.tally;

    // --- Record the reuse and capture this frame's outputs (and refined
    // tail) as the next frame's reuse source.
    let t2 = Instant::now();
    let reused = tally.reused.load(Ordering::Relaxed) as usize;
    let refined = refine.map(|_| refined_replayed);
    let t = &mut session.temporal;
    temporal::record_outputs(t, total, reused, refined);
    temporal::capture_outputs(t, mode, low, config, ratio, &parents, &neighborhoods);
    timings.interpolation += setup + t2.elapsed() + tally.generate.elapsed();
    timings.colorization += tally.color.elapsed();
    let t3 = Instant::now();
    temporal::capture_refined(t, refine.map(|r| r.owner), &points[n..]);
    timings.refinement += tally.refine.elapsed() + t3.elapsed();

    let cloud = match colors {
        Some(colors) => PointCloud::from_positions_and_colors(points, colors)
            .expect("colors sized to the points"),
        None => PointCloud::from_positions(points),
    };
    let lookups = LookupStats {
        hits: tally.hits.load(Ordering::Relaxed),
        misses: tally.misses.load(Ordering::Relaxed),
    };
    let result = InterpolationResult {
        cloud,
        original_len: n,
        parents,
        neighborhoods,
        timings,
    };
    (result, lookups)
}

/// Worker time of one stage of the frame pass, summed over its ranges.
#[derive(Debug, Default)]
struct StageClock(AtomicU64);

impl StageClock {
    fn add(&self, time: Duration) {
        self.0.fetch_add(time.as_nanos() as u64, Ordering::Relaxed);
    }

    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Relaxed))
    }
}

/// What the ranges of a frame pass report back.
#[derive(Debug, Default)]
struct Tally {
    generate: StageClock,
    color: StageClock,
    refine: StageClock,
    /// Generated points copied forward from the previous frame.
    reused: AtomicU64,
    /// Table lookups of the refiner's batches.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One range of source rows and its disjoint slices of the output: the tail
/// positions, colors, parents and neighborhoods (`width` entries per point)
/// its rows generate.
struct RangeOut<'a> {
    rows: Range<usize>,
    points: &'a mut [Point3],
    colors: Option<&'a mut [Color]>,
    parents: &'a mut [(usize, usize)],
    hoods: &'a mut [u32],
}

/// What every range of a frame pass reads.
struct FramePass<'a> {
    positions: &'a [Point3],
    colors: Option<&'a [Color]>,
    /// Self-match-stripped dilated rows of the source points.
    dilated: NeighborhoodsView<'a>,
    seed: u64,
    split: PointSplit,
    /// Entries per generated neighborhood: `min(k, n)`. Every generated
    /// point's Eq. 2 row merges its parents' heads, each `min(k, n - 1)`
    /// distinct points that exclude that parent, so the union holds at least
    /// `min(k, n)` points — a cloud of at most `k` points fills a uniform
    /// slab with rows of the whole cloud.
    width: usize,
    plan: FramePlan<'a>,
    refine: Option<Refine<'a>>,
    tally: Tally,
}

impl FramePass<'_> {
    /// Fills one range's outputs, a block of [`BLOCK_ROWS`] rows at a time:
    /// every row's points are copied forward or drawn (generate), coloured
    /// by their neighborhood head (colour), then refined in place, or given
    /// their cached refined positions (refine).
    fn run(&self, out: RangeOut<'_>) {
        let RangeOut {
            rows,
            points,
            mut colors,
            parents,
            hoods,
        } = out;
        let (w, base) = (self.width, self.split.offset(rows.start));
        let at = |r: usize| self.split.offset(r) - base;
        let (mut generate, mut color, mut refine) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut reused = 0;
        let mut lookups = LookupStats::default();
        let mut clock = Instant::now();
        for first in rows.clone().step_by(BLOCK_ROWS) {
            let block = first..(first + BLOCK_ROWS).min(rows.end);
            // Per row of the block: the cached ordinal it copies forward.
            let mut copied = [None; BLOCK_ROWS];
            for r in block.clone() {
                let slots = at(r)..at(r + 1);
                if slots.is_empty() {
                    continue;
                }
                let source = self.plan.source(r, slots.len());
                let row_hoods = &mut hoods[slots.start * w..slots.end * w];
                match source {
                    Some(o) => {
                        reused += slots.len();
                        self.derive(
                            r,
                            o,
                            &mut points[slots.clone()],
                            &mut parents[slots],
                            row_hoods,
                        );
                    }
                    None => self.draw(
                        r,
                        &mut points[slots.clone()],
                        &mut parents[slots],
                        row_hoods,
                    ),
                }
                copied[r - first] = source;
            }
            let now = Instant::now();
            generate += now - clock;
            clock = now;

            let span = at(block.start)..at(block.end);
            if let (Some(colors), Some(source)) = (colors.as_deref_mut(), self.colors) {
                // A generated point takes its neighborhood head's color.
                let heads = hoods[span.start * w..span.end * w].chunks_exact(w);
                for (c, row) in colors[span.clone()].iter_mut().zip(heads) {
                    *c = source[row[0] as usize];
                }
                let now = Instant::now();
                color += now - clock;
                clock = now;
            }

            if let Some(Refine { refiner, .. }) = self.refine {
                // Fresh rows are refined in runs; rows copied forward take
                // their cached refined positions when the plan has them.
                let mut run = span.start;
                if let Some(refined) = self.plan.refined {
                    for (r, o) in block.clone().zip(copied) {
                        let Some(o) = o else { continue };
                        let slots = at(r)..at(r + 1);
                        self.refine_run(refiner, points, hoods, run..slots.start, &mut lookups);
                        points[slots.clone()].copy_from_slice(&refined[o..o + slots.len()]);
                        run = slots.end;
                    }
                }
                self.refine_run(refiner, points, hoods, run..span.end, &mut lookups);
                let now = Instant::now();
                refine += now - clock;
                clock = now;
            }
        }
        let tally = &self.tally;
        tally.generate.add(generate);
        tally.color.add(color);
        tally.refine.add(refine);
        tally.reused.fetch_add(reused as u64, Ordering::Relaxed);
        tally.hits.fetch_add(lookups.hits, Ordering::Relaxed);
        tally.misses.fetch_add(lookups.misses, Ordering::Relaxed);
    }

    /// Copies row `r`'s outputs forward from cached ordinal `o` on: each
    /// point's parents are the row and its remapped cached partner, its
    /// position their midpoint in the new frame (where both kept their
    /// bits), its neighborhood the cached one remapped.
    fn derive(
        &self,
        r: usize,
        o: usize,
        points: &mut [Point3],
        parents: &mut [(usize, usize)],
        hoods: &mut [u32],
    ) {
        let a = self.positions[r];
        self.plan.parents_into(o, r, parents);
        for (p, &(_, b)) in points.iter_mut().zip(&*parents) {
            *p = a.midpoint(self.positions[b]);
        }
        self.plan.hoods_into(o, self.width, hoods);
    }

    /// Generates row `r`'s points fresh: a random subset of its dilated row
    /// as partners, each point the midpoint of the row and its partner, its
    /// neighborhood the Eq. 2 merge of the two parents' heads.
    fn draw(
        &self,
        r: usize,
        points: &mut [Point3],
        parents: &mut [(usize, usize)],
        hoods: &mut [u32],
    ) {
        let hood = self.dilated.row(r);
        let a = self.positions[r];
        // Seeding per source point — by position bits — keeps the draw
        // sequence independent of the range cut *and* of the row's index.
        let mut rng = StdRng::seed_from_u64(row_seed(self.seed, a));
        for taken in 0..points.len() {
            // One partner per generated point, drawn *without replacement*
            // (a repeated partner would duplicate a midpoint and add no
            // coverage), falling back to repeats only once the neighborhood
            // is exhausted. The hood holds distinct indices, so a slot was
            // drawn exactly when its index already is one of this row's
            // partners, and rejection always terminates.
            let mut s = rng.random_range(0..hood.len());
            if taken < hood.len() {
                while parents[..taken].iter().any(|&(_, b)| b == hood[s] as usize) {
                    s = rng.random_range(0..hood.len());
                }
            }
            let b = hood[s] as usize;
            let p = a.midpoint(self.positions[b]);
            (points[taken], parents[taken]) = (p, (r, b));
            let dst = &mut hoods[taken * self.width..(taken + 1) * self.width];
            let kept = merge_parent_heads(p, hood, self.dilated.row(b), self.positions, dst);
            debug_assert_eq!(
                kept, self.width,
                "generated neighborhoods are min(k, n) wide"
            );
        }
    }

    /// Refines the range's tail points `run` (range-relative) in place,
    /// adding the batch's table lookups to `lookups`.
    fn refine_run(
        &self,
        refiner: &dyn Refiner,
        points: &mut [Point3],
        hoods: &[u32],
        run: Range<usize>,
        lookups: &mut LookupStats,
    ) {
        if run.is_empty() {
            return;
        }
        let w = self.width;
        let view = NeighborhoodsView::from_raw(&hoods[run.start * w..run.end * w], run.len());
        let batch = refiner.refine_batch(&mut points[run], view, self.positions);
        lookups.hits += batch.hits;
        lookups.misses += batch.misses;
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
    }

    #[test]
    fn generated_neighborhoods_are_min_k_n_wide() {
        // Clouds around `k` points, at both dilations: every generated
        // neighborhood holds `min(k, n)` distinct source points (a cloud of
        // at most `k` points gives every generated point the whole cloud),
        // and a session's frames — repeated, then moved — equal a cold
        // recompute.
        for config in [SrConfig::default(), SrConfig::k4d1()] {
            let k = config.k;
            for n in [2, 3, k, k + 1, k + 2] {
                let low = synthetic::sphere(n, 1.0, n as u64);
                let mut moved = low.clone();
                moved.translate(Point3::new(0.25, 0.0, 0.0));
                let mut scratch = FrameScratch::new();
                for (frame_no, frame) in [&low, &low, &moved].into_iter().enumerate() {
                    let out = dilated_interpolate_with(frame, &config, 3.0, &mut scratch).unwrap();
                    let what = format!("dilation {} n {n} frame {frame_no}", config.dilation);
                    assert_eq!(out.neighborhoods.len(), out.new_points(), "{what}");
                    for hood in out.neighborhoods.iter() {
                        assert_eq!(hood.len(), k.min(n), "{what}");
                        let mut distinct = hood.to_vec();
                        distinct.sort_unstable();
                        distinct.dedup();
                        assert_eq!(distinct.len(), hood.len(), "{what}");
                        assert!(hood.iter().all(|&i| (i as usize) < n), "{what}");
                    }
                    let cold = dilated_interpolate(frame, &config, 3.0).unwrap();
                    assert_eq!(out.cloud, cold.cloud, "{what}");
                    assert_eq!(out.parents, cold.parents, "{what}");
                    assert_eq!(out.neighborhoods, cold.neighborhoods, "{what}");
                }
            }
        }
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
