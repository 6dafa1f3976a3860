//! The end-to-end two-stage super-resolution pipeline (Figure 3).
//!
//! [`SrPipeline`] glues the pieces together: interpolation (naive or
//! dilated), colorization (performed inside the interpolation stage) and
//! per-point refinement, with per-stage wall-clock timing so the runtime
//! breakdown of Figure 16 can be reproduced.

use crate::config::SrConfig;
use crate::interpolate::{
    DilatedInterpolator, FrameArena, FrameScratch, InterpolationResult, Interpolator,
    NaiveInterpolator, OpCounts,
};
use crate::lut::LookupStats;
use crate::refine::{refine_in_place, refine_rows_in_place, Refiner, RefinerCost};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use volut_pointcloud::PointCloud;

/// Monotonic source of pipeline identities: the refined-output cache in a
/// [`FrameScratch`] is only replayed for the pipeline instance that wrote
/// it, so two pipelines (different refiners) sharing one scratch can never
/// cross-contaminate each other's refined tails.
static NEXT_PIPELINE_ID: AtomicU64 = AtomicU64::new(1);

/// Which interpolation implementation the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum InterpolationMode {
    /// Vanilla kNN midpoint interpolation (baseline).
    Naive,
    /// VoLUT's dilated, k-d-tree-accelerated, reuse-enabled interpolation.
    #[default]
    Dilated,
}

/// Wall-clock breakdown of one super-resolution pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Spatial-index (re)build / validation time. Amortized to ~zero on
    /// frames whose geometry matches the session's cached index.
    pub index_build: Duration,
    /// Neighbor-search query time. This is the frame-dominating kNN
    /// self-join (§4.1): on a cold frame the k-d tree answers it with the
    /// dual-tree leaf-pair kernel ([`volut_pointcloud::dualtree`]) over the
    /// frame arena's scratch ([`crate::interpolate::FrameArena`]), sharded
    /// across the pool's workers from inside the traversal; on a delta frame
    /// it is the diff, the copy-forward of rows the churn cannot touch and a
    /// single-tree sweep over the rest, cut across workers (both inside
    /// `KdTree::knn_batch_with`). The self-strip copy that feeds the
    /// dilated interpolator is charged here too. The `sr_stage_breakdown`
    /// bench tracks this stage's share release-over-release.
    pub knn: Duration,
    /// Midpoint generation and bookkeeping.
    pub interpolation: Duration,
    /// Color assignment.
    pub colorization: Duration,
    /// Per-point refinement (LUT lookups or NN inference).
    pub refinement: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.index_build + self.knn + self.interpolation + self.colorization + self.refinement
    }

    /// Fraction of total time spent in a stage; returns 0 for an all-zero breakdown.
    pub fn fraction(&self, stage: Duration) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            stage.as_secs_f64() / total
        }
    }
}

/// Result of one super-resolution pass.
#[derive(Debug, Clone)]
pub struct SrResult {
    /// The upsampled, colorized, refined cloud.
    pub cloud: PointCloud,
    /// Number of input points.
    pub input_points: usize,
    /// Per-stage wall-clock timings measured on the host.
    pub timings: StageTimings,
    /// Interpolation operation counters.
    pub ops: OpCounts,
    /// Per-point refinement cost of the configured refiner.
    pub refiner_cost: RefinerCost,
    /// LUT hit/miss statistics when the refiner is table-based.
    pub lookup_stats: Option<LookupStats>,
    /// Name of the refiner that produced this result.
    pub refiner_name: String,
}

impl SrResult {
    /// Achieved upsampling ratio.
    pub fn achieved_ratio(&self) -> f64 {
        if self.input_points == 0 {
            1.0
        } else {
            self.cloud.len() as f64 / self.input_points as f64
        }
    }

    /// Super-resolution throughput in frames per second implied by the
    /// host-measured total time.
    pub fn host_fps(&self) -> f64 {
        let t = self.timings.total().as_secs_f64();
        if t <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / t
        }
    }
}

/// The two-stage super-resolution pipeline.
///
/// # Example
///
/// ```
/// use volut_core::{SrConfig, SrPipeline, refine::IdentityRefiner};
/// use volut_pointcloud::synthetic;
///
/// # fn main() -> Result<(), volut_core::Error> {
/// let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
/// let low = synthetic::sphere(400, 1.0, 1);
/// let result = pipeline.upsample(&low, 2.5)?;
/// assert_eq!(result.cloud.len(), 1000);
/// # Ok(())
/// # }
/// ```
pub struct SrPipeline {
    config: SrConfig,
    mode: InterpolationMode,
    interpolator: Box<dyn Interpolator>,
    refiner: Box<dyn Refiner>,
    /// Identity stamped on cached refined outputs (see [`NEXT_PIPELINE_ID`]).
    id: u64,
}

impl std::fmt::Debug for SrPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrPipeline")
            .field("config", &self.config)
            .field("mode", &self.mode)
            .field("refiner", &self.refiner.name())
            .finish()
    }
}

impl SrPipeline {
    /// Creates a pipeline with dilated interpolation and the given refiner.
    pub fn new(config: SrConfig, refiner: Box<dyn Refiner>) -> Self {
        Self::with_mode(config, InterpolationMode::Dilated, refiner)
    }

    /// Creates a pipeline with an explicit interpolation mode.
    pub fn with_mode(config: SrConfig, mode: InterpolationMode, refiner: Box<dyn Refiner>) -> Self {
        let interpolator: Box<dyn Interpolator> = match mode {
            InterpolationMode::Naive => Box::new(NaiveInterpolator),
            InterpolationMode::Dilated => Box::new(DilatedInterpolator),
        };
        Self {
            config,
            mode,
            interpolator,
            refiner,
            id: NEXT_PIPELINE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Creates a pipeline around a custom [`Interpolator`] implementation.
    /// `reported_mode` is what [`Self::mode`] (and anything keyed off it in
    /// reports) will claim this interpolator behaves like — callers state it
    /// explicitly rather than the pipeline guessing from the name.
    pub fn with_interpolator(
        config: SrConfig,
        reported_mode: InterpolationMode,
        interpolator: Box<dyn Interpolator>,
        refiner: Box<dyn Refiner>,
    ) -> Self {
        Self {
            config,
            mode: reported_mode,
            interpolator,
            refiner,
            id: NEXT_PIPELINE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SrConfig {
        &self.config
    }

    /// The interpolation mode in use.
    pub fn mode(&self) -> InterpolationMode {
        self.mode
    }

    /// The refiner's resident memory (model weights or LUT), in bytes.
    pub fn refiner_memory_bytes(&self) -> usize {
        self.refiner.memory_bytes()
    }

    /// Name of the configured refiner.
    pub fn refiner_name(&self) -> &str {
        self.refiner.name()
    }

    /// Upsamples `low` by `ratio` and refines the generated points.
    ///
    /// Allocates fresh working buffers; streaming sessions should prefer
    /// [`Self::upsample_with`] with a long-lived [`FrameScratch`].
    ///
    /// # Errors
    /// Propagates interpolation failures (invalid configuration/ratio,
    /// insufficient points).
    pub fn upsample(&self, low: &PointCloud, ratio: f64) -> Result<SrResult> {
        self.upsample_with(low, ratio, &mut FrameScratch::new())
    }

    /// Upsamples `low` by `ratio` as the next frame of the session whose
    /// state `scratch` holds: the cached index, rows and outputs of the
    /// previous frame are reused where the geometry allows, and refreshed
    /// for the frame after. The frame's transient buffers (neighborhood
    /// CSRs, dilated lists, refinement center copy, …) come from the
    /// calling thread's [`crate::interpolate::FrameArena`], so repeated
    /// calls allocate nothing but the output cloud once buffers reach
    /// steady-state size.
    ///
    /// # Errors
    /// Propagates interpolation failures (invalid configuration/ratio,
    /// insufficient points).
    pub fn upsample_with(
        &self,
        low: &PointCloud,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<SrResult> {
        // One arena serves the whole frame: the interpolator finds it
        // parked on the scratch, refinement takes it from there.
        scratch.begin_frame();
        let interp = self
            .interpolator
            .interpolate(low, &self.config, ratio, scratch);
        let mut arena = scratch.finish_frame();
        let interp: InterpolationResult = interp?;

        let mut timings = StageTimings {
            index_build: interp.timings.index_build,
            knn: interp.timings.knn,
            interpolation: interp.timings.interpolation,
            colorization: interp.timings.colorization,
            refinement: Duration::ZERO,
        };

        // Refinement stage: move every generated point by its looked-up /
        // predicted offset, operating on flat slices — the CSR neighborhood
        // rows index straight into `low`'s position array, so the whole
        // stage performs zero per-point heap allocations. Original points
        // are left untouched.
        //
        // On delta frames the temporal layer first replays the previous
        // frame's refined tail for every generated point it copied forward
        // (index-remapped, bit-identical — the cached positions ARE the
        // previous refined outputs), so only the churn-invalidated subset
        // runs the refiner. The refined tail is then captured as the next
        // frame's replay source, stamped with this pipeline's identity.
        let t0 = Instant::now();
        let original_len = interp.original_len;
        let mut cloud = interp.cloud;
        let temporal = &mut scratch.temporal;
        let FrameArena {
            plan,
            centers,
            subset_hoods,
            subset_out,
            ..
        } = &mut *arena;
        if crate::interpolate::temporal::reuse_refined_into(
            temporal,
            plan,
            self.id,
            &mut cloud,
            original_len,
        ) {
            refine_rows_in_place(
                self.refiner.as_ref(),
                &mut cloud,
                original_len,
                &interp.neighborhoods,
                low.positions(),
                &plan.fresh_ordinals,
                centers,
                subset_hoods,
                subset_out,
            );
        } else {
            refine_in_place(
                self.refiner.as_ref(),
                &mut cloud,
                original_len,
                &interp.neighborhoods,
                low.positions(),
                centers,
            );
        }
        crate::interpolate::temporal::capture_refined(
            temporal,
            plan,
            self.id,
            &cloud,
            original_len,
        );
        timings.refinement = t0.elapsed();

        // Hand the result containers back so the arena's next frame reuses
        // their allocations.
        arena.recycle(interp.neighborhoods, interp.parents);

        Ok(SrResult {
            cloud,
            input_points: low.len(),
            timings,
            ops: interp.ops,
            refiner_cost: self.refiner.cost(),
            lookup_stats: self.refiner.lookup_stats(),
            refiner_name: self.refiner.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::KeyScheme;
    use crate::lut::builder::LutBuilder;
    use crate::nn::mlp::Mlp;
    use crate::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
    use crate::refine::{IdentityRefiner, LutRefiner, NnRefiner};
    use volut_pointcloud::{metrics, sampling, synthetic};

    #[test]
    fn identity_pipeline_reaches_ratio_and_tracks_timings() {
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(500, 1.0, 1);
        let r = pipeline.upsample(&low, 3.0).unwrap();
        assert_eq!(r.cloud.len(), 1500);
        assert!((r.achieved_ratio() - 3.0).abs() < 1e-9);
        assert!(r.timings.total() > Duration::ZERO);
        assert!(r.host_fps() > 0.0);
        assert_eq!(r.refiner_name, "identity");
        assert!(r.lookup_stats.is_none());
    }

    #[test]
    fn naive_mode_works_through_pipeline() {
        let pipeline = SrPipeline::with_mode(
            SrConfig::k4d1(),
            InterpolationMode::Naive,
            Box::new(IdentityRefiner),
        );
        let low = synthetic::sphere(300, 1.0, 2);
        let r = pipeline.upsample(&low, 2.0).unwrap();
        assert_eq!(r.cloud.len(), 600);
        assert_eq!(pipeline.mode(), InterpolationMode::Naive);
    }

    #[test]
    fn lut_pipeline_improves_quality_over_identity() {
        // Train on one "video" (sphere), evaluate on the same content type:
        // the LUT-refined result should be at least as good as interpolation
        // alone, and both better than the raw downsampled input.
        let config = SrConfig::default();
        let gt = synthetic::sphere(3000, 1.0, 7);
        let set = build_training_set(&gt, 0.5, &config, KeyScheme::Full, 11).unwrap();
        let mut trainer = RefinementTrainer::new(
            &config,
            TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        trainer.train(&set).unwrap();
        let mlp = trainer.into_network();
        let builder = LutBuilder::new(&config, KeyScheme::Full).unwrap();
        let lut = builder.distill_sparse(&mlp, &set).unwrap();
        let refiner = LutRefiner::from_config(&config, KeyScheme::Full, Box::new(lut)).unwrap();

        let low = sampling::random_downsample_exact(&gt, 1500, 3).unwrap();
        let lut_pipeline = SrPipeline::new(config, Box::new(refiner));
        let id_pipeline = SrPipeline::new(config, Box::new(IdentityRefiner));

        let lut_result = lut_pipeline.upsample(&low, 2.0).unwrap();
        let id_result = id_pipeline.upsample(&low, 2.0).unwrap();

        // Coverage of the ground truth must improve with upsampling, and the
        // LUT-refined result must not be worse than interpolation alone.
        let cover_low = metrics::one_sided_chamfer(&gt, &low);
        let cover_id = metrics::one_sided_chamfer(&gt, &id_result.cloud);
        assert!(cover_id < cover_low);
        let cd_id = metrics::chamfer_distance(&id_result.cloud, &gt);
        let cd_lut = metrics::chamfer_distance(&lut_result.cloud, &gt);
        assert!(
            cd_lut <= cd_id * 1.10,
            "lut ({cd_lut}) should not be much worse than interpolation ({cd_id})"
        );
        // The LUT should actually be hit most of the time on in-distribution data.
        let stats = lut_result.lookup_stats.unwrap();
        assert!(stats.hits > 0);
    }

    #[test]
    fn nn_refiner_pipeline_runs_and_is_slower_than_lut() {
        let config = SrConfig::default();
        let gt = synthetic::torus(1500, 1.0, 0.3, 5);
        let set = build_training_set(&gt, 0.5, &config, KeyScheme::Full, 2).unwrap();
        let mut trainer = RefinementTrainer::new(
            &config,
            TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        trainer.train(&set).unwrap();
        let mlp = trainer.into_network();
        let builder = LutBuilder::new(&config, KeyScheme::Full).unwrap();
        let lut = builder.distill_sparse(&mlp, &set).unwrap();

        let low = sampling::random_downsample_exact(&gt, 700, 1).unwrap();
        let nn_pipeline = SrPipeline::new(
            config,
            Box::new(NnRefiner::from_config(&config, KeyScheme::Full, mlp).unwrap()),
        );
        let lut_pipeline = SrPipeline::new(
            config,
            Box::new(LutRefiner::from_config(&config, KeyScheme::Full, Box::new(lut)).unwrap()),
        );
        let nn_result = nn_pipeline.upsample(&low, 2.0).unwrap();
        let lut_result = lut_pipeline.upsample(&low, 2.0).unwrap();
        assert!(nn_result.refiner_cost.nn_flops_per_point > 0);
        assert_eq!(lut_result.refiner_cost.lut_lookups_per_point, 1);
        // Refinement-by-lookup must not be slower than NN inference.
        assert!(lut_result.timings.refinement <= nn_result.timings.refinement * 3);
    }

    #[test]
    fn stage_fraction_sums_to_one() {
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(400, 1.0, 9);
        let r = pipeline.upsample(&low, 2.0).unwrap();
        let t = r.timings;
        let sum = t.fraction(t.index_build)
            + t.fraction(t.knn)
            + t.fraction(t.interpolation)
            + t.fraction(t.colorization)
            + t.fraction(t.refinement);
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cached_index_is_bit_transparent_and_amortizes_rebuilds() {
        // The scratch-resident index must not change results: repeated and
        // alternating frames through one scratch match fresh-scratch output
        // exactly, and identical geometry is served from the cache.
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let frame_a = synthetic::sphere(500, 1.0, 31);
        let frame_b = synthetic::torus(500, 1.0, 0.3, 32);
        let mut scratch = crate::interpolate::FrameScratch::new();
        for low in [&frame_a, &frame_a, &frame_b, &frame_a, &frame_a] {
            let fresh = pipeline.upsample(low, 2.0).unwrap();
            let cached = pipeline.upsample_with(low, 2.0, &mut scratch).unwrap();
            assert_eq!(fresh.cloud, cached.cloud);
        }
        let stats = scratch.index_stats();
        // Frames 1, 3 and 4 rebuild (new/changed geometry), 2 and 5 hit.
        assert_eq!(stats.rebuilds, 3, "stats {stats:?}");
        assert_eq!(stats.reuses, 2, "stats {stats:?}");
    }

    #[test]
    fn scratch_reuse_across_frames_is_transparent() {
        // A streaming session reuses one FrameScratch for every frame; the
        // results must be bit-identical to fresh-allocation upsampling.
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let mut scratch = crate::interpolate::FrameScratch::new();
        for seed in [21, 22, 23] {
            let low = synthetic::sphere(400, 1.0, seed);
            let fresh = pipeline.upsample(&low, 2.5).unwrap();
            let reused = pipeline.upsample_with(&low, 2.5, &mut scratch).unwrap();
            assert_eq!(fresh.cloud, reused.cloud, "seed {seed}");
        }
    }

    #[test]
    fn custom_interpolator_constructor_reports_mode() {
        use crate::interpolate::{DilatedInterpolator, NaiveInterpolator};
        let naive = SrPipeline::with_interpolator(
            SrConfig::k4d1(),
            InterpolationMode::Naive,
            Box::new(NaiveInterpolator),
            Box::new(IdentityRefiner),
        );
        assert_eq!(naive.mode(), InterpolationMode::Naive);
        let dilated = SrPipeline::with_interpolator(
            SrConfig::default(),
            InterpolationMode::Dilated,
            Box::new(DilatedInterpolator),
            Box::new(IdentityRefiner),
        );
        assert_eq!(dilated.mode(), InterpolationMode::Dilated);
        let low = synthetic::sphere(120, 1.0, 2);
        assert_eq!(dilated.upsample(&low, 2.0).unwrap().cloud.len(), 240);
    }

    #[test]
    fn delta_stream_reuse_is_bit_identical_with_a_real_refiner() {
        // End-to-end property: a streaming session with temporal reuse ON
        // (interpolated outputs, colors AND refined tails replayed across
        // frames) must be bit-identical to the same session with reuse OFF.
        // The NN refiner gives every point a nontrivial, input-dependent
        // offset, so any divergence in a replayed refined tail is caught.
        use volut_pointcloud::synthetic::{self, DeltaStreamConfig};
        let mlp = Mlp::new(&[12, 16, 3], 41);
        for churn in [0.0, 0.1, 0.5] {
            for mode in [InterpolationMode::Dilated, InterpolationMode::Naive] {
                let config = match mode {
                    InterpolationMode::Naive => SrConfig::k4d1(),
                    InterpolationMode::Dilated => SrConfig::default(),
                };
                let refiner =
                    NnRefiner::from_config(&config, KeyScheme::Full, mlp.clone()).unwrap();
                let pipeline = SrPipeline::with_mode(config, mode, Box::new(refiner));
                let base = synthetic::humanoid(1_200, 0.4, 3);
                let frames = synthetic::delta_frame_sequence(
                    &base,
                    4,
                    DeltaStreamConfig {
                        churn,
                        drift: 0.05,
                        jitter: 0.008,
                        seed: churn.to_bits(),
                    },
                );
                let mut on = FrameScratch::new();
                let mut off = FrameScratch::new();
                off.set_incremental(false);
                for (frame_no, frame) in frames.iter().enumerate() {
                    let a = pipeline.upsample_with(frame, 2.0, &mut on).unwrap();
                    let b = pipeline.upsample_with(frame, 2.0, &mut off).unwrap();
                    assert_eq!(
                        a.cloud, b.cloud,
                        "{mode:?} churn {churn} frame {frame_no}: refined clouds diverge"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_stream_recomputes_nothing_after_warmup() {
        // Zero churn collapses to wholesale copies: after the warmup frame,
        // neither interpolation nor refinement touches a single point again.
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let frame = synthetic::sphere(800, 1.0, 51);
        let mut scratch = FrameScratch::new();
        pipeline.upsample_with(&frame, 2.0, &mut scratch).unwrap();
        let warm = scratch.temporal_stats();
        for _ in 0..3 {
            pipeline.upsample_with(&frame, 2.0, &mut scratch).unwrap();
        }
        let t = scratch.temporal_stats();
        assert_eq!(
            t.gen_points_recomputed, warm.gen_points_recomputed,
            "identical frames must not regenerate any point: {t:?}"
        );
        assert_eq!(
            t.refined_points_recomputed, warm.refined_points_recomputed,
            "identical frames must not re-refine any point: {t:?}"
        );
        assert_eq!(t.gen_points_reused, 3 * 800, "{t:?}");
        assert_eq!(t.refined_points_reused, 3 * 800, "{t:?}");
    }

    #[test]
    fn light_churn_recomputation_is_churn_proportional() {
        // At 5% coherent churn the overwhelming majority of generated points
        // must ride the copy-forward path through interpolation AND
        // refinement — the stage costs track churn, not frame size.
        use volut_pointcloud::synthetic::{self, DeltaStreamConfig};
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let base = synthetic::humanoid(2_000, 0.2, 17);
        let frames = synthetic::delta_frame_sequence(
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
        for frame in &frames {
            pipeline.upsample_with(frame, 2.0, &mut scratch).unwrap();
        }
        let t = scratch.temporal_stats();
        assert!(
            t.gen_points_reused as f64 > t.gen_points_recomputed as f64 * 2.0,
            "5% churn should reuse most generated points: {t:?}"
        );
        assert!(
            t.refined_points_reused as f64 > t.refined_points_recomputed as f64 * 2.0,
            "5% churn should reuse most refined points: {t:?}"
        );
    }

    #[test]
    fn refined_cache_is_not_shared_across_pipelines() {
        // Two pipelines with different refiners share one scratch; the
        // refined-tail cache is stamped per pipeline, so alternating frames
        // must match each pipeline's own cold output exactly.
        let frame = synthetic::sphere(500, 1.0, 61);
        let id_pipe = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let nn_pipe = SrPipeline::new(
            SrConfig::default(),
            Box::new(
                NnRefiner::from_config(
                    &SrConfig::default(),
                    KeyScheme::Full,
                    Mlp::new(&[12, 8, 3], 5),
                )
                .unwrap(),
            ),
        );
        let id_cold = id_pipe.upsample(&frame, 2.0).unwrap();
        let nn_cold = nn_pipe.upsample(&frame, 2.0).unwrap();
        let mut scratch = FrameScratch::new();
        for _ in 0..2 {
            let a = id_pipe.upsample_with(&frame, 2.0, &mut scratch).unwrap();
            assert_eq!(a.cloud, id_cold.cloud);
            let b = nn_pipe.upsample_with(&frame, 2.0, &mut scratch).unwrap();
            assert_eq!(b.cloud, nn_cold.cloud);
        }
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(100, 1.0, 10);
        assert!(pipeline.upsample(&low, 0.5).is_err());
    }
}
