//! The end-to-end two-stage super-resolution pipeline (Figure 3).
//!
//! [`SrPipeline`] glues the pieces together: dilated interpolation,
//! colorization and per-point refinement, run as one write-in-place pass
//! over the frame's source rows, with per-stage timing so the runtime
//! breakdown of Figure 16 can be reproduced. [`SrConfig::k4d1`] (dilation 1) runs on
//! this same path; the paper's vanilla kNN baseline (the `K4d1` column of
//! Figures 7–11) is a cold one-shot function in [`crate::baselines::naive`].

use crate::config::SrConfig;
use crate::interpolate::dilated::{dilated_interpolate_in, Refine};
use crate::interpolate::{FrameArena, FrameScratch};
use crate::lut::LookupStats;
use crate::refine::Refiner;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use volut_pointcloud::PointCloud;

/// Monotonic source of pipeline identities: the refined-output cache in a
/// [`FrameScratch`] is only replayed for the pipeline instance that wrote
/// it, so two pipelines (different refiners) sharing one scratch can never
/// cross-contaminate each other's refined tails.
static NEXT_PIPELINE_ID: AtomicU64 = AtomicU64::new(1);

/// Time breakdown of one super-resolution pass.
///
/// `index_build` and `knn` are wall-clock time. `interpolation`,
/// `colorization` and `refinement` are the stages of the one frame pass,
/// which runs its ranges of source rows on every worker: each range adds the
/// time it spent in each stage (one clock read per 64-row block per stage),
/// so those three fields are summed worker time — on `w` busy workers they
/// add up to about `w ×` the pass's wall time — plus the serial setup and
/// capture around the pass. [`Self::total`] is then worker time, not
/// frame latency.
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
    /// it is the diff, the copy-forward of rows the churn cannot touch (cut
    /// across workers by the temporal layer) and a single-tree sweep over
    /// the rest (cut inside `KdTree::knn_batch_with`). The self-strip copy
    /// that feeds the dilated interpolator is charged here too. The
    /// benchmark ledger's `knn.self_join_ms` row tracks the cold self-join.
    pub knn: Duration,
    /// Midpoint generation — drawn, or copied forward from the previous
    /// frame — and its bookkeeping (output sizing, the reuse plan, the
    /// output capture): summed worker time.
    pub interpolation: Duration,
    /// Color assignment: summed worker time.
    pub colorization: Duration,
    /// Per-point refinement (LUT lookups or NN inference, or the replayed
    /// refined positions of points copied forward), plus the refined-tail
    /// capture: summed worker time.
    pub refinement: Duration,
}

impl StageTimings {
    /// Total time across all stages (worker time; see the type docs).
    pub fn total(&self) -> Duration {
        self.index_build + self.knn + self.interpolation + self.colorization + self.refinement
    }
}

/// Result of one super-resolution pass.
#[derive(Debug, Clone)]
pub struct SrResult {
    /// The upsampled, colorized, refined cloud.
    pub cloud: PointCloud,
    /// Number of input points.
    pub input_points: usize,
    /// Per-stage timings measured on the host (see [`StageTimings`]).
    pub timings: StageTimings,
    /// This frame's table lookups: hits and misses of a table-based
    /// refiner over the points it refined fresh, zero otherwise.
    pub lookup_stats: LookupStats,
    /// Name of the refiner that produced this result.
    pub refiner_name: String,
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
    refiner: Box<dyn Refiner>,
    /// Identity stamped on cached refined outputs (see [`NEXT_PIPELINE_ID`]).
    id: u64,
}

impl std::fmt::Debug for SrPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrPipeline")
            .field("config", &self.config)
            .field("refiner", &self.refiner.name())
            .finish()
    }
}

impl SrPipeline {
    /// Creates a pipeline with dilated interpolation and the given refiner.
    pub fn new(config: SrConfig, refiner: Box<dyn Refiner>) -> Self {
        Self {
            config,
            refiner,
            id: NEXT_PIPELINE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SrConfig {
        &self.config
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
    /// slabs, dilated lists, k-d build buffers, …) come from the
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
        // One arena serves the whole frame. The frame pass generates,
        // colours and refines every point in place: a point copied forward
        // from the previous frame takes the refined position this pipeline
        // cached for it (index-remapped, bit-identical), so only the points
        // generated fresh run the refiner.
        let mut arena = FrameArena::checkout();
        let refine = Refine {
            refiner: self.refiner.as_ref(),
            owner: self.id,
        };
        let (interp, lookup_stats) =
            dilated_interpolate_in(low, &self.config, ratio, scratch, &mut arena, Some(refine))?;
        let (cloud, timings) = (interp.cloud, interp.timings);

        // Hand the result containers back so the arena's next frame reuses
        // their allocations.
        arena.recycle(interp.neighborhoods, interp.parents);

        Ok(SrResult {
            cloud,
            input_points: low.len(),
            timings,
            lookup_stats,
            refiner_name: self.refiner.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::KeyScheme;
    use crate::nn::mlp::Mlp;
    use crate::nn::train::{Recipe, TrainingFrame};
    use crate::refine::{IdentityRefiner, LutRefiner, NnRefiner};
    use volut_pointcloud::{metrics, sampling, synthetic};

    #[test]
    fn identity_pipeline_reaches_ratio_and_tracks_timings() {
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(500, 1.0, 1);
        let r = pipeline.upsample(&low, 3.0).unwrap();
        assert_eq!(r.cloud.len(), 1500);
        assert!(r.timings.total() > Duration::ZERO);
        assert_eq!(r.refiner_name, "identity");
        assert_eq!(r.lookup_stats, LookupStats::default());
    }

    #[test]
    fn lut_pipeline_improves_quality_over_identity() {
        // Train on one "video" (sphere), evaluate on the same content type:
        // the LUT-refined result should be at least as good as interpolation
        // alone, and both better than the raw downsampled input.
        let config = SrConfig {
            bins: 32,
            ..SrConfig::default()
        };
        let gt = synthetic::sphere(3000, 1.0, 7);
        let lut = Recipe {
            config,
            frames: vec![TrainingFrame {
                cloud: gt.clone(),
                keep_ratio: 0.5,
                seed: 11,
            }],
            epochs: 10,
        }
        .run()
        .unwrap()
        .lut;
        let refiner = LutRefiner::from_config(&config, KeyScheme::Compact, Box::new(lut)).unwrap();

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
        assert!(lut_result.lookup_stats.hits > 0);
    }

    #[test]
    fn nn_refiner_pipeline_runs_and_is_slower_than_lut() {
        let config = SrConfig {
            bins: 32,
            ..SrConfig::default()
        };
        let gt = synthetic::torus(1500, 1.0, 0.3, 5);
        let trained = Recipe {
            config,
            frames: vec![TrainingFrame {
                cloud: gt.clone(),
                keep_ratio: 0.5,
                seed: 2,
            }],
            epochs: 2,
        }
        .run()
        .unwrap();
        let (mlp, lut) = (trained.network, trained.lut);

        let low = sampling::random_downsample_exact(&gt, 700, 1).unwrap();
        let nn_pipeline = SrPipeline::new(
            config,
            Box::new(NnRefiner::from_config(&config, mlp).unwrap()),
        );
        let lut_pipeline = SrPipeline::new(
            config,
            Box::new(LutRefiner::from_config(&config, KeyScheme::Compact, Box::new(lut)).unwrap()),
        );
        let nn_result = nn_pipeline.upsample(&low, 2.0).unwrap();
        let lut_result = lut_pipeline.upsample(&low, 2.0).unwrap();
        // Refinement-by-lookup must not be slower than NN inference.
        assert!(lut_result.timings.refinement <= nn_result.timings.refinement * 3);
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
        let stats = scratch.temporal_stats();
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
    fn delta_stream_reuse_is_bit_identical_with_a_real_refiner() {
        // End-to-end property: a streaming session with temporal reuse ON
        // (interpolated outputs, colors AND refined tails replayed across
        // frames) must be bit-identical to a session flushed before every
        // frame.
        // The NN refiner gives every point a nontrivial, input-dependent
        // offset, so any divergence in a replayed refined tail is caught.
        // Dilation 1 (`k4d1`) runs a narrower self-join row than the default.
        use volut_pointcloud::synthetic::{self, DeltaStreamConfig};
        let mlp = Mlp::new(&[12, 16, 3], 41);
        for churn in [0.0, 0.1, 0.5] {
            for config in [SrConfig::default(), SrConfig::k4d1()] {
                let refiner = NnRefiner::from_config(&config, mlp.clone()).unwrap();
                let pipeline = SrPipeline::new(config, Box::new(refiner));
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
                for (frame_no, frame) in frames.iter().enumerate() {
                    let a = pipeline.upsample_with(frame, 2.0, &mut on).unwrap();
                    off.flush_temporal();
                    let b = pipeline.upsample_with(frame, 2.0, &mut off).unwrap();
                    assert_eq!(
                        a.cloud, b.cloud,
                        "dilation {} churn {churn} frame {frame_no}: refined clouds diverge",
                        config.dilation
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
                NnRefiner::from_config(&SrConfig::default(), Mlp::new(&[12, 8, 3], 5)).unwrap(),
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

    /// A pipeline frame on `frames[0]`, a non-refining frame on `frames[1]`,
    /// then a pipeline frame on `frames[2]`, all on one scratch: the last
    /// frame must equal the pipeline's cold output. The middle frame leaves
    /// no refined tail, so the first frame's tail must not be replayed onto
    /// outputs the middle frame captured.
    fn assert_last_frame_matches_cold(frames: [&PointCloud; 3], what: &str) {
        let config = SrConfig::default();
        let refiner = NnRefiner::from_config(&config, Mlp::new(&[12, 16, 3], 43)).unwrap();
        let pipeline = SrPipeline::new(config, Box::new(refiner));
        let mut scratch = FrameScratch::new();
        pipeline
            .upsample_with(frames[0], 2.0, &mut scratch)
            .unwrap();
        let middle = crate::interpolate::dilated::dilated_interpolate_with(
            frames[1],
            &config,
            2.0,
            &mut scratch,
        )
        .unwrap();
        scratch.recycle_neighborhoods(middle.neighborhoods);
        let warm = pipeline
            .upsample_with(frames[2], 2.0, &mut scratch)
            .unwrap();
        let cold = pipeline.upsample(frames[2], 2.0).unwrap();
        assert_eq!(warm.cloud, cold.cloud, "{what}");
        let t = scratch.temporal_stats();
        assert_eq!(t.incremental_frames, 2, "{what}: {t:?}");
        assert!(t.gen_points_reused > 0, "{what}: {t:?}");
    }

    #[test]
    fn an_unrefined_frame_between_pipeline_frames_replays_no_refined_tail() {
        use volut_pointcloud::synthetic::DeltaStreamConfig;
        let frames = synthetic::delta_frame_sequence(
            &synthetic::humanoid(1_500, 0.3, 71),
            3,
            DeltaStreamConfig {
                churn: 0.05,
                seed: 73,
                ..DeltaStreamConfig::default()
            },
        );
        assert_last_frame_matches_cold([&frames[0], &frames[1], &frames[2]], "delta middle frame");
        assert_last_frame_matches_cold(
            [&frames[0], &frames[0], &frames[1]],
            "identical middle frame",
        );
    }

    /// A LUT refiner over a dense Compact table (32 bins) whose every key
    /// holds a small offset, so every refined point moves.
    fn dense_lut_refiner(config: &SrConfig, table: &crate::lut::DenseLut) -> LutRefiner {
        LutRefiner::from_config(config, KeyScheme::Compact, Box::new(table.clone())).unwrap()
    }

    #[test]
    fn lookup_stats_count_this_frames_fresh_points() {
        // Every key of the dense table is populated, so a cold frame hits
        // once per generated point, summed over the pass's ranges (4 900
        // points, two ranges at two workers); a repeated frame replays its
        // refined tail and looks nothing up.
        use crate::encoding::PositionEncoder;
        use crate::lut::{DenseLut, Lut};
        use volut_pointcloud::runtime;
        let config = SrConfig {
            bins: 32,
            ..SrConfig::default()
        };
        let encoder = PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
        let mut table = DenseLut::new(encoder.key_space()).unwrap();
        for key in 0..encoder.key_space() {
            table.set(key, [1e-3, 0.0, 0.0]).unwrap();
        }
        let pipeline = SrPipeline::new(config, Box::new(dense_lut_refiner(&config, &table)));
        let frame = synthetic::humanoid(700, 0.3, 5);
        for workers in [1, 2] {
            runtime::with_workers(workers, || {
                let mut session = FrameScratch::new();
                let cold = pipeline.upsample_with(&frame, 8.0, &mut session).unwrap();
                let hits = (cold.cloud.len() - frame.len()) as u64;
                assert_eq!(cold.lookup_stats, LookupStats { hits, misses: 0 });
                let warm = pipeline.upsample_with(&frame, 8.0, &mut session).unwrap();
                assert_eq!(warm.lookup_stats, LookupStats::default());
            });
        }
    }

    #[test]
    fn fused_frame_equals_interpolate_then_refine_in_place() {
        // The frame pass generates, colours and refines in one write-in-place
        // pass; the two-step path — the interpolator, then `refine_in_place`
        // over the finished tail — is its oracle, frame by frame on a
        // declared-delta stream. Frame 2 runs on a second ("degraded")
        // pipeline sharing the session, so frame 3 finds interpolation
        // outputs to copy forward but a refined tail it does not own. At
        // ratio 8 the 700-point frames generate 4 900 points, two ranges of
        // the pass at two workers. The LUT needs a 32-bin Compact key, the
        // only change to the two configurations.
        use crate::encoding::PositionEncoder;
        use crate::interpolate::{DilatedInterpolator, Interpolator};
        use crate::lut::{DenseLut, Lut};
        use crate::refine::refine_in_place;
        use volut_pointcloud::runtime;
        use volut_pointcloud::synthetic::{DeltaStream, DeltaStreamConfig};
        let configs = [SrConfig::default(), SrConfig::k4d1()].map(|c| SrConfig { bins: 32, ..c });
        let encoder = PositionEncoder::new(&configs[0], KeyScheme::Compact).unwrap();
        let mut table = DenseLut::new(encoder.key_space()).unwrap();
        for key in 0..encoder.key_space() {
            let tiny = (key % 17) as f32 * 1e-3;
            table.set(key, [tiny, -tiny, 0.5 * tiny]).unwrap();
        }
        let refiner = |kind: &str, config: &SrConfig| -> Box<dyn Refiner> {
            match kind {
                "identity" => Box::new(IdentityRefiner),
                "lut" => Box::new(dense_lut_refiner(config, &table)),
                _ => Box::new(NnRefiner::from_config(config, Mlp::new(&[12, 16, 3], 41)).unwrap()),
            }
        };
        for workers in [1, 2] {
            for config in configs {
                for ratio in [1.5, 2.0, 8.0] {
                    for kind in ["identity", "lut", "nn"] {
                        for churn in [0.0, 0.1, 1.0] {
                            runtime::with_workers(workers, || {
                                let pipeline = SrPipeline::new(config, refiner(kind, &config));
                                let degraded =
                                    SrPipeline::new(config, refiner("identity", &config));
                                let oracle = refiner(kind, &config);
                                let mut stream = DeltaStream::new(
                                    synthetic::humanoid(700, 0.3, 5),
                                    DeltaStreamConfig {
                                        churn,
                                        ..DeltaStreamConfig::default()
                                    },
                                );
                                let mut session = FrameScratch::new();
                                let mut two_step = FrameScratch::new();
                                for frame_no in 0..4 {
                                    if frame_no > 0 {
                                        let delta = stream.advance();
                                        session.set_frame_delta(delta.clone());
                                        two_step.set_frame_delta(delta);
                                    }
                                    let frame = stream.frame();
                                    let (via, refine_with) = match frame_no {
                                        2 => (&degraded, &IdentityRefiner as &dyn Refiner),
                                        _ => (&pipeline, oracle.as_ref()),
                                    };
                                    let before = session.temporal_stats();
                                    let fused =
                                        via.upsample_with(frame, ratio, &mut session).unwrap();
                                    let after = session.temporal_stats();
                                    let mut want = DilatedInterpolator
                                        .interpolate(frame, &config, ratio, &mut two_step)
                                        .unwrap();
                                    refine_in_place(
                                        refine_with,
                                        &mut want.cloud,
                                        want.original_len,
                                        &want.neighborhoods,
                                        frame.positions(),
                                        &mut Vec::new(),
                                    );
                                    let what = format!(
                                        "{workers} workers, dilation {}, ratio {ratio}, {kind}, \
                                         churn {churn}, frame {frame_no}",
                                        config.dilation
                                    );
                                    assert_eq!(
                                        fused.cloud.positions(),
                                        want.cloud.positions(),
                                        "{what}"
                                    );
                                    assert_eq!(fused.cloud.colors(), want.cloud.colors(), "{what}");
                                    assert!(session.last_delta_error().is_none(), "{what}");
                                    if frame_no == 3 && churn < 1.0 {
                                        // Outputs copy forward; the refined tail
                                        // is the degraded pipeline's, so none of
                                        // it is replayed.
                                        assert!(
                                            after.gen_points_reused > before.gen_points_reused
                                                && after.refined_points_reused
                                                    == before.refined_points_reused,
                                            "{what}: {after:?}"
                                        );
                                    }
                                }
                                if churn < 1.0 {
                                    let stats = session.temporal_stats();
                                    assert!(stats.refined_points_reused > 0, "{stats:?}");
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(100, 1.0, 10);
        assert!(pipeline.upsample(&low, 0.5).is_err());
    }
}
