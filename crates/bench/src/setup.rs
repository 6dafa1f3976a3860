//! Shared experiment setup: synthetic evaluation videos, LUT training and
//! the pipelines under comparison.
//!
//! The paper trains GradPU on the Long Dress video only and applies the
//! distilled LUT to all four videos; [`TrainedArtifacts::train`] mirrors
//! that with [`Recipe::paper`]: eight epochs on three humanoid frames, and
//! the resulting LUT is reused for every evaluation video.

use volut_core::baselines::{GradPuUpsampler, YuzuUpsampler};
use volut_core::encoding::KeyScheme;
use volut_core::nn::train::{Recipe, Trained};
use volut_core::refine::{IdentityRefiner, LutRefiner};
use volut_core::{SrConfig, SrPipeline};
use volut_pointcloud::{synthetic, PointCloud};

/// Size of the per-frame point clouds used by the quality/runtime
/// experiments. Scaled down from the paper's 100K so the full harness runs
/// in minutes on a CI host; override with `VOLUT_EXPERIMENT_POINTS`.
pub fn experiment_points() -> usize {
    log_runtime_once();
    std::env::var("VOLUT_EXPERIMENT_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12_000)
}

/// Logs the resolved worker-pool configuration (count and whether it came
/// from `VOLUT_WORKERS` or hardware detection) once per process, so every
/// recorded measurement names the parallelism it ran under. Called from
/// [`experiment_points`].
fn log_runtime_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let cores = detected_cores();
        eprintln!(
            "host: {cores} detected core(s) (std::thread::available_parallelism); {}",
            volut_pointcloud::runtime::describe()
        );
    });
}

/// The host's detected core count (1 when detection fails).
fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The four evaluation "videos" (stand-ins) as single representative frames.
pub fn evaluation_frames(points: usize) -> Vec<(&'static str, PointCloud)> {
    vec![
        ("long-dress", synthetic::humanoid(points, 0.3, 11)),
        ("loot", synthetic::humanoid(points, 1.2, 29)),
        ("haggle", synthetic::room_scene(points, 0.5, 37)),
        ("lab", synthetic::room_scene(points, 1.7, 53)),
    ]
}

/// Everything trained offline once and reused across experiments.
pub struct TrainedArtifacts {
    /// The SR configuration: the paper's k=4, d=2, n=4, at b=32 bins.
    pub config: SrConfig,
    /// The trained refinement network, the LUT distilled from it and the
    /// training report.
    pub trained: Trained,
}

impl TrainedArtifacts {
    /// Trains the refinement network on `points`-point humanoid ("Long
    /// Dress") frames with [`Recipe::paper`] and distills it into a LUT,
    /// mirroring §7.1.
    ///
    /// The LUT uses 32 quantization bins (2¹⁵ reachable entries, 196 KiB),
    /// where a held-out frame hits most probes: the paper's b = 128 table
    /// fits in 12.3 MiB but hits about a third of them.
    ///
    /// # Panics
    /// Panics when the recipe fails, e.g. a frame yields no training samples.
    pub fn train(points: usize) -> Self {
        let config = SrConfig {
            bins: 32,
            ..SrConfig::default()
        };
        Self::from_recipe(&Recipe::paper(config, points))
    }

    fn from_recipe(recipe: &Recipe) -> Self {
        Self {
            config: recipe.config(),
            trained: recipe.run().expect("training"),
        }
    }

    /// The paper's `K4d2` configuration: dilated interpolation, no refinement.
    pub fn pipeline_k4d2(&self) -> SrPipeline {
        SrPipeline::new(self.config, Box::new(IdentityRefiner))
    }

    /// The full VoLUT pipeline: dilated interpolation + LUT refinement
    /// (`K4d2-lut` in Figures 7–10).
    pub fn pipeline_k4d2_lut(&self) -> SrPipeline {
        let refiner = LutRefiner::from_config(
            &self.config,
            KeyScheme::Compact,
            Box::new(self.trained.lut.clone()),
        )
        .expect("valid config");
        SrPipeline::new(self.config, Box::new(refiner))
    }

    /// The GradPU baseline sharing the trained network, applied at full
    /// neural inference cost.
    pub fn gradpu(&self) -> GradPuUpsampler {
        GradPuUpsampler::from_network(self.config, self.trained.network.clone(), 3)
            .expect("valid config")
    }

    /// The Yuzu baseline (untrained paper-scale networks; used for runtime
    /// and memory comparisons).
    pub fn yuzu(&self) -> YuzuUpsampler {
        YuzuUpsampler::new(self.config, 7).expect("valid config")
    }
}

/// [`Recipe::test`]'s artifacts, trained once for the harness's tests.
#[cfg(test)]
pub(crate) fn test_artifacts() -> &'static TrainedArtifacts {
    static ARTIFACTS: std::sync::OnceLock<TrainedArtifacts> = std::sync::OnceLock::new();
    ARTIFACTS.get_or_init(|| TrainedArtifacts::from_recipe(&Recipe::test()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_core::lut::Lut as _;

    #[test]
    fn training_produces_usable_artifacts() {
        let artifacts = test_artifacts();
        assert!(artifacts.trained.lut.populated() > 0);
        assert!(artifacts.trained.report.final_loss().unwrap().is_finite());
        // All pipelines build and run on a small cloud.
        let low = synthetic::sphere(500, 1.0, 3);
        for pipeline in [artifacts.pipeline_k4d2(), artifacts.pipeline_k4d2_lut()] {
            let out = pipeline.upsample(&low, 2.0).unwrap();
            assert_eq!(out.cloud.len(), 1000);
        }
        assert!(artifacts.gradpu().upsample(&low, 2.0).is_ok());
        assert!(artifacts.yuzu().upsample(&low, 2.0).is_ok());
    }

    #[test]
    fn evaluation_frames_cover_four_videos() {
        let frames = evaluation_frames(1000);
        assert_eq!(frames.len(), 4);
        assert!(frames.iter().all(|(_, c)| c.len() == 1000));
        assert!(experiment_points() >= 1000);
    }
}
