//! GradPU-style baseline: arbitrary-ratio upsampling with *direct* neural
//! refinement (He et al., 2023).
//!
//! GradPU performs midpoint interpolation followed by several iterations of
//! network-predicted position adjustments. Quality-wise it is the reference
//! VoLUT distills from; cost-wise every generated point pays
//! `iterations × network` inference, which is what makes it orders of
//! magnitude slower than a LUT lookup (Figure 17).

use super::naive::naive_interpolate;
use crate::config::SrConfig;
use crate::lut::LookupStats;
use crate::nn::mlp::Mlp;
use crate::pipeline::SrResult;
use crate::refine::{refine_in_place, NnRefiner};
use crate::Result;
use std::time::Instant;
use volut_pointcloud::PointCloud;

/// GradPU-style upsampler: naive interpolation + iterative neural refinement.
pub struct GradPuUpsampler {
    config: SrConfig,
    /// The refinement network, run as an iterative [`NnRefiner`].
    refiner: NnRefiner,
}

impl std::fmt::Debug for GradPuUpsampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradPuUpsampler")
            .field("config", &self.config)
            .field("iterations", &self.iterations())
            .field("network_params", &self.network().parameter_count())
            .finish()
    }
}

impl GradPuUpsampler {
    /// Creates a GradPU baseline that reuses an already-trained refinement
    /// network (the same network VoLUT distills into its LUT), applied
    /// iteratively at full inference cost.
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid.
    pub fn from_network(config: SrConfig, network: Mlp, iterations: usize) -> Result<Self> {
        let mut refiner = NnRefiner::from_config(&config, network)?;
        refiner.iterations = iterations.max(1);
        Ok(Self { config, refiner })
    }

    /// The refinement network.
    pub fn network(&self) -> &Mlp {
        self.refiner.network()
    }

    /// Number of refinement iterations per point.
    pub fn iterations(&self) -> usize {
        self.refiner.iterations
    }

    /// Resident memory of the model (f32 weights plus activation workspace),
    /// modeling the GPU memory the paper reports in Figure 15. GradPU keeps
    /// per-point activation tensors for the whole batch alive, which is why
    /// its footprint is far larger than just its weights.
    pub fn memory_bytes(&self, points_per_frame: usize) -> usize {
        let weights = self.network().parameter_count() * 4;
        // Activations: every layer output for every point in the batch.
        let activation_floats: usize =
            self.network().dims().iter().sum::<usize>() * points_per_frame;
        weights + activation_floats * 4
    }

    /// Upsamples `low` by `ratio` (any ratio ≥ 1, like GradPU).
    ///
    /// # Errors
    /// Propagates interpolation failures.
    pub fn upsample(&self, low: &PointCloud, ratio: f64) -> Result<SrResult> {
        let interp = naive_interpolate(low, &self.config, ratio)?;
        let mut timings = interp.timings;

        let t0 = Instant::now();
        let original_len = interp.original_len;
        let mut cloud = interp.cloud;
        refine_in_place(
            &self.refiner,
            &mut cloud,
            original_len,
            &interp.neighborhoods,
            low.positions(),
            &mut Vec::new(),
        );
        timings.refinement = t0.elapsed();

        Ok(SrResult {
            cloud,
            input_points: low.len(),
            timings,
            lookup_stats: LookupStats::default(),
            refiner_name: "gradpu".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::{metrics, sampling, synthetic};

    /// A freshly initialized network of the paper-scale width, refined in
    /// four iterations.
    fn untrained(seed: u64) -> GradPuUpsampler {
        let config = SrConfig::default();
        let network = Mlp::new(&[config.receptive_field * 3, 256, 256, 3], seed);
        GradPuUpsampler::from_network(config, network, 4).unwrap()
    }

    /// FNV-1a over a byte stream.
    fn checksum(bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn output_is_pinned() {
        // Point count, geometry digest and a checksum of the refined tail's
        // position bits at 1 and 4 iterations of a fixed-seed network,
        // recorded when the iterative refinement had its own batch loop.
        let cases = [
            (
                synthetic::humanoid(600, 0.4, 3),
                1,
                [1_500, 10_995_040_888_921_962_921, 5_920_272_605_159_412_166],
            ),
            (
                synthetic::humanoid(600, 0.4, 3),
                4,
                [1_500, 5_420_991_625_951_551_543, 17_480_425_789_589_314_705],
            ),
            (
                synthetic::torus(500, 1.0, 0.3, 5),
                1,
                [1_250, 8_597_025_321_424_492_013, 6_595_260_732_059_399_322],
            ),
            (
                synthetic::torus(500, 1.0, 0.3, 5),
                4,
                [
                    1_250,
                    11_271_840_491_238_826_871,
                    11_634_815_908_220_468_807,
                ],
            ),
        ];
        for (low, iterations, want) in cases {
            let config = SrConfig::default();
            let network = Mlp::new(&[config.receptive_field * 3, 64, 64, 3], 13);
            let up = GradPuUpsampler::from_network(config, network, iterations).unwrap();
            let out = up.upsample(&low, 2.5).unwrap();
            let tail = &out.cloud.positions()[low.len()..];
            let got = [
                out.cloud.len() as u64,
                out.cloud.geometry_digest(),
                checksum(
                    tail.iter()
                        .flat_map(|p| [p.x, p.y, p.z])
                        .flat_map(|c| c.to_bits().to_le_bytes()),
                ),
            ];
            assert_eq!(got, want, "{iterations} iterations");
        }
    }

    #[test]
    fn untrained_gradpu_runs_and_reaches_ratio() {
        let up = untrained(1);
        let low = synthetic::sphere(300, 1.0, 2);
        let r = up.upsample(&low, 2.0).unwrap();
        assert_eq!(r.cloud.len(), 600);
        assert_eq!(r.refiner_name, "gradpu");
        assert!(r.timings.refinement > std::time::Duration::ZERO);
    }

    #[test]
    fn trained_gradpu_does_not_hurt_quality_much() {
        // With the network VoLUT would distill, GradPU refinement should not
        // dramatically degrade interpolation quality (damped updates).
        use crate::nn::train::{test_trained, Recipe};
        let config = Recipe::test().config();
        let gt = synthetic::sphere(2000, 1.0, 3);
        let network = test_trained().network.clone();
        let up = GradPuUpsampler::from_network(config, network, 3).unwrap();

        let low = sampling::random_downsample_exact(&gt, 1000, 1).unwrap();
        let r = up.upsample(&low, 2.0).unwrap();
        // Coverage of the ground truth must improve, and the refined result
        // must stay close to the surface (bounded symmetric Chamfer blow-up).
        let cover_low = metrics::one_sided_chamfer(&gt, &low);
        let cover_sr = metrics::one_sided_chamfer(&gt, &r.cloud);
        assert!(cover_sr < cover_low);
        let cd_low = metrics::chamfer_distance(&low, &gt);
        let cd_sr = metrics::chamfer_distance(&r.cloud, &gt);
        assert!(cd_sr < cd_low * 2.0);
    }

    #[test]
    fn memory_model_scales_with_batch() {
        let up = untrained(7);
        let small = up.memory_bytes(1_000);
        let large = up.memory_bytes(100_000);
        assert!(large > small * 50);
        assert!(small > up.network().parameter_count() * 4);
    }

    #[test]
    fn iterations_are_clamped_to_at_least_one() {
        let up = GradPuUpsampler::from_network(SrConfig::default(), Mlp::new(&[12, 8, 3], 1), 0)
            .unwrap();
        assert_eq!(up.iterations(), 1);
    }
}
