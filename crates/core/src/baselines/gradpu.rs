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
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::nn::mlp::{BatchScratch, Mlp, MICRO_BATCH};
use crate::pipeline::SrResult;
use crate::refine::{refine_in_place, Refiner};
use crate::Result;
use std::time::Instant;
use volut_pointcloud::{NeighborhoodsView, Point3, PointCloud};

/// GradPU-style upsampler: naive interpolation + iterative neural refinement.
pub struct GradPuUpsampler {
    config: SrConfig,
    encoder: PositionEncoder,
    network: Mlp,
    iterations: usize,
}

impl std::fmt::Debug for GradPuUpsampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradPuUpsampler")
            .field("config", &self.config)
            .field("iterations", &self.iterations)
            .field("network_params", &self.network.parameter_count())
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
        let encoder = PositionEncoder::new(&config, KeyScheme::Full)?;
        Ok(Self {
            config,
            encoder,
            network,
            iterations: iterations.max(1),
        })
    }

    /// The refinement network.
    pub fn network(&self) -> &Mlp {
        &self.network
    }

    /// Number of refinement iterations per point.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Resident memory of the model (f32 weights plus activation workspace),
    /// modeling the GPU memory the paper reports in Figure 15. GradPU keeps
    /// per-point activation tensors for the whole batch alive, which is why
    /// its footprint is far larger than just its weights.
    pub fn memory_bytes(&self, points_per_frame: usize) -> usize {
        let weights = self.network.parameter_count() * 4;
        // Activations: every layer output for every point in the batch.
        let activation_floats: usize = self.network.dims().iter().sum::<usize>() * points_per_frame;
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
        let refiner = IterativeNnRefiner {
            encoder: &self.encoder,
            network: &self.network,
            iterations: self.iterations,
        };
        refine_in_place(
            &refiner,
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
            lookup_stats: None,
            refiner_name: "gradpu".to_string(),
        })
    }
}

/// GradPU's refinement step as a [`Refiner`]: several damped
/// network-predicted position updates per point, re-encoding the (moving)
/// center against its fixed neighborhood each iteration.
struct IterativeNnRefiner<'a> {
    encoder: &'a PositionEncoder,
    network: &'a Mlp,
    iterations: usize,
}

impl Refiner for IterativeNnRefiner<'_> {
    fn name(&self) -> &str {
        "gradpu"
    }

    fn refine_batch(
        &self,
        points: &mut [Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
    ) {
        // Blocked iterative refinement: rows are independent, so running one
        // GEMM-style micro-batched forward per *iteration* over the whole
        // block (instead of `iterations` per-point passes row by row) keeps
        // the exact per-row arithmetic — `forward_batch_into` is
        // bit-identical to `forward_into` — while streaming each weight row
        // once per block instead of once per point.
        const BLOCK: usize = 4 * MICRO_BATCH;
        let out_dim = self.network.output_dim();
        let step = 1.0 / self.iterations as f32;
        // Per-block gather of all neighborhoods (CSR-style, `seg` holds
        // exclusive end offsets) so every iteration re-reads them in place.
        let mut gather: Vec<Point3> = Vec::new();
        let mut seg: Vec<(usize, u32)> = Vec::new(); // (center index, gather end)
        let mut feature_row: Vec<f32> = Vec::new();
        let mut features: Vec<f32> = Vec::new();
        let mut active: Vec<usize> = Vec::new(); // slots of `seg` still iterating
        let mut current: Vec<Point3> = Vec::new(); // moving center per `seg` slot
        let mut packed: Vec<usize> = Vec::new(); // seg slot per packed feature row
        let mut radii: Vec<f32> = Vec::new(); // radius per packed feature row
        let mut outputs: Vec<f32> = Vec::new();
        let mut scratch = BatchScratch::default();
        for block_start in (0..points.len()).step_by(BLOCK) {
            let block_len = BLOCK.min(points.len() - block_start);
            gather.clear();
            seg.clear();
            current.clear();
            let block = &points[block_start..block_start + block_len];
            for (i, &center) in (block_start..).zip(block) {
                let row = neighborhoods.row(i);
                if row.is_empty() {
                    continue;
                }
                gather.extend(row.iter().map(|&j| source[j as usize]));
                seg.push((i, gather.len() as u32));
                current.push(center);
            }
            active.clear();
            active.extend(0..seg.len());
            for _ in 0..self.iterations {
                if active.is_empty() {
                    break;
                }
                features.clear();
                packed.clear();
                radii.clear();
                // Re-encode every still-active row against its (moving)
                // center; a row whose encode fails stops iterating, exactly
                // like the per-point loop's `break`.
                for &slot in &active {
                    let start = if slot == 0 {
                        0
                    } else {
                        seg[slot - 1].1 as usize
                    };
                    let end = seg[slot].1 as usize;
                    if let Ok(radius) = self.encoder.encode_features_into(
                        current[slot],
                        &gather[start..end],
                        &mut feature_row,
                    ) {
                        features.extend_from_slice(&feature_row);
                        packed.push(slot);
                        radii.push(radius);
                    }
                }
                if packed.is_empty() {
                    break;
                }
                self.network.forward_batch_into(
                    &features,
                    packed.len(),
                    &mut outputs,
                    &mut scratch,
                );
                for (p, &slot) in packed.iter().enumerate() {
                    let o = &outputs[p * out_dim..(p + 1) * out_dim];
                    // Damped update, mimicking GradPU's gradient-descent steps.
                    current[slot] += Point3::new(o[0], o[1], o[2]) * (radii[p] * step);
                }
                std::mem::swap(&mut active, &mut packed);
            }
            for (&(i, _), &refined) in seg.iter().zip(&current) {
                points[i] = refined;
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.network.parameter_count() * 4
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
        use crate::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
        let config = SrConfig::default();
        let gt = synthetic::sphere(2000, 1.0, 3);
        let set = build_training_set(&gt, 0.5, &config, KeyScheme::Full, 5).unwrap();
        let mut trainer = RefinementTrainer::new(
            &config,
            TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        trainer.train(&set).unwrap();
        let up = GradPuUpsampler::from_network(config, trainer.into_network(), 3).unwrap();

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
