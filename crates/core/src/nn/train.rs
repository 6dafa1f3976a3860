//! Offline training of the refinement network (§4.2.2).
//!
//! Training pairs are built exactly the way the client will later see the
//! data: a ground-truth frame is randomly downsampled, the downsampled cloud
//! is re-upsampled with dilated interpolation, and each interpolated point's
//! *target* is the (normalized) displacement to its nearest ground-truth
//! point. Gaussian noise (σ = 0.02 by default) is injected into the inputs
//! so that the network — and therefore the LUT distilled from it — is robust
//! to quantization artifacts.

use super::adam::Adam;
use super::mlp::Mlp;
use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::error::Error;
use crate::interpolate::dilated::dilated_interpolate;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::NeighborSearch;
use volut_pointcloud::{sampling, Neighborhoods, Point3, PointCloud};

/// A supervised training set of (encoded neighborhood, normalized offset) pairs.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// Dequantized feature vectors, each of length `receptive_field × 3`.
    pub inputs: Vec<Vec<f32>>,
    /// Normalized target offsets (displacement to nearest ground-truth point
    /// divided by the neighborhood radius).
    pub targets: Vec<[f32; 3]>,
}

impl TrainingSet {
    /// Number of training samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Appends all samples of `other`.
    pub fn extend(&mut self, other: TrainingSet) {
        self.inputs.extend(other.inputs);
        self.targets.extend(other.targets);
    }
}

/// Hyperparameters of the refinement-network training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Standard deviation of the Gaussian noise injected into inputs.
    pub noise_sigma: f32,
    /// Hidden layer widths of the refinement MLP.
    pub hidden: [usize; 2],
    /// Seed for weight initialization, shuffling and noise.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 2e-3,
            noise_sigma: 0.02,
            hidden: [64, 64],
            seed: 0,
        }
    }
}

/// Per-epoch record of the training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Mean MSE loss after each epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of training samples used.
    pub samples: usize,
}

impl TrainingReport {
    /// Final (last-epoch) loss, or `None` when no epochs ran.
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// Builds a training set from one ground-truth frame.
///
/// The frame is downsampled by `keep_ratio` (e.g. 0.5 for ×2 upsampling
/// pairs), re-upsampled with dilated interpolation, and each interpolated
/// point is paired with its normalized displacement to the nearest
/// ground-truth point.
///
/// # Errors
/// Propagates sampling and interpolation failures; returns
/// [`Error::Training`] when no usable samples could be extracted.
pub fn build_training_set(
    ground_truth: &PointCloud,
    keep_ratio: f64,
    config: &SrConfig,
    seed: u64,
) -> Result<TrainingSet> {
    let encoder = PositionEncoder::new(config, KeyScheme::Compact)?;
    let low = sampling::random_downsample(ground_truth, keep_ratio, seed)?;
    if low.len() < 2 {
        return Err(Error::Training(
            "downsampled frame has fewer than two points".into(),
        ));
    }
    let upsample_ratio = (1.0 / keep_ratio).max(1.0);
    let interp = dilated_interpolate(&low, config, upsample_ratio)?;
    let gt_tree = KdTree::build(ground_truth.positions());
    // One batched sweep answers every interpolated point's nearest-ground-
    // truth query (bit-identical to per-point `knn`) instead of a fresh
    // allocating query per sample. This is a bichromatic batch (generated
    // points against the ground-truth tree), which the batch layer's auto
    // policy keeps on the warm single-tree Morton sweep — the dual-tree
    // leaf-pair kernel only wins on self-joins (see
    // `volut_pointcloud::dualtree`).
    let mut nearest = Neighborhoods::new();
    gt_tree.knn_batch(
        &interp.cloud.positions()[interp.original_len..],
        1,
        &mut nearest,
    );

    let mut set = TrainingSet::default();
    let mut neighbor_positions: Vec<Point3> = Vec::new();
    for (ordinal, hood) in interp.neighborhoods.iter().enumerate() {
        if hood.is_empty() {
            continue;
        }
        let center = interp.cloud.position(interp.original_len + ordinal);
        neighbor_positions.clear();
        neighbor_positions.extend(hood.iter().map(|&i| low.position(i as usize)));
        let encoded = encoder.encode(center, &neighbor_positions)?;
        let nearest_row = nearest.row(ordinal);
        if nearest_row.is_empty() {
            continue;
        }
        let target_point = ground_truth.position(nearest_row[0] as usize);
        let offset = (target_point - center) / encoded.radius;
        // Clip extreme targets: they correspond to interpolated points that
        // landed far off the surface and would dominate the loss.
        if offset.norm() > 2.0 {
            continue;
        }
        set.inputs.push(encoder.features(&encoded));
        set.targets.push([offset.x, offset.y, offset.z]);
    }
    if set.is_empty() {
        return Err(Error::Training(
            "no training samples could be generated".into(),
        ));
    }
    Ok(set)
}

/// Trains the refinement MLP on encoded neighborhoods.
#[derive(Debug, Clone)]
pub struct RefinementTrainer {
    mlp: Mlp,
    config: TrainConfig,
}

impl RefinementTrainer {
    /// Creates a trainer whose network input size matches `sr_config`'s
    /// receptive field.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when `sr_config` is invalid.
    pub fn new(sr_config: &SrConfig, config: TrainConfig) -> Result<Self> {
        sr_config.validate()?;
        let input_dim = sr_config.receptive_field * 3;
        let dims = [input_dim, config.hidden[0], config.hidden[1], 3];
        Ok(Self {
            mlp: Mlp::new(&dims, config.seed),
            config,
        })
    }

    /// The network being trained.
    pub fn network(&self) -> &Mlp {
        &self.mlp
    }

    /// Consumes the trainer and returns the trained network.
    pub fn into_network(self) -> Mlp {
        self.mlp
    }

    /// Runs the training loop over `set`.
    ///
    /// # Errors
    /// Returns [`Error::Training`] when the set is empty or a sample's input
    /// size does not match the network.
    pub fn train(&mut self, set: &TrainingSet) -> Result<TrainingReport> {
        if set.is_empty() {
            return Err(Error::Training("training set is empty".into()));
        }
        for input in &set.inputs {
            if input.len() != self.mlp.input_dim() {
                return Err(Error::Training(format!(
                    "sample input length {} does not match network input {}",
                    input.len(),
                    self.mlp.input_dim()
                )));
            }
        }
        let mut adam = Adam::new(&self.mlp, self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..set.len()).collect();
        let mut report = TrainingReport {
            epoch_losses: Vec::new(),
            samples: set.len(),
        };
        let mut noisy_input = Vec::new();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            for &i in &order {
                noisy_input.clear();
                noisy_input.extend(
                    set.inputs[i]
                        .iter()
                        .map(|&v| v + gaussian(&mut rng) * self.config.noise_sigma),
                );
                self.mlp.zero_grad();
                let loss = self.mlp.backward_mse(&noisy_input, &set.targets[i]);
                adam.step(&mut self.mlp);
                total += f64::from(loss);
            }
            report.epoch_losses.push((total / set.len() as f64) as f32);
        }
        Ok(report)
    }
}

fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::synthetic;

    #[test]
    fn training_set_construction() {
        let gt = synthetic::sphere(1500, 1.0, 1);
        let set = build_training_set(&gt, 0.5, &SrConfig::default(), 7).unwrap();
        assert!(!set.is_empty());
        assert_eq!(set.inputs.len(), set.targets.len());
        assert!(set.inputs.iter().all(|i| i.len() == 12));
        // Targets are normalized: magnitudes should be bounded.
        assert!(set.targets.iter().all(|t| t.iter().all(|v| v.abs() <= 2.0)));
    }

    #[test]
    fn training_reduces_loss() {
        let gt = synthetic::torus(1500, 1.0, 0.3, 2);
        let set = build_training_set(&gt, 0.5, &SrConfig::default(), 3).unwrap();
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        };
        let mut trainer = RefinementTrainer::new(&SrConfig::default(), cfg).unwrap();
        let report = trainer.train(&set).unwrap();
        assert_eq!(report.epoch_losses.len(), 8);
        let first = report.epoch_losses[0];
        let last = report.final_loss().unwrap();
        assert!(last <= first, "loss should not increase: {first} -> {last}");
    }

    #[test]
    fn empty_set_is_rejected() {
        let mut trainer =
            RefinementTrainer::new(&SrConfig::default(), TrainConfig::default()).unwrap();
        assert!(trainer.train(&TrainingSet::default()).is_err());
    }

    #[test]
    fn mismatched_input_size_is_rejected() {
        let mut trainer =
            RefinementTrainer::new(&SrConfig::default(), TrainConfig::default()).unwrap();
        let set = TrainingSet {
            inputs: vec![vec![0.0; 5]],
            targets: vec![[0.0; 3]],
        };
        assert!(trainer.train(&set).is_err());
    }

    #[test]
    fn training_set_extend() {
        let gt = synthetic::sphere(800, 1.0, 5);
        let mut a = build_training_set(&gt, 0.5, &SrConfig::default(), 1).unwrap();
        let b = build_training_set(&gt, 0.5, &SrConfig::default(), 2).unwrap();
        let before = a.len();
        let b_len = b.len();
        a.extend(b);
        assert_eq!(a.len(), before + b_len);
    }
}
