//! Offline training of the refinement network (§4.2.2) and its distillation
//! into a lookup table (Eq. 6), as one [`Recipe`].
//!
//! Training pairs are built exactly the way the client will later see the
//! data: a ground-truth frame is randomly downsampled, the downsampled cloud
//! is re-upsampled with dilated interpolation, and each interpolated point's
//! *target* is the (normalized) displacement to its nearest ground-truth
//! point. Gaussian noise (σ = 0.02) is injected into the inputs
//! so that the network — and therefore the LUT distilled from it — is robust
//! to quantization artifacts.

use super::adam::Adam;
use super::mlp::Mlp;
use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::error::Error;
use crate::interpolate::dilated::dilated_interpolate;
use crate::lut::builder::distill;
use crate::lut::dense::DenseLut;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::NeighborSearch;
use volut_pointcloud::{sampling, synthetic, Neighborhoods, Point3, PointCloud};

/// Adam learning rate.
const LEARNING_RATE: f32 = 2e-3;
/// Standard deviation of the Gaussian noise injected into inputs.
const NOISE_SIGMA: f32 = 0.02;
/// Hidden layer widths of the refinement MLP: `[3n, 64, 64, 3]`.
const HIDDEN: [usize; 2] = [64, 64];
/// Seed of the weight initialization; shuffling and noise draw from
/// `SEED + 1`.
const SEED: u64 = 0;

/// One ground-truth frame of a [`Recipe`]: its training pairs come from
/// downsampling `cloud` to `keep_ratio` (e.g. 0.5 for ×2 pairs) with `seed`.
#[derive(Debug, Clone)]
struct TrainingFrame {
    cloud: PointCloud,
    keep_ratio: f64,
    seed: u64,
}

/// The offline job: train the refinement network on ground-truth frames for
/// a number of epochs and distill it into a table at the recipe's receptive
/// field and bins. Every run of one recipe gives the same network and table
/// bits, at any worker count.
///
/// There are two: [`Recipe::paper`], the paper's offline step, and
/// [`Recipe::test`], small enough for a debug build.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Receptive field and bins of the network's inputs and of the table.
    config: SrConfig,
    /// Ground-truth frames; their training pairs are concatenated in order.
    frames: Vec<TrainingFrame>,
    /// Number of passes over the training set.
    epochs: usize,
}

/// What a [`Recipe`] yields.
#[derive(Debug, Clone)]
pub struct Trained {
    /// The trained refinement network.
    pub network: Mlp,
    /// The network distilled into a table over the encoder's reachable keys.
    pub lut: DenseLut,
    /// Per-epoch losses of the training run.
    pub report: TrainingReport,
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

impl Recipe {
    /// The paper's offline step (§4.2.2, §7.1): one network trained once on
    /// the "Long Dress" stand-in and applied to every video. Eight epochs
    /// over three animation phases (0, 0.7 and 1.4) of a `points`-point
    /// humanoid, downsampled to ½, ¼ and ¼ with seeds 1, 2 and 3, so the
    /// set holds ×2 and ×4 pairs. `config` gives the receptive field and
    /// bins of the network's inputs and of the table; the harness and the
    /// examples train at 32 bins.
    pub fn paper(config: SrConfig, points: usize) -> Self {
        let frame = |phase: f32, keep_ratio: f64, seed: u64| TrainingFrame {
            cloud: synthetic::humanoid(points, phase, 11),
            keep_ratio,
            seed,
        };
        Self {
            config,
            frames: vec![frame(0.0, 0.5, 1), frame(0.7, 0.25, 2), frame(1.4, 0.25, 3)],
            epochs: 8,
        }
    }

    /// The tests' recipe: four epochs of ×2 pairs from one 4 000-point
    /// humanoid, keyed at 16 bins (2¹² reachable keys). A debug build trains
    /// it in seconds, and its table still refines held-out frames
    /// (`tests/integration_sr_pipeline.rs`).
    pub fn test() -> Self {
        Self {
            config: SrConfig {
                bins: 16,
                ..SrConfig::default()
            },
            frames: vec![TrainingFrame {
                cloud: synthetic::humanoid(4_000, 0.2, 3),
                keep_ratio: 0.5,
                seed: 5,
            }],
            epochs: 4,
        }
    }

    /// Receptive field and bins of the network's inputs and of the table.
    pub fn config(&self) -> SrConfig {
        self.config
    }

    /// Builds the training set, trains the network on it and distills the
    /// network at the keys of the set's neighborhoods.
    ///
    /// # Errors
    /// Fails when the configuration is invalid, a frame yields no training
    /// samples, or the table exceeds [`DenseLut::DEFAULT_BYTE_BUDGET`].
    pub fn run(&self) -> Result<Trained> {
        let set = self.training_set()?;
        let dims = [self.config.receptive_field * 3, HIDDEN[0], HIDDEN[1], 3];
        let mut network = Mlp::new(&dims, SEED);
        let report = fit(&mut network, &set, self.epochs)?;
        let lut = distill(&self.config, &network, &set)?;
        Ok(Trained {
            network,
            lut,
            report,
        })
    }

    /// Distills an already trained `network` at this recipe's configuration,
    /// keyed by this recipe's training set: one network can serve tables of
    /// several bin counts.
    ///
    /// # Errors
    /// Fails like [`Self::run`], and when `network`'s shape does not match
    /// the configuration's receptive field.
    pub fn distill(&self, network: &Mlp) -> Result<DenseLut> {
        distill(&self.config, network, &self.training_set()?)
    }

    /// The training pairs of every frame, in order.
    pub(crate) fn training_set(&self) -> Result<TrainingSet> {
        let mut set = TrainingSet::default();
        for frame in &self.frames {
            set.extend(build_training_set(
                &frame.cloud,
                frame.keep_ratio,
                &self.config,
                frame.seed,
            )?);
        }
        Ok(set)
    }
}

/// A supervised training set of (encoded neighborhood, normalized offset) pairs.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrainingSet {
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
    fn extend(&mut self, other: TrainingSet) {
        self.inputs.extend(other.inputs);
        self.targets.extend(other.targets);
    }
}

/// Builds a training set from one ground-truth frame.
///
/// The frame is downsampled by `keep_ratio`, re-upsampled with dilated
/// interpolation, and each interpolated point is paired with its normalized
/// displacement to the nearest ground-truth point.
///
/// # Errors
/// Propagates sampling and interpolation failures; returns
/// [`Error::Training`] when no usable samples could be extracted.
fn build_training_set(
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

/// Runs `epochs` passes of Adam over `set`, one shuffled sample at a time.
///
/// # Errors
/// Returns [`Error::Training`] when the set is empty or a sample's input
/// size does not match the network.
fn fit(mlp: &mut Mlp, set: &TrainingSet, epochs: usize) -> Result<TrainingReport> {
    if set.is_empty() {
        return Err(Error::Training("training set is empty".into()));
    }
    for input in &set.inputs {
        if input.len() != mlp.input_dim() {
            return Err(Error::Training(format!(
                "sample input length {} does not match network input {}",
                input.len(),
                mlp.input_dim()
            )));
        }
    }
    let mut adam = Adam::new(mlp, LEARNING_RATE);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let mut order: Vec<usize> = (0..set.len()).collect();
    let mut report = TrainingReport {
        epoch_losses: Vec::new(),
        samples: set.len(),
    };
    let mut noisy_input = Vec::new();
    for _epoch in 0..epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0f64;
        for &i in &order {
            noisy_input.clear();
            noisy_input.extend(
                set.inputs[i]
                    .iter()
                    .map(|&v| v + gaussian(&mut rng) * NOISE_SIGMA),
            );
            mlp.zero_grad();
            let loss = mlp.backward_mse(&noisy_input, &set.targets[i]);
            adam.step(mlp);
            total += f64::from(loss);
        }
        report.epoch_losses.push((total / set.len() as f64) as f32);
    }
    Ok(report)
}

fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// [`Recipe::test`] trained once per test binary, on two workers.
#[cfg(test)]
pub(crate) fn test_trained() -> &'static Trained {
    static TRAINED: std::sync::OnceLock<Trained> = std::sync::OnceLock::new();
    TRAINED.get_or_init(|| {
        volut_pointcloud::runtime::with_workers(2, || Recipe::test().run().expect("test recipe"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut as _;
    use volut_pointcloud::runtime;

    fn frame(cloud: PointCloud, seed: u64) -> TrainingFrame {
        TrainingFrame {
            cloud,
            keep_ratio: 0.5,
            seed,
        }
    }

    /// A default-shaped network, as [`Recipe::run`] builds it.
    fn network() -> Mlp {
        Mlp::new(&[12, HIDDEN[0], HIDDEN[1], 3], SEED)
    }

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
        let report = fit(&mut network(), &set, 8).unwrap();
        assert_eq!(report.epoch_losses.len(), 8);
        let first = report.epoch_losses[0];
        let last = report.final_loss().unwrap();
        assert!(last <= first, "loss should not increase: {first} -> {last}");
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(fit(&mut network(), &TrainingSet::default(), 30).is_err());
        let recipe = Recipe {
            config: SrConfig::default(),
            frames: Vec::new(),
            epochs: 1,
        };
        assert!(recipe.run().is_err());
    }

    #[test]
    fn mismatched_input_size_is_rejected() {
        let set = TrainingSet {
            inputs: vec![vec![0.0; 5]],
            targets: vec![[0.0; 3]],
        };
        assert!(fit(&mut network(), &set, 30).is_err());
    }

    /// A recipe's training set is its frames' sets concatenated in order.
    #[test]
    fn training_set_extend() {
        let gt = synthetic::sphere(800, 1.0, 5);
        let config = SrConfig::default();
        let a = build_training_set(&gt, 0.5, &config, 1).unwrap();
        let b = build_training_set(&gt, 0.5, &config, 2).unwrap();
        let recipe = Recipe {
            config,
            frames: vec![frame(gt.clone(), 1), frame(gt, 2)],
            epochs: 1,
        };
        let set = recipe.training_set().unwrap();
        assert_eq!(set.len(), a.len() + b.len());
        assert_eq!(set.inputs[..a.len()], a.inputs[..]);
        assert_eq!(set.targets[a.len()..], b.targets[..]);
    }

    /// FNV-1a over the network's weight and bias bits, then every table
    /// entry's key and offset bits.
    fn digest(trained: &Trained) -> u64 {
        let weights = trained
            .network
            .layers()
            .iter()
            .flat_map(|l| l.weights.iter().chain(&l.bias))
            .flat_map(|v| v.to_bits().to_le_bytes());
        let entries = trained.lut.iter().flat_map(|(key, offset)| {
            key.to_le_bytes()
                .into_iter()
                .chain(offset.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
        });
        weights.chain(entries).fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Training and distillation give [`Recipe::test`] the same network bits
    /// and table entries on one worker and on two, pinned to the bits the
    /// integration gate's hand-written recipe had before it became a preset.
    #[test]
    fn recipe_is_bit_identical_across_worker_counts() {
        const PINNED: u64 = 15_074_671_187_215_494_468;
        let one = runtime::with_workers(1, || Recipe::test().run().unwrap());
        let two = test_trained();
        assert!(one.lut.populated() > 0);
        assert_eq!(one.report.epoch_losses, two.report.epoch_losses);
        assert_eq!(digest(&one), PINNED);
        assert_eq!(digest(two), PINNED);
    }
}
