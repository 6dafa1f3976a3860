//! LUT construction: transferring the trained refinement network into a
//! lookup table (Eq. 6).

use super::dense::DenseLut;
use super::Lut;
use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::error::Error;
use crate::nn::mlp::Mlp;
use crate::nn::train::TrainingSet;
use crate::Result;
use std::collections::HashMap;

/// Builds LUTs from a trained refinement network.
///
/// Distillation from observed samples ([`LutBuilder::distill`]): every
/// neighborhood seen in the training data is encoded, run through the
/// network, and the resulting offset is stored under that key (duplicate
/// keys average their offsets) in a table covering the keys the encoder
/// can emit.
#[derive(Debug, Clone)]
pub struct LutBuilder {
    encoder: PositionEncoder,
}

impl LutBuilder {
    /// Creates a builder for the given configuration.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: &SrConfig) -> Result<Self> {
        Ok(Self {
            encoder: PositionEncoder::new(config, KeyScheme::Compact)?,
        })
    }

    /// The position encoder used for keying.
    pub fn encoder(&self) -> &PositionEncoder {
        &self.encoder
    }

    /// Checks that `mlp`'s input dimension matches the encoder.
    fn check_network(&self, mlp: &Mlp) -> Result<()> {
        let expected = self.encoder.receptive_field() * 3;
        if mlp.input_dim() != expected {
            return Err(Error::InvalidConfig(format!(
                "network input dimension {} does not match receptive field {} x 3",
                mlp.input_dim(),
                self.encoder.receptive_field()
            )));
        }
        if mlp.output_dim() != 3 {
            return Err(Error::InvalidConfig(format!(
                "refinement network must output 3 values, found {}",
                mlp.output_dim()
            )));
        }
        Ok(())
    }

    /// Runs the network over every sample and accumulates per-key mean offsets.
    fn accumulate(
        &self,
        mlp: &Mlp,
        samples: &TrainingSet,
    ) -> Result<HashMap<u128, ([f64; 3], u32)>> {
        self.check_network(mlp)?;
        if samples.is_empty() {
            return Err(Error::Training(
                "cannot distill a lut from an empty sample set".into(),
            ));
        }
        let mut acc: HashMap<u128, ([f64; 3], u32)> = HashMap::new();
        for input in &samples.inputs {
            let key = self.encoder.key_from_features(input)?;
            let out = mlp.forward(input);
            let entry = acc.entry(key).or_insert(([0.0; 3], 0));
            for (slot, &v) in entry.0.iter_mut().zip(out.iter()) {
                *slot += f64::from(v);
            }
            entry.1 += 1;
        }
        Ok(acc)
    }

    /// Distills the network into a dense LUT over the encoder's
    /// [`PositionEncoder::reachable_keys`], populated at the keys of the
    /// neighborhoods observed in `samples`.
    ///
    /// # Errors
    /// Fails when the network shape does not match the encoder, `samples`
    /// is empty, the table exceeds [`DenseLut::DEFAULT_BYTE_BUDGET`], or a
    /// sample keys outside the reachable range, which no feature vector of
    /// an encoded neighborhood does.
    pub fn distill(&self, mlp: &Mlp, samples: &TrainingSet) -> Result<DenseLut> {
        let mut lut = DenseLut::over(self.encoder.reachable_keys())?;
        let acc = self.accumulate(mlp, samples)?;
        for (key, (sum, count)) in acc {
            let n = f64::from(count);
            lut.set(
                key,
                [
                    (sum[0] / n) as f32,
                    (sum[1] / n) as f32,
                    (sum[2] / n) as f32,
                ],
            )?;
        }
        Ok(lut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
    use volut_pointcloud::synthetic;

    /// Tables are trained at 32 bins (a 128-bin table is over budget).
    fn config() -> SrConfig {
        SrConfig {
            bins: 32,
            ..SrConfig::default()
        }
    }

    fn trained_network(config: &SrConfig) -> (Mlp, TrainingSet) {
        let gt = synthetic::sphere(1200, 1.0, 1);
        let set = build_training_set(&gt, 0.5, config, 3).unwrap();
        let train_cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut trainer = RefinementTrainer::new(config, train_cfg).unwrap();
        trainer.train(&set).unwrap();
        (trainer.into_network(), set)
    }

    #[test]
    fn distill_produces_populated_lut() {
        let config = config();
        let (mlp, set) = trained_network(&config);
        let builder = LutBuilder::new(&config).unwrap();
        let lut = builder.distill(&mlp, &set).unwrap();
        assert_eq!(lut.keys(), builder.encoder().reachable_keys());
        assert!(lut.populated() > 0);
        assert!(lut.populated() <= set.len());
        // Every key stored came from a sample; look one up.
        let key = builder.encoder().key_from_features(&set.inputs[0]).unwrap();
        assert!(lut.get(key).is_some());
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let config = config();
        let (_, set) = trained_network(&config);
        let wrong = Mlp::new(&[9, 8, 3], 1);
        let builder = LutBuilder::new(&config).unwrap();
        assert!(builder.distill(&wrong, &set).is_err());
        let wrong_out = Mlp::new(&[12, 8, 2], 1);
        assert!(builder.distill(&wrong_out, &set).is_err());
        assert!(builder
            .distill(&Mlp::new(&[12, 8, 3], 1), &TrainingSet::default())
            .is_err());
        // Five points at 128 bins ask for a table over the byte budget.
        let over = LutBuilder::new(&SrConfig {
            receptive_field: 5,
            ..SrConfig::default()
        })
        .unwrap();
        assert!(over.distill(&Mlp::new(&[15, 8, 3], 1), &set).is_err());
    }

    /// The paper's configuration, n = 4 and b = 128, distills inside the
    /// default budget: its table covers the 2²¹ reachable keys, 12.3 MiB,
    /// where the whole 2²⁸-key space needs 1.5 GiB.
    #[test]
    fn distill_at_the_paper_configuration_fits_the_budget() {
        let config = SrConfig::default();
        let (mlp, set) = trained_network(&config);
        let builder = LutBuilder::new(&config).unwrap();
        let lut = builder.distill(&mlp, &set).unwrap();
        assert_eq!(lut.memory_bytes(), (1 << 21) * 6 + (1 << 21) / 8);
        for input in &set.inputs {
            let key = builder.encoder().key_from_features(input).unwrap();
            assert!(lut.get(key).is_some(), "every training key is stored");
        }
    }

    #[test]
    fn distilled_offsets_match_network_predictions_for_unique_keys() {
        let config = config();
        let (mlp, set) = trained_network(&config);
        let builder = LutBuilder::new(&config).unwrap();
        let lut = builder.distill(&mlp, &set).unwrap();
        // For a key that appears exactly once, the stored offset equals the
        // network output (up to f16 rounding).
        let mut key_counts = std::collections::HashMap::new();
        for input in &set.inputs {
            *key_counts
                .entry(builder.encoder().key_from_features(input).unwrap())
                .or_insert(0u32) += 1;
        }
        let mut checked = 0;
        for input in &set.inputs {
            let key = builder.encoder().key_from_features(input).unwrap();
            if key_counts[&key] == 1 {
                let expected = mlp.forward(input);
                let stored = lut.get(key).unwrap();
                for c in 0..3 {
                    assert!((stored[c] - expected[c]).abs() < 5e-3);
                }
                checked += 1;
                if checked > 10 {
                    break;
                }
            }
        }
        assert!(checked > 0, "expected at least one unique key");
    }
}
