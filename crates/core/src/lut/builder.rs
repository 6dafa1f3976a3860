//! LUT construction: transferring the trained refinement network into a
//! lookup table (Eq. 6).
//!
//! Distillation from observed samples: every neighborhood seen in the
//! training data is encoded, run through the network, and the resulting
//! offset is stored under that key (duplicate keys average their offsets)
//! in a table covering the keys the encoder can emit.
//! [`crate::nn::train::Recipe`] is its one caller.

use super::dense::DenseLut;
use super::Lut;
use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::error::Error;
use crate::nn::mlp::Mlp;
use crate::nn::train::TrainingSet;
use crate::Result;
use std::collections::HashMap;

/// Distills the network into a dense LUT over `config`'s
/// [`PositionEncoder::reachable_keys`], populated at the keys of the
/// neighborhoods observed in `samples`.
///
/// # Errors
/// Fails when the configuration is invalid, the table exceeds
/// [`DenseLut::DEFAULT_BYTE_BUDGET`], the network does not map
/// `receptive_field × 3` inputs to 3 outputs, `samples` is empty, or a
/// sample keys outside the reachable range, which no feature vector of an
/// encoded neighborhood does.
pub(crate) fn distill(config: &SrConfig, mlp: &Mlp, samples: &TrainingSet) -> Result<DenseLut> {
    let encoder = PositionEncoder::new(config, KeyScheme::Compact)?;
    let mut lut = DenseLut::over(encoder.reachable_keys())?;
    if mlp.input_dim() != config.receptive_field * 3 || mlp.output_dim() != 3 {
        return Err(Error::InvalidConfig(format!(
            "network dimensions {:?} do not map receptive field {} x 3 to 3 offsets",
            mlp.dims(),
            config.receptive_field
        )));
    }
    if samples.is_empty() {
        return Err(Error::Training(
            "cannot distill a lut from an empty sample set".into(),
        ));
    }
    // Per key, the sum and count of the network's offsets.
    let mut acc: HashMap<u128, ([f64; 3], u32)> = HashMap::new();
    for input in &samples.inputs {
        let key = encoder.key_from_features(input)?;
        let entry = acc.entry(key).or_insert(([0.0; 3], 0));
        for (slot, &v) in entry.0.iter_mut().zip(&mlp.forward(input)) {
            *slot += f64::from(v);
        }
        entry.1 += 1;
    }
    for (key, (sum, count)) in acc {
        let n = f64::from(count);
        lut.set(key, sum.map(|s| (s / n) as f32))?;
    }
    Ok(lut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::train::{Recipe, Trained, TrainingFrame};
    use volut_pointcloud::synthetic;

    /// Tables are trained at 32 bins (a 128-bin table is over budget).
    fn config() -> SrConfig {
        SrConfig {
            bins: 32,
            ..SrConfig::default()
        }
    }

    fn recipe(config: &SrConfig) -> Recipe {
        Recipe {
            config: *config,
            frames: vec![TrainingFrame {
                cloud: synthetic::sphere(1200, 1.0, 1),
                keep_ratio: 0.5,
                seed: 3,
            }],
            epochs: 3,
        }
    }

    /// The recipe's network and table, the samples that keyed the table and
    /// the encoder that keyed them.
    fn trained(config: &SrConfig) -> (Trained, TrainingSet, PositionEncoder) {
        let recipe = recipe(config);
        let encoder = PositionEncoder::new(config, KeyScheme::Compact).unwrap();
        (
            recipe.run().unwrap(),
            recipe.training_set().unwrap(),
            encoder,
        )
    }

    #[test]
    fn distill_produces_populated_lut() {
        let (trained, set, encoder) = trained(&config());
        let lut = &trained.lut;
        assert_eq!(lut.keys(), encoder.reachable_keys());
        assert!(lut.populated() > 0);
        assert!(lut.populated() <= set.len());
        // Every key stored came from a sample; look one up.
        let key = encoder.key_from_features(&set.inputs[0]).unwrap();
        assert!(lut.get(key).is_some());
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let config = config();
        let recipe = recipe(&config);
        assert!(recipe.distill(&Mlp::new(&[9, 8, 3], 1)).is_err());
        let set = recipe.training_set().unwrap();
        let wrong_out = Mlp::new(&[12, 8, 2], 1);
        assert!(distill(&config, &wrong_out, &set).is_err());
        assert!(distill(&config, &Mlp::new(&[12, 8, 3], 1), &TrainingSet::default()).is_err());
        // Five points at 128 bins ask for a table over the byte budget.
        let over = SrConfig {
            receptive_field: 5,
            ..SrConfig::default()
        };
        assert!(distill(&over, &Mlp::new(&[15, 8, 3], 1), &set).is_err());
    }

    /// The paper's configuration, n = 4 and b = 128, distills inside the
    /// default budget: its table covers the 2²¹ reachable keys, 12.3 MiB,
    /// where the whole 2²⁸-key space needs 1.5 GiB.
    #[test]
    fn distill_at_the_paper_configuration_fits_the_budget() {
        let (trained, set, encoder) = trained(&SrConfig::default());
        let lut = &trained.lut;
        assert_eq!(lut.memory_bytes(), (1 << 21) * 6 + (1 << 21) / 8);
        for input in &set.inputs {
            let key = encoder.key_from_features(input).unwrap();
            assert!(lut.get(key).is_some(), "every training key is stored");
        }
    }

    #[test]
    fn distilled_offsets_match_network_predictions_for_unique_keys() {
        let (trained, set, encoder) = trained(&config());
        // For a key that appears exactly once, the stored offset equals the
        // network output (up to f16 rounding).
        let mut key_counts = std::collections::HashMap::new();
        for input in &set.inputs {
            *key_counts
                .entry(encoder.key_from_features(input).unwrap())
                .or_insert(0u32) += 1;
        }
        let mut checked = 0;
        for input in &set.inputs {
            let key = encoder.key_from_features(input).unwrap();
            if key_counts[&key] == 1 {
                let expected = trained.network.forward(input);
                let stored = trained.lut.get(key).unwrap();
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
