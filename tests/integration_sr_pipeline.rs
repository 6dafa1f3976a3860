//! Integration tests spanning the point-cloud substrate and the SR core:
//! the full offline (train → distill → save → load) and online
//! (downsample → interpolate → refine) paths.

use volut::core::encoding::KeyScheme;
use volut::core::lut::builder::LutBuilder;
use volut::core::lut::io::{read_lut, write_sparse, LutHeader};
use volut::core::lut::Lut as _;
use volut::core::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
use volut::core::refine::{IdentityRefiner, LutRefiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

/// Configuration used by these tests: the sparse LUT generalizes across
/// content through coarser quantization (the paper's b = 128 setting is tied
/// to the dense compact-key table analyzed in Table 1).
fn test_config() -> SrConfig {
    SrConfig {
        bins: 16,
        ..SrConfig::default()
    }
}

/// Trains a small LUT once for the tests in this file.
fn train_lut(config: &SrConfig) -> volut::core::lut::sparse::SparseLut {
    let gt = synthetic::humanoid(4_000, 0.2, 3);
    let set = build_training_set(&gt, 0.5, config, KeyScheme::Full, 5).unwrap();
    let mut trainer = RefinementTrainer::new(
        config,
        TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    )
    .unwrap();
    trainer.train(&set).unwrap();
    LutBuilder::new(config, KeyScheme::Full)
        .unwrap()
        .distill_sparse(&trainer.into_network(), &set)
        .unwrap()
}

#[test]
fn offline_to_online_roundtrip_through_disk() {
    let config = test_config();
    let lut = train_lut(&config);
    assert!(lut.populated() > 100);

    // Persist and reload the LUT like a deployment would.
    let dir = std::env::temp_dir().join("volut_integration_lut");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.vlut");
    let header = LutHeader {
        scheme: KeyScheme::Full,
        receptive_field: config.receptive_field,
        bins: config.bins,
    };
    write_sparse(&lut, header, &path).unwrap();
    let loaded = read_lut(&path).unwrap();
    assert_eq!(loaded.header, header);
    assert_eq!(loaded.lut.populated(), lut.populated());
    std::fs::remove_file(&path).ok();

    // Use the reloaded LUT for SR on unseen content.
    let refiner =
        LutRefiner::from_config(&config, loaded.header.scheme, Box::new(loaded.lut)).unwrap();
    let pipeline = SrPipeline::new(config, Box::new(refiner));
    let unseen = synthetic::humanoid(5_000, 1.5, 77);
    let low = sampling::random_downsample(&unseen, 0.5, 9).unwrap();
    let result = pipeline.upsample(&low, 2.0).unwrap();
    assert_eq!(result.cloud.len(), 2 * low.len());
    assert!(result.cloud.has_colors());
    // The LUT must actually be consulted on in-distribution content.
    let stats = result.lookup_stats;
    assert!(stats.hits > 0, "expected lut hits, got {stats:?}");
    // Quality: coverage of the ground truth improves versus the received cloud.
    assert!(
        metrics::one_sided_chamfer(&unseen, &result.cloud)
            < metrics::one_sided_chamfer(&unseen, &low)
    );
}

#[test]
fn continuous_ratios_are_supported_end_to_end() {
    let config = SrConfig::default();
    let pipeline = SrPipeline::new(config, Box::new(IdentityRefiner));
    let gt = synthetic::torus(3_000, 1.0, 0.3, 11);
    let low = sampling::random_downsample_exact(&gt, 1_000, 1).unwrap();
    for ratio in [1.3, 2.0, 2.7, 3.5, 5.25] {
        let out = pipeline.upsample(&low, ratio).unwrap();
        let achieved = out.cloud.len() as f64 / low.len() as f64;
        assert!(
            (achieved - ratio).abs() < 0.01,
            "requested {ratio}, achieved {achieved}"
        );
    }
}

#[test]
fn lut_refinement_does_not_degrade_interpolation_quality() {
    let config = test_config();
    let lut = train_lut(&config);
    let gt = synthetic::humanoid(4_000, 0.6, 21);
    let low = sampling::random_downsample(&gt, 0.5, 13).unwrap();

    let lut_pipeline = SrPipeline::new(
        config,
        Box::new(LutRefiner::from_config(&config, KeyScheme::Full, Box::new(lut)).unwrap()),
    );
    let id_pipeline = SrPipeline::new(config, Box::new(IdentityRefiner));

    let refined = lut_pipeline.upsample(&low, 2.0).unwrap();
    let unrefined = id_pipeline.upsample(&low, 2.0).unwrap();
    let cd_refined = metrics::chamfer_distance(&refined.cloud, &gt);
    let cd_unrefined = metrics::chamfer_distance(&unrefined.cloud, &gt);
    assert!(
        cd_refined <= cd_unrefined * 1.1,
        "refined {cd_refined} should not be much worse than unrefined {cd_unrefined}"
    );
}
