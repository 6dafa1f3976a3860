//! Integration tests spanning the point-cloud substrate and the SR core:
//! the full offline (train → distill → save → load) and online
//! (downsample → interpolate → refine) paths.

use std::sync::OnceLock;
use volut::core::encoding::KeyScheme;
use volut::core::lut::io::{read_lut, write, LutHeader};
use volut::core::lut::{DenseLut, Lut as _};
use volut::core::nn::train::{Recipe, Trained, TrainingFrame};
use volut::core::refine::{IdentityRefiner, LutRefiner, NnRefiner, Refiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

/// Configuration used by these tests: a 16-bin table, 16⁴ keys.
fn test_config() -> SrConfig {
    SrConfig {
        bins: 16,
        ..SrConfig::default()
    }
}

/// A small network and the table distilled from it, trained once for the
/// tests in this file.
fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        Recipe {
            config: test_config(),
            frames: vec![TrainingFrame {
                cloud: synthetic::humanoid(4_000, 0.2, 3),
                keep_ratio: 0.5,
                seed: 5,
            }],
            epochs: 4,
        }
        .run()
        .unwrap()
    })
}

#[test]
fn offline_to_online_roundtrip_through_disk() {
    let config = test_config();
    let lut = &trained().lut;
    assert!(lut.populated() > 100);

    // Persist and reload the LUT like a deployment would.
    let dir = std::env::temp_dir().join("volut_integration_lut");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.vlut");
    let header = LutHeader {
        receptive_field: config.receptive_field,
        bins: config.bins,
    };
    write(lut, header, &path).unwrap();
    let loaded = read_lut(&path).unwrap();
    assert_eq!(loaded.header, header);
    assert_eq!(loaded.lut.populated(), lut.populated());
    assert!(loaded.lut.iter().eq(lut.iter()), "the entries round-trip");
    std::fs::remove_file(&path).ok();

    // Use the reloaded LUT for SR on unseen content.
    let refiner =
        LutRefiner::from_config(&config, KeyScheme::Compact, Box::new(loaded.lut)).unwrap();
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

/// The held-out gate: on two frames the table was not trained on (another
/// humanoid pose and seed, and a torus), the distilled table must refine —
/// a geometric PSNR gain of at least 0.15 dB over interpolation alone and at
/// least 0.4× the gain of the network it was distilled from, at a hit rate
/// of at least one half — while a table of zero offsets over the same keys
/// gains exactly nothing. A table whose keys never recur on new frames, or
/// whose offsets do not help, fails it.
#[test]
fn lut_refinement_does_not_degrade_interpolation_quality() {
    let config = test_config();
    let Trained { network, lut, .. } = trained();
    let mut zero = DenseLut::over(lut.keys()).unwrap();
    for (key, _) in lut.iter() {
        zero.set(key, [0.0; 3]).unwrap();
    }
    for (name, gt) in [
        ("humanoid", synthetic::humanoid(4_000, 0.6, 21)),
        ("torus", synthetic::torus(4_000, 1.0, 0.3, 11)),
    ] {
        let low = sampling::random_downsample(&gt, 0.5, 13).unwrap();
        let run = |refiner: Box<dyn Refiner>| {
            let result = SrPipeline::new(config, refiner)
                .upsample(&low, 2.0)
                .unwrap();
            let psnr = metrics::geometric_psnr(&result.cloud, &gt);
            (psnr, result.lookup_stats)
        };
        let table = |lut: &DenseLut| {
            Box::new(
                LutRefiner::from_config(&config, KeyScheme::Compact, Box::new(lut.clone()))
                    .unwrap(),
            )
        };
        let (base, _) = run(Box::new(IdentityRefiner));
        let (refined, stats) = run(table(lut));
        let (zeroed, zero_stats) = run(table(&zero));
        let (inferred, _) = run(Box::new(
            NnRefiner::from_config(&config, network.clone()).unwrap(),
        ));
        let (lut_gain, nn_gain) = (refined - base, inferred - base);
        println!(
            "{name}: lut {lut_gain:+.3} dB, network {nn_gain:+.3} dB, hit rate {:.3}",
            stats.hit_rate()
        );
        assert!(stats.hit_rate() >= 0.5, "{name}: hit rate {stats:?}");
        assert!(lut_gain >= 0.15, "{name}: lut gain {lut_gain} dB");
        assert!(
            lut_gain >= 0.4 * nn_gain,
            "{name}: lut gain {lut_gain} dB against the network's {nn_gain} dB"
        );
        assert_eq!(zero_stats, stats, "{name}: same keys, same hits");
        assert_eq!(zeroed, base, "{name}: zero offsets must gain exactly 0");
    }
}
