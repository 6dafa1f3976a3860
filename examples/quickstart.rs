//! Quickstart: downsample a synthetic frame, upsample it back with the
//! two-stage VoLUT pipeline, and report quality metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use volut::core::encoding::KeyScheme;
use volut::core::lut::builder::LutBuilder;
use volut::core::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
use volut::core::refine::{IdentityRefiner, LutRefiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Capture" a ground-truth frame (stand-in for a Long Dress frame).
    let ground_truth = synthetic::humanoid(8_000, 0.3, 42);
    println!("ground truth: {} points", ground_truth.len());

    // 2. Offline: train the refinement network on downsampled/original pairs
    //    and distill it into a lookup table (32 bins: 2^15 reachable
    //    entries, 196 KiB).
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let training_set = build_training_set(&ground_truth, 0.5, &config, 7)?;
    let mut trainer = RefinementTrainer::new(
        &config,
        TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
    )?;
    let report = trainer.train(&training_set)?;
    println!(
        "trained refinement network on {} samples, final loss {:.5}",
        report.samples,
        report.final_loss().unwrap_or(f32::NAN)
    );
    let network = trainer.into_network();
    let lut = LutBuilder::new(&config)?.distill(&network, &training_set)?;

    // 3. Online: the server randomly downsamples the frame (here to 50%),
    //    the client interpolates + LUT-refines it back to full density.
    let low = sampling::random_downsample(&ground_truth, 0.5, 3)?;
    let volut = SrPipeline::new(
        config,
        Box::new(LutRefiner::from_config(
            &config,
            KeyScheme::Compact,
            Box::new(lut),
        )?),
    );
    let interp_only = SrPipeline::new(config, Box::new(IdentityRefiner));

    let refined = volut.upsample(&low, 2.0)?;
    let unrefined = interp_only.upsample(&low, 2.0)?;

    // 4. Compare quality.
    let report = |name: &str, cloud: &volut::pointcloud::PointCloud| {
        let q = metrics::quality_report(cloud, &ground_truth);
        println!(
            "{name:<22} points {:>6}  psnr {:>6.2} dB  chamfer {:.6}",
            cloud.len(),
            q.psnr_db,
            q.chamfer
        );
    };
    report("received (50%)", &low);
    report("interpolation only", &unrefined.cloud);
    report("VoLUT (LUT refined)", &refined.cloud);
    println!(
        "SR stage breakdown: knn {:?}, interpolation {:?}, colorization {:?}, refinement {:?}",
        refined.timings.knn,
        refined.timings.interpolation,
        refined.timings.colorization,
        refined.timings.refinement
    );
    Ok(())
}
