//! Quickstart: train a lookup table offline, then downsample a synthetic
//! frame the table was not trained on, upsample it back with the two-stage
//! VoLUT pipeline, and report quality metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use volut::core::encoding::KeyScheme;
use volut::core::nn::train::Recipe;
use volut::core::refine::{IdentityRefiner, LutRefiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

/// Points per training frame of the paper preset.
const TRAINING_POINTS: usize = 1_500;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Capture" a ground-truth frame (stand-in for a Long Dress frame).
    let ground_truth = synthetic::humanoid(8_000, 0.3, 42);
    println!("ground truth: {} points", ground_truth.len());

    // 2. Offline: train the refinement network on downsampled/original pairs
    //    of other frames (the paper preset: three poses of another humanoid)
    //    and distill it into a lookup table (32 bins: 2^15 reachable
    //    entries, 196 KiB).
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let trained = Recipe::paper(config, TRAINING_POINTS).run()?;
    println!(
        "trained refinement network on {} samples, final loss {:.5}",
        trained.report.samples,
        trained.report.final_loss().unwrap_or(f32::NAN)
    );

    // 3. Online: the server randomly downsamples the frame (here to 50%),
    //    the client interpolates + LUT-refines it back to full density.
    let low = sampling::random_downsample(&ground_truth, 0.5, 3)?;
    let volut = SrPipeline::new(
        config,
        Box::new(LutRefiner::from_config(
            &config,
            KeyScheme::Compact,
            Box::new(trained.lut),
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
