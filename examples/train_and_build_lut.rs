//! Offline path: train the refinement network, distill it into a LUT, save
//! the LUT to disk, reload it and use it for super-resolution — the workflow
//! a deployment would run once per content library.
//!
//! ```text
//! cargo run --release --example train_and_build_lut
//! ```

use volut::core::encoding::KeyScheme;
use volut::core::lut::builder::LutBuilder;
use volut::core::lut::io::{read_lut, write, LutHeader};
use volut::core::lut::memory::{table1_rows, MemoryModel};
use volut::core::lut::{DenseLut, Lut as _};
use volut::core::nn::train::{build_training_set, RefinementTrainer, TrainConfig};
use volut::core::refine::LutRefiner;
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The deployed table of this reproduction: 32 bins, 2^20 entries.
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };

    // Table 1: what a dense LUT would cost for different configurations.
    println!("dense LUT memory model (paper Table 1):");
    for row in table1_rows() {
        println!(
            "  n={} b={:>3}  entries={:>12}  size={}",
            row.receptive_field, row.bins, row.entries, row.formatted
        );
    }
    println!(
        "paper configuration n=4, b=128 -> {}, over the {} table budget; this table uses b={}",
        MemoryModel::format_bytes(MemoryModel::new(4, 128).compact_bytes()),
        MemoryModel::format_bytes(DenseLut::DEFAULT_BYTE_BUDGET),
        config.bins
    );

    // Train on several animation phases of the "Long Dress" stand-in.
    let mut set = build_training_set(&synthetic::humanoid(6_000, 0.0, 1), 0.5, &config, 1)?;
    set.extend(build_training_set(
        &synthetic::humanoid(6_000, 0.9, 1),
        0.25,
        &config,
        2,
    )?);
    let mut trainer = RefinementTrainer::new(
        &config,
        TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
    )?;
    let report = trainer.train(&set)?;
    println!(
        "trained on {} samples, loss {:?} -> {:?}",
        set.len(),
        report.epoch_losses.first(),
        report.final_loss()
    );

    // Distill and persist.
    let network = trainer.into_network();
    let lut = LutBuilder::new(&config)?.distill(&network, &set)?;
    println!(
        "distilled dense LUT (b={}): {} of {} entries populated, {} bytes resident",
        config.bins,
        lut.populated(),
        lut.key_space(),
        lut.memory_bytes()
    );
    let header = LutHeader {
        receptive_field: config.receptive_field,
        bins: config.bins,
    };
    let path = std::env::temp_dir().join("volut_example.vlut");
    write(&lut, header, &path)?;
    println!(
        "wrote {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // Reload and use on unseen content (the "Loot" stand-in) to check
    // generalization, like the paper's cross-video evaluation.
    let loaded = read_lut(&path)?;
    println!(
        "reloaded LUT: {} entries, n={} b={}",
        loaded.lut.populated(),
        loaded.header.receptive_field,
        loaded.header.bins
    );
    let refiner = LutRefiner::from_config(&config, KeyScheme::Compact, Box::new(loaded.lut))?;
    let pipeline = SrPipeline::new(config, Box::new(refiner));

    let unseen = synthetic::humanoid(8_000, 2.0, 99);
    let low = sampling::random_downsample(&unseen, 0.25, 5)?;
    let result = pipeline.upsample(&low, 4.0)?;
    let quality = metrics::quality_report(&result.cloud, &unseen);
    println!(
        "x4 SR on unseen content: {} -> {} points, psnr {:.2} dB, chamfer {:.6}, lut hit rate {:.1}%",
        low.len(),
        result.cloud.len(),
        quality.psnr_db,
        quality.chamfer,
        result.lookup_stats.hit_rate() * 100.0
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
