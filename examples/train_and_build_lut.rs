//! Offline path: train the refinement network, distill it into a LUT, save
//! the LUT to disk, reload it and use it for super-resolution — the workflow
//! a deployment would run once per content library. The network is
//! distilled twice: into this reproduction's 32-bin table and into the
//! paper's n = 4, b = 128 one, which is buildable because a table keeps
//! only the keys the encoder can emit. The example fails when the 128-bin
//! table is refused or covers more than those keys.
//!
//! ```text
//! cargo run --release --example train_and_build_lut
//! ```

use volut::core::encoding::{KeyScheme, PositionEncoder};
use volut::core::lut::io::{read_lut, write, LutHeader};
use volut::core::lut::memory::{table1_rows, MemoryModel};
use volut::core::lut::{DenseLut, Lut as _};
use volut::core::nn::train::{Recipe, TrainingFrame};
use volut::core::refine::LutRefiner;
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic};

type Error = Box<dyn std::error::Error>;

/// Eight epochs on several animation phases of the "Long Dress" stand-in,
/// at `config`'s bins.
fn recipe(config: SrConfig) -> Recipe {
    let frame = |phase: f32, keep_ratio: f64, seed: u64| TrainingFrame {
        cloud: synthetic::humanoid(6_000, phase, 1),
        keep_ratio,
        seed,
    };
    Recipe {
        config,
        frames: vec![frame(0.0, 0.5, 1), frame(0.9, 0.25, 2)],
        epochs: 8,
    }
}

/// Writes a table distilled at `config`'s bins to a `.vlut` file, reloads
/// it and runs ×4 SR on unseen content (the "Loot" stand-in), like the
/// paper's cross-video evaluation. Returns the table's bytes and its hit
/// rate there.
fn serve(config: SrConfig, lut: DenseLut) -> Result<(usize, f64), Error> {
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact)?;
    let reachable = encoder.reachable_keys();
    println!(
        "distilled dense LUT (b={}): {} of {} reachable keys populated ({} keys in all), {} bytes resident",
        config.bins,
        lut.populated(),
        reachable.end - reachable.start,
        encoder.key_space(),
        lut.memory_bytes()
    );
    if lut.keys() != reachable {
        return Err(format!(
            "b={} table covers {:?}, not the reachable keys {reachable:?}",
            config.bins,
            lut.keys()
        )
        .into());
    }
    let header = LutHeader {
        receptive_field: config.receptive_field,
        bins: config.bins,
    };
    let path = std::env::temp_dir().join("volut_example.vlut");
    write(&lut, header, &path)?;
    let file_bytes = std::fs::metadata(&path)?.len();
    let loaded = read_lut(&path);
    std::fs::remove_file(&path).ok();
    let loaded = loaded?;
    println!(
        "wrote and reloaded {} ({file_bytes} bytes): {} entries, n={} b={}",
        path.display(),
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
    let hit_rate = result.lookup_stats.hit_rate();
    println!(
        "x4 SR on unseen content (b={}): {} -> {} points, psnr {:.2} dB, chamfer {:.6}, lut hit rate {:.1}%",
        config.bins,
        low.len(),
        result.cloud.len(),
        quality.psnr_db,
        quality.chamfer,
        hit_rate * 100.0
    );
    Ok((lut.memory_bytes(), hit_rate))
}

fn main() -> Result<(), Error> {
    // The deployed table of this reproduction: 32 bins, 2^15 reachable keys.
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let paper = SrConfig::default();

    // Table 1: what a dense LUT would cost for different configurations.
    println!("dense LUT memory model (paper Table 1):");
    for row in table1_rows() {
        println!(
            "  n={} b={:>3}  entries={:>12}  size={}",
            row.receptive_field, row.bins, row.entries, row.formatted
        );
    }
    let paper_encoder = PositionEncoder::new(&paper, KeyScheme::Compact)?;
    let reachable = paper_encoder.reachable_keys();
    println!(
        "paper configuration n=4, b=128 -> {} over all {} keys, over the {} table budget; {} over its {} reachable keys",
        MemoryModel::format_bytes(MemoryModel::new(4, 128).compact_bytes()),
        paper_encoder.key_space(),
        MemoryModel::format_bytes(DenseLut::DEFAULT_BYTE_BUDGET),
        MemoryModel::format_bytes((reachable.end - reachable.start) * 6),
        reachable.end - reachable.start
    );

    // One network, trained on 32-bin inputs, is distilled at both bin
    // counts: a table's hit rate depends only on its keys.
    let trained = recipe(config).run()?;
    println!(
        "trained on {} samples, loss {:?} -> {:?}",
        trained.report.samples,
        trained.report.epoch_losses.first(),
        trained.report.final_loss()
    );

    let (bytes_32, hits_32) = serve(config, trained.lut)?;
    let (bytes_128, hits_128) = serve(paper, recipe(paper).distill(&trained.network)?)?;
    println!("table  bytes       held-out hit rate");
    println!("b=32   {bytes_32:<10}  {:.1}%", hits_32 * 100.0);
    println!("b=128  {bytes_128:<10}  {:.1}%", hits_128 * 100.0);
    Ok(())
}
