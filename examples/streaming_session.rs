//! End-to-end streaming session: plays the "Long Dress" stand-in over an LTE
//! trace with VoLUT, Yuzu-SR and ViVo, printing the per-system QoE, stall
//! and data usage plus a short excerpt of VoLUT's chunk timeline. A live
//! delta-frame SR session is driven first: a churned frame sequence (the
//! synthetic stand-in for chunked volumetric delivery) runs through the
//! engine's temporally coherent incremental kNN path, its per-stage timings
//! calibrate the compute model, and the simulator then prices VoLUT's chunks
//! with that temporally-coherent cost instead of the cold-frame constants.
//!
//! ```text
//! cargo run --release --example streaming_session
//! ```

use std::sync::Arc;
use volut::core::refine::IdentityRefiner;
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::synthetic;
use volut::pointcloud::synthetic::DeltaStreamConfig;
use volut::stream::chunk::chunk_video;
use volut::stream::client::SrSession;
use volut::stream::faults::{FaultConfig, OwnedFaultyLink};
use volut::stream::resilience::{DeltaServer, ResilientSession};
use volut::stream::simulator::{SessionConfig, StreamingSimulator};
use volut::stream::systems::SystemKind;
use volut::stream::trace::NetworkTrace;
use volut::stream::video::VideoMeta;

/// Drives a live churned SR session and reports what temporal coherence
/// buys, returning the compute model the simulator should price VoLUT with:
/// the stock `volut_lut` constants with only the **kNN term** replaced by
/// the live churned measurement. The session runs an identity refiner (no
/// trained LUT exists in this example), so its interpolate/colorize/refine
/// timings are not representative — substituting just the knn term keeps
/// the cross-system comparison fair while still crediting the temporal
/// reuse this measurement demonstrates.
fn live_churned_calibration() -> Result<volut::stream::client::SrComputeModel, volut::core::Error> {
    let base = synthetic::humanoid(20_000, 0.5, 7);
    let churn = 0.1;
    let frames = 8;
    println!(
        "live delta-frame session: {} points, {:.0}% churn per frame, {frames} frames",
        base.len(),
        churn * 100.0
    );
    let mut session = SrSession::new(SrPipeline::new(
        SrConfig::default(),
        Box::new(IdentityRefiner),
    ));
    let measured = session.calibrate_model_churned(&base, 2.0, churn, frames)?;
    let t = session.temporal_stats();
    println!(
        "  index: {} rebuilt / {} patched; rows: {} reused / {} recomputed ({:.0}% reused)",
        t.rebuilds,
        t.patches,
        t.rows_reused,
        t.rows_recomputed,
        100.0 * t.rows_reused as f64 / (t.rows_reused + t.rows_recomputed) as f64,
    );
    let mut model = volut::stream::client::SrComputeModel::volut_lut();
    println!(
        "  frames: {} incremental / {} full; knn cost: {:.3} us/point measured vs {:.3} cold default",
        t.incremental_frames, t.full_frames, measured.knn_us_per_input_point, model.knn_us_per_input_point
    );
    model.knn_us_per_input_point = measured.knn_us_per_input_point;
    Ok(model)
}

/// Streams a churned delta-frame sequence over a link with 2% burst loss
/// (plus occasional corruption) through the resilient session protocol,
/// then re-runs the identical sequence over a clean link and checks the
/// final upsampled frames are bit-identical — faults cost recovery time,
/// never correctness.
fn lossy_delta_session() -> Result<(), Box<dyn std::error::Error>> {
    let base = synthetic::humanoid(8_000, 0.5, 11);
    let frames = synthetic::delta_frame_sequence(
        &base,
        60,
        DeltaStreamConfig {
            churn: 0.1,
            drift: 0.04,
            jitter: 0.008,
            seed: 11,
        },
    );
    let server = DeltaServer::new(frames);
    let trace = Arc::new(NetworkTrace::stable(60.0, 600.0));
    let make_session = || {
        ResilientSession::new(SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        )))
    };

    println!("\nlossy delta streaming: 60 frames, 10% churn, 2% burst loss");
    let mut lossy_link =
        OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::bursty_loss(0.02), 16);
    let mut clean_link = OwnedFaultyLink::new(trace, FaultConfig::lossless(), 16);
    let mut lossy = make_session();
    let mut clean = make_session();
    let mut identical = 0usize;
    for seq in 0..server.frame_count() as u64 {
        let a = lossy.advance(&server, &mut lossy_link, seq, 2.0)?;
        let b = clean.advance(&server, &mut clean_link, seq, 2.0)?;
        if a.cloud == b.cloud {
            identical += 1;
        }
    }
    let stats = lossy.stats();
    println!(
        "  link: {} drops seen, {} integrity failures, {} retries",
        stats.drops_seen, stats.integrity_failures, stats.retries
    );
    println!(
        "  recovered: {} spliced (compose), {} retransmitted, {} keyframe resyncs",
        stats.recovered_compose, stats.recovered_retransmit, stats.recovered_keyframe
    );
    println!(
        "  output: {identical}/{} frames bit-identical to the clean run; \
         session time {:.2}s (clean {:.2}s)",
        server.frame_count(),
        lossy.clock_s(),
        clean.clock_s()
    );
    assert_eq!(
        identical,
        server.frame_count(),
        "faults must never change output"
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let churned_model = live_churned_calibration()?;
    lossy_delta_session()?;

    // Two minutes of 100K-point content at 30 FPS.
    let mut video = VideoMeta::long_dress();
    video.frame_count = 3600;
    let trace = NetworkTrace::synthetic_lte(32.5, 13.5, video.duration_s() + 60.0, 7);
    println!(
        "video: {} ({:.0} s, {:.0} Mbps raw, {:.0} Mbps compressed) over trace {} (mean {:.1} Mbps, std {:.1})",
        video.name,
        video.duration_s(),
        video.raw_bitrate_mbps(),
        video.compressed_bitrate_mbps(),
        trace.name,
        trace.mean_mbps(),
        trace.std_mbps()
    );

    let sim = StreamingSimulator::new(SessionConfig::default());
    let full_bytes: u64 = chunk_video(&video, sim.config().chunk_duration_s)
        .iter()
        .map(|c| c.encoded_bytes(1.0))
        .sum();

    println!(
        "\n{:<32} {:>8} {:>9} {:>10} {:>12}",
        "system", "QoE", "stall(s)", "data (MB)", "vs full (%)"
    );
    for system in [
        SystemKind::VolutContinuous,
        SystemKind::YuzuSr,
        SystemKind::Vivo,
        SystemKind::Raw,
    ] {
        // VoLUT's compute cost comes from the live churned calibration
        // above, so the simulator charges temporally-coherent frame costs.
        let r = if system == SystemKind::VolutContinuous {
            sim.run_with_model(&video, &trace, system, churned_model.clone())?
        } else {
            sim.run(&video, &trace, system)?
        };
        println!(
            "{:<32} {:>8.1} {:>9.1} {:>10.1} {:>11.1}%",
            system.label(),
            r.qoe.normalized,
            r.stall_s,
            r.data_bytes as f64 / 1e6,
            r.data_bytes as f64 / full_bytes as f64 * 100.0
        );
    }

    // Show how the continuous controller adapts chunk by chunk.
    let volut = sim.run(&video, &trace, SystemKind::VolutContinuous)?;
    println!("\nVoLUT timeline (first 10 chunks):");
    println!(
        "{:>5} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "chunk", "density", "SR", "quality", "buffer", "stall"
    );
    for record in volut.timeline.iter().take(10) {
        println!(
            "{:>5} {:>9.3} {:>7.1}x {:>9.2} {:>8.1}s {:>7.2}s",
            record.index,
            record.fetch_density,
            record.sr_ratio,
            record.displayed_quality,
            record.buffer_after_s,
            record.stall_s
        );
    }
    Ok(())
}
