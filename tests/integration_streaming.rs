//! Integration tests spanning the streaming substrate and the SR core: full
//! sessions for every system variant, the delta origin feeding the SR
//! pipeline over the resilient wire, and the paper's headline orderings.

use std::sync::Arc;
use volut::core::refine::IdentityRefiner;
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::{metrics, sampling, synthetic, PointCloud};
use volut::stream::chunk::chunk_video;
use volut::stream::client::SrSession;
use volut::stream::faults::{FaultConfig, OwnedFaultyLink};
use volut::stream::resilience::{DeltaServer, ResilientSession};
use volut::stream::simulator::{SessionConfig, StreamingSimulator};
use volut::stream::systems::SystemKind;
use volut::stream::trace::NetworkTrace;
use volut::stream::video::VideoMeta;

#[test]
fn every_system_variant_completes_a_session() {
    let sim = StreamingSimulator::new(SessionConfig::default());
    let mut video = VideoMeta::long_dress();
    video.frame_count = 900; // 30 s
    let trace = NetworkTrace::synthetic_lte(60.0, 20.0, 120.0, 5);
    for system in SystemKind::all() {
        let r = sim.run(&video, &trace, system).unwrap();
        assert_eq!(r.timeline.len(), 30, "{system:?}");
        assert!(r.data_bytes > 0, "{system:?}");
        assert!(
            r.qoe.normalized >= 0.0 && r.qoe.normalized <= 100.0,
            "{system:?}"
        );
        assert!(
            r.mean_fetch_density > 0.0 && r.mean_fetch_density <= 1.0,
            "{system:?}"
        );
    }
}

#[test]
fn headline_claims_hold_in_shape() {
    // Bandwidth reduction vs raw streaming and QoE advantage over Yuzu-SR.
    let sim = StreamingSimulator::new(SessionConfig::default());
    let mut video = VideoMeta::long_dress();
    video.frame_count = 1800; // 60 s
    let stable = NetworkTrace::stable(50.0, 120.0);

    let volut = sim
        .run(&video, &stable, SystemKind::VolutContinuous)
        .unwrap();
    let yuzu = sim.run(&video, &stable, SystemKind::YuzuSr).unwrap();
    let full_bytes: u64 = chunk_video(&video, sim.config().chunk_duration_s)
        .iter()
        .map(|c| c.encoded_bytes(1.0))
        .sum();

    // Paper: ~70% bandwidth reduction vs raw full-density streaming.
    let fraction = volut.data_bytes as f64 / full_bytes as f64;
    assert!(
        fraction < 0.35,
        "expected < 35% of raw bytes, got {fraction:.3}"
    );
    // Paper: higher QoE than Yuzu-SR with less data.
    assert!(volut.qoe.normalized > yuzu.qoe.normalized);
    assert!(volut.data_bytes < yuzu.data_bytes);
}

#[test]
fn delta_server_feeds_the_sr_pipeline() {
    // The origin holds downsampled frames; the client fetches one over the
    // resilient wire and upsamples it back toward full density — the data
    // path of Figure 2 minus the network.
    let density = 0.5;
    let full: Vec<PointCloud> = (0..3)
        .map(|i| synthetic::humanoid(2_000, i as f32 * 0.21, 9))
        .collect();
    let mut server = DeltaServer::new(Vec::new());
    let mut shipped = Vec::new();
    for (i, frame) in full.iter().enumerate() {
        let low = sampling::random_downsample(frame, density, 4 + i as u64).unwrap();
        shipped.push(low.clone());
        server.push_frame(low);
    }
    assert!(server.keyframe_message(1).unwrap().len() < full[1].byte_size());

    let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
    let mut link = OwnedFaultyLink::new(trace, FaultConfig::lossless(), 1);
    let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
    let mut session = ResilientSession::new(SrSession::new(pipeline));
    let reconstructed = session
        .advance(&server, &mut link, 1, 1.0 / density)
        .unwrap();

    let (gt, received) = (&full[1], &shipped[1]);
    let relative_gap = (reconstructed.cloud.len() as f64 - gt.len() as f64).abs() / gt.len() as f64;
    assert!(
        relative_gap < 0.1,
        "post-SR density should approach the original"
    );
    assert!(
        metrics::one_sided_chamfer(gt, &reconstructed.cloud)
            < metrics::one_sided_chamfer(gt, received)
    );
}

#[test]
fn lte_traces_are_harder_than_stable_for_every_system() {
    let sim = StreamingSimulator::new(SessionConfig::default());
    let mut video = VideoMeta::loot();
    video.frame_count = 900;
    let stable = NetworkTrace::stable(50.0, 60.0);
    let lte = NetworkTrace::synthetic_lte(32.5, 13.5, 60.0, 3);
    for system in [SystemKind::VolutContinuous, SystemKind::YuzuSr] {
        let s = sim.run(&video, &stable, system).unwrap();
        let l = sim.run(&video, &lte, system).unwrap();
        assert!(
            l.qoe.normalized <= s.qoe.normalized + 5.0,
            "{system:?}: lte {} should not beat stable {}",
            l.qoe.normalized,
            s.qoe.normalized
        );
    }
}
