//! Figure 15: GPU/client memory usage of the SR back-ends, plus the
//! multi-tenant server's bytes/session accounting (shared registry vs what
//! per-session table clones would cost).

use std::sync::Arc;

use crate::report::Report;
use crate::setup::TrainedArtifacts;
use volut_core::device::DeviceProfile;
use volut_core::encoding::{KeyScheme, PositionEncoder};
use volut_core::lut::dense::DenseLut;
use volut_core::lut::memory::MemoryModel;
use volut_core::lut::Lut as _;
use volut_core::registry::{ContentModel, ModelRegistry};
use volut_core::SrConfig;
use volut_stream::server::{ServerConfig, ServerMemoryStats, SessionSpec, SrServer};

/// Name of the content item published by [`serving_registry`].
pub const SERVING_CONTENT: &str = "serving-demo";

/// One deployment-scale content item: a dense LUT over the encoder's
/// [`PositionEncoder::reachable_keys`] — the keys a probe can carry, `1/P`
/// of the packed key space `(P = 2^ceil(log2 bins))^n` — one-third
/// populated so probes exercise both hit and miss paths. At the paper's
/// `bins = 128` that is 2²¹ entries, ~12.3 MiB — the quantity a
/// per-session clone multiplies by the session count.
pub fn serving_registry(bins: usize) -> Arc<ModelRegistry> {
    let config = SrConfig {
        bins,
        ..SrConfig::default()
    };
    let keys = PositionEncoder::new(&config, KeyScheme::Compact)
        .expect("valid serving config")
        .reachable_keys();
    let mut lut = DenseLut::over(keys.clone()).expect("serving table within budget");
    for key in keys.step_by(3) {
        lut.set(key, [0.01, -0.004, 0.002]).expect("in-range key");
    }
    let mut registry = ModelRegistry::new();
    registry.publish(ContentModel::from_dense(
        SERVING_CONTENT,
        config,
        KeyScheme::Compact,
        lut,
        None,
    ));
    Arc::new(registry)
}

/// Admits `sessions` churned sessions against the serving registry, runs
/// `warm_frames` ticks so every scratch arena reaches its steady-state
/// high-water mark, and returns the measured memory split.
pub fn measure_server_memory(
    registry: &Arc<ModelRegistry>,
    sessions: usize,
    points: usize,
    warm_frames: u64,
) -> ServerMemoryStats {
    let config = ServerConfig {
        capacity: sessions,
        queue_limit: sessions,
        ..ServerConfig::default()
    };
    let mut server = SrServer::new(Arc::clone(registry), config);
    for seed in 0..sessions as u64 {
        assert!(server.enqueue(SessionSpec {
            content: SERVING_CONTENT.into(),
            seed,
            points,
            churn: 0.1,
            frames: warm_frames + 1, // stay active through every warm tick
            ingest: volut_stream::server::IngestSource::Local,
        }));
    }
    for _ in 0..warm_frames.max(1) {
        server.tick();
    }
    server.memory_stats()
}

/// Regenerates Figure 15: resident memory of GradPU, Yuzu (frozen models)
/// and VoLUT's single LUT for a 100K-point frame workload.
pub fn fig15_memory(artifacts: &TrainedArtifacts) -> Report {
    let mut report = Report::new(
        "fig15",
        "Client SR memory usage (100K-point frames)",
        &[
            "Method",
            "Resident bytes",
            "Human readable",
            "Fits Quest-3-class device (8 GiB, 50% headroom)",
        ],
    );
    let points_per_frame = 100_000;
    let device = DeviceProfile::orange_pi();

    let gradpu_bytes = artifacts.gradpu().memory_bytes(points_per_frame) as u128;
    let yuzu_bytes = artifacts.yuzu().memory_bytes(points_per_frame) as u128;
    // The paper ships an n=4, b=128 table; this reproduction's is the same
    // layout at 32 bins. Report both so the comparison against the paper's
    // 1.6 GB figure is explicit.
    let paper_bytes = MemoryModel::new(4, 128).compact_bytes();
    let table_bytes = artifacts.trained.lut.memory_bytes() as u128;

    for (name, bytes) in [
        ("GradPU (activations + weights)", gradpu_bytes),
        ("Yuzu-SR (frozen per-ratio models)", yuzu_bytes),
        ("VoLUT dense LUT (paper config n=4, b=128)", paper_bytes),
        ("VoLUT dense LUT (this reproduction, b=32)", table_bytes),
    ] {
        report.add_row(vec![
            name.to_string(),
            bytes.to_string(),
            MemoryModel::format_bytes(bytes),
            if device.fits_in_memory(bytes, 0.5) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    report.push_note("paper: VoLUT improves GPU memory usage by 86% vs GradPU and is comparable to Yuzu's frozen models");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::test_artifacts;

    #[test]
    fn memory_ordering_matches_paper_claims() {
        let artifacts = test_artifacts();
        let r = fig15_memory(artifacts);
        assert_eq!(r.rows.len(), 4);
        let bytes: Vec<u128> = r.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        // GradPU (activations for the whole batch) uses the most memory of
        // the neural back-ends.
        assert!(
            bytes[0] > bytes[1],
            "gradpu {} should exceed yuzu {}",
            bytes[0],
            bytes[1]
        );
        // The trained table (32 bins in the harness, 16 here) is far smaller
        // than the paper's 128-bin one, and at most 14% of GradPU's working
        // set (the paper:
        // VoLUT improves GPU memory usage by 86% vs GradPU).
        assert!(bytes[3] < bytes[2]);
        assert!(
            bytes[3] * 100 <= bytes[0] * 14,
            "lut {} should be at most 14% of gradpu {}",
            bytes[3],
            bytes[0]
        );
        // Everything the client actually deploys fits a Quest-3-class device.
        assert_eq!(r.rows[3][3], "yes");
    }

    #[test]
    fn server_sharing_beats_cloning_by_4x() {
        // A session's marginal bytes are scratch-scale, so the shared mode
        // must undercut the cloned baseline (shared + one table) by at least
        // 4× at any session count; the ledger's `server.bytes_per_session`
        // and `server.registry_bytes` rows read the same split at N = 2048.
        let registry = serving_registry(128);
        let table = registry.shared_bytes();
        assert!(table > 1_000_000, "deployment-scale table, got {table}");
        let shared = measure_server_memory(&registry, 6, 400, 2);
        assert_eq!(shared.sessions, 6);
        assert_eq!(shared.registry_bytes, table, "the table is held once");
        let cloned = shared.bytes_per_session + table as f64;
        assert!(
            shared.bytes_per_session <= 0.25 * cloned,
            "shared {} must be <= 25% of cloned {cloned}",
            shared.bytes_per_session,
        );
    }

    #[test]
    fn served_frames_hit_the_serving_table() {
        // The table must cover the keys the encoder emits: sized `bins^n`
        // it once sat below every key the pipeline produces and served
        // frames never applied a LUT offset. 24 bins pack into 5 bits.
        use volut_pointcloud::synthetic;
        use volut_stream::client::SrSession;
        let registry = serving_registry(24);
        let model = registry.get(SERVING_CONTENT).expect("published above");
        let mut session = SrSession::from_model(&model).unwrap();
        let served = session
            .upsample_frame(&synthetic::humanoid(512, 0.3, 1), 2.0)
            .unwrap();
        let stats = served.lookup_stats;
        assert!(stats.hits > 0, "no probe hit the serving table: {stats:?}");
        // Every third key is populated; anything far from that means keys
        // and table disagree about the key space again.
        let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        assert!((0.2..0.5).contains(&hit_rate), "hit rate {hit_rate}");
    }
}
