//! Multi-tenant SR server: one process, many concurrent streaming sessions
//! sharing one immutable content registry.
//!
//! The example publishes a dense Compact-scheme serving LUT into a
//! `ModelRegistry`, admits 200 churned sessions against it through the
//! server's bounded queue (capacity 64, so admission staggers), runs them to
//! retirement over the shared thread pool, and prints the aggregate
//! telemetry: throughput, frame-time percentiles from the streaming sketch,
//! QoE and reuse-rate histograms. It then shows the two levers the server
//! exists for: bytes/session with the registry shared vs cloned per
//! session, and the deadline ladder — the same workload re-run under an
//! impossible per-frame budget degrades explicitly (level residency, honest
//! QoE) instead of stalling. A final section feeds tenants through the
//! resilient delta protocol over lossy links: recovery runs inside the tick
//! loop, one tenant's permanently dead link gets it quarantined with a
//! typed cause, and every healthy tenant's output digest stays bit-identical
//! to the clean-link run.
//!
//! ```text
//! cargo run --release --example multi_tenant_server
//! ```

use std::sync::Arc;

use volut::core::config::SrConfig;
use volut::core::encoding::KeyScheme;
use volut::core::lut::dense::DenseLut;
use volut::core::lut::Lut as _;
use volut::core::registry::{ContentModel, ModelRegistry};
use volut::stream::faults::FaultConfig;
use volut::stream::resilience::DegradationConfig;
use volut::stream::server::{IngestConfig, IngestSource, ServerConfig, SessionSpec, SrServer};
use volut::stream::telemetry::UNIT_BUCKETS;

const CONTENT: &str = "long-dress";

/// One serving-scale content item: a dense LUT over all 16^4 = 65 536 keys
/// of bins = 16, one-third populated, and the bytes of that table.
/// Publishing keeps only the 16^3 keys the encoder can emit.
fn registry() -> (Arc<ModelRegistry>, usize) {
    let config = SrConfig {
        bins: 16,
        ..SrConfig::default()
    };
    let key_space = (config.bins as u128).pow(config.receptive_field as u32);
    let mut lut = DenseLut::new(key_space).expect("table within budget");
    for key in (0..key_space).step_by(3) {
        lut.set(key, [0.01, -0.004, 0.002]).expect("in-range key");
    }
    let built_bytes = lut.memory_bytes();
    let mut reg = ModelRegistry::new();
    reg.publish(ContentModel::from_dense(
        CONTENT,
        config,
        KeyScheme::Compact,
        lut,
        None,
    ));
    (Arc::new(reg), built_bytes)
}

fn specs(n: usize) -> Vec<SessionSpec> {
    (0..n as u64)
        .map(|seed| SessionSpec {
            content: CONTENT.into(),
            seed,
            points: 300 + (seed as usize % 4) * 100,
            churn: [0.0, 0.05, 0.15, 0.3][seed as usize % 4],
            frames: 6,
            ingest: IngestSource::Local,
        })
        .collect()
}

fn histogram_line(counts: &[u64; UNIT_BUCKETS]) -> String {
    counts
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{}-{}%:{c}", i * 10, (i + 1) * 10))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (registry, built_bytes) = registry();
    let sessions = 200;

    // --- 1. The serving run: bounded admission, shared registry. ---------
    println!("== multi-tenant serving: {sessions} sessions, capacity 64 ==");
    let mut server = SrServer::new(
        Arc::clone(&registry),
        ServerConfig {
            capacity: 64,
            queue_limit: sessions,
            ..ServerConfig::default()
        },
    );
    for spec in specs(sessions) {
        assert!(server.enqueue(spec));
    }
    let report = server.run(1_000);
    let t = &report.telemetry;
    println!(
        "  {} frames in {:.2}s wall -> {:.0} frames/s aggregate",
        t.frames_total, report.wall_s, report.aggregate_fps
    );
    println!(
        "  frame time p50/p95/p99: {:.3}/{:.3}/{:.3} ms (max {:.3} ms)",
        t.frame_time_p50_ms, t.frame_time_p95_ms, t.frame_time_p99_ms, t.frame_time_max_ms
    );
    println!(
        "  admitted {} | rejected {} | retired {} | deadline misses {} | frame errors {}",
        t.sessions_admitted,
        t.sessions_rejected,
        t.sessions_retired,
        t.deadline_misses,
        report.frame_errors
    );
    println!(
        "  reuse-rate histogram: {}",
        histogram_line(t.reuse_histogram.counts())
    );
    let mean_qoe = report
        .sessions
        .iter()
        .map(|s| s.qoe.normalized)
        .sum::<f64>()
        / report.sessions.len().max(1) as f64;
    println!("  mean normalized QoE across sessions: {mean_qoe:.2}");

    // --- 2. What sharing the registry buys. ------------------------------
    println!("\n== bytes/session: shared registry vs per-session clones ==");
    println!(
        "  table  : {} bytes served, of the {built_bytes} bytes built over the whole key space",
        registry.shared_bytes()
    );
    // A local group, and one fed through the resilient delta protocol,
    // whose tenants also hold the origin's retention and the receiver's
    // delta base.
    let groups = [
        ("local", IngestSource::Local),
        (
            "resilient",
            IngestSource::Resilient(IngestConfig::default()),
        ),
    ];
    for (group, ingest) in groups {
        let mut s = SrServer::new(
            Arc::clone(&registry),
            ServerConfig {
                capacity: 32,
                queue_limit: 32,
                ..ServerConfig::default()
            },
        );
        for mut spec in specs(32) {
            spec.ingest = ingest.clone();
            s.enqueue(spec);
        }
        s.tick();
        s.tick();
        let m = s.memory_stats();
        println!(
            "  {group} group, shared : {:>10.0} bytes/session ({} sessions; table {} bytes held once)",
            m.bytes_per_session, m.sessions, m.registry_bytes,
        );
        println!(
            "  {group} group, cloned : {:>10.0} bytes/session (shared + one table copy per session)",
            m.bytes_per_session + m.registry_bytes as f64,
        );
        // What a resident tenant keeps between frames, by component — and
        // what it does not: per-frame scratch is held per worker.
        let per = |bytes: usize| bytes / m.sessions.max(1);
        let b = &m.session_bytes;
        println!(
            "           per session: index {} | rows {} | outputs {} | refined {} | \
             frame cloud {} | retention {} | delta base {} | fixed {}",
            per(b.index),
            per(b.rows),
            per(b.outputs),
            per(b.refined),
            per(b.frame_cloud),
            per(b.retention),
            per(b.delta_base),
            per(b.fixed),
        );
        println!(
            "           frame arenas: {} bytes, held once per worker ({} workers), \
             not per session",
            m.arena_bytes,
            volut::pointcloud::runtime::current_workers(),
        );
    }

    // --- 3. The deadline ladder under an impossible budget. ---------------
    println!("\n== same workload, 50 us frame deadline: explicit degradation ==");
    let mut strained = SrServer::new(
        Arc::clone(&registry),
        ServerConfig {
            capacity: 64,
            queue_limit: 64,
            deadline_s: 50e-6,
            degradation: Some(DegradationConfig {
                degrade_after: 1,
                recover_after: 3,
                ..DegradationConfig::default()
            }),
            ..ServerConfig::default()
        },
    );
    for spec in specs(64) {
        strained.enqueue(spec);
    }
    let degraded = strained.run(1_000);
    let mut residency = [0u64; 5];
    for s in &degraded.sessions {
        for (acc, r) in residency.iter_mut().zip(s.residency) {
            *acc += r;
        }
    }
    let strained_qoe = degraded
        .sessions
        .iter()
        .map(|s| s.qoe.normalized)
        .sum::<f64>()
        / degraded.sessions.len().max(1) as f64;
    println!(
        "  level residency [full, skip-refine, reduced-ratio, interp-only, passthrough]: {residency:?}"
    );
    println!(
        "  frame errors {} (degradation sheds work, never corrupts); mean QoE {:.2} (honest cost)",
        degraded.frame_errors, strained_qoe
    );
    assert_eq!(degraded.frame_errors, 0);

    // --- 4. Resilient ingest: lossy links, quarantine, bit-identity. ------
    println!("\n== resilient ingest: 24 tenants on 2% burst-loss links + 1 dead link ==");
    let chaos_config = ServerConfig {
        capacity: 32,
        queue_limit: 32,
        degradation: None, // isolate the transport path for digest compares
        ..ServerConfig::default()
    };
    let run_chaos = |faulted: bool| {
        let mut s = SrServer::new(Arc::clone(&registry), chaos_config.clone());
        for mut spec in specs(24) {
            spec.ingest = IngestSource::Resilient(IngestConfig {
                faults: if faulted {
                    FaultConfig::bursty_loss(0.02)
                } else {
                    FaultConfig::lossless()
                },
                ..IngestConfig::default()
            });
            assert!(s.enqueue(spec));
        }
        if faulted {
            // One tenant whose link never delivers: quarantined, not served.
            let mut dead = specs(1).remove(0);
            dead.seed = 999;
            dead.ingest = IngestSource::Resilient(IngestConfig {
                faults: FaultConfig {
                    drop: 1.0,
                    ..FaultConfig::default()
                },
                ..IngestConfig::default()
            });
            assert!(s.enqueue(dead));
        }
        s.run(1_000)
    };
    let clean = run_chaos(false);
    let chaos = run_chaos(true);
    let ingest = &chaos.telemetry.ingest;
    println!(
        "  recoveries: {} retransmit | {} compose | {} keyframe resync | {} poisonings detected",
        ingest.recovered_retransmit,
        ingest.recovered_compose,
        ingest.recovered_keyframe,
        ingest.poisonings_detected
    );
    let quarantined: Vec<_> = chaos
        .sessions
        .iter()
        .filter(|r| r.failure.is_some())
        .collect();
    for q in &quarantined {
        println!(
            "  quarantined tenant seed {}: {:?} after {} frames",
            q.seed, q.failure, q.frames
        );
    }
    assert_eq!(chaos.telemetry.sessions_quarantined, 1);
    let digests = |report: &volut::stream::server::ServerReport| {
        let mut rows: Vec<(u64, u64)> = report
            .sessions
            .iter()
            .filter(|r| r.seed < 999)
            .map(|r| (r.seed, r.digest))
            .collect();
        rows.sort_unstable();
        rows
    };
    assert_eq!(
        digests(&clean),
        digests(&chaos),
        "healthy tenants must be bit-identical to the clean-link run"
    );
    println!("  all 24 healthy tenants bit-identical to the clean-link run");
    Ok(())
}
