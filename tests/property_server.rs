//! Determinism contract of the multi-tenant server: given the same session
//! specs and seeds, every per-session output digest and the aggregate QoE
//! must be identical across `VOLUT_WORKERS` counts (pinned here via
//! `runtime::with_workers` {1, 2, 4}) and across admission orderings. The
//! server's wall-clock observations (frame-time percentiles, deadline-miss
//! counters) are explicitly *not* covered — they measure the host, not the
//! output — so the assertions compare digests, QoE, residency and frame
//! counts only.

use std::sync::Arc;

use volut::core::config::SrConfig;
use volut::core::encoding::KeyScheme;
use volut::core::lut::{DenseLut, Lut};
use volut::core::registry::{ContentModel, ModelRegistry};
use volut::pointcloud::runtime;
use volut::stream::faults::FaultConfig;
use volut::stream::resilience::{DegradationConfig, RetentionPolicy, RobustnessStats};
use volut::stream::server::{
    IngestConfig, IngestSource, QuarantineCause, ServerConfig, SessionSpec, SrServer,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn registry() -> Arc<ModelRegistry> {
    let mut registry = ModelRegistry::new();
    // Every seventh key of a 16-bin table, so the LUT path is live.
    let config = SrConfig {
        bins: 16,
        ..SrConfig::default()
    };
    let mut lut = DenseLut::new(1 << 16).unwrap();
    for key in (0..1 << 16).step_by(7) {
        lut.set(key, [0.01, -0.005, 0.002]).unwrap();
    }
    registry.publish(ContentModel::from_dense(
        "demo",
        config,
        KeyScheme::Compact,
        lut,
        None,
    ));
    Arc::new(registry)
}

fn specs() -> Vec<SessionSpec> {
    (0..12)
        .map(|seed| SessionSpec {
            content: "demo".into(),
            seed,
            // Mixed sizes so the LPT dispatch order is non-trivial.
            points: 300 + (seed as usize % 4) * 150,
            churn: [0.0, 0.05, 0.15, 0.3][seed as usize % 4],
            frames: 5,
            ingest: IngestSource::Local,
        })
        .collect()
}

/// Runs the full spec set and returns the determinism-covered outputs,
/// keyed by session seed (admission ids differ across orderings).
fn run_server(workers: usize, order: &[usize]) -> Vec<(u64, u64, String, u64, [u64; 5])> {
    runtime::with_workers(workers, || {
        let mut server = SrServer::new(registry(), ServerConfig::default());
        let all = specs();
        for &ix in order {
            assert!(server.enqueue(all[ix].clone()));
        }
        let report = server.run(256);
        assert_eq!(report.telemetry.sessions_retired, all.len() as u64);
        assert_eq!(report.frame_errors, 0);
        let mut rows: Vec<_> = report
            .sessions
            .iter()
            .map(|s| {
                (
                    s.seed,
                    s.digest,
                    format!("{:.9}", s.qoe.normalized),
                    s.frames,
                    s.residency,
                )
            })
            .collect();
        rows.sort();
        rows
    })
}

#[test]
fn sessions_are_bit_identical_across_worker_counts() {
    let order: Vec<usize> = (0..specs().len()).collect();
    let baseline = run_server(1, &order);
    for &workers in &WORKER_COUNTS[1..] {
        let got = run_server(workers, &order);
        assert_eq!(baseline, got, "workers={workers} diverged from baseline");
    }
}

#[test]
fn sessions_are_identical_across_admission_orderings() {
    let n = specs().len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    // A fixed interleave: evens then odds.
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    let baseline = run_server(2, &forward);
    assert_eq!(baseline, run_server(2, &reverse), "reverse admission");
    assert_eq!(
        baseline,
        run_server(2, &interleaved),
        "interleaved admission"
    );
}

#[test]
fn degraded_sessions_stay_deterministic_across_workers() {
    // A budget tight enough to push sessions down the degradation ladder:
    // planned levels come from the analytic model, so the ladder walk —
    // and therefore the digests and QoE — must replay exactly at every
    // worker count.
    let run = |workers: usize| {
        runtime::with_workers(workers, || {
            let config = ServerConfig {
                // Budget sized so Full overruns for the larger frames but
                // cheaper rungs fit: sessions straddle multiple levels.
                deadline_s: 140e-6,
                degradation: Some(DegradationConfig {
                    degrade_after: 1,
                    recover_after: 2,
                    recover_margin: 0.7,
                }),
                ..ServerConfig::default()
            };
            let mut server = SrServer::new(registry(), config);
            for spec in specs() {
                assert!(server.enqueue(spec));
            }
            let report = server.run(256);
            let mut rows: Vec<_> = report
                .sessions
                .iter()
                .map(|s| {
                    (
                        s.seed,
                        s.digest,
                        format!("{:.9}", s.qoe.normalized),
                        s.residency,
                    )
                })
                .collect();
            rows.sort();
            rows
        })
    };
    let baseline = run(1);
    // At least one session must actually degrade, or the test is vacuous.
    assert!(
        baseline
            .iter()
            .any(|(_, _, _, residency)| residency[1..].iter().sum::<u64>() > 0),
        "budget did not force any degradation: {baseline:?}"
    );
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(baseline, run(workers), "workers={workers}");
    }
}

// ---------------------------------------------------------------------------
// Cross-tenant isolation under ingest faults
// ---------------------------------------------------------------------------

/// The healthy population: half local ingest, half fed through the
/// resilient delta protocol over a clean link.
fn healthy_specs() -> Vec<SessionSpec> {
    specs()
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if i % 2 == 1 {
                spec.ingest = IngestSource::Resilient(IngestConfig::default());
            }
            spec
        })
        .collect()
}

/// Extra seed rotated by CI (`CHAOS_SEED=<run id>`): it re-seeds the lossy
/// hostile tenant's fault schedule, so coverage keeps moving while the
/// isolation claim — neighbors unchanged under *any* schedule — stays the
/// assertion. 0 when unset, keeping local runs and pinned CI seeds
/// reproducible.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Two hostile tenants: one on a heavily lossy link (exercises the full
/// recovery ladder every few frames) and one whose link is permanently
/// dead (must be quarantined).
fn hostile_specs() -> Vec<SessionSpec> {
    let lossy = SessionSpec {
        content: "demo".into(),
        seed: 100,
        points: 450,
        churn: 0.15,
        frames: 5,
        ingest: IngestSource::Resilient(IngestConfig {
            faults: FaultConfig {
                drop: 0.3,
                ..FaultConfig::default()
            },
            shared_fault_seed: Some(0xC4A05 ^ chaos_seed()),
            ..IngestConfig::default()
        }),
    };
    let mut dead = lossy.clone();
    dead.seed = 101;
    dead.ingest = IngestSource::Resilient(IngestConfig {
        faults: FaultConfig {
            drop: 1.0,
            ..FaultConfig::default()
        },
        ..IngestConfig::default()
    });
    vec![lossy, dead]
}

/// Runs the healthy population (optionally with the hostile tenants mixed
/// in at deterministic positions) and returns the healthy sessions'
/// determinism-covered rows, keyed by seed.
fn run_isolation(
    workers: usize,
    order: &[usize],
    with_hostile: bool,
) -> Vec<(u64, u64, String, u64, [u64; 5])> {
    runtime::with_workers(workers, || {
        let mut server = SrServer::new(registry(), ServerConfig::default());
        let all = healthy_specs();
        let hostile = hostile_specs();
        if with_hostile {
            assert!(server.enqueue(hostile[0].clone()));
        }
        for (i, &ix) in order.iter().enumerate() {
            assert!(server.enqueue(all[ix].clone()));
            if with_hostile && i == order.len() / 2 {
                assert!(server.enqueue(hostile[1].clone()));
            }
        }
        let report = server.run(512);
        // Residency counts served frames: a frameless tick (parked,
        // exhausted or quarantined ingest) plans a level but serves none.
        for s in &report.sessions {
            assert_eq!(
                s.residency.iter().sum::<u64>(),
                s.frames,
                "residency must sum to the frames served: {s:?}"
            );
        }
        if with_hostile {
            let dead = report
                .sessions
                .iter()
                .find(|s| s.seed == 101)
                .expect("the dead-link tenant is still reported");
            assert_eq!(dead.failure, Some(QuarantineCause::RetryExhausted));
            assert_eq!(dead.frames, 0, "a dead link never serves a frame");
            assert!(report.telemetry.sessions_quarantined >= 1);
        }
        let mut rows: Vec<_> = report
            .sessions
            .iter()
            .filter(|s| s.seed < 100)
            .map(|s| {
                assert_eq!(s.failure, None, "healthy tenant quarantined: {s:?}");
                (
                    s.seed,
                    s.digest,
                    format!("{:.9}", s.qoe.normalized),
                    s.frames,
                    s.residency,
                )
            })
            .collect();
        rows.sort();
        rows
    })
}

#[test]
fn faulted_and_quarantined_tenants_never_touch_neighbors() {
    println!("isolation case: CHAOS_SEED {}", chaos_seed());
    let n = healthy_specs().len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    let baseline = run_isolation(1, &forward, false);
    assert_eq!(baseline.len(), n);
    for &workers in &WORKER_COUNTS {
        for order in [&forward, &reverse] {
            assert_eq!(
                baseline,
                run_isolation(workers, order, true),
                "hostile tenants moved a healthy tenant's bits \
                 (workers={workers}, order={order:?})"
            );
        }
    }
}

#[test]
fn resilient_ingest_is_deterministic_across_workers_and_orderings() {
    // The clean-link resilient tenants inside the healthy population must
    // themselves replay bit-identically — the ingest plane adds no
    // wall-clock or worker-order dependence.
    let n = healthy_specs().len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    let baseline = run_isolation(1, &forward, false);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(baseline, run_isolation(workers, &forward, false));
    }
    assert_eq!(baseline, run_isolation(2, &reverse, false));
}

// ---------------------------------------------------------------------------
// Origin retention under loss
// ---------------------------------------------------------------------------

/// One lossy session's served output: seed, digest, frames, quarantine
/// verdict and ingest stats.
type LossyRow = (u64, u64, u64, Option<QuarantineCause>, RobustnessStats);

/// Enough tenant frames (24 × 24 requests at 5 % loss, in bursts of about
/// four) that a seed whose link never drops is vanishingly rare.
const LOSSY_TENANTS: u64 = 24;

/// Runs lossy resilient tenants with the given origin retention and returns
/// their rows, by seed.
fn run_lossy(retention: RetentionPolicy) -> Vec<LossyRow> {
    let base_seed = chaos_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut server = SrServer::new(registry(), ServerConfig::default());
    for i in 0..LOSSY_TENANTS {
        assert!(server.enqueue(SessionSpec {
            content: "demo".into(),
            seed: base_seed.wrapping_add(i),
            points: 300 + (i as usize % 3) * 100,
            churn: 0.1,
            frames: 24,
            ingest: IngestSource::Resilient(IngestConfig {
                faults: FaultConfig::bursty_loss(0.05),
                retention,
                ..IngestConfig::default()
            }),
        }));
    }
    let report = server.run(512);
    assert_eq!(report.telemetry.sessions_retired, LOSSY_TENANTS);
    let mut rows: Vec<LossyRow> = report
        .sessions
        .iter()
        .map(|s| {
            let stats = s.ingest.expect("resilient sessions report ingest stats");
            (s.seed, s.digest, s.frames, s.failure, stats)
        })
        .collect();
    rows.sort_by_key(|row| row.0);
    rows
}

#[test]
fn origin_retention_never_changes_what_is_served() {
    // The server's origin is paced, so every request the recovery ladder
    // makes is answered from the head and the receiver's base: the default
    // two-frame window must serve exactly what an unbounded one does, down
    // to every retry, drop and recovery count.
    println!("retention case: CHAOS_SEED {}", chaos_seed());
    let paced = run_lossy(IngestConfig::default().retention);
    assert_eq!(paced, run_lossy(RetentionPolicy::unbounded()));
    let retries: u64 = paced.iter().map(|row| row.4.retries).sum();
    assert!(
        retries > 0,
        "5 % bursty loss must exercise the ladder: {paced:?}"
    );
}
