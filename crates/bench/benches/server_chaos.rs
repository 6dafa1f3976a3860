//! Server chaos bench: burst loss × tenant count sweep over the
//! multi-tenant server's resilient ingest plane.
//!
//! Every cell runs the same tenant population twice — once over lossless
//! ingest links, once over Gilbert–Elliott burst-loss links — and compares
//! per-tenant output digests: the recovery ladder inside the tick loop must
//! make every non-quarantined tenant bit-identical to its clean-link twin
//! (zero poisoned frames served, by construction of the comparison). On top
//! of the sweep two probes pin the tentpole's failure semantics: an
//! *isolation* probe forces one tenant's link permanently dead and checks
//! it is quarantined with a typed cause while every healthy neighbor's
//! digest stays untouched, and an *overload* probe strangles the deadline
//! to verify admission shedding and explicit degradation escalation are
//! counted, never silent. The acceptance cell (N = 64, 2% burst loss, 10%
//! churn) is asserted in every mode, including CI's quick `--test` runs;
//! outside quick mode the full sweep is committed to
//! `results/server_robustness.json`.
//!
//! `CHAOS_SEED=<n>` rotates the session/fault seed base (CI passes the run
//! id); unset it falls back to 0 so local runs reproduce the committed
//! numbers.

use criterion::{criterion_group, criterion_main, is_quick_mode, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use volut_bench::memory::{serving_registry, SERVING_CONTENT};
use volut_core::registry::ModelRegistry;
use volut_stream::faults::FaultConfig;
use volut_stream::resilience::{DegradationConfig, RetryPolicy};
use volut_stream::server::{
    IngestConfig, IngestSource, OverloadPolicy, ServerConfig, ServerReport, SessionSpec, SrServer,
};

const CHURN: f64 = 0.10;

/// Extra seed rotated by CI (`CHAOS_SEED=<run id>`); 0 when unset so local
/// runs and the pinned CI seeds stay reproducible.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[derive(Serialize)]
struct CellReport {
    loss_rate: f64,
    sessions: usize,
    churn: f64,
    frames_total: u64,
    sessions_retired: u64,
    sessions_quarantined: u64,
    digest_identical_sessions: usize,
    clean_frames: u64,
    recovered_compose: u64,
    recovered_retransmit: u64,
    recovered_keyframe: u64,
    retries: u64,
    drops_seen: u64,
    integrity_failures: u64,
    poisonings_detected: u64,
    resync_grants: u64,
    resync_deferrals: u64,
    mean_qoe: f64,
    wall_s: f64,
}

#[derive(Serialize)]
struct IsolationProbe {
    sessions: usize,
    loss_rate: f64,
    quarantined: u64,
    quarantine_cause: String,
    dead_tenant_frames: u64,
    healthy_digest_changes: usize,
}

#[derive(Serialize)]
struct OverloadProbe {
    offered_sessions: usize,
    sessions_shed: u64,
    overload_escalations: u64,
    peak_overload_level: u32,
    sessions_retired: u64,
}

#[derive(Serialize)]
struct Report {
    description: String,
    recorded: String,
    pr: u64,
    chaos_seed: u64,
    workload: String,
    sweep: Vec<CellReport>,
    isolation: IsolationProbe,
    overload: OverloadProbe,
    note: String,
}

/// Deep retry budget, like the single-session chaos sweep: these cells
/// measure recovery cost, not give-up behavior, so no tenant may be
/// quarantined by a long burst inside the sweep itself.
fn sweep_ingest(faults: FaultConfig) -> IngestConfig {
    IngestConfig {
        faults,
        retry: RetryPolicy {
            max_retries: 12,
            jitter: 0.25,
            ..RetryPolicy::default()
        },
        ..IngestConfig::default()
    }
}

fn specs(n: usize, frames: u64, faults: &FaultConfig, seed_base: u64) -> Vec<SessionSpec> {
    (0..n as u64)
        .map(|i| SessionSpec {
            content: SERVING_CONTENT.into(),
            seed: seed_base.wrapping_add(i),
            points: 300 + (i as usize % 4) * 100,
            churn: CHURN,
            frames,
            ingest: IngestSource::Resilient(sweep_ingest(faults.clone())),
        })
        .collect()
}

/// Digest comparisons isolate the transport path: degradation is pinned
/// off so ingest-charged planning cannot shift levels between the clean
/// and faulted runs.
fn digest_config(n: usize) -> ServerConfig {
    ServerConfig {
        capacity: n,
        queue_limit: n.max(1),
        degradation: None,
        ..ServerConfig::default()
    }
}

fn run_population(specs: Vec<SessionSpec>, config: ServerConfig) -> ServerReport {
    let n = specs.len();
    let registry = REGISTRY.with(Arc::clone);
    let mut server = SrServer::new(registry, config);
    for spec in specs {
        assert!(server.enqueue(spec));
    }
    let report = server.run(4_096);
    assert_eq!(
        report.telemetry.sessions_retired as usize, n,
        "every tenant must retire (served or quarantined)"
    );
    report
}

thread_local! {
    /// One serving registry for the whole bench (the ~6 MiB table is
    /// shared state; rebuilding it per cell would dominate the wall time).
    static REGISTRY: Arc<ModelRegistry> = serving_registry(24);
}

fn digests(report: &ServerReport) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = report
        .sessions
        .iter()
        .filter(|s| s.failure.is_none())
        .map(|s| (s.seed, s.digest))
        .collect();
    rows.sort_unstable();
    rows
}

fn run_cell(n: usize, frames: u64, loss: f64, seed_base: u64) -> CellReport {
    let faults = if loss > 0.0 {
        FaultConfig::bursty_loss(loss)
    } else {
        FaultConfig::lossless()
    };
    let started = Instant::now();
    let clean = run_population(
        specs(n, frames, &FaultConfig::lossless(), seed_base),
        digest_config(n),
    );
    let faulted = run_population(specs(n, frames, &faults, seed_base), digest_config(n));
    let wall_s = started.elapsed().as_secs_f64();
    let clean_rows = digests(&clean);
    let faulted_rows = digests(&faulted);
    let identical = faulted_rows
        .iter()
        .filter(|row| clean_rows.binary_search(row).is_ok())
        .count();
    let t = &faulted.telemetry;
    let mean_qoe = faulted
        .sessions
        .iter()
        .map(|s| s.qoe.normalized)
        .sum::<f64>()
        / faulted.sessions.len().max(1) as f64;
    CellReport {
        loss_rate: loss,
        sessions: n,
        churn: CHURN,
        frames_total: t.frames_total,
        sessions_retired: t.sessions_retired,
        sessions_quarantined: t.sessions_quarantined,
        digest_identical_sessions: identical,
        clean_frames: t.ingest.clean_frames,
        recovered_compose: t.ingest.recovered_compose,
        recovered_retransmit: t.ingest.recovered_retransmit,
        recovered_keyframe: t.ingest.recovered_keyframe,
        retries: t.ingest.retries,
        drops_seen: t.ingest.drops_seen,
        integrity_failures: t.ingest.integrity_failures,
        poisonings_detected: t.ingest.poisonings_detected,
        resync_grants: t.resync_grants,
        resync_deferrals: t.resync_deferrals,
        mean_qoe,
        wall_s,
    }
}

/// One permanently dead link among healthy 2%-loss tenants: the dead
/// tenant must be quarantined with a typed cause and zero frames, and no
/// healthy tenant's digest may move relative to a run without it.
fn run_isolation(n: usize, frames: u64, seed_base: u64) -> IsolationProbe {
    let faults = FaultConfig::bursty_loss(0.02);
    let without = run_population(specs(n, frames, &faults, seed_base), digest_config(n));
    let mut with_dead = specs(n, frames, &faults, seed_base);
    with_dead.insert(
        n / 2,
        SessionSpec {
            content: SERVING_CONTENT.into(),
            seed: seed_base.wrapping_add(1_000_000),
            points: 500,
            churn: CHURN,
            frames,
            ingest: IngestSource::Resilient(IngestConfig {
                faults: FaultConfig {
                    drop: 1.0,
                    ..FaultConfig::default()
                },
                ..IngestConfig::default()
            }),
        },
    );
    let chaotic = run_population(with_dead, digest_config(n + 1));
    let dead = chaotic
        .sessions
        .iter()
        .find(|s| s.seed == seed_base.wrapping_add(1_000_000))
        .expect("quarantined tenants are still reported");
    let base_rows = digests(&without);
    let changed = digests(&chaotic)
        .iter()
        .filter(|row| row.0 != seed_base.wrapping_add(1_000_000))
        .filter(|row| base_rows.binary_search(row).is_err())
        .count();
    IsolationProbe {
        sessions: n,
        loss_rate: 0.02,
        quarantined: chaotic.telemetry.sessions_quarantined,
        quarantine_cause: format!("{:?}", dead.failure),
        dead_tenant_frames: dead.frames,
        healthy_digest_changes: changed,
    }
}

/// Strangled deadline + overload policy: escalation and shedding must be
/// explicit, counted events.
fn run_overload(offered: usize, frames: u64, seed_base: u64) -> OverloadProbe {
    let config = ServerConfig {
        capacity: offered / 4,
        queue_limit: offered / 2,
        deadline_s: 1e-9,
        degradation: Some(DegradationConfig {
            degrade_after: 1,
            recover_after: 1_000,
            ..DegradationConfig::default()
        }),
        overload: Some(OverloadPolicy {
            escalate_after: 1,
            relax_after: 1_000,
            ..OverloadPolicy::default()
        }),
        ..ServerConfig::default()
    };
    let registry = REGISTRY.with(Arc::clone);
    let mut server = SrServer::new(registry, config);
    let mut peak_level = 0u32;
    let mut offered_iter = (0..offered as u64).map(|i| SessionSpec {
        content: SERVING_CONTENT.into(),
        seed: seed_base.wrapping_add(i),
        points: 300 + (i as usize % 4) * 100,
        churn: CHURN,
        frames,
        ingest: IngestSource::Local,
    });
    // Trickle admissions across ticks so escalation (which needs sustained
    // pressure) is active while requests still arrive — shed requests are
    // counted by the server, not retried here.
    for _ in 0..8 {
        for spec in offered_iter.by_ref().take(offered / 8) {
            let _ = server.enqueue(spec);
        }
        server.tick();
        peak_level = peak_level.max(server.telemetry().overload_level);
    }
    for spec in offered_iter {
        let _ = server.enqueue(spec);
    }
    let report = server.run(4_096);
    OverloadProbe {
        offered_sessions: offered,
        sessions_shed: report.telemetry.sessions_shed,
        overload_escalations: report.telemetry.overload_escalations,
        peak_overload_level: peak_level.max(report.telemetry.overload_level),
        sessions_retired: report.telemetry.sessions_retired,
    }
}

fn bench_server_chaos(c: &mut Criterion) {
    let quick = is_quick_mode();
    let frames = if quick { 4 } else { 6 };
    let seed_base = 10_000 + chaos_seed().wrapping_mul(0x9E37_79B9);
    println!(
        "server_chaos (burst loss x tenants, churn {:.0}%, CHAOS_SEED {}):",
        CHURN * 100.0,
        chaos_seed()
    );
    println!(
        "  {:>6} {:>5} | {:>9} {:>6} {:>9} {:>8} {:>7} {:>7} {:>7} | {:>8}",
        "loss", "N", "identical", "quar", "recovered", "retries", "keyfr", "grants", "defer", "QoE"
    );

    let losses: &[f64] = if quick {
        &[0.02]
    } else {
        &[0.0, 0.02, 0.05, 0.10]
    };
    let tenant_counts: &[usize] = if quick { &[64] } else { &[16, 64, 256] };
    let mut sweep = Vec::new();
    for (li, &loss) in losses.iter().enumerate() {
        for (ni, &n) in tenant_counts.iter().enumerate() {
            let cell = run_cell(n, frames, loss, seed_base + (li * 16 + ni) as u64);
            println!(
                "  {:>5.0}% {:>5} | {:>4}/{:<4} {:>6} {:>9} {:>8} {:>7} {:>7} {:>7} | {:>7.2}",
                loss * 100.0,
                n,
                cell.digest_identical_sessions,
                cell.sessions_retired - cell.sessions_quarantined,
                cell.sessions_quarantined,
                cell.recovered_compose + cell.recovered_retransmit + cell.recovered_keyframe,
                cell.retries,
                cell.recovered_keyframe,
                cell.resync_grants,
                cell.resync_deferrals,
                cell.mean_qoe,
            );
            assert_eq!(
                cell.digest_identical_sessions as u64,
                cell.sessions_retired - cell.sessions_quarantined,
                "every non-quarantined tenant must be bit-identical to its \
                 clean-link twin (loss {loss}, N {n})"
            );
            if loss == 0.02 {
                // The acceptance cell additionally forbids quarantine: 2%
                // burst loss is a recoverable link, not a dead one.
                assert_eq!(
                    cell.sessions_quarantined, 0,
                    "acceptance: no tenant may be quarantined at 2% loss"
                );
            }
            sweep.push(cell);
        }
    }

    let isolation = run_isolation(if quick { 16 } else { 64 }, frames, seed_base + 777);
    println!(
        "  isolation: {} quarantined ({}, {} frames), {} healthy digest changes",
        isolation.quarantined,
        isolation.quarantine_cause,
        isolation.dead_tenant_frames,
        isolation.healthy_digest_changes
    );
    assert_eq!(
        isolation.quarantined, 1,
        "the dead link must be quarantined"
    );
    assert_eq!(
        isolation.dead_tenant_frames, 0,
        "a dead link never serves a frame"
    );
    assert_eq!(
        isolation.healthy_digest_changes, 0,
        "one tenant's permanent failure must not move any neighbor's bits"
    );

    let overload = run_overload(if quick { 32 } else { 128 }, frames, seed_base + 999);
    println!(
        "  overload: {} shed, {} escalations (peak level {}), {} retired",
        overload.sessions_shed,
        overload.overload_escalations,
        overload.peak_overload_level,
        overload.sessions_retired
    );
    assert!(
        overload.overload_escalations >= 1,
        "a strangled deadline must escalate the overload level"
    );
    assert!(
        overload.sessions_shed >= 1,
        "overload must tighten admission and count the shed requests"
    );

    if !quick {
        let report = Report {
            description: "Chaos sweep over the multi-tenant server's resilient ingest \
                          plane: Gilbert-Elliott burst loss x tenant count at 10% churn, \
                          with per-tenant digest comparison against a clean-link twin \
                          run, plus isolation (one permanently dead link) and overload \
                          (strangled deadline) probes. Regenerate with `cargo bench -p \
                          volut-bench --bench server_chaos`."
                .into(),
            recorded: "2026-08-09".into(),
            pr: 10,
            chaos_seed: chaos_seed(),
            workload: format!(
                "{frames} frames/session, 300-600 point frames, 10% churn, x2 SR over \
                 the 24-bin Compact serving LUT; ingest: 80 Mbps links, GE bursts (mean \
                 burst 4 messages), retry policy 12 retries / 20 ms backoff / 25% \
                 seeded jitter, resync budget 8/tick, degradation pinned off for \
                 digest comparability"
            ),
            sweep,
            isolation,
            overload,
            note: "digest_identical_sessions == non-quarantined sessions in every \
                   cell: the recovery ladder inside the tick loop restores bit-exact \
                   output at every loss rate and tenant count, so zero poisoned frames \
                   were ever served. The isolation probe pins the blast radius: the \
                   dead tenant retires as RetryExhausted with zero frames and zero \
                   neighbor digests move. The overload probe shows shedding and \
                   escalation as counted, explicit events."
                .into(),
        };
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/server_robustness.json"
        );
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json + "\n") {
                    println!("  warning: could not write {path}: {e}");
                } else {
                    println!("  wrote {path}");
                }
            }
            Err(e) => println!("  warning: could not serialize server robustness report: {e}"),
        }
    }

    // Criterion hook: one full server tick at N=16 under lossless vs 2%
    // burst-loss ingest, so the harness lists/runs this like any bench and
    // CI's smoke mode exercises the ingest plane end to end.
    let mut group = c.benchmark_group("server_tick_16_tenants");
    group.sample_size(10);
    for (name, faults) in [
        ("lossless_ingest", FaultConfig::lossless()),
        ("burst_2pct_ingest", FaultConfig::bursty_loss(0.02)),
    ] {
        group.bench_function(name, |b| {
            let registry = REGISTRY.with(Arc::clone);
            let mut server = SrServer::new(registry, digest_config(16));
            for spec in specs(16, u64::MAX / 2, &faults, 42) {
                assert!(server.enqueue(spec));
            }
            b.iter(|| {
                server.tick();
                black_box(server.telemetry().frames_total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_server_chaos);
criterion_main!(benches);
