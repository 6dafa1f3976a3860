//! Multi-tenant server scaling: N concurrent churned SR sessions against one
//! shared content registry, driven over the work-stealing pool.
//!
//! For each session count N the bench admits N churned sessions (every one a
//! distinct seed against the same ~6 MiB dense serving LUT), runs them to
//! retirement and records the aggregate throughput, the frame-time
//! percentiles from the server's streaming sketch, deadline misses,
//! admission rejections and the QoE distribution. A second sweep measures
//! bytes/session with the registry shared vs what cloning the table into
//! every session would cost (shared + one table). Quick mode (`--test`) runs the CI
//! smoke cell (N = 64) and asserts zero deadline misses and zero rejections;
//! the full run adds N = 1 000 and N = 10 000 and commits
//! `results/server_scaling.json`.

use criterion::{criterion_group, criterion_main, is_quick_mode, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use volut_bench::memory::{measure_server_memory, serving_registry, SERVING_CONTENT};
use volut_bench::setup::{detected_cores, log_runtime_once};
use volut_core::registry::ModelRegistry;
use volut_stream::server::{IngestSource, ServerConfig, ServerReport, SessionSpec, SrServer};

/// Points per low-res session frame. Small enough that 10 000 resident
/// sessions stay well inside host memory, large enough that interpolation +
/// LUT refinement dominate a frame step.
const POINTS: usize = 512;

/// Session churn: 10% of points replaced per frame, the mid column of the
/// chaos sweep.
const CHURN: f64 = 0.1;

#[derive(Serialize)]
struct ScalePoint {
    sessions: usize,
    frames_per_session: u64,
    frames_total: u64,
    wall_s: f64,
    aggregate_fps: f64,
    frame_time_p50_ms: f64,
    frame_time_p95_ms: f64,
    frame_time_p99_ms: f64,
    frame_time_mean_ms: f64,
    frame_time_max_ms: f64,
    deadline_misses: u64,
    deadline_miss_rate: f64,
    sessions_admitted: u64,
    sessions_rejected: u64,
    sessions_retired: u64,
    frame_errors: u64,
    mean_qoe_normalized: f64,
    mean_quality: f64,
    degradation_residency: [u64; 5],
}

#[derive(Serialize)]
struct MemoryRow {
    sessions: usize,
    mode: String,
    bytes_per_session: f64,
    registry_bytes: usize,
    shared_over_cloned: f64,
}

#[derive(Serialize)]
struct BenchReport {
    description: String,
    recorded: String,
    pr: u64,
    host_cores: usize,
    workload: String,
    scaling: Vec<ScalePoint>,
    memory: Vec<MemoryRow>,
    note: String,
}

fn spawn_specs(n: usize, frames: u64) -> Vec<SessionSpec> {
    (0..n as u64)
        .map(|seed| SessionSpec {
            content: SERVING_CONTENT.into(),
            seed,
            points: POINTS,
            churn: CHURN,
            frames,
            ingest: IngestSource::Local,
        })
        .collect()
}

/// Admits `n` sessions at once (capacity = queue = n) and runs them to
/// retirement, returning the server's closing report.
fn run_scale(registry: &Arc<ModelRegistry>, n: usize, frames: u64) -> ServerReport {
    let config = ServerConfig {
        capacity: n,
        queue_limit: n,
        ..ServerConfig::default()
    };
    let mut server = SrServer::new(Arc::clone(registry), config);
    for spec in spawn_specs(n, frames) {
        assert!(server.enqueue(spec), "queue sized to hold every spec");
    }
    server.run(frames + 4)
}

fn scale_point(registry: &Arc<ModelRegistry>, n: usize, frames: u64) -> ScalePoint {
    let report = run_scale(registry, n, frames);
    let t = &report.telemetry;
    let retired = report.sessions.len().max(1) as f64;
    let mean_qoe = report
        .sessions
        .iter()
        .map(|s| s.qoe.normalized)
        .sum::<f64>()
        / retired;
    let mean_quality = report
        .sessions
        .iter()
        .map(|s| s.qoe.mean_quality)
        .sum::<f64>()
        / retired;
    let mut residency = [0u64; 5];
    for s in &report.sessions {
        for (acc, r) in residency.iter_mut().zip(s.residency) {
            *acc += r;
        }
    }
    ScalePoint {
        sessions: n,
        frames_per_session: frames,
        frames_total: t.frames_total,
        wall_s: report.wall_s,
        aggregate_fps: report.aggregate_fps,
        frame_time_p50_ms: t.frame_time_p50_ms,
        frame_time_p95_ms: t.frame_time_p95_ms,
        frame_time_p99_ms: t.frame_time_p99_ms,
        frame_time_mean_ms: t.frame_time_mean_ms,
        frame_time_max_ms: t.frame_time_max_ms,
        deadline_misses: t.deadline_misses,
        deadline_miss_rate: t.deadline_misses as f64 / t.frames_total.max(1) as f64,
        sessions_admitted: t.sessions_admitted,
        sessions_rejected: t.sessions_rejected,
        sessions_retired: t.sessions_retired,
        frame_errors: report.frame_errors,
        mean_qoe_normalized: mean_qoe,
        mean_quality,
        degradation_residency: residency,
    }
}

fn memory_rows(registry: &Arc<ModelRegistry>, counts: &[usize]) -> Vec<MemoryRow> {
    let table_bytes = registry.shared_bytes();
    let mut rows = Vec::new();
    for &n in counts {
        let shared = measure_server_memory(registry, n, POINTS, 2);
        // Exact, not estimated: cloning adds exactly one table per session
        // and changes nothing else.
        let cloned_per_session = shared.bytes_per_session + table_bytes as f64;
        let ratio = shared.bytes_per_session / cloned_per_session.max(1.0);
        rows.push(MemoryRow {
            sessions: n,
            mode: "shared".into(),
            bytes_per_session: shared.bytes_per_session,
            registry_bytes: shared.registry_bytes,
            shared_over_cloned: ratio,
        });
        rows.push(MemoryRow {
            sessions: n,
            mode: "cloned".into(),
            bytes_per_session: cloned_per_session,
            registry_bytes: shared.registry_bytes,
            shared_over_cloned: ratio,
        });
    }
    rows
}

fn print_point(p: &ScalePoint) {
    println!(
        "  {:>6} | {:>7} {:>9.0} | {:>7.3} {:>7.3} {:>7.3} | {:>6} {:>6} {:>6} | {:>6.3}",
        p.sessions,
        p.frames_total,
        p.aggregate_fps,
        p.frame_time_p50_ms,
        p.frame_time_p95_ms,
        p.frame_time_p99_ms,
        p.deadline_misses,
        p.sessions_rejected,
        p.frame_errors,
        p.mean_qoe_normalized,
    );
}

fn bench_server_scaling(c: &mut Criterion) {
    log_runtime_once();
    let registry = serving_registry(24);

    // (N, frames/session): frame counts taper at scale to bound wall time
    // while keeping total recorded frames per point in the tens of
    // thousands.
    let cells: &[(usize, u64)] = if is_quick_mode() {
        &[(1, 8), (64, 8)]
    } else {
        &[(1, 30), (64, 30), (1_000, 12), (10_000, 6)]
    };

    println!("server_scaling ({POINTS}pts/session, {CHURN} churn, x2 SR, shared registry):");
    println!(
        "  {:>6} | {:>7} {:>9} | {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} | {:>6}",
        "N", "frames", "agg fps", "p50ms", "p95ms", "p99ms", "miss", "rej", "err", "qoe"
    );
    let mut scaling = Vec::new();
    for &(n, frames) in cells {
        let p = scale_point(&registry, n, frames);
        print_point(&p);
        assert_eq!(p.frame_errors, 0, "no session may error at N={n}");
        assert_eq!(
            p.sessions_retired, n as u64,
            "every admitted session must retire at N={n}"
        );
        scaling.push(p);
    }

    // CI smoke contract: the N=64 cell must run clean — every frame inside
    // its deadline and no admission rejections.
    let smoke = scaling
        .iter()
        .find(|p| p.sessions == 64)
        .expect("cells include N=64");
    assert_eq!(
        smoke.deadline_misses, 0,
        "server smoke: zero deadline misses required at N=64"
    );
    assert_eq!(
        smoke.sessions_rejected, 0,
        "server smoke: zero rejections required at N=64"
    );

    if !is_quick_mode() {
        let memory = memory_rows(&registry, &[1_000, 10_000]);
        for row in &memory {
            println!(
                "  memory N={:>6} {:<6}: {:>12.0} bytes/session (ratio {:.3})",
                row.sessions, row.mode, row.bytes_per_session, row.shared_over_cloned,
            );
        }
        let at_1k: Vec<&MemoryRow> = memory.iter().filter(|r| r.sessions == 1_000).collect();
        let shared_1k = at_1k.iter().find(|r| r.mode == "shared").unwrap();
        let cloned_1k = at_1k.iter().find(|r| r.mode == "cloned").unwrap();
        assert!(
            shared_1k.bytes_per_session <= 0.25 * cloned_1k.bytes_per_session,
            "acceptance: shared bytes/session at N=1k ({:.0}) must be <= 25% of cloned ({:.0})",
            shared_1k.bytes_per_session,
            cloned_1k.bytes_per_session
        );

        let report = BenchReport {
            description: "Multi-tenant SR server scaling: N concurrent churned sessions \
                          against one shared content registry over the work-stealing \
                          pool. Aggregate FPS, frame-time percentiles (streaming \
                          sketch), deadline misses, admission rejections, QoE, and \
                          bytes/session shared vs per-session table clones. Regenerate \
                          with `cargo bench -p volut-bench --bench server_scaling`."
                .into(),
            recorded: "2026-08-09".into(),
            pr: 9,
            host_cores: detected_cores(),
            workload: format!(
                "{POINTS}-point sphere sessions, {CHURN} churn/frame, x2 SR, dense \
                 Compact LUT (bins=24, 32^4 packed keys, ~6 MiB) shared via ModelRegistry, 30 FPS \
                 deadline, default degradation ladder, LPT dispatch over the \
                 work-stealing pool"
            ),
            scaling,
            memory,
            note: "bytes/session in shared mode is scratch + cloud only; the cloned \
                   baseline pays the full table per session, so sharing wins by the \
                   table-to-scratch ratio (>= 4x at N=1k, growing with table size). \
                   Frame-time percentiles are wall-clock per session step on this \
                   host; digests and QoE are deterministic (see \
                   tests/property_server.rs), the timings are not. The cloned rows \
                   are derived exactly: shared bytes/session plus one table copy."
                .into(),
        };
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/server_scaling.json"
        );
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json + "\n") {
                    println!("  warning: could not write {path}: {e}");
                } else {
                    println!("  wrote {path}");
                }
            }
            Err(e) => println!("  warning: could not serialize scaling report: {e}"),
        }
    }

    // Criterion hook: one full server tick at N=64 so the harness lists and
    // smoke-runs the dispatch path like any other bench.
    let mut group = c.benchmark_group("server_tick_64_sessions");
    group.sample_size(10);
    group.bench_function("tick", |b| {
        let config = ServerConfig {
            capacity: 64,
            queue_limit: 64,
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(Arc::clone(&registry), config);
        for spec in spawn_specs(64, u64::MAX) {
            server.enqueue(spec);
        }
        server.tick(); // admit + warm every scratch arena
        b.iter(|| {
            server.tick();
            black_box(server.telemetry().frames_total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_server_scaling);
criterion_main!(benches);
