//! The fixed names every later issue must use: six workloads, eight
//! end-to-end metrics, the per-layer metrics. `BENCHMARK.json` at the repo
//! root is printed from these tables (`e2e spec`); a self-test compares the
//! committed file with them.

use crate::json::Json;

/// Layer replays run on every `REPLAY_EVERY`-th traced step.
pub const REPLAY_EVERY: u32 = 8;

/// Untimed ticks (fleet) that warm every scratch arena before timing.
pub const WARM_TICKS: u64 = 2;

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One `SrSession`, every frame fresh content, `upsample_frame`.
    ViewerCold,
    /// One `ResilientSession` fed declared deltas through the protocol.
    ViewerDelta,
    /// `SrServer` ticked back to back (closed loop).
    FleetClosed { lossy: bool },
    /// `SrServer` ticked on a 30 Hz schedule (open loop) with session
    /// turnover; sessions last `session_frames` frames.
    FleetPaced { session_frames: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters (goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    /// Points per low-resolution input frame.
    pub points: usize,
    pub ratio: f64,
    /// Fraction of each frame's points replaced per frame.
    pub churn: f64,
    /// Sessions served at once (1 for the viewer workloads).
    pub tenants: usize,
    /// Timed steps (frames or ticks) of one round, sized so that a 10 s
    /// run holds three to five rounds on the 2-core reference host (two of
    /// `fleet_256_lossy`, whose stalls need 26 ticks to show on every seed)
    /// and a viewer round has ten frames beyond its 90th percentile.
    pub steps: u32,
}

impl Workload {
    /// Timed steps of one round; a tenth of them under `--quick`.
    pub fn round_steps(&self, quick: bool) -> u32 {
        if quick {
            (self.steps / 10).max(2)
        } else {
            self.steps
        }
    }

    pub fn is_fleet(&self) -> bool {
        matches!(
            self.shape,
            Shape::FleetClosed { .. } | Shape::FleetPaced { .. }
        )
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "viewer_cold_50k_x2",
        why: "Every frame is a scene cut: index build + full kNN self-join are ~75% of the frame, so kdtree/dualtree/knn/kernels work shows here; temporal reuse, wire and server are bypassed.",
        shape: Shape::ViewerCold,
        points: 50_000,
        ratio: 2.0,
        churn: 1.0,
        tenants: 1,
        steps: 100,
    },
    Workload {
        name: "viewer_delta_50k_x2",
        why: "The real client path: declared 10%-churn deltas through the resilient protocol; temporal reuse does most of the work, the self-join is bypassed, wire encode/decode/apply is ~25% of the frame.",
        shape: Shape::ViewerDelta,
        points: 50_000,
        ratio: 2.0,
        churn: 0.1,
        tenants: 1,
        steps: 150,
    },
    Workload {
        name: "viewer_cold_8k_x8",
        why: "Same pipeline used differently: 7 generated points per input point move the cost to midpoint generation, key encoding and LUT probe, so a kNN win shows little here (paper Fig 18).",
        shape: Shape::ViewerCold,
        points: 8_000,
        ratio: 8.0,
        churn: 1.0,
        tenants: 1,
        steps: 130,
    },
    Workload {
        name: "fleet_2048_local",
        why: "Capacity: 2048 resident 512-point tenants, closed loop; per-session state, plan/sort/dispatch/rollup and task overhead dominate with a working set past the LLC.",
        shape: Shape::FleetClosed { lossy: false },
        points: 512,
        ratio: 2.0,
        churn: 0.1,
        tenants: 2048,
        steps: 14,
    },
    Workload {
        name: "fleet_256_lossy",
        why: "Protocol ingest inside the tick: 256 4096-point tenants behind 5% bursty loss; retention, fault injection, splice/retransmit/keyframe recovery, parking and nested parallelism.",
        shape: Shape::FleetClosed { lossy: true },
        points: 4096,
        ratio: 2.0,
        churn: 0.1,
        tenants: 256,
        steps: 26,
    },
    Workload {
        name: "fleet_64_paced",
        why: "Service behaviour at 30 FPS, open loop at ~30% utilisation with session turnover: latency from due time includes worker park/wake and cold first frames riding along steady ones.",
        shape: Shape::FleetPaced { session_frames: 90 },
        points: 512,
        ratio: 2.0,
        churn: 0.1,
        tenants: 64,
        steps: 64,
    },
];

pub fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By how much a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median. These metrics are never 0, so
    /// `BENCHMARK.json` lists them under `end_to_end` with this bound.
    Share(f64),
    /// An absolute amount, for the two ratios that read 0 on most
    /// workloads. A share of a zero median bounds nothing, so
    /// `BENCHMARK.json` lists them, unbounded, under `per_layer`.
    Abs(f64),
}

/// An end-to-end metric and the one bound `repeat`, `compare` and
/// `BENCHMARK.json` apply to it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The four timings carry 25 %, not the 10–15 % the issue proposed: single
/// 10 s runs of unchanged code spread 5–20 % across seeds on the shared
/// reference host (README, "Steadiness"), and a bound inside that spread
/// would call the host's noise a regression.
pub const END_TO_END: [EndToEnd; 8] = [
    end_to_end("setup_s", "s", Lower, Bound::Share(0.25)),
    end_to_end("frames_per_s", "1/s", Higher, Bound::Share(0.25)),
    end_to_end("frame_ms_p50", "ms", Lower, Bound::Share(0.25)),
    end_to_end("frame_ms_p90", "ms", Lower, Bound::Share(0.25)),
    end_to_end("deadline_miss_ratio", "ratio", Lower, Bound::Abs(0.03)),
    end_to_end("failed_ratio", "ratio", Lower, Bound::Abs(0.001)),
    end_to_end("cpu_ms_per_frame", "ms", Lower, Bound::Share(0.25)),
    end_to_end("peak_rss_mb", "MiB", Lower, Bound::Share(0.10)),
];

#[cfg(test)]
pub fn find_end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric of the traced run. Module names are the layers.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 56] = [
    layer("kdtree.build_ms", "ms", Lower),
    layer("kdtree.patch_ms", "ms", Lower),
    layer("knn.self_join_ms", "ms", Lower),
    layer("knn.ns_per_query", "ns", Lower),
    layer("knn.dual_tree_selected", "count", Higher),
    layer("delta.diff_ms", "ms", Lower),
    layer("delta.verify_ms", "ms", Lower),
    layer("delta.churn_ratio", "ratio", Lower),
    layer("interpolate.frame_ms", "ms", Lower),
    layer("interpolate.self_ms", "ms", Lower),
    layer("interpolate.generated_points", "count", Higher),
    layer("interpolate.rows_reused_ratio", "ratio", Higher),
    layer("interpolate.gen_reused_ratio", "ratio", Higher),
    layer("refine.reused_ratio", "ratio", Higher),
    layer("encoding.keys_ms", "ms", Lower),
    layer("lut.probe_ms", "ms", Lower),
    layer("lut.hit_ratio", "ratio", Higher),
    layer("lut.bytes", "bytes", Lower),
    layer("refine.batch_ms", "ms", Lower),
    layer("pipeline.frame_ms", "ms", Lower),
    layer("pipeline.unattributed_ms", "ms", Lower),
    layer("client.frame_ms", "ms", Lower),
    layer("client.overhead_ms", "ms", Lower),
    layer("resilience.advance_ms", "ms", Lower),
    layer("resilience.recover_ms", "ms", Lower),
    layer("resilience.encode_ms", "ms", Lower),
    layer("resilience.decode_ms", "ms", Lower),
    layer("resilience.wire_bytes_per_frame", "bytes", Lower),
    layer("resilience.retries", "count", Lower),
    layer("resilience.keyframe_resyncs", "count", Lower),
    layer("resilience.integrity_failures", "count", Lower),
    layer("resilience.sim_link_s", "s", Lower),
    layer("faults.drops", "count", Lower),
    layer("faults.corruptions", "count", Lower),
    layer("server.tick_ms_p50", "ms", Lower),
    layer("server.tick_ms_p99", "ms", Lower),
    layer("server.first_tick_ms", "ms", Lower),
    layer("server.enqueue_us", "us", Lower),
    layer("server.snapshot_us", "us", Lower),
    layer("server.step_ms_p50", "ms", Lower),
    layer("server.step_ms_p99", "ms", Lower),
    layer("server.step_ms_mean", "ms", Lower),
    layer("server.reported_misses", "count", Lower),
    layer("server.bytes_per_session", "bytes", Lower),
    layer("server.registry_bytes", "bytes", Lower),
    layer("server.step_sum_ratio", "ratio", Lower),
    layer("server.step_sum_ratio_cold", "ratio", Lower),
    layer("server.dispatch_overhead_ratio", "ratio", Lower),
    layer("runtime.workers", "count", Higher),
    layer("runtime.dispatch_us_per_task", "us", Lower),
    layer("runtime.park_wake_us", "us", Lower),
    layer("runtime.scaling_x", "x", Higher),
    layer("registry.publish_ms", "ms", Lower),
    layer("loadgen.gen_s", "s", Lower),
    layer("loadgen.start_lag_ms_p90", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// `true` when `name` is usable as a metric or workload name: starts with
/// a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` is made of at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Seconds one contract run measures.
pub const RUN_SECONDS: u64 = 10;

/// The benchmark's directory, relative to the repo root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/e2e";

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_spec() -> Json {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        manifest.as_str(),
        "--",
    ];
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        let mut entries = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        if let Some(bound) = bound {
            entries.push(("bound", Json::num(bound)));
        }
        Json::obj(entries)
    };
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for m in &END_TO_END {
        match m.bound {
            Bound::Share(share) => end_to_end.push(metric(m.name, m.unit, m.better, Some(share))),
            Bound::Abs(_) => per_layer.push(metric(m.name, m.unit, m.better, None)),
        }
    }
    per_layer.extend(
        PER_LAYER
            .iter()
            .map(|l| metric(l.name, l.unit, l.better, None)),
    );
    Json::obj(vec![
        (
            "command",
            Json::seq(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::seq(vec![Json::str(BENCH_DIR)])),
        ("run_seconds", Json::int(RUN_SECONDS)),
        (
            "workloads",
            Json::seq(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::seq(end_to_end)),
        ("per_layer", Json::seq(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_and_unit_fits_the_charset_and_is_used_once() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            match m.bound {
                Bound::Share(share) => assert!(share > 0.0 && share <= 0.25, "{}", m.name),
                Bound::Abs(amount) => assert!(amount > 0.0, "{}", m.name),
            }
        }
        for l in &PER_LAYER {
            assert!(valid_name(l.name) && valid_unit(l.unit), "{}", l.name);
            assert!(seen.insert(l.name), "duplicate {}", l.name);
        }
        assert!(valid_name("a.b_c-9") && valid_name("9x"));
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s") && !valid_unit(""));
    }

    #[test]
    fn spec_matches_the_contract_shape() {
        let spec = benchmark_spec();
        let keys: Vec<String> = spec.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(spec.get("workloads").unwrap().items().len(), 6);
        let e2e = spec.get("end_to_end").unwrap().items();
        assert!(e2e
            .iter()
            .any(|m| m.get("name").unwrap().as_str() == Some("setup_s")));
        for m in &e2e {
            let bound = m.get("bound").unwrap().f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let layers = spec.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len() + 2);
        assert!(layers.len() <= 128 && layers.iter().all(|m| m.get("bound").is_none()));
        assert!(spec.to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_spec(),
            "regenerate with `e2e spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn quick_rounds_time_a_tenth_of_the_steps() {
        let w = find_workload("viewer_cold_50k_x2").unwrap();
        assert_eq!((w.round_steps(false), w.round_steps(true)), (100, 10));
        assert_eq!(
            find_workload("fleet_2048_local").unwrap().round_steps(true),
            2
        );
        assert!(find_workload("nope").is_none());
    }
}
