//! One run of one workload in this process: rounds of (set-up → warm-up →
//! the workload's timed steps) repeated with the same seed until `--seconds`
//! of measured phase have passed, then the correctness gate and the metrics.
//!
//! Every round rebuilds everything from the seed, so a run sets up more than
//! once (`setup_s` is the median) and every round must reproduce the first
//! round's digest and transport counts exactly — the in-run half of the
//! correctness gate. Every round's statistics are plain ones over all of its
//! timed frames, and the run reports the median round. A traced run
//! alternates reference rounds (tracing off) with traced ones; the ratio of
//! their latencies is the tracing overhead.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::api::{
    build_content, fold_sessions, probe_dispatch_us_per_task, probe_park_wake_us, ratio,
    runtime_workers, with_one_worker, Fleet, Reuse, SessionDigest, Shadow, StepSpans, Viewer, Wire,
};
use crate::json::Json;
use crate::measure::{
    median, peak_rss_mib, percentile, process_cpu_s, process_start, weighted_percentile, Digest,
    FRAME_BUDGET_MS,
};
use crate::trace::Tracer;
use crate::workloads::{Bound, Shape, Workload, END_TO_END, PER_LAYER, REPLAY_EVERY, WARM_TICKS};

/// Minimum lookup hit ratio: the table covers the encoder's key space.
const MIN_HIT_RATIO: f64 = 0.99;
/// Bound on the untimed drain ticks that retire every session for harvest
/// (a paced session lasts 90 ticks; stalled tenants need a few more).
const MAX_DRAIN_TICKS: u32 = 128;
/// Tick interval of the paced workload (30 Hz).
const TICK_INTERVAL: Duration = Duration::from_nanos(1_000_000_000 / 30);

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub trace_out: Option<PathBuf>,
}

/// Per-layer samples by metric name; a metric reports its samples' median.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn extend(&mut self, name: &'static str, values: &[f64]) {
        self.0.entry(name).or_default().extend_from_slice(values);
    }

    fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// One timed step: a frame (viewer) or a tick (fleet).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Frames delivered by the step, each at [`Self::latency_ms`].
    frames: u64,
    /// Slot start (issue, or due time when paced) and return, seconds into
    /// the phase.
    start_s: f64,
    end_s: f64,
    cpu_s: f64,
}

impl Step {
    /// Service latency: issue (closed loop) or due time (paced) → return.
    fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Statistics over the timed steps of one round.
#[derive(Debug, Clone, Copy)]
struct Stats {
    frames_per_s: f64,
    frame_ms_p50: f64,
    frame_ms_p90: f64,
    cpu_ms_per_frame: f64,
    /// Frames delivered later than the frame budget.
    late_frames: u64,
}

impl Stats {
    /// `paced` divides by the schedule wall (first due time → last return)
    /// instead of the summed call walls.
    fn of(steps: &[Step], paced: bool) -> Self {
        let samples: Vec<(f64, u64)> = steps.iter().map(|s| (s.latency_ms(), s.frames)).collect();
        let frames: u64 = steps.iter().map(|s| s.frames).sum();
        let wall_s = match (paced, steps.first(), steps.last()) {
            (true, Some(first), Some(last)) => last.end_s - first.start_s,
            _ => steps.iter().map(|s| s.end_s - s.start_s).sum(),
        };
        let cpu_s: f64 = steps.iter().map(|s| s.cpu_s).sum();
        Self {
            frames_per_s: frames as f64 / wall_s.max(1e-9),
            frame_ms_p50: weighted_percentile(&samples, 0.5),
            frame_ms_p90: weighted_percentile(&samples, 0.9),
            cpu_ms_per_frame: cpu_s * 1e3 / frames.max(1) as f64,
            late_frames: steps
                .iter()
                .filter(|s| s.latency_ms() > FRAME_BUDGET_MS)
                .map(|s| s.frames)
                .sum(),
        }
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    steps: Vec<Step>,
    paced: bool,
    /// Whole measured phase, input generation and replays included.
    phase_wall_s: f64,
    attempted: u64,
    /// Delivered with a wrong length, a non-finite coordinate, an engine
    /// error (served passthrough) or a digest that differs from its twin.
    wrong: u64,
    /// Attempted and never delivered for good (error, quarantine) — as
    /// opposed to a stalled slot, whose frame arrives a tick later.
    broken: u64,
    digest: u64,
    wire: Wire,
    failures: Vec<String>,
}

impl Round {
    fn delivered(&self) -> u64 {
        self.steps.iter().map(|s| s.frames).sum()
    }

    /// Attempted and not delivered: for good, or (a stalled slot) a tick late.
    fn lost(&self) -> u64 {
        self.attempted - self.delivered().min(self.attempted)
    }

    fn stats(&self) -> Stats {
        Stats::of(&self.steps, self.paced)
    }

    /// Late frames plus every failed one, ÷ frames attempted.
    fn deadline_miss_ratio(&self) -> f64 {
        let missed = self.stats().late_frames + self.lost() + self.wrong;
        missed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// Totals over the untraced rounds of a run. The four timings and the miss
/// ratio are computed per round and reported as the median round: a burst
/// of interference on the shared host lands in one round or two, while
/// slowness of the program's own recurs in every round and stays in.
#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    round_stats: Vec<Stats>,
    miss_ratios: Vec<f64>,
    attempted: u64,
    delivered: u64,
    wrong: u64,
    lost: u64,
    /// `VmHWM` when round 0 ended: later rounds rebuild everything on a
    /// heap the allocator has already grown, which adds 3–6 % that varies
    /// from run to run and belongs to the benchmark, not the program.
    peak_rss_mib: f64,
}

impl Totals {
    fn add(&mut self, round: &Round) {
        self.setups.push(round.setup_s);
        self.round_stats.push(round.stats());
        self.miss_ratios.push(round.deadline_miss_ratio());
        self.attempted += round.attempted;
        self.delivered += round.delivered();
        self.wrong += round.wrong;
        self.lost += round.lost();
    }

    fn median_of(&self, pick: impl Fn(&Stats) -> f64) -> f64 {
        median(&self.round_stats.iter().map(pick).collect::<Vec<_>>())
    }

    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => median(&self.setups),
            "frames_per_s" => self.median_of(|s| s.frames_per_s),
            "frame_ms_p50" => self.median_of(|s| s.frame_ms_p50),
            "frame_ms_p90" => self.median_of(|s| s.frame_ms_p90),
            "cpu_ms_per_frame" => self.median_of(|s| s.cpu_ms_per_frame),
            "deadline_miss_ratio" => median(&self.miss_ratios),
            "failed_ratio" => {
                (self.lost + self.wrong).min(self.attempted) as f64 / self.attempted.max(1) as f64
            }
            "peak_rss_mb" => self.peak_rss_mib,
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }
}

/// The outcome of a run: what the child prints and the ledger stores.
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    /// Frames lost for good or delivered wrong (the contract's `failed`).
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric (traced runs only; empty otherwise).
    pub per_layer: Vec<(&'static str, f64)>,
    pub digest: u64,
    pub rounds: u32,
    /// Frames delivered in the untraced rounds, the distinct steps of one
    /// round, and each untraced round's own statistics.
    pub frames: u64,
    pub steps: u64,
    round_stats: Vec<Stats>,
    pub wire: Wire,
    pub failures: Vec<String>,
}

impl RunOutcome {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
    pub fn contract_line(&self, traced: bool) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if traced {
            let ratios = END_TO_END
                .iter()
                .filter(|m| matches!(m.bound, Bound::Abs(_)))
                .map(|m| (m.name, metric(self.end_to_end_value(m.name), m.unit)));
            // `per_layer` is built from `PER_LAYER`, in its order.
            let layers = PER_LAYER
                .iter()
                .zip(&self.per_layer)
                .map(|(l, (_, value))| (l.name, metric(*value, l.unit)));
            ratios.chain(layers).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| matches!(m.bound, Bound::Share(_)))
                .map(|m| (m.name, metric(self.end_to_end_value(m.name), m.unit)))
                .collect()
        };
        Json::obj(vec![
            ("correct", Json::bool(self.correct)),
            ("attempted", Json::int(self.attempted.max(1))),
            ("failed", Json::int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    }

    pub fn end_to_end_value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Everything the ledger keeps about the run.
    pub fn detail(&self, args: &RunArgs) -> Json {
        let pairs = |items: &[(&'static str, f64)]| {
            Json::obj(items.iter().map(|(n, v)| (*n, Json::num(*v))).collect())
        };
        Json::obj(vec![
            ("workload", Json::str(args.workload.name)),
            ("seed", Json::int(args.seed)),
            ("traced", Json::bool(args.trace)),
            ("correct", Json::bool(self.correct)),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            ("digest", Json::int(self.digest)),
            ("rounds", Json::int(u64::from(self.rounds))),
            ("frames", Json::int(self.frames)),
            ("steps", Json::int(self.steps)),
            (
                "round_stats",
                Json::seq(
                    self.round_stats
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("frames_per_s", Json::num(w.frames_per_s)),
                                ("frame_ms_p50", Json::num(w.frame_ms_p50)),
                                ("frame_ms_p90", Json::num(w.frame_ms_p90)),
                                ("cpu_ms_per_frame", Json::num(w.cpu_ms_per_frame)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("workers", Json::int(runtime_workers() as u64)),
            ("wire", wire_json(&self.wire)),
            (
                "failures",
                Json::seq(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", pairs(&self.end_to_end)),
            ("per_layer", pairs(&self.per_layer)),
        ])
    }
}

fn wire_json(wire: &Wire) -> Json {
    Json::obj(
        Wire::COUNT_NAMES
            .iter()
            .zip(wire.counts())
            .map(|(name, count)| (*name, Json::int(count)))
            .collect(),
    )
}

/// Runs the workload and returns its outcome. Never panics on a gate
/// failure: those are listed in `failures` and clear `correct`.
pub fn run(args: &RunArgs) -> RunOutcome {
    let workload = args.workload;
    let steps = workload.round_steps(args.quick);
    let mut totals = Totals::default();
    // Of the traced rounds, and of the untraced rounds' leading steps that
    // the one-worker pass of `runtime.scaling_x` repeats.
    let mut traced_p50s: Vec<f64> = Vec::new();
    let mut leading_fps: Vec<f64> = Vec::new();
    let short = (steps / 4).max(2) as usize;
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    let mut failures: Vec<String> = Vec::new();
    let mut first: Option<(u64, Wire)> = None;
    let (mut attempted, mut bad, mut phase_wall_s) = (0u64, 0u64, 0.0f64);
    let mut rounds = 0u32;
    loop {
        // A traced run alternates untraced reference rounds (even) with
        // traced ones (odd); end-to-end numbers come from the former only.
        let traced = args.trace && !rounds.is_multiple_of(2);
        let mut round = run_round(
            workload,
            args.seed,
            steps,
            traced.then_some(&mut tracer),
            &mut layers,
            rounds == 0,
        );
        match &first {
            None => first = Some((round.digest, round.wire)),
            Some((digest, wire)) => {
                if round.digest != *digest {
                    failures.push(format!(
                        "round {rounds}: digest {:#018x} differs from round 0's {digest:#018x}",
                        round.digest
                    ));
                }
                if round.wire.counts() != wire.counts() {
                    failures.push(format!(
                        "round {rounds}: transport counts {:?} differ from round 0's {wire:?}",
                        round.wire
                    ));
                }
            }
        }
        let whole = round.stats();
        eprintln!(
            "e2e: {} round {rounds}{}: setup {:.3} s, {} of {} frames, p50 {:.3} ms, {:.1} frames/s",
            workload.name,
            if traced { " (traced)" } else { "" },
            round.setup_s,
            round.delivered(),
            round.attempted,
            whole.frame_ms_p50,
            whole.frames_per_s
        );
        failures.append(&mut round.failures);
        attempted += round.attempted;
        bad += round.broken + round.wrong;
        phase_wall_s += round.phase_wall_s;
        if traced {
            traced_p50s.push(whole.frame_ms_p50);
        } else {
            let leading = &round.steps[..round.steps.len().min(short)];
            leading_fps.push(Stats::of(leading, round.paced).frames_per_s);
            totals.add(&round);
        }
        if rounds == 0 {
            totals.peak_rss_mib = peak_rss_mib();
        }
        rounds += 1;
        // Never fewer than two rounds: `setup_s` is a median, and a round
        // that a slow host stretches past `--seconds` still gets its twin.
        let paired = !args.trace || rounds.is_multiple_of(2);
        if paired && (args.quick || (rounds >= 2 && phase_wall_s >= args.seconds)) {
            break;
        }
    }

    let (digest, wire) = first.expect("at least one round ran");
    if matches!(workload.shape, Shape::FleetClosed { lossy: true })
        && !args.quick
        && totals.lost == 0
    {
        failures.push(
            "no tenant stalled a tick: the loss profile no longer reaches the end of the recovery ladder"
                .into(),
        );
    }
    let end_to_end: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, totals.end_to_end(m.name)))
        .collect();

    let mut per_layer = Vec::new();
    if args.trace {
        layers.push(
            "trace.overhead_ratio",
            median(&traced_p50s) / totals.end_to_end("frame_ms_p50").max(1e-9),
        );
        layers.push("runtime.workers", runtime_workers() as f64);
        layers.push("runtime.dispatch_us_per_task", probe_dispatch_us_per_task());
        layers.push("runtime.park_wake_us", probe_park_wake_us());
        if matches!(workload.name, "viewer_cold_50k_x2" | "fleet_2048_local") {
            // Short single-worker pass over the untraced rounds' leading
            // steps.
            let single = with_one_worker(|| {
                run_round(
                    workload,
                    args.seed,
                    short as u32,
                    None,
                    &mut Layers::default(),
                    false,
                )
            });
            layers.push(
                "runtime.scaling_x",
                median(&leading_fps) / single.stats().frames_per_s.max(1e-9),
            );
        }
        summarize_spans(&tracer, &mut layers);
        let hit_ratio = layers.value("lut.hit_ratio");
        if !workload.is_fleet() && hit_ratio < MIN_HIT_RATIO {
            failures.push(format!(
                "lut.hit_ratio {hit_ratio:.4} below {MIN_HIT_RATIO}: the table must cover the key space"
            ));
        }
        per_layer = PER_LAYER
            .iter()
            .map(|l| (l.name, layers.value(l.name)))
            .collect();
        if let Some(path) = &args.trace_out {
            if let Err(e) = write_trace(path, args, &tracer) {
                failures.push(format!("writing {}: {e}", path.display()));
            }
        }
    }

    RunOutcome {
        correct: failures.is_empty(),
        attempted,
        failed: bad.min(attempted),
        end_to_end,
        per_layer,
        digest,
        rounds,
        frames: totals.delivered,
        steps: u64::from(steps),
        round_stats: totals.round_stats,
        wire,
        failures,
    }
}

fn write_trace(path: &PathBuf, args: &RunArgs, tracer: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::obj(vec![
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::int(args.seed)),
        ("spans", tracer.to_json()),
    ]);
    std::fs::write(path, doc.to_compact() + "\n")
}

/// Turns the span store into the per-layer timing metrics.
fn summarize_spans(tracer: &Tracer, layers: &mut Layers) {
    const DURATIONS: [(&str, &str); 16] = [
        ("kdtree.build_ms", "kdtree.build"),
        ("kdtree.patch_ms", "kdtree.patch"),
        ("knn.self_join_ms", "knn.self_join"),
        ("delta.diff_ms", "delta.diff"),
        ("delta.verify_ms", "delta.verify"),
        ("interpolate.frame_ms", "interpolate.frame"),
        ("encoding.keys_ms", "encoding.keys"),
        ("lut.probe_ms", "lut.probe"),
        ("refine.batch_ms", "refine.batch"),
        ("pipeline.frame_ms", "pipeline.frame"),
        ("client.frame_ms", "client.frame"),
        ("resilience.advance_ms", "resilience.advance"),
        ("resilience.recover_ms", "resilience.recover"),
        ("resilience.encode_ms", "resilience.encode"),
        ("resilience.decode_ms", "resilience.decode"),
        ("server.tick_ms_p50", "server.tick"),
    ];
    for (metric, span) in DURATIONS {
        layers.extend(metric, &tracer.durations_ms(span));
    }
    const SELF_TIMES: [(&str, &str); 3] = [
        ("interpolate.self_ms", "interpolate.frame"),
        ("pipeline.unattributed_ms", "pipeline.frame"),
        ("client.overhead_ms", "client.frame"),
    ];
    for (metric, span) in SELF_TIMES {
        layers.extend(metric, &tracer.self_times_ms(span));
    }
    let ticks = tracer.durations_ms("server.tick");
    if !ticks.is_empty() {
        layers.push("server.tick_ms_p99", percentile(&ticks, 0.99));
    }
    let join_ms = layers.value("knn.self_join_ms");
    let queries = layers.value("knn.self_join_queries");
    if queries > 0.0 {
        layers.push("knn.ns_per_query", join_ms * 1e6 / queries);
    }
}

fn run_round(
    workload: &Workload,
    seed: u64,
    steps: u32,
    tracer: Option<&mut Tracer>,
    layers: &mut Layers,
    first_of_process: bool,
) -> Round {
    // The first round's set-up starts at process start; later rounds' at
    // their own beginning.
    let started = if first_of_process {
        process_start()
    } else {
        Instant::now()
    };
    if workload.is_fleet() {
        fleet_round(workload, seed, steps, tracer, layers, started)
    } else {
        viewer_round(workload, seed, steps, tracer, layers, started)
    }
}

fn viewer_round(
    workload: &Workload,
    seed: u64,
    steps: u32,
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
    started: Instant,
) -> Round {
    let mut round = Round::default();
    let content = build_content(seed, tracer.is_some());
    let mut viewer = Viewer::new(&content, workload, seed);
    let mut shadow = tracer
        .is_some()
        .then(|| Shadow::new(&content, workload, seed));
    let mut digest = Digest::default();
    let expected_points =
        |input: usize| -> usize { (workload.ratio * input as f64).round() as usize };

    // Warm-up: the first keyframe.
    viewer.prepare();
    match viewer.deliver() {
        Ok(output) => {
            if let (Some(shadow), Some(tracer)) = (shadow.as_mut(), tracer.as_deref_mut()) {
                let warm_up = StepSpans {
                    step: 0,
                    step_span: 0,
                    real: 0,
                    replay: false,
                };
                shadow.follow(&viewer, &output, tracer, warm_up);
            }
        }
        Err(e) => round.failures.push(format!("warm-up frame failed: {e}")),
    }
    round.setup_s = started.elapsed().as_secs_f64();

    let phase = Instant::now();
    let reuse_before = viewer.reuse();
    let mut gen_s = 0.0;
    for step in 0..steps {
        let generating = Instant::now();
        viewer.prepare();
        gen_s += generating.elapsed().as_secs_f64();

        let spans = tracer.as_deref_mut().map(|t| {
            let step_span = t.open("step", None, step);
            (step_span, t.open(viewer.real_span(), Some(step_span), step))
        });
        let cpu_before = process_cpu_s();
        let issued = Instant::now();
        let result = viewer.deliver();
        let returned = Instant::now();
        let cpu_s = process_cpu_s() - cpu_before;
        if let (Some((step_span, real)), Some(t)) = (spans, tracer.as_deref_mut()) {
            t.close(real);
            t.close(step_span);
        }
        round.attempted += 1;
        match result {
            Ok(output) => {
                round.steps.push(Step {
                    frames: 1,
                    start_s: (issued - phase).as_secs_f64(),
                    end_s: (returned - phase).as_secs_f64(),
                    cpu_s,
                });
                let summary = output.summary();
                digest.fold(summary.digest);
                let expected = expected_points(viewer.input_points());
                if summary.points != expected || !summary.finite {
                    round.wrong += 1;
                    round.failures.push(format!(
                        "step {step}: delivered {} points (expected {expected}), finite = {}",
                        summary.points, summary.finite
                    ));
                }
                if let (Some(shadow), Some((step_span, real)), Some(t)) =
                    (shadow.as_mut(), spans, tracer.as_deref_mut())
                {
                    let at = StepSpans {
                        step,
                        step_span,
                        real,
                        replay: step.is_multiple_of(REPLAY_EVERY),
                    };
                    shadow.follow(&viewer, &output, t, at);
                }
            }
            Err(e) => {
                round.broken += 1;
                round.failures.push(format!("step {step}: {e}"));
            }
        }
    }
    round.phase_wall_s = phase.elapsed().as_secs_f64();
    round.digest = digest.0;
    round.wire = viewer.wire();

    if let Some(shadow) = shadow {
        let reuse = viewer.reuse().ratios_since(&reuse_before);
        for (name, value) in Reuse::RATIO_NAMES.iter().zip(reuse) {
            layers.push(name, value);
        }
        let stats = &shadow.stats;
        layers.push(
            "lut.hit_ratio",
            ratio(stats.hits, stats.probes - stats.hits),
        );
        layers.push("lut.bytes", content.lut_bytes as f64);
        layers.extend("interpolate.generated_points", &stats.generated_points);
        layers.extend("delta.churn_ratio", &stats.churn_ratio);
        layers.extend("resilience.wire_bytes_per_frame", &stats.wire_bytes);
        layers.extend("knn.dual_tree_selected", &stats.dual_tree_selected);
        layers.push("knn.self_join_queries", stats.self_join_queries as f64);
        layers.push("registry.publish_ms", content.publish_ms);
        layers.push("loadgen.gen_s", gen_s);
        push_wire(layers, &round.wire);
        if stats.cold_mismatches > 0 {
            round.wrong += stats.cold_mismatches;
            round.failures.push(format!(
                "{} of {} delta-path frames differ from a cold recompute",
                stats.cold_mismatches, stats.cold_checks
            ));
        }
    }
    round
}

fn push_wire(layers: &mut Layers, wire: &Wire) {
    for (name, count) in Wire::COUNT_NAMES.iter().zip(wire.counts()) {
        layers.push(name, count as f64);
    }
    layers.push("resilience.sim_link_s", wire.sim_link_s);
}

/// Frames of session `index` of the initial cohort: closed-loop sessions
/// outlive the timed ticks by one, so nothing retires inside them; paced
/// sessions end staggered across one session length.
fn initial_frames(workload: &Workload, steps: u32, index: usize) -> u64 {
    match workload.shape {
        Shape::FleetPaced { session_frames } => {
            WARM_TICKS + 1 + index as u64 * session_frames / workload.tenants as u64
        }
        _ => WARM_TICKS + u64::from(steps) + 1,
    }
}

/// Submits the initial cohort and returns each `enqueue`'s wall time, µs.
/// The queue is sized to hold the cohort; a rejection shows in the report.
fn enqueue_cohort(fleet: &mut Fleet, workload: &Workload, steps: u32) -> Vec<f64> {
    (0..workload.tenants)
        .map(|index| {
            let issued = Instant::now();
            fleet.enqueue(initial_frames(workload, steps, index));
            issued.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn fleet_round(
    workload: &Workload,
    seed: u64,
    steps: u32,
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
    started: Instant,
) -> Round {
    let paced = match workload.shape {
        Shape::FleetPaced { session_frames } => Some(session_frames),
        _ => None,
    };
    let mut round = Round {
        paced: paced.is_some(),
        ..Round::default()
    };
    let traced = tracer.is_some();
    let content = build_content(seed, false);
    let mut fleet = Fleet::new(&content, workload, seed, false);
    let enqueue_us = enqueue_cohort(&mut fleet, workload, steps);
    // Warm-up: admission + cold first frames, then one steady tick.
    let issued = Instant::now();
    fleet.tick();
    let first_tick_ms = issued.elapsed().as_secs_f64() * 1e3;
    for _ in 1..WARM_TICKS {
        fleet.tick();
    }
    let warm_wall_ms = issued.elapsed().as_secs_f64() * 1e3;
    round.setup_s = started.elapsed().as_secs_f64();

    let warm = fleet.report();
    let phase = Instant::now();
    let schedule_start = Instant::now() + Duration::from_millis(2);
    let mut lag_ms = Vec::new();
    let mut call_wall_s = 0.0;
    for step in 0..steps {
        let due = paced.map(|_| schedule_start + TICK_INTERVAL * step);
        if let Some(due) = due {
            sleep_until(due);
        }
        let issued = Instant::now();
        let cpu_before = process_cpu_s();
        if let (Some(due), Some(session_frames)) = (due, paced) {
            lag_ms.push((issued - due).as_secs_f64() * 1e3);
            // Turnover: the driver refills every slot a retirement freed.
            while fleet.free_slots() > 0 {
                if !fleet.enqueue(session_frames) {
                    round.failures.push(format!("step {step}: refill rejected"));
                    break;
                }
            }
        }
        let expected = fleet.expected_frames();
        let frames_before = fleet.frames_total();
        let spans = tracer.as_deref_mut().map(|t| {
            let step_span = t.open("step", None, step);
            (step_span, t.open("server.tick", Some(step_span), step))
        });
        let called = Instant::now();
        fleet.tick();
        let end = Instant::now();
        if let (Some((step_span, tick)), Some(t)) = (spans, tracer.as_deref_mut()) {
            t.close(tick);
            t.close(step_span);
        }
        let cpu_s = process_cpu_s() - cpu_before;
        call_wall_s += (end - called).as_secs_f64();
        // A tick is a barrier: every frame in it is delivered when it
        // returns, so each contributes one sample at the tick's latency —
        // from the due time when paced, from issue otherwise.
        let slot_start = due.unwrap_or(called);
        round.steps.push(Step {
            frames: fleet.frames_total() - frames_before,
            start_s: (slot_start - phase).as_secs_f64(),
            end_s: (end - phase).as_secs_f64(),
            cpu_s,
        });
        round.attempted += expected;
    }
    round.phase_wall_s = phase.elapsed().as_secs_f64();

    // Program-reported numbers over the timed ticks only.
    let timed = fleet.report();
    let snapshot_us = fleet.snapshot_us();
    let (bytes_per_session, registry_bytes) = fleet.memory();

    // Harvest: untimed ticks, without refills, retire every session (stalled
    // tenants need a few more) so every delivered frame is in a digest.
    let mut drained = 0;
    while fleet.unfinished() > 0 && drained < MAX_DRAIN_TICKS {
        fleet.tick();
        drained += 1;
    }
    let harvest = fleet.report();
    round.digest = fold_sessions(&harvest.sessions);
    round.wire = harvest.wire;
    round.wrong += harvest.frame_errors;
    round.broken += harvest.quarantined + harvest.rejected;
    if harvest.frame_errors + harvest.quarantined + harvest.rejected > 0 {
        round.failures.push(format!(
            "{} frame errors, {} quarantined, {} rejected sessions",
            harvest.frame_errors, harvest.quarantined, harvest.rejected
        ));
    }
    let incomplete = fleet.incomplete(&harvest.sessions);
    if incomplete > 0 {
        round.failures.push(format!(
            "{incomplete} sessions did not retire with all their frames"
        ));
    }

    if traced {
        if matches!(workload.shape, Shape::FleetClosed { lossy: true }) {
            let mismatched = clean_twin_mismatches(workload, seed, steps, &harvest.sessions);
            if mismatched > 0 {
                round.wrong += mismatched;
                round.failures.push(format!(
                    "{mismatched} session digests differ from the clean-link twin"
                ));
            }
        }
        let workers = runtime_workers() as f64;
        let frames = (timed.frames_total - warm.frames_total) as f64;
        let step_sum_ms = timed.step_ms_mean * timed.frames_total as f64
            - warm.step_ms_mean * warm.frames_total as f64;
        let step_sum_ratio = step_sum_ms / (workers * call_wall_s * 1e3).max(1e-9);
        layers.push("server.step_sum_ratio", step_sum_ratio);
        // The same closure check over the cold warm-up ticks, where nested
        // parallelism lets a step's clock run on while its worker executes
        // other tenants' steps.
        layers.push(
            "server.step_sum_ratio_cold",
            warm.step_ms_mean * warm.frames_total as f64 / (workers * warm_wall_ms).max(1e-9),
        );
        // Only where the program's own step clock does not double-count.
        layers.push(
            "server.dispatch_overhead_ratio",
            if step_sum_ratio <= 1.0 {
                1.0 - step_sum_ratio
            } else {
                0.0
            },
        );
        layers.push("server.step_ms_mean", step_sum_ms / frames.max(1.0));
        layers.push("server.step_ms_p50", timed.step_ms_p50);
        layers.push("server.step_ms_p99", timed.step_ms_p99);
        layers.push(
            "server.reported_misses",
            (timed.reported_misses - warm.reported_misses) as f64,
        );
        layers.push("server.bytes_per_session", bytes_per_session);
        layers.push("server.registry_bytes", registry_bytes as f64);
        layers.push("server.first_tick_ms", first_tick_ms);
        layers.push("server.snapshot_us", snapshot_us);
        layers.extend("server.enqueue_us", &enqueue_us);
        layers.push("interpolate.rows_reused_ratio", timed.rows_reused_ratio);
        layers.push("lut.bytes", content.lut_bytes as f64);
        layers.push("registry.publish_ms", content.publish_ms);
        layers.push("loadgen.gen_s", enqueue_us.iter().sum::<f64>() * 1e-6);
        if !lag_ms.is_empty() {
            layers.push("loadgen.start_lag_ms_p90", percentile(&lag_ms, 0.9));
        }
        push_wire(layers, &round.wire);
    }
    round
}

/// Runs the lossy workload's clean-link twin (same seeds, lossless link)
/// to retirement and counts sessions whose digests differ.
fn clean_twin_mismatches(
    workload: &Workload,
    seed: u64,
    steps: u32,
    faulted: &[SessionDigest],
) -> u64 {
    let content = build_content(seed, false);
    let mut twin = Fleet::new(&content, workload, seed, true);
    enqueue_cohort(&mut twin, workload, steps);
    let mut ticks = 0;
    let limit = WARM_TICKS as u32 + steps + 1 + MAX_DRAIN_TICKS;
    while (twin.unfinished() > 0 || ticks == 0) && ticks < limit {
        twin.tick();
        ticks += 1;
    }
    let by_seed = |sessions: &[SessionDigest]| -> BTreeMap<u64, (u64, u64)> {
        sessions
            .iter()
            .map(|s| (s.seed, (s.frames, s.digest)))
            .collect()
    };
    let clean = by_seed(&twin.report().sessions);
    let faulted = by_seed(faulted);
    let differing = clean
        .iter()
        .filter(|(seed, row)| faulted.get(seed) != Some(row))
        .count();
    (differing + faulted.len().abs_diff(clean.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(start_s: f64, end_s: f64, frames: u64) -> Step {
        Step {
            frames,
            start_s,
            end_s,
            cpu_s: 0.5 * (end_s - start_s),
        }
    }

    #[test]
    fn closed_steps_divide_by_call_wall_and_paced_by_schedule_wall() {
        // Two 10 ms ticks of 100 frames, due 50 ms apart.
        let steps = [step(0.0, 0.01, 100), step(0.05, 0.06, 100)];
        let closed = Stats::of(&steps, false);
        assert!((closed.frames_per_s - 200.0 / 0.02).abs() < 1e-6);
        let paced = Stats::of(&steps, true);
        assert!((paced.frames_per_s - 200.0 / 0.06).abs() < 1e-6);
        assert!((closed.frame_ms_p50 - 10.0).abs() < 1e-9);
        assert!((closed.cpu_ms_per_frame - 0.05).abs() < 1e-9);
        assert_eq!(closed.late_frames, 0);
    }

    #[test]
    fn a_run_reports_its_median_round() {
        let round = |slow: f64| Round {
            steps: vec![step(0.0, 0.01, 1), step(0.02, 0.03, 1), step(0.04, slow, 1)],
            attempted: 4,
            ..Round::default()
        };
        let mut totals = Totals::default();
        // The last frame takes 50, 30 and 20 ms; every round leaves one
        // attempted slot undelivered.
        for slow in [0.09, 0.07, 0.06] {
            totals.add(&round(slow));
        }
        assert_eq!((totals.lost, totals.delivered), (3, 9));
        assert_eq!(totals.end_to_end("failed_ratio"), 0.25);
        // One round has a late frame besides the lost slot, two have not.
        assert_eq!(totals.end_to_end("deadline_miss_ratio"), 0.25);
        assert!((totals.end_to_end("frame_ms_p90") - 30.0).abs() < 1e-9);
        assert!((totals.end_to_end("frame_ms_p50") - 10.0).abs() < 1e-9);
    }
}
