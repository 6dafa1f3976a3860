//! The parent side: `run` (R interleaved repetitions, one child process per
//! run, then one traced run per workload), `repeat` (two interleaved sets
//! compared) and `compare` (two saved ledgers compared), all judged by the
//! bounds fixed in `workloads.rs`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::measure::median;
use crate::workloads::{
    Better, Bound, EndToEnd, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use crate::DETAIL_PREFIX;

/// Repetitions of every workload in a set; the ledger value is their median.
const REPETITIONS: usize = 3;
/// Where `run` and `repeat` write their ledgers and traces.
const OUT_DIR: &str = "target/volut-e2e";

pub struct Options {
    pub seed: u64,
    /// Smoke run: a tenth of the steps, one repetition, no traced pass.
    pub quick: bool,
}

impl Options {
    fn repetitions(&self) -> usize {
        if self.quick {
            1
        } else {
            REPETITIONS
        }
    }
}

/// How a candidate's runs of one metric compare with a baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    /// The run-to-run spread exceeds the bound and neither side's runs all
    /// beat the other's: no claim either way.
    Unresolved,
}

/// The amount by which a metric may worsen against `baseline_median`.
pub fn allowed(metric: &EndToEnd, baseline_median: f64) -> f64 {
    match metric.bound {
        Bound::Share(share) => share * baseline_median.abs(),
        Bound::Abs(amount) => amount,
    }
}

/// Positive when `candidate` is worse than `baseline`.
fn worse_by(metric: &EndToEnd, baseline: f64, candidate: f64) -> f64 {
    match metric.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    }
}

fn spread(runs: &[f64]) -> f64 {
    let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if runs.is_empty() {
        0.0
    } else {
        hi - lo
    }
}

/// Applies a metric's bound to two sets of runs. Where the spread of
/// either side exceeds the bound the medians prove nothing, so the verdict
/// is `Unresolved` unless every run of one side beats every run of the
/// other.
pub fn judge(metric: &EndToEnd, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let base = median(baseline);
    let limit = allowed(metric, base);
    let regressed = worse_by(metric, base, median(candidate)) > limit;
    if spread(baseline).max(spread(candidate)) > limit {
        let all = |pred: &dyn Fn(f64) -> bool| {
            baseline
                .iter()
                .all(|&b| candidate.iter().all(|&c| pred(worse_by(metric, b, c))))
        };
        if all(&|w| w < 0.0) {
            return Verdict::Within;
        }
        if !all(&|w| w > 0.0) {
            return Verdict::Unresolved;
        }
    }
    if regressed {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Cross-run half of the correctness gate for one workload: every run
/// correct, one digest across repetitions and the traced run, and the
/// deterministic numbers (`failed_ratio`, transport counts) exactly equal.
pub fn gate(workload: &str, runs: &[Json], traced: Option<&Json>) -> Vec<String> {
    let mut failures = Vec::new();
    let all: Vec<&Json> = runs.iter().chain(traced).collect();
    for (i, run) in all.iter().enumerate() {
        if run.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            let reasons: Vec<String> = run
                .get("failures")
                .map(|f| f.items())
                .unwrap_or_default()
                .iter()
                .filter_map(|r| r.as_str().map(String::from))
                .collect();
            failures.push(format!(
                "{workload}: run {i} incorrect: {}",
                reasons.join("; ")
            ));
        }
    }
    let differs = |key: &str| {
        all.windows(2)
            .any(|pair| pair[0].get(key) != pair[1].get(key))
    };
    if differs("digest") {
        let digests: Vec<String> = all
            .iter()
            .map(|r| {
                format!(
                    "{:#018x}",
                    r.get("digest").and_then(|d| d.u64()).unwrap_or(0)
                )
            })
            .collect();
        failures.push(format!(
            "{workload}: digests disagree: {}",
            digests.join(" ")
        ));
    }
    if differs("wire") {
        failures.push(format!("{workload}: transport counts disagree across runs"));
    }
    let failed: Vec<Option<f64>> = runs
        .iter()
        .map(|r| metric_of(r, "end_to_end", "failed_ratio"))
        .collect();
    if failed.windows(2).any(|pair| pair[0] != pair[1]) {
        failures.push(format!(
            "{workload}: failed_ratio disagrees across runs: {failed:?}"
        ));
    }
    failures
}

fn metric_of(run: &Json, section: &str, name: &str) -> Option<f64> {
    run.get(section)?.get(name)?.f64()
}

fn spawn_run(
    workload: &Workload,
    options: &Options,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{}: child exited with {} and no result",
                workload.name, output.status
            )
        })?;
    Json::parse(detail).map_err(|e| format!("{}: unreadable result: {e}", workload.name))
}

fn host_json(workers: u64) -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<&str> = [
        ("parallel", cfg!(feature = "parallel")),
        ("simd", cfg!(feature = "simd")),
    ]
    .iter()
    .filter_map(|(name, on)| on.then_some(*name))
    .collect();
    Json::obj(vec![
        ("host", Json::str(read("/proc/sys/kernel/hostname"))),
        ("nproc", Json::int(nproc as u64)),
        ("workers", Json::int(workers)),
        ("features", Json::str(features.join(","))),
        ("commit", Json::str(commit)),
    ])
}

fn bound_text(metric: &EndToEnd) -> String {
    match metric.bound {
        Bound::Share(share) => format!("{:.0} %", share * 100.0),
        Bound::Abs(amount) => format!("{amount} abs"),
    }
}

fn workload_entry(workload: &Workload, runs: &[Json], traced: Option<&Json>) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_of(r, "end_to_end", m.name))
                .collect();
            (
                m.name,
                Json::obj(vec![
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::str(bound_text(m))),
                    ("median", Json::num(median(&values))),
                    (
                        "runs",
                        Json::seq(values.iter().map(|v| Json::num(*v)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let per_layer = traced
        .and_then(|t| t.get("per_layer"))
        .unwrap_or(Json::null());
    Json::obj(vec![
        ("name", Json::str(workload.name)),
        ("why", Json::str(workload.why)),
        (
            "digest",
            runs.first()
                .and_then(|r| r.get("digest"))
                .unwrap_or(Json::null()),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", per_layer),
        ("runs", Json::seq(runs.to_vec())),
        ("traced_run", traced.cloned().unwrap_or(Json::null())),
    ])
}

fn print_workload(workload: &Workload, entry: &Json) {
    let runs = entry.get("runs").map(|r| r.items()).unwrap_or_default();
    let count = |key: &str| -> Vec<String> {
        runs.iter()
            .map(|r| r.get(key).and_then(|v| v.u64()).unwrap_or(0).to_string())
            .collect()
    };
    println!(
        "\n{}  digest {:#018x}  rounds {}  frames n = {}  distinct steps = {}",
        workload.name,
        entry.get("digest").and_then(|d| d.u64()).unwrap_or(0),
        count("rounds").join("/"),
        count("frames").join("/"),
        count("steps").join("/"),
    );
    println!(
        "  {:<20} {:<6} {:>12}   {:<40} may worsen by",
        "metric", "unit", "median", "runs"
    );
    for m in &END_TO_END {
        let Some(row) = entry.get("end_to_end").and_then(|e| e.get(m.name)) else {
            continue;
        };
        let values: Vec<String> = row
            .get("runs")
            .map(|r| r.items())
            .unwrap_or_default()
            .iter()
            .map(|v| format!("{:.4}", v.f64().unwrap_or(0.0)))
            .collect();
        println!(
            "  {:<20} {:<6} {:>12.4}   {:<40} {}",
            m.name,
            m.unit,
            row.get("median").and_then(|v| v.f64()).unwrap_or(0.0),
            values.join(" "),
            bound_text(m)
        );
    }
}

fn print_layers(workload: &Workload, entry: &Json) {
    let Some(layers) = entry.get("per_layer").filter(|l| !l.entries().is_empty()) else {
        return;
    };
    println!("\n{}  per-layer (traced run)", workload.name);
    for l in &PER_LAYER {
        let value = layers.get(l.name).and_then(|v| v.f64()).unwrap_or(0.0);
        println!("  {:<34} {:>14.4} {}", l.name, value, l.unit);
    }
}

/// Runs `sets` full sets and returns each one's ledger plus its gate
/// failures. Within a set the workloads are interleaved (A B C D E F,
/// A B C …) and the sets are interleaved run by run (set 1's A, set 2's A,
/// set 1's B, …), so drift of the host hits every workload and every set
/// alike.
fn run_sets(options: &Options, sets: usize) -> Result<Vec<(Json, Vec<String>)>, String> {
    // runs[set][slot] holds that workload's repetitions.
    let mut runs: Vec<Vec<Vec<Json>>> = vec![vec![Vec::new(); WORKLOADS.len()]; sets];
    let repetitions = options.repetitions();
    for rep in 0..repetitions {
        for (slot, workload) in WORKLOADS.iter().enumerate() {
            for (set, set_runs) in runs.iter_mut().enumerate() {
                eprintln!(
                    "e2e: set {}/{sets} rep {}/{repetitions} {}",
                    set + 1,
                    rep + 1,
                    workload.name
                );
                set_runs[slot].push(spawn_run(workload, options, None)?);
            }
        }
    }
    let mut traced: Vec<Vec<Option<Json>>> = vec![vec![None; WORKLOADS.len()]; sets];
    if !options.quick {
        for (slot, workload) in WORKLOADS.iter().enumerate() {
            for (set, set_traced) in traced.iter_mut().enumerate() {
                eprintln!("e2e: set {}/{sets} traced {}", set + 1, workload.name);
                let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name));
                set_traced[slot] = Some(spawn_run(workload, options, Some(&path))?);
            }
        }
    }
    Ok(runs
        .iter()
        .zip(&traced)
        .map(|(runs, traced)| set_ledger(options, runs, traced))
        .collect())
}

/// Gates one set's runs and builds its ledger.
fn set_ledger(
    options: &Options,
    runs: &[Vec<Json>],
    traced: &[Option<Json>],
) -> (Json, Vec<String>) {
    let mut failures = Vec::new();
    let mut entries = Vec::new();
    for (slot, workload) in WORKLOADS.iter().enumerate() {
        failures.extend(gate(workload.name, &runs[slot], traced[slot].as_ref()));
        entries.push(workload_entry(workload, &runs[slot], traced[slot].as_ref()));
    }
    let workers = runs[0]
        .first()
        .and_then(|r| r.get("workers"))
        .and_then(|w| w.u64())
        .unwrap_or(0);
    let ledger = Json::obj(vec![
        ("schema", Json::str("volut-e2e/1")),
        // This benchmark fixes names; it claims no gain.
        ("claim", Json::null()),
        ("host", host_json(workers)),
        ("seed", Json::int(options.seed)),
        ("run_seconds", Json::int(RUN_SECONDS)),
        ("repetitions", Json::int(options.repetitions() as u64)),
        ("quick", Json::bool(options.quick)),
        ("workloads", Json::seq(entries)),
        (
            "gate",
            Json::obj(vec![
                ("passed", Json::bool(failures.is_empty())),
                (
                    "failures",
                    Json::seq(failures.iter().map(Json::str).collect()),
                ),
            ]),
        ),
    ]);
    (ledger, failures)
}

fn print_ledger(ledger: &Json) {
    if let Some(host) = ledger.get("host") {
        println!("host {}", host.to_compact());
    }
    let entries = ledger
        .get("workloads")
        .map(|w| w.items())
        .unwrap_or_default();
    for (workload, entry) in WORKLOADS.iter().zip(&entries) {
        print_workload(workload, entry);
    }
    for (workload, entry) in WORKLOADS.iter().zip(&entries) {
        print_layers(workload, entry);
    }
}

fn write_ledger(path: &Path, ledger: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, ledger.to_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn report_gate(failures: &[String]) -> ExitCode {
    if failures.is_empty() {
        println!("\ncorrectness gate: passed");
        ExitCode::SUCCESS
    } else {
        println!("\ncorrectness gate: FAILED");
        for failure in failures {
            println!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

pub fn run_command(options: &Options) -> Result<ExitCode, String> {
    let (ledger, failures) = run_sets(options, 1)?.remove(0);
    print_ledger(&ledger);
    write_ledger(&Path::new(OUT_DIR).join("latest.json"), &ledger)?;
    Ok(report_gate(&failures))
}

/// The ledger's entry for `workload`.
fn entry_of(ledger: &Json, workload: &str) -> Option<Json> {
    ledger
        .get("workloads")?
        .items()
        .into_iter()
        .find(|e| e.get("name").is_some_and(|n| n.as_str() == Some(workload)))
}

fn runs_of(ledger: &Json, workload: &str, metric: &str) -> Vec<f64> {
    entry_of(ledger, workload)
        .and_then(|e| e.get("end_to_end")?.get(metric)?.get("runs"))
        .map(|r| r.items().iter().filter_map(Json::f64).collect())
        .unwrap_or_default()
}

/// Prints the metric × workload table of two ledgers. `symmetric` is the
/// `repeat` rule (same code twice: the medians must agree within the bound
/// either way); otherwise `judge` decides, with its `unresolved` rule.
/// Returns the number of rows outside their bound.
fn compare_ledgers(a: &Json, b: &Json, symmetric: bool) -> usize {
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>12} {:>12}  verdict",
        "workload", "metric", "baseline", "candidate", "difference", "allowed"
    );
    let mut outside = 0;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (base, cand) = (
                runs_of(a, workload.name, metric.name),
                runs_of(b, workload.name, metric.name),
            );
            if base.is_empty() || cand.is_empty() {
                continue;
            }
            let (base_median, cand_median) = (median(&base), median(&cand));
            let limit = allowed(metric, base_median);
            let verdict = if symmetric {
                if (cand_median - base_median).abs() > limit {
                    Verdict::Regressed
                } else {
                    Verdict::Within
                }
            } else {
                judge(metric, &base, &cand)
            };
            outside += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<20} {:<20} {:>12.4} {:>12.4} {:>+12.4} {:>12.4}  {}",
                workload.name,
                metric.name,
                base_median,
                cand_median,
                cand_median - base_median,
                limit,
                match verdict {
                    Verdict::Within => "ok",
                    Verdict::Regressed => "OUTSIDE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    outside
}

pub fn repeat_command(options: &Options) -> Result<ExitCode, String> {
    let mut sets = run_sets(options, 2)?;
    let (second, more) = sets.remove(1);
    let (first, mut failures) = sets.remove(0);
    failures.extend(more);
    write_ledger(&Path::new(OUT_DIR).join("repeat-1.json"), &first)?;
    write_ledger(&Path::new(OUT_DIR).join("repeat-2.json"), &second)?;
    let outside = compare_ledgers(&first, &second, true);
    // Deterministic numbers must agree exactly across the sets.
    for workload in &WORKLOADS {
        let pick = |ledger: &Json, key: &str| {
            entry_of(ledger, workload.name)?
                .get("runs")?
                .items()
                .first()?
                .get(key)
        };
        for key in ["digest", "wire"] {
            if pick(&first, key) != pick(&second, key) {
                failures.push(format!("{}: {key} differs between the sets", workload.name));
            }
        }
        if runs_of(&first, workload.name, "failed_ratio")
            != runs_of(&second, workload.name, "failed_ratio")
        {
            failures.push(format!(
                "{}: failed_ratio differs between the sets",
                workload.name
            ));
        }
    }
    println!("\n{outside} metric × workload rows outside their bound");
    let gate = report_gate(&failures);
    Ok(if outside == 0 {
        gate
    } else {
        ExitCode::FAILURE
    })
}

pub fn compare_command(baseline: &Path, candidate: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let outside = compare_ledgers(&load(baseline)?, &load(candidate)?, false);
    println!("\n{outside} metric × workload rows regressed beyond their bound");
    Ok(if outside == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find_end_to_end;

    fn metric(name: &str) -> &'static EndToEnd {
        find_end_to_end(name).unwrap()
    }

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        let p50 = metric("frame_ms_p50"); // lower is better, 25 %
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9], &[12.4, 12.3, 12.2]),
            Verdict::Within
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9], &[12.8, 12.7, 12.9]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9], &[5.0, 5.1, 4.9]),
            Verdict::Within
        );
        let fps = metric("frames_per_s"); // higher is better, 25 %
        assert_eq!(
            judge(fps, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Within
        );
        assert_eq!(
            judge(fps, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(fps, &[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Verdict::Within
        );
    }

    #[test]
    fn absolute_bounds_cover_zero_baselines() {
        let setup = metric("setup_s"); // 25 %
        assert_eq!(allowed(setup, 4.0), 1.0);
        let failed = metric("failed_ratio"); // 0.001 abs
        assert_eq!(allowed(failed, 0.0), 0.001);
        assert_eq!(judge(failed, &[0.0; 3], &[0.0005; 3]), Verdict::Within);
        assert_eq!(judge(failed, &[0.0; 3], &[0.002; 3]), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_dominates() {
        let p50 = metric("frame_ms_p50");
        // Spread 3 > allowed 2.5: overlapping runs prove nothing.
        assert_eq!(
            judge(p50, &[10.0, 12.0, 9.0], &[10.5, 11.0, 9.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9], &[9.0, 13.0, 10.0]),
            Verdict::Unresolved
        );
        // Every candidate run beats every baseline run: resolved, fine.
        assert_eq!(
            judge(p50, &[10.0, 12.0, 9.0], &[8.0, 8.5, 7.0]),
            Verdict::Within
        );
        // Every candidate run is worse than every baseline run: resolved,
        // and the medians decide.
        assert_eq!(
            judge(p50, &[10.0, 12.0, 9.0], &[14.0, 15.0, 13.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 7.0], &[10.2, 10.3, 10.4]),
            Verdict::Within
        );
    }

    fn run(digest: u64, failed_ratio: f64, retries: u64, correct: bool) -> Json {
        Json::obj(vec![
            ("correct", Json::bool(correct)),
            ("digest", Json::int(digest)),
            (
                "wire",
                Json::obj(vec![("resilience.retries", Json::int(retries))]),
            ),
            ("failures", Json::seq(vec![Json::str("boom")])),
            (
                "end_to_end",
                Json::obj(vec![("failed_ratio", Json::num(failed_ratio))]),
            ),
        ])
    }

    #[test]
    fn a_corrupted_digest_trips_the_gate() {
        let good = [
            run(7, 0.0, 3, true),
            run(7, 0.0, 3, true),
            run(7, 0.0, 3, true),
        ];
        assert!(gate("w", &good, Some(&run(7, 0.0, 3, true))).is_empty());
        // One flipped bit in one repetition's digest.
        let bad = [
            run(7, 0.0, 3, true),
            run(7 ^ 1, 0.0, 3, true),
            run(7, 0.0, 3, true),
        ];
        let failures = gate("w", &bad, None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("digests disagree"));
        // The traced run's digest counts too.
        assert!(!gate("w", &good, Some(&run(8, 0.0, 3, true))).is_empty());
    }

    #[test]
    fn the_gate_wants_exact_counts_and_correct_runs() {
        let base = run(7, 0.001, 3, true);
        assert!(!gate("w", &[base.clone(), run(7, 0.002, 3, true)], None).is_empty());
        assert!(!gate("w", &[base.clone(), run(7, 0.001, 4, true)], None).is_empty());
        let failures = gate("w", &[base, run(7, 0.001, 3, false)], None);
        assert!(
            failures.iter().any(|f| f.contains("incorrect: boom")),
            "{failures:?}"
        );
    }
}
