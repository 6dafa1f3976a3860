//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p volut-bench --release --bin experiments -- all
//! cargo run -p volut-bench --release --bin experiments -- table1 fig12 fig17
//! ```
//!
//! Reports are printed to stdout and written as JSON to `results/`.

use volut_bench::setup::{experiment_points, TrainedArtifacts};
use volut_bench::{memory, quality, report::Report, speed, streaming, table1};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    } else {
        args
    };
    let wants = |id: &str| selected.iter().any(|s| s == id);
    let points = experiment_points();
    let streaming_seconds: f64 = std::env::var("VOLUT_SESSION_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);

    let mut reports: Vec<Report> = Vec::new();

    if wants("table1") {
        reports.push(table1::run());
    }

    let needs_artifacts = [
        "fig7", "fig8", "fig9", "fig10", "fig11", "fig15", "fig16", "fig17", "fig18",
    ]
    .iter()
    .any(|id| wants(id));
    let artifacts = if needs_artifacts {
        eprintln!("[experiments] training refinement network and distilling LUT ({points} points per frame)...");
        Some(TrainedArtifacts::train(points))
    } else {
        None
    };

    if let Some(artifacts) = &artifacts {
        if ["fig7", "fig8", "fig9", "fig10"].iter().any(|id| wants(id)) {
            eprintln!("[experiments] running SR quality sweep (figures 7-10)...");
            for report in quality::run_all(artifacts, points) {
                if wants(&report.id) {
                    reports.push(report);
                }
            }
        }
        if ["fig11", "fig16", "fig17", "fig18"]
            .iter()
            .any(|id| wants(id))
        {
            eprintln!("[experiments] running runtime experiments (figures 11, 16, 17, 18)...");
            for report in speed::run_all(artifacts, points) {
                if wants(&report.id) {
                    reports.push(report);
                }
            }
        }
        if wants("fig15") {
            reports.push(memory::fig15_memory(artifacts));
        }
    }

    if ["fig12", "fig13", "fig14"].iter().any(|id| wants(id)) {
        eprintln!("[experiments] running streaming simulations (figures 12-14, {streaming_seconds} s sessions)...");
        for report in streaming::run_all(streaming_seconds) {
            if wants(&report.id) {
                reports.push(report);
            }
        }
    }

    for report in &reports {
        report.print();
        if let Err(e) = report.write_json("results") {
            eprintln!(
                "[experiments] warning: could not write results/{}.json: {e}",
                report.id
            );
        }
    }
    eprintln!(
        "[experiments] wrote {} report(s) to results/",
        reports.len()
    );
}
