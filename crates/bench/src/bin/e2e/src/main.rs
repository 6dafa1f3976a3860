//! `e2e` — the repo's end-to-end benchmark ledger.
//!
//! Six named workloads, eight end-to-end metrics, per-layer spans timed from
//! outside the library. See `README.md` beside this file for the
//! definitions; `BENCHMARK.json` at the repo root is printed by `e2e spec`.
//!
//! ```text
//! e2e run [--quick] [--seed N]     three interleaved repetitions, gate, traced runs
//! e2e repeat [--quick] [--seed N]  two interleaved sets, compared by the bounds
//! e2e compare a.json b.json        two saved ledgers, compared by the bounds
//! e2e spec                         print BENCHMARK.json
//! e2e --workload W --seed N --seconds S --trace 0|1   one run, one process
//! ```

mod api;
mod json;
mod ledger;
mod measure;
mod runner;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::workloads::{find_workload, RUN_SECONDS};

/// Prefix of the child's detail line (the contract's result line follows it
/// as the last line of standard output).
pub const DETAIL_PREFIX: &str = "E2E-DETAIL ";

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot parse {text:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let workload = find_workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.parsed("--seconds", RUN_SECONDS as f64)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0..=600"));
    }
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let args = runner::RunArgs {
        workload,
        seed: flags.parsed("--seed", 1u64)?,
        seconds,
        trace,
        quick: flags.has("--quick"),
        trace_out: flags.value("--trace-out").map(PathBuf::from),
    };
    let outcome = runner::run(&args);
    for failure in &outcome.failures {
        eprintln!("e2e: gate: {failure}");
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail(&args).to_compact());
    println!("{}", outcome.contract_line(trace));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let command = args.first().map(String::as_str).unwrap_or("");
    let flags = Flags(args.iter().skip(1).cloned().collect());
    match command {
        "run" => ledger::run_command(&flags_to_options(&flags)?),
        "repeat" => ledger::repeat_command(&flags_to_options(&flags)?),
        "compare" => match (flags.0.first(), flags.0.get(1)) {
            (Some(a), Some(b)) => ledger::compare_command(a.as_ref(), b.as_ref()),
            _ => Err("usage: e2e compare <baseline.json> <candidate.json>".into()),
        },
        "spec" => {
            println!("{}", workloads::benchmark_spec().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ if args.iter().any(|a| a == "--workload") => single_run(&Flags(args)),
        _ => Err("usage: e2e run|repeat [--quick] [--seed N]\n\
             \x20      e2e compare <baseline.json> <candidate.json>\n\
             \x20      e2e spec\n\
             \x20      e2e --workload <name> --seed N --seconds S --trace 0|1"
            .into()),
    }
}

fn flags_to_options(flags: &Flags) -> Result<ledger::Options, String> {
    Ok(ledger::Options {
        seed: flags.parsed("--seed", 1u64)?,
        quick: flags.has("--quick"),
    })
}

fn main() -> ExitCode {
    measure::mark_process_start();
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
