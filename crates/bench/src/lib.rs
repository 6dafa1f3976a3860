//! # volut-bench
//!
//! Benchmark harness that regenerates every table and figure of the VoLUT
//! paper's evaluation (§7) on synthetic stand-ins for its videos, traces and
//! devices. Each experiment produces a [`report::Report`] that is printed as
//! a table (same rows/series as the paper) and optionally dumped as JSON
//! into `results/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p volut-bench --release --bin experiments -- all
//! ```
//!
//! or a single experiment with e.g. `-- table1`, `-- fig12`, `-- fig17`.
//! Speed is measured end to end and per layer by the benchmark ledger in
//! `src/bin/e2e` (`BENCHMARK.json` at the repository root), not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod memory;
pub mod quality;
pub mod report;
pub mod setup;
pub mod speed;
pub mod streaming;
pub mod table1;

pub use report::Report;
