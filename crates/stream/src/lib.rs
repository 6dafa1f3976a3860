//! # volut-stream
//!
//! Streaming substrate for the VoLUT reproduction: the volumetric-video
//! model, network traces and a simulated link, throughput estimation, the
//! playback buffer, the QoE objective (Eq. 10), continuous/discrete MPC ABR
//! controllers (§5), 6DoF motion traces and viewport culling for the ViVo
//! baseline, and the end-to-end streaming simulator that reproduces the
//! paper's QoE / data-usage experiments (Figures 12–14).
//!
//! # Example
//!
//! ```
//! use volut_stream::{simulator::{SessionConfig, StreamingSimulator}, systems::SystemKind,
//!                    trace::NetworkTrace, video::VideoMeta};
//!
//! let video = VideoMeta::long_dress();
//! let trace = NetworkTrace::stable(50.0, 120.0);
//! let sim = StreamingSimulator::new(SessionConfig::default());
//! let result = sim.run(&video, &trace, SystemKind::VolutContinuous).unwrap();
//! assert!(result.qoe.score > 0.0);
//! assert!(result.data_bytes > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abr;
pub mod buffer;
pub mod chunk;
pub mod client;
pub mod error;
pub mod faults;
pub mod link;
pub mod motion;
pub mod qoe;
pub mod resilience;
pub mod server;
pub mod simulator;
pub mod systems;
pub mod telemetry;
pub mod throughput;
pub mod trace;
pub mod video;
pub mod viewport;

pub use error::Error;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
