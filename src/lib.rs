//! # volut
//!
//! Facade crate for the VoLUT reproduction (MLSys 2025): efficient
//! volumetric streaming enhanced by LUT-based super-resolution.
//!
//! This crate re-exports the three library layers so applications can depend
//! on a single crate:
//!
//! * [`pointcloud`] — geometry, neighbor search, sampling, metrics and
//!   synthetic content ([`volut_pointcloud`]);
//! * [`core`] — the two-stage SR pipeline: dilated interpolation plus
//!   LUT-based refinement, the offline training/distillation path and the
//!   GradPU / Yuzu baselines ([`volut_core`]);
//! * [`stream`] — volumetric video, network traces, MPC ABR, QoE and the
//!   end-to-end streaming simulator ([`volut_stream`]).
//!
//! See the runnable programs in `examples/` for end-to-end usage, and the
//! `volut-bench` crate for the harness that regenerates every table and
//! figure of the paper.
//!
//! # Example
//!
//! ```
//! use volut::core::{refine::IdentityRefiner, SrConfig, SrPipeline};
//! use volut::pointcloud::{metrics, sampling, synthetic};
//!
//! # fn main() -> Result<(), volut::core::Error> {
//! let ground_truth = synthetic::torus(2_000, 1.0, 0.3, 1);
//! let low = sampling::random_downsample(&ground_truth, 0.5, 2)?;
//! let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
//! let upsampled = pipeline.upsample(&low, 2.0)?;
//! assert!(metrics::one_sided_chamfer(&ground_truth, &upsampled.cloud)
//!     < metrics::one_sided_chamfer(&ground_truth, &low));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use volut_core as core;
pub use volut_pointcloud as pointcloud;
pub use volut_stream as stream;
