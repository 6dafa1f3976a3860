//! # volut-core
//!
//! The paper's primary contribution: two-stage point-cloud super-resolution
//! combining **enhanced dilated interpolation** (§4.1) with **position-aware
//! LUT refinement** (§4.2), plus the neural-network training path used to
//! construct the LUT offline and the GradPU / Yuzu baselines the paper
//! compares against.
//!
//! The typical offline → online flow is:
//!
//! 1. Offline: train a small refinement MLP on (downsampled, ground-truth)
//!    frame pairs and distill it into a lookup table, one
//!    [`nn::train::Recipe`].
//! 2. Online: run [`pipeline::SrPipeline`] on each received low-resolution
//!    frame — dilated interpolation, colorization, then per-point LUT
//!    refinement.
//!
//! # Example
//!
//! ```
//! use volut_core::{config::SrConfig, pipeline::SrPipeline, refine::IdentityRefiner};
//! use volut_pointcloud::{synthetic, sampling, metrics};
//!
//! # fn main() -> Result<(), volut_core::Error> {
//! let ground_truth = synthetic::sphere(2_000, 1.0, 1);
//! let low = sampling::random_downsample(&ground_truth, 0.5, 2)?;
//! let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
//! let result = pipeline.upsample(&low, 2.0)?;
//! assert!(result.cloud.len() > low.len());
//! // Upsampling improves how well the reconstruction covers the ground truth.
//! let after = metrics::one_sided_chamfer(&ground_truth, &result.cloud);
//! let before = metrics::one_sided_chamfer(&ground_truth, &low);
//! assert!(after < before);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod config;
pub mod device;
pub mod encoding;
pub mod error;
pub mod interpolate;
pub mod lut;
pub mod nn;
pub mod pipeline;
pub mod refine;
pub mod registry;

pub use config::SrConfig;
pub use device::DeviceProfile;
pub use error::Error;
pub use pipeline::SrPipeline;
pub use registry::{ContentModel, ModelRegistry, SharedLut};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
