//! Baseline super-resolution systems the paper compares against.
//!
//! * [`naive`] — vanilla kNN midpoint interpolation (`K4d1`), one cold call
//!   per frame; the interpolation stage of both systems below.
//! * [`gradpu`] — GradPU-style direct neural refinement: the same two-stage
//!   structure as VoLUT but the refinement network is executed for every
//!   point, iteratively, at full inference cost.
//! * [`yuzu`] — Yuzu-style neural SR: a heavyweight per-ratio upsampling
//!   network supporting only a discrete set of ratios, mirroring the
//!   state-of-the-art system VoLUT is evaluated against.

pub mod gradpu;
pub mod naive;
pub mod yuzu;

pub use gradpu::GradPuUpsampler;
pub use yuzu::YuzuUpsampler;
