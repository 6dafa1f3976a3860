//! # volut-pointcloud
//!
//! Point-cloud substrate for the VoLUT volumetric-streaming reproduction.
//!
//! This crate provides everything below the super-resolution algorithm:
//! geometric primitives ([`Point3`], [`Aabb`]), the [`PointCloud`] container,
//! neighbor search (the k-d tree index with its dual-tree self-join, and the
//! brute-force oracle the tests compare it against), sampling operators
//! (random, voxel, farthest-point), quality metrics (Chamfer distance, PSNR),
//! and procedural synthetic content generators used in place of the paper's
//! captured videos.
//!
//! # Example
//!
//! ```
//! use volut_pointcloud::{synthetic, sampling, metrics, knn::NeighborSearch, kdtree::KdTree};
//!
//! # fn main() -> Result<(), volut_pointcloud::Error> {
//! // Generate a synthetic torus surface with colors.
//! let cloud = synthetic::torus(5_000, 1.0, 0.35, 42);
//! // Randomly downsample to half the points (the paper's server-side operator).
//! let low = sampling::random_downsample(&cloud, 0.5, 7)?;
//! // Build a k-d tree and query neighbors.
//! let tree = KdTree::build(low.positions());
//! let nn = tree.knn(cloud.positions()[0], 4);
//! assert_eq!(nn.len(), 4);
//! // Measure how much geometry was lost.
//! let cd = metrics::chamfer_distance(&low, &cloud);
//! assert!(cd > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aabb;
pub mod cloud;
pub mod delta;
pub mod dualtree;
pub mod error;
pub mod kdtree;
pub mod kernels;
pub mod knn;
pub mod metrics;
pub mod neighborhoods;
pub mod point;
pub mod runtime;
pub mod sampling;
pub mod soa;
pub mod synthetic;

pub use aabb::Aabb;
pub use cloud::PointCloud;
pub use delta::{DeltaError, FrameDelta};
pub use error::Error;
pub use neighborhoods::{Neighborhoods, NeighborhoodsView};
pub use point::{Color, Point3};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
