//! A small from-scratch neural-network stack used to train the refinement
//! function offline (§4.2.2).
//!
//! The paper trains a GradPU-style refinement network in PyTorch and then
//! *distills it into a LUT*; the network is never executed on the client.
//! This module provides the minimal pieces needed to reproduce that offline
//! path in pure Rust: dense layers, a ReLU MLP with backpropagation, the
//! Adam optimizer and the one training recipe that builds the training set,
//! trains the network and distills it ([`train::Recipe`]).

pub mod adam;
pub mod mlp;
pub mod train;

pub use adam::Adam;
pub use mlp::{BatchScratch, ForwardScratch, Linear, Mlp, MICRO_BATCH};
pub use train::{Recipe, Trained, TrainingFrame, TrainingReport};
