//! Fault-tolerant delta-frame session protocol and deadline-aware
//! graceful degradation, in four files: `wire` (the message format),
//! `origin` (the [`DeltaServer`]), `receiver` (the recovery ladder and the
//! one recover → upsample → commit loop) and `degradation` (the
//! [`DegradationController`], consulted by both the streaming simulator and
//! the multi-tenant server).
//!
//! # The protocol
//!
//! Delta frames cross the (possibly faulty, see [`crate::faults`]) link as
//! sequence-numbered, checksummed messages ([`FrameMessage`]): a delta
//! message carries the [`FrameDelta`] parts plus the inserted positions and
//! the [`geometry_digest`] of the frame it reconstructs; a keyframe message
//! carries the full positions. Every message ends in a 64-bit FNV-1a
//! checksum over its bytes, so truncation and bit corruption are detected
//! at decode time, and the geometry digest is re-checked after
//! reconstruction, so a message that decodes but reconstructs the wrong
//! frame (or applies against the wrong base) never reaches the SR engine.
//!
//! # The recovery ladder
//!
//! [`ResilientReceiver::recover`] climbs three rungs, cheapest first:
//!
//! 1. **Splice** — after a gap (dropped or mangled frames), the next
//!    request asks the server for one delta covering the whole gap, which
//!    the server builds with [`FrameDelta::compose`]. The session's
//!    incremental caches stay warm; only the churn of the spliced delta is
//!    recomputed.
//! 2. **Retransmit** — each request is retried up to
//!    [`RetryPolicy::max_retries`] times with exponential backoff, every
//!    round charged real link time plus the per-request timeout.
//! 3. **Keyframe resync** — when delta recovery keeps failing, the session
//!    requests the full frame, flushes every cross-frame cache
//!    ([`crate::client::SrSession::flush_caches`] — see the cache-flush
//!    invariants in `volut_core::interpolate::temporal`) and recomputes
//!    cold. Cold output depends only on the frame's own bits, so after at
//!    most one keyframe the session's output is bit-identical to a session
//!    that never saw a fault — the property the chaos suite asserts.
//!
//! [`ResilientReceiver::deliver`] then upsamples the frame at its
//! degradation [`Rung`] and commits it as the next delta base, even when
//! the SR engine fails on it.
//!
//! # Deadline-aware degradation
//!
//! [`DegradationController`] is a five-level state machine (full →
//! skip-refinement → reduced-ratio → interpolate-only → passthrough) with
//! hysteresis: it degrades when the [`SrComputeModel`]-predicted compute
//! time overruns the frame budget for `degrade_after` consecutive frames,
//! and recovers one level only after `recover_after` consecutive frames fit
//! the *higher* level within a safety margin. The streaming simulator
//! consults it per chunk and folds the level's quality factor into QoE, so
//! deadline misses trade off visibly against quality instead of silently
//! stalling playback; the server plans each tenant frame's [`Rung`] with it.
//!
//! [`geometry_digest`]: volut_pointcloud::cloud::geometry_digest
//! [`SrComputeModel`]: crate::client::SrComputeModel
//! [`FrameDelta`]: volut_pointcloud::FrameDelta
//! [`FrameDelta::compose`]: volut_pointcloud::FrameDelta::compose

mod degradation;
mod origin;
mod receiver;
mod wire;

pub use degradation::{DegradationConfig, DegradationController, DegradationLevel};
pub use origin::{DeltaServer, RetentionPolicy};
pub use receiver::{
    RecoveredFrame, RecoveryKind, ResilientReceiver, ResilientSession, RetryPolicy,
    RobustnessStats, Rung, Upsampler,
};
pub(crate) use wire::{fnv1a, FNV_OFFSET};
pub use wire::{DecodeError, DeltaParts, FrameMessage, MessageBody};
