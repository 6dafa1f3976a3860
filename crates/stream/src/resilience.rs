//! Fault-tolerant delta-frame session protocol and deadline-aware
//! graceful degradation.
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
//! [`ResilientSession::advance`] climbs three rungs, cheapest first:
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
//! stalling playback.
//!
//! [`geometry_digest`]: volut_pointcloud::cloud::geometry_digest
//! [`SrComputeModel`]: crate::client::SrComputeModel

use std::collections::VecDeque;

use crate::chunk::Chunk;
use crate::client::{SrComputeModel, SrSession};
use crate::faults::Transport;
use crate::{Error, Result};
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};
use volut_core::device::DeviceProfile;
use volut_core::pipeline::SrResult;
use volut_pointcloud::cloud::geometry_digest;
use volut_pointcloud::{Color, FrameDelta, Point3, PointCloud};

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Message kind tag for a full-frame (keyframe) payload.
const KIND_KEYFRAME: u8 = 0;
/// Message kind tag for a delta payload.
const KIND_DELTA: u8 = 1;

/// 64-bit FNV-1a over a byte slice — the payload checksum. Not
/// cryptographic: the adversary here is the fault injector's random bit
/// flips and truncations, not a forger.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point3) {
    put_u32(out, p.x.to_bits());
    put_u32(out, p.y.to_bits());
    put_u32(out, p.z.to_bits());
}

/// Cursor-style reader over a received byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn point(&mut self) -> Option<Point3> {
        Some(Point3::new(
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
        ))
    }

    fn color(&mut self) -> Option<Color> {
        Some(Color::new(self.u8()?, self.u8()?, self.u8()?))
    }
}

fn put_colors(out: &mut Vec<u8>, colors: &Option<Vec<Color>>) {
    match colors {
        Some(cs) => {
            out.push(1);
            for c in cs {
                out.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        None => out.push(0),
    }
}

/// Reads the optional color block that follows `count` points.
fn read_colors(
    r: &mut Reader<'_>,
    count: usize,
) -> std::result::Result<Option<Vec<Color>>, DecodeError> {
    match r.u8().ok_or(DecodeError::Malformed)? {
        0 => Ok(None),
        1 => {
            let mut colors = Vec::with_capacity(count);
            for _ in 0..count {
                colors.push(r.color().ok_or(DecodeError::Malformed)?);
            }
            Ok(Some(colors))
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// Builds a point cloud from reconstructed positions and optional colors
/// (lengths validated by the caller before reconstruction).
fn build_cloud(positions: Vec<Point3>, colors: Option<Vec<Color>>) -> PointCloud {
    match colors {
        Some(c) => PointCloud::from_positions_and_colors(positions, c)
            .expect("color count validated before reconstruction"),
        None => PointCloud::from_positions(positions),
    }
}

/// Why a received payload was rejected before reaching the SR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload is shorter than the fixed header + checksum.
    TooShort,
    /// The trailing FNV-1a checksum does not match the payload bytes
    /// (truncation or bit corruption in transit).
    BadChecksum,
    /// The payload decodes but its structure is inconsistent (bad kind
    /// tag, counts that do not add up, a delta that fails
    /// [`FrameDelta::from_parts`]).
    Malformed,
}

/// Body of one protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageBody {
    /// A full frame: positions plus their [`geometry_digest`].
    Keyframe {
        /// The frame's positions.
        positions: Vec<Point3>,
        /// Per-point colors, when the stream carries them.
        colors: Option<Vec<Color>>,
        /// Digest of `positions` (re-checked after decode).
        digest: u64,
    },
    /// A delta from the frame at `base_seq` to this message's sequence
    /// number. Survivor attributes ride the survivor map on the receiver;
    /// only the inserted points travel.
    Delta {
        /// Sequence number of the frame this delta applies to.
        base_seq: u64,
        /// The structural delta (removals, insertions, survivor map).
        delta: FrameDelta,
        /// Positions of the inserted points, in `delta.inserted()` order.
        inserted: Vec<Point3>,
        /// Colors of the inserted points, when the stream carries colors.
        inserted_colors: Option<Vec<Color>>,
        /// Digest of the *reconstructed* frame's positions.
        digest: u64,
    },
}

/// One sequence-numbered protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMessage {
    /// Sequence number (frame index) this message produces.
    pub seq: u64,
    /// Keyframe or delta body.
    pub body: MessageBody,
}

impl FrameMessage {
    /// Encodes the message with its trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.seq);
        match &self.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                out.push(KIND_KEYFRAME);
                put_u32(&mut out, positions.len() as u32);
                for &p in positions {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, colors);
                put_u64(&mut out, *digest);
            }
            MessageBody::Delta {
                base_seq,
                delta,
                inserted,
                inserted_colors,
                digest,
            } => {
                out.push(KIND_DELTA);
                put_u64(&mut out, *base_seq);
                put_u32(&mut out, delta.old_len() as u32);
                put_u32(&mut out, delta.new_len() as u32);
                put_u32(&mut out, delta.removed().len() as u32);
                put_u32(&mut out, delta.inserted().len() as u32);
                for &i in delta.removed() {
                    put_u32(&mut out, i);
                }
                for &i in delta.inserted() {
                    put_u32(&mut out, i);
                }
                for &p in inserted {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, inserted_colors);
                put_u64(&mut out, *digest);
            }
        }
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes and integrity-checks a received payload.
    ///
    /// # Errors
    /// [`DecodeError::TooShort`] / [`DecodeError::BadChecksum`] for
    /// payloads mangled in transit, [`DecodeError::Malformed`] for
    /// structurally inconsistent ones.
    pub fn decode(bytes: &[u8]) -> std::result::Result<FrameMessage, DecodeError> {
        // seq + kind + checksum is the smallest possible message.
        if bytes.len() < 8 + 1 + 8 {
            return Err(DecodeError::TooShort);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let claimed = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a64(body) != claimed {
            return Err(DecodeError::BadChecksum);
        }
        let mut r = Reader::new(body);
        let seq = r.u64().ok_or(DecodeError::Malformed)?;
        let kind = r.u8().ok_or(DecodeError::Malformed)?;
        let body = match kind {
            KIND_KEYFRAME => {
                let count = r.u32().ok_or(DecodeError::Malformed)? as usize;
                // Bound the allocation by what the payload can hold.
                if body.len() < 13 + count * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut positions = Vec::with_capacity(count);
                for _ in 0..count {
                    positions.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let colors = read_colors(&mut r, count)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                MessageBody::Keyframe {
                    positions,
                    colors,
                    digest,
                }
            }
            KIND_DELTA => {
                let base_seq = r.u64().ok_or(DecodeError::Malformed)?;
                let old_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let new_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let removed_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let inserted_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                if body.len() < 33 + (removed_len + inserted_len) * 4 + inserted_len * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut removed = Vec::with_capacity(removed_len);
                for _ in 0..removed_len {
                    removed.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted_ids = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted_ids.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let inserted_colors = read_colors(&mut r, inserted_len)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                let delta = FrameDelta::from_parts(old_len, new_len, removed, inserted_ids)
                    .ok_or(DecodeError::Malformed)?;
                MessageBody::Delta {
                    base_seq,
                    delta,
                    inserted,
                    inserted_colors,
                    digest,
                }
            }
            _ => return Err(DecodeError::Malformed),
        };
        Ok(FrameMessage { seq, body })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Bound on the history a [`DeltaServer`] retains. A long-running origin
/// cannot keep every frame forever; once either limit is exceeded the
/// oldest frames (and their deltas) are dropped. Gap requests whose base
/// has fallen out of the window return `None` from
/// [`DeltaServer::delta_message`], which the recovery ladder answers with
/// a keyframe resync — retention never breaks recovery, it only changes
/// which rung serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum number of retained frames (at least 1 is always kept).
    pub max_frames: usize,
    /// Maximum retained bytes ([`DeltaServer::retained_bytes`]: the newest
    /// frame's positions + colors plus every undo step).
    pub max_bytes: u64,
}

impl RetentionPolicy {
    /// No bounds: every frame is retained (the pre-retention behavior).
    pub fn unbounded() -> Self {
        Self {
            max_frames: usize::MAX,
            max_bytes: u64::MAX,
        }
    }

    /// Keep at most `n` frames, with no byte bound.
    pub fn last_frames(n: usize) -> Self {
        Self {
            max_frames: n.max(1),
            max_bytes: u64::MAX,
        }
    }
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Bytes of one retained frame's payload (positions + colors).
fn frame_bytes(frame: &PointCloud) -> u64 {
    let n = frame.len() as u64;
    n * 12 + if frame.colors().is_some() { n * 3 } else { 0 }
}

/// `values` at each of `ids`, allocated to exactly `ids.len()`; `None` when
/// an index is out of range.
fn gather<T: Copy>(values: &[T], ids: &[u32]) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(ids.len());
    for &i in ids {
        out.push(*values.get(i as usize)?);
    }
    Some(out)
}

/// Positions and optional colors of one rebuilt frame.
type Frame = (Vec<Point3>, Option<Vec<Color>>);

/// One retained transition, frame `s` → frame `s + 1`, kept as what it
/// takes to undo it: the delta's parts and the values of the points it
/// removed. The survivor map is not kept — [`FrameDelta::from_parts`]
/// rebuilds it in `O(n)` whenever a message needs it.
#[derive(Debug, Clone)]
struct Step {
    old_len: usize,
    new_len: usize,
    /// Old-frame indices of the removed points, ascending.
    removed: Vec<u32>,
    /// New-frame indices of the inserted points, ascending.
    inserted: Vec<u32>,
    /// Positions of the removed points, in `removed` order.
    removed_positions: Vec<Point3>,
    /// Colors that restore the older frame: the removed points' colors, or
    /// the older frame's whole color array when the newer frame carries
    /// none (then survivors have no colors to ride back on). `None` when
    /// the older frame is colorless. The two cases have the same length
    /// only when every point was removed, and then they are equal.
    old_colors: Option<Vec<Color>>,
    /// [`geometry_digest`] of the newer frame, recorded when it was pushed.
    digest: u64,
}

impl Step {
    /// Records the transition `old` → `new` described by `delta`.
    fn new(old: &PointCloud, new: &PointCloud, delta: &FrameDelta, digest: u64) -> Self {
        // A trusted delta may not fit `old`: out-of-range removals leave the
        // vectors empty, so the step fails to undo instead of panicking.
        let old_colors = old.colors().map(|cs| match new.colors() {
            Some(_) => gather(cs, delta.removed()).unwrap_or_default(),
            None => cs.to_vec(),
        });
        Self {
            old_len: delta.old_len(),
            new_len: delta.new_len(),
            removed: delta.removed().to_vec(),
            inserted: delta.inserted().to_vec(),
            removed_positions: gather(old.positions(), delta.removed()).unwrap_or_default(),
            old_colors,
            digest,
        }
    }

    /// Bytes this step holds: the record itself plus its four vectors
    /// (each allocated to its exact length).
    fn bytes(&self) -> u64 {
        let vecs = (self.removed.len() + self.inserted.len()) * 4
            + self.removed_positions.len() * 12
            + self.old_colors.as_ref().map_or(0, |c| c.len() * 3);
        (vecs + std::mem::size_of::<Self>()) as u64
    }

    /// The forward delta, older frame → newer frame.
    fn forward(&self) -> Option<FrameDelta> {
        FrameDelta::from_parts(
            self.old_len,
            self.new_len,
            self.removed.clone(),
            self.inserted.clone(),
        )
    }

    /// Rebuilds the older frame from the newer one. `None` when the step
    /// does not fit `frame` (only possible after a wrong trusted delta).
    fn undo(&self, frame: Frame) -> Option<Frame> {
        let inverse = FrameDelta::from_parts(
            self.new_len,
            self.old_len,
            self.inserted.clone(),
            self.removed.clone(),
        )?;
        let positions = inverse.apply(&frame.0, &self.removed_positions)?;
        let colors = match &self.old_colors {
            None => None,
            Some(all) if all.len() == self.old_len => Some(all.clone()),
            Some(removed) => Some(inverse.apply(frame.1.as_deref()?, removed)?),
        };
        Some((positions, colors))
    }
}

/// The sender side of the delta-stream protocol: serves keyframes,
/// single-step deltas, and gap-spanning deltas spliced with
/// [`FrameDelta::compose`].
///
/// Only the newest frame is held whole. Each older retained frame is one
/// [`Step`] behind it: the transition's delta parts plus the positions and
/// colors of the points it removed, so undoing steps back from the head
/// rebuilds any retained frame bit for bit. Paced callers only ever ask
/// for the head, which is served directly. Every frame's digest is
/// recorded when it is pushed and carried by every message for it, never
/// recomputed from a rebuilt frame. History is bounded by a
/// [`RetentionPolicy`]: frames older than the window are dropped and any
/// delta request based on them falls back to a keyframe.
#[derive(Debug, Clone)]
pub struct DeltaServer {
    /// The newest frame, whole (`None` until the first push).
    head: Option<PointCloud>,
    /// `steps[i]`: frame `base_seq + i` → frame `base_seq + i + 1`.
    steps: VecDeque<Step>,
    /// Digest of the oldest retained frame, recorded when it was pushed.
    base_digest: u64,
    /// Sequence number of the oldest retained frame.
    base_seq: u64,
    retention: RetentionPolicy,
    /// Running sum of [`Step::bytes`] over `steps`.
    step_bytes: u64,
}

impl DeltaServer {
    /// Builds an unbounded server over a frame sequence, diffing
    /// consecutive frames.
    pub fn new(frames: Vec<PointCloud>) -> Self {
        Self::with_retention(frames, RetentionPolicy::unbounded())
    }

    /// Builds a server over a frame sequence with a retention bound
    /// (enforced as the frames are pushed, so an over-bound seed sequence
    /// is trimmed to its newest frames).
    pub fn with_retention(frames: Vec<PointCloud>, retention: RetentionPolicy) -> Self {
        let mut server = Self {
            head: None,
            steps: VecDeque::new(),
            base_digest: 0,
            base_seq: 0,
            retention,
            step_bytes: 0,
        };
        for frame in frames {
            server.push_frame(frame);
        }
        server
    }

    /// Appends the next frame, diffing it against the current newest one,
    /// then enforces the retention bound.
    pub fn push_frame(&mut self, frame: PointCloud) {
        let delta = self
            .head
            .as_ref()
            .map(|head| FrameDelta::diff(head.positions(), frame.positions()));
        self.push_frame_inner(frame, delta);
    }

    /// Appends the next frame with a precomputed delta from the current
    /// newest frame (e.g. straight from the capture pipeline), skipping the
    /// diff. The delta is trusted, not checked: receivers re-verify every
    /// reconstructed frame against its digest, so a wrong delta is detected
    /// at the edge. That only holds because the digest is taken from the
    /// pushed frame here, at push time — older frames are rebuilt through
    /// the stored deltas, and a digest recomputed from such a rebuild would
    /// vouch for whatever the wrong delta produced.
    pub fn push_frame_with_delta(&mut self, frame: PointCloud, delta: FrameDelta) {
        let delta = self.head.as_ref().map(|_| delta);
        self.push_frame_inner(frame, delta);
    }

    fn push_frame_inner(&mut self, frame: PointCloud, delta: Option<FrameDelta>) {
        let digest = frame.geometry_digest();
        match (self.head.take(), delta) {
            (Some(old), Some(delta)) => {
                let step = Step::new(&old, &frame, &delta, digest);
                self.step_bytes += step.bytes();
                self.steps.push_back(step);
            }
            _ => self.base_digest = digest,
        }
        self.head = Some(frame);
        self.enforce_retention();
    }

    /// Drops the oldest steps until both retention bounds hold (the head
    /// always stays, so the stream head stays servable).
    fn enforce_retention(&mut self) {
        while self.retained_frames() > self.retention.max_frames
            || (!self.steps.is_empty() && self.retained_bytes() > self.retention.max_bytes)
        {
            let Some(step) = self.steps.pop_front() else {
                break;
            };
            self.step_bytes -= step.bytes();
            self.base_digest = step.digest;
            self.base_seq += 1;
        }
    }

    /// Total frames the stream has produced (retained or dropped): the
    /// next pushed frame gets sequence number `frame_count()`.
    pub fn frame_count(&self) -> usize {
        self.base_seq as usize + self.retained_frames()
    }

    /// Sequence number of the oldest frame still retained.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Number of frames currently retained (the head plus one per step).
    pub fn retained_frames(&self) -> usize {
        self.head.as_ref().map_or(0, |_| 1 + self.steps.len())
    }

    /// Bytes the origin holds: the head frame's positions and colors plus
    /// every step's record and vectors. This is what
    /// [`RetentionPolicy::max_bytes`] caps.
    pub fn retained_bytes(&self) -> u64 {
        self.head.as_ref().map_or(0, frame_bytes) + self.step_bytes
    }

    /// Offset of `seq` into the window, `None` outside it.
    fn offset(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.base_seq)? as usize;
        (offset < self.retained_frames()).then_some(offset)
    }

    /// Digest of the frame at window offset `offset`, as recorded at push.
    fn digest_at(&self, offset: usize) -> u64 {
        match offset {
            0 => self.base_digest,
            i => self.steps[i - 1].digest,
        }
    }

    /// Rebuilds the frame at window offset `offset` by undoing the steps
    /// after it, newest first.
    fn rebuild(&self, offset: usize) -> Option<Frame> {
        let head = self.head.as_ref()?;
        let frame = (
            head.positions().to_vec(),
            head.colors().map(<[Color]>::to_vec),
        );
        self.steps
            .range(offset..)
            .rev()
            .try_fold(frame, |frame, step| step.undo(frame))
    }

    /// The frame at `seq` (ground truth for bit-identity checks), rebuilt
    /// from the head when it is older. `None` once it has aged out of the
    /// retention window.
    pub fn frame(&self, seq: u64) -> Option<PointCloud> {
        let (positions, colors) = self.rebuild(self.offset(seq)?)?;
        Some(build_cloud(positions, colors))
    }

    /// Encodes the keyframe message for `seq`. Returns `None` past the end
    /// of the sequence or behind the retention window.
    pub fn keyframe_message(&self, seq: u64) -> Option<Vec<u8>> {
        let offset = self.offset(seq)?;
        let (positions, colors) = self.rebuild(offset)?;
        Some(
            FrameMessage {
                seq,
                body: MessageBody::Keyframe {
                    positions,
                    colors,
                    digest: self.digest_at(offset),
                },
            }
            .encode(),
        )
    }

    /// Encodes a delta message from `base_seq` to `seq`, splicing the
    /// intermediate single-step deltas with [`FrameDelta::compose`] when
    /// the gap spans more than one frame. Returns `None` when the range is
    /// out of bounds, inverted, or starts before the retention window (the
    /// caller falls back to [`Self::keyframe_message`]).
    pub fn delta_message(&self, base_seq: u64, seq: u64) -> Option<Vec<u8>> {
        let from = self.offset(base_seq)?;
        let to = self.offset(seq)?;
        if from >= to {
            return None;
        }
        let mut delta = self.steps[from].forward()?;
        for step in self.steps.range(from + 1..to) {
            delta = delta.compose(&step.forward()?)?;
        }
        let rebuilt;
        let (positions, colors) = if to + 1 == self.retained_frames() {
            let head = self.head.as_ref()?;
            (head.positions(), head.colors())
        } else {
            rebuilt = self.rebuild(to)?;
            (&rebuilt.0[..], rebuilt.1.as_deref())
        };
        let inserted = gather(positions, delta.inserted())?;
        let inserted_colors = match colors {
            Some(cs) => Some(gather(cs, delta.inserted())?),
            None => None,
        };
        Some(
            FrameMessage {
                seq,
                body: MessageBody::Delta {
                    base_seq,
                    delta,
                    inserted,
                    inserted_colors,
                    digest: self.digest_at(to),
                },
            }
            .encode(),
        )
    }
}

// ---------------------------------------------------------------------------
// Robustness telemetry
// ---------------------------------------------------------------------------

/// Robustness telemetry of a resilient session (and, for the last two
/// fields, of the simulator's degradation controller).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Frames successfully delivered to the SR engine.
    pub frames: u64,
    /// Frames that needed no recovery at all.
    pub clean_frames: u64,
    /// Request rounds that produced no usable message (drop or mangled
    /// beyond decoding) — the receiver-side view of link loss.
    pub drops_seen: u64,
    /// Payloads rejected by checksum/digest/structure checks.
    pub integrity_failures: u64,
    /// Stale or duplicate arrivals ignored (old sequence numbers).
    pub stale_ignored: u64,
    /// Retransmission rounds performed (backoff included).
    pub retries: u64,
    /// Frames recovered by splicing a gap delta ([`FrameDelta::compose`]).
    pub recovered_compose: u64,
    /// Frames recovered by plain retransmission of the same request.
    pub recovered_retransmit: u64,
    /// Frames recovered by a full keyframe resync (cache flush + cold
    /// recompute).
    pub recovered_keyframe: u64,
    /// Externally declared deltas the SR engine rejected on verification —
    /// attempted cache poisonings that were detected (never served).
    pub poisonings_detected: u64,
    /// Chunks/frames whose compute overran their deadline budget.
    pub deadline_misses: u64,
    /// Chunks/frames spent at each degradation level, `Full` first.
    pub degradation_residency: [u64; 5],
}

impl RobustnessStats {
    /// Deadline misses as a fraction of the frames/chunks processed.
    pub fn deadline_miss_rate(&self) -> f64 {
        let total: u64 = self.degradation_residency.iter().sum();
        let denom = if total > 0 { total } else { self.frames };
        if denom == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / denom as f64
        }
    }

    /// Total recoveries across all kinds.
    pub fn recoveries(&self) -> u64 {
        self.recovered_compose + self.recovered_retransmit + self.recovered_keyframe
    }

    /// Adds `current - prev` into `self`, field-wise — the per-tick rollup
    /// primitive the multi-tenant server uses to merge each tenant's
    /// monotonically growing counters into the aggregate without keeping
    /// the frame path locked or rescanning history.
    pub fn add_delta(&mut self, current: &Self, prev: &Self) {
        self.frames += current.frames - prev.frames;
        self.clean_frames += current.clean_frames - prev.clean_frames;
        self.drops_seen += current.drops_seen - prev.drops_seen;
        self.integrity_failures += current.integrity_failures - prev.integrity_failures;
        self.stale_ignored += current.stale_ignored - prev.stale_ignored;
        self.retries += current.retries - prev.retries;
        self.recovered_compose += current.recovered_compose - prev.recovered_compose;
        self.recovered_retransmit += current.recovered_retransmit - prev.recovered_retransmit;
        self.recovered_keyframe += current.recovered_keyframe - prev.recovered_keyframe;
        self.poisonings_detected += current.poisonings_detected - prev.poisonings_detected;
        self.deadline_misses += current.deadline_misses - prev.deadline_misses;
        for (acc, (cur, old)) in self.degradation_residency.iter_mut().zip(
            current
                .degradation_residency
                .iter()
                .zip(prev.degradation_residency.iter()),
        ) {
            *acc += cur - old;
        }
    }
}

// ---------------------------------------------------------------------------
// Resilient session
// ---------------------------------------------------------------------------

/// Retry/backoff/timeout policy of the resilient session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmission rounds per rung of the recovery ladder.
    pub max_retries: u32,
    /// Backoff before retry `r` is `base_backoff_s * 2^r` seconds.
    pub base_backoff_s: f64,
    /// Time charged for a request round that produces no usable reply.
    pub timeout_s: f64,
    /// Backoff jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]` out of the
    /// receiver's seeded RNG. Zero (the default) keeps the classic
    /// deterministic schedule; a shared-burst deployment sets it non-zero
    /// so co-tenant retransmits de-correlate instead of re-colliding in
    /// lockstep — still reproducible, because the draw is seeded.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_s: 0.02,
            timeout_s: 0.15,
            jitter: 0.0,
        }
    }
}

/// How a recovered frame made it through the ladder — drives the
/// per-kind recovery counters when the frame is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// First-try single-step delta (or the very first keyframe of a cold
    /// start): no recovery happened.
    Clean,
    /// A gap-spanning delta spliced with [`FrameDelta::compose`].
    Compose,
    /// A plain retransmission of the same request succeeded.
    Retransmit,
    /// Full keyframe resync: the caller must flush caches and recompute
    /// cold.
    Keyframe,
}

/// One frame recovered off the wire by [`ResilientReceiver::recover`],
/// verified (checksum + digest) but not yet upsampled or committed. When
/// `delta` is `Some` the caller may feed it to the SR engine's incremental
/// path; when `None` (keyframe / cold start) the caller must flush
/// cross-frame caches and recompute cold.
#[derive(Debug, Clone)]
pub struct RecoveredFrame {
    /// Reconstructed, digest-verified positions of the frame.
    pub positions: Vec<Point3>,
    /// Reconstructed colors, when the stream carries them.
    pub colors: Option<Vec<Color>>,
    /// The structural delta from the receiver's previous frame, for the
    /// incremental SR path; `None` means cold recompute.
    pub delta: Option<FrameDelta>,
    /// Which rung of the ladder produced the frame.
    pub kind: RecoveryKind,
}

impl RecoveredFrame {
    /// Builds the point cloud for the SR engine.
    pub fn cloud(&self) -> PointCloud {
        build_cloud(self.positions.clone(), self.colors.clone())
    }
}

/// Receiver-side protocol state of the resilient delta stream, decoupled
/// from the SR engine so a server tenant (which owns its own
/// [`SrSession`] and degradation machinery) can run the same recovery
/// ladder as the standalone [`ResilientSession`]. Owns the last good
/// sequence number, the reconstructed current frame (the delta base), the
/// session clock (link time + backoff + timeouts), the seeded backoff
/// jitter RNG, and the robustness counters.
///
/// The flow is recover → upsample → commit: [`Self::recover`] climbs the
/// ladder and returns a verified [`RecoveredFrame`]; the caller upsamples
/// it (flushing caches first when `delta` is `None`); on success the
/// caller hands the frame back to [`Self::commit`], which stores the new
/// delta base and counts the recovery. An upsample error leaves the
/// receiver uncommitted, exactly as the pre-split session behaved.
#[derive(Debug, Clone)]
pub struct ResilientReceiver {
    policy: RetryPolicy,
    /// Sequence number of the last frame delivered to the SR engine.
    last_seq: Option<u64>,
    /// Reconstructed positions of that frame (the delta base).
    positions: Vec<Point3>,
    /// Reconstructed colors of that frame, when the stream carries them.
    colors: Option<Vec<Color>>,
    clock_s: f64,
    stats: RobustnessStats,
    /// Seeded RNG for backoff jitter (only consulted when
    /// [`RetryPolicy::jitter`] is non-zero).
    jitter_rng: StdRng,
}

impl ResilientReceiver {
    /// Creates a receiver with the given policy; `seed` drives the backoff
    /// jitter draws (unused while [`RetryPolicy::jitter`] is zero).
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            last_seq: None,
            positions: Vec::new(),
            colors: None,
            clock_s: 0.0,
            stats: RobustnessStats::default(),
            jitter_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> RobustnessStats {
        self.stats
    }

    /// The session clock: link time + backoff + timeouts accrued so far.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Sequence number of the last committed frame.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Fetches frame `seq` over the (faulty) link, climbing the recovery
    /// ladder as needed (see the module docs), and returns the verified
    /// frame for the caller to upsample and [`commit`](Self::commit).
    ///
    /// # Errors
    /// [`Error::Transport`] when even the keyframe rung fails after all
    /// retries (the link is effectively down); [`Error::NotFound`] when
    /// the origin no longer serves `seq` at all.
    pub fn recover(
        &mut self,
        server: &DeltaServer,
        link: &mut impl Transport,
        seq: u64,
    ) -> Result<RecoveredFrame> {
        // Rung 1 + 2: delta requests (spliced over any gap), retried with
        // backoff. Skipped when there is no base frame yet.
        let base = self.last_seq.filter(|&b| b < seq);
        if let Some(base_seq) = base {
            for round in 0..=self.policy.max_retries {
                self.backoff(round);
                let Some(request) = server.delta_message(base_seq, seq) else {
                    // Out of retention (or out of range): resync below.
                    break;
                };
                match self.exchange(link, &request, seq) {
                    Some(FrameMessage {
                        body:
                            MessageBody::Delta {
                                base_seq: got_base,
                                delta,
                                inserted,
                                inserted_colors,
                                digest,
                            },
                        ..
                    }) if got_base == base_seq => {
                        let Some(new_positions) = delta.apply(&self.positions, &inserted) else {
                            // Structurally valid but inapplicable: our base
                            // diverged from the server's. Resync below.
                            self.stats.integrity_failures += 1;
                            break;
                        };
                        if geometry_digest(&new_positions) != digest {
                            self.stats.integrity_failures += 1;
                            continue;
                        }
                        // Survivor colors ride the survivor map; a color
                        // presence mismatch means base divergence.
                        let new_colors = match (&self.colors, &inserted_colors) {
                            (Some(base), Some(ins)) => match delta.apply(base, ins) {
                                Some(c) => Some(c),
                                None => {
                                    self.stats.integrity_failures += 1;
                                    break;
                                }
                            },
                            (None, None) => None,
                            _ => {
                                self.stats.integrity_failures += 1;
                                break;
                            }
                        };
                        let kind = if seq - base_seq > 1 {
                            RecoveryKind::Compose
                        } else if round > 0 {
                            RecoveryKind::Retransmit
                        } else {
                            RecoveryKind::Clean
                        };
                        return Ok(RecoveredFrame {
                            positions: new_positions,
                            colors: new_colors,
                            delta: Some(delta),
                            kind,
                        });
                    }
                    Some(_) => {
                        // A message for the right seq but the wrong shape or
                        // base: fall through to the keyframe rung.
                        self.stats.integrity_failures += 1;
                        break;
                    }
                    None => continue,
                }
            }
        }

        // Rung 3: keyframe resync (also the cold start path).
        for round in 0..=self.policy.max_retries {
            self.backoff(round);
            let request = server
                .keyframe_message(seq)
                .ok_or_else(|| Error::NotFound(format!("frame {seq}")))?;
            match self.exchange(link, &request, seq) {
                Some(FrameMessage {
                    body:
                        MessageBody::Keyframe {
                            positions,
                            colors,
                            digest,
                        },
                    ..
                }) => {
                    if geometry_digest(&positions) != digest {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    if colors.as_ref().is_some_and(|c| c.len() != positions.len()) {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    let cold_start = self.last_seq.is_none() && seq == 0;
                    return Ok(RecoveredFrame {
                        positions,
                        colors,
                        delta: None,
                        kind: if cold_start {
                            RecoveryKind::Clean
                        } else {
                            RecoveryKind::Keyframe
                        },
                    });
                }
                Some(_) => {
                    self.stats.integrity_failures += 1;
                    continue;
                }
                None => continue,
            }
        }
        Err(Error::Transport(format!(
            "frame {seq}: all recovery rungs exhausted after {} retries",
            self.policy.max_retries
        )))
    }

    /// Commits an upsampled frame: stores it as the new delta base,
    /// advances `last_seq`, and counts the recovery kind. Call only after
    /// the SR engine accepted the frame.
    pub fn commit(&mut self, frame: RecoveredFrame, seq: u64) {
        self.positions = frame.positions;
        self.colors = frame.colors;
        self.last_seq = Some(seq);
        self.stats.frames += 1;
        match frame.kind {
            RecoveryKind::Clean => self.stats.clean_frames += 1,
            RecoveryKind::Compose => self.stats.recovered_compose += 1,
            RecoveryKind::Retransmit => self.stats.recovered_retransmit += 1,
            RecoveryKind::Keyframe => self.stats.recovered_keyframe += 1,
        }
    }

    /// Records that the SR engine rejected a committed delta on
    /// verification (attempted cache poisoning, detected and never
    /// served).
    pub fn note_poisoning(&mut self) {
        self.stats.poisonings_detected += 1;
    }

    /// One request/response round: transmits, charges link time, and
    /// returns the first arrival that decodes to the wanted sequence
    /// number. Counts drops, integrity failures and stale arrivals; charges
    /// the timeout when nothing usable arrives.
    fn exchange(
        &mut self,
        link: &mut impl Transport,
        request: &[u8],
        want_seq: u64,
    ) -> Option<FrameMessage> {
        let transfer = link.transmit(request, self.clock_s);
        self.clock_s += transfer.time_s;
        let mut found = None;
        let dropped = transfer.arrivals.is_empty();
        for arrival in &transfer.arrivals {
            match FrameMessage::decode(arrival) {
                Ok(msg) if msg.seq == want_seq && found.is_none() => found = Some(msg),
                Ok(msg) if msg.seq == want_seq => self.stats.stale_ignored += 1,
                Ok(_) => self.stats.stale_ignored += 1,
                Err(_) => self.stats.integrity_failures += 1,
            }
        }
        if found.is_none() {
            if dropped {
                self.stats.drops_seen += 1;
            }
            self.clock_s += self.policy.timeout_s;
        }
        found
    }

    /// Charges the exponential backoff before retry `round` (no charge for
    /// the first attempt) and counts it. With a non-zero
    /// [`RetryPolicy::jitter`] the charge is scaled by a seeded uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    fn backoff(&mut self, round: u32) {
        if round > 0 {
            let mut step = self.policy.base_backoff_s * f64::from(1u32 << (round - 1).min(16));
            let jitter = self.policy.jitter.clamp(0.0, 1.0);
            if jitter > 0.0 {
                let u: f64 = self.jitter_rng.random();
                step *= 1.0 + jitter * (2.0 * u - 1.0);
            }
            self.clock_s += step;
            self.stats.retries += 1;
        }
    }
}

/// A fault-tolerant wrapper around [`SrSession`] implementing the recovery
/// ladder of the module docs: a [`ResilientReceiver`] for the protocol
/// state plus the SR engine that upsamples what it recovers.
#[derive(Debug)]
pub struct ResilientSession {
    session: SrSession,
    receiver: ResilientReceiver,
}

impl ResilientSession {
    /// Wraps an SR session with the default retry policy.
    pub fn new(session: SrSession) -> Self {
        Self::with_policy(session, RetryPolicy::default())
    }

    /// Wraps an SR session with an explicit retry policy (jitter seed 0).
    pub fn with_policy(session: SrSession, policy: RetryPolicy) -> Self {
        Self::with_policy_seeded(session, policy, 0)
    }

    /// Wraps an SR session with an explicit retry policy and backoff
    /// jitter seed.
    pub fn with_policy_seeded(session: SrSession, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            session,
            receiver: ResilientReceiver::new(policy, seed),
        }
    }

    /// The wrapped SR session.
    pub fn session(&self) -> &SrSession {
        &self.session
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> RobustnessStats {
        self.receiver.stats()
    }

    /// The session clock: link time + backoff + timeouts accrued so far.
    pub fn clock_s(&self) -> f64 {
        self.receiver.clock_s()
    }

    /// Sequence number of the last successfully processed frame.
    pub fn last_seq(&self) -> Option<u64> {
        self.receiver.last_seq()
    }

    /// Fetches frame `seq` over the (faulty) link and upsamples it,
    /// climbing the recovery ladder as needed (see the module docs). On
    /// success the output is bit-identical to what a never-faulted session
    /// would produce for the same frame.
    ///
    /// # Errors
    /// [`Error::Transport`] when even the keyframe rung fails after all
    /// retries (the link is effectively down); SR-engine errors propagate.
    pub fn advance(
        &mut self,
        server: &DeltaServer,
        link: &mut impl Transport,
        seq: u64,
        ratio: f64,
    ) -> Result<SrResult> {
        let recovered = self.receiver.recover(server, link, seq)?;
        let result = match recovered.delta.clone() {
            Some(delta) => {
                // Watch the engine's delta verification: a rejection means
                // the cached state does not match the delta base (attempted
                // cache poisoning or divergence) — it is counted and the
                // caches are flushed so the *next* frame starts clean. The
                // current output is still correct either way: the engine
                // falls back to its own bitwise diff, never to the poisoned
                // mapping.
                let result = self
                    .session
                    .upsample_frame_delta(&recovered.cloud(), ratio, delta)?;
                if self.session.last_delta_error().is_some() {
                    self.receiver.note_poisoning();
                    self.session.flush_caches();
                }
                result
            }
            None => {
                // The cached state may describe a frame that was never
                // really the predecessor: flush everything and recompute
                // cold from this frame's bits alone.
                self.session.flush_caches();
                self.session.upsample_frame(&recovered.cloud(), ratio)?
            }
        };
        self.receiver.commit(recovered, seq);
        Ok(result)
    }
}

// ---------------------------------------------------------------------------
// Deadline-aware degradation
// ---------------------------------------------------------------------------

/// Graceful-degradation level, cheapest-quality-loss first. Each level
/// drops or shrinks pipeline stages; [`DegradationLevel::quality_factor`]
/// is the QoE-side price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// The full pipeline at the requested ratio.
    Full,
    /// Skip the refinement stage (LUT lookup / NN inference).
    SkipRefinement,
    /// Halve the upsampling factor (and still skip refinement).
    ReducedRatio,
    /// Interpolation only: no refinement, no colorization, halved ratio.
    InterpolateOnly,
    /// Pass the received points through untouched (no SR compute at all).
    Passthrough,
}

impl DegradationLevel {
    /// All levels, `Full` first — index order matches
    /// [`RobustnessStats::degradation_residency`].
    pub const ALL: [DegradationLevel; 5] = [
        DegradationLevel::Full,
        DegradationLevel::SkipRefinement,
        DegradationLevel::ReducedRatio,
        DegradationLevel::InterpolateOnly,
        DegradationLevel::Passthrough,
    ];

    /// Residency-array index of this level.
    pub fn index(self) -> usize {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::SkipRefinement => 1,
            DegradationLevel::ReducedRatio => 2,
            DegradationLevel::InterpolateOnly => 3,
            DegradationLevel::Passthrough => 4,
        }
    }

    /// The SR ratio actually executed at this level.
    pub fn effective_ratio(self, ratio: f64) -> f64 {
        match self {
            DegradationLevel::Full | DegradationLevel::SkipRefinement => ratio,
            DegradationLevel::ReducedRatio | DegradationLevel::InterpolateOnly => {
                1.0 + (ratio - 1.0).max(0.0) * 0.5
            }
            DegradationLevel::Passthrough => 1.0,
        }
    }

    /// Multiplier applied to displayed quality at this level (the visible
    /// cost of degrading, folded into QoE).
    pub fn quality_factor(self) -> f64 {
        match self {
            DegradationLevel::Full => 1.0,
            DegradationLevel::SkipRefinement => 0.96,
            DegradationLevel::ReducedRatio => 0.85,
            DegradationLevel::InterpolateOnly => 0.65,
            DegradationLevel::Passthrough => 0.35,
        }
    }

    /// The compute model actually executed at this level: dropped stages
    /// are zeroed, so the live [`SrComputeModel`] budget arithmetic stays
    /// exact.
    pub fn adjusted_model(self, model: &SrComputeModel) -> SrComputeModel {
        let mut m = model.clone();
        match self {
            DegradationLevel::Full => {}
            DegradationLevel::SkipRefinement | DegradationLevel::ReducedRatio => {
                m.refine_us_per_output_point = 0.0;
            }
            DegradationLevel::InterpolateOnly => {
                m.refine_us_per_output_point = 0.0;
                m.colorize_us_per_output_point = 0.0;
            }
            DegradationLevel::Passthrough => {
                m.knn_us_per_input_point = 0.0;
                m.interp_us_per_output_point = 0.0;
                m.colorize_us_per_output_point = 0.0;
                m.refine_us_per_output_point = 0.0;
            }
        }
        m
    }

    /// Device-time (seconds) for one chunk at this level — the level-aware
    /// counterpart of [`SrComputeModel::chunk_time_on_device`].
    #[allow(clippy::too_many_arguments)]
    pub fn chunk_time_on_device(
        self,
        model: &SrComputeModel,
        chunk: &Chunk,
        fetch_density: f64,
        sr_ratio: f64,
        device: &DeviceProfile,
        nn_inference: bool,
    ) -> f64 {
        if self == DegradationLevel::Passthrough {
            return 0.0;
        }
        self.adjusted_model(model).chunk_time_on_device(
            chunk,
            fetch_density,
            self.effective_ratio(sr_ratio),
            device,
            nn_inference,
        )
    }
}

/// Hysteresis parameters of the [`DegradationController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Fraction of each chunk's playback duration available as compute
    /// budget (1.0 = real-time line rate).
    pub compute_budget_fraction: f64,
    /// Consecutive over-budget predictions before degrading.
    pub degrade_after: u32,
    /// Consecutive with-margin chunks before recovering one level.
    pub recover_after: u32,
    /// Recovery requires the *higher* level's predicted time to fit within
    /// this fraction of the budget (the hysteresis gap).
    pub recover_margin: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            compute_budget_fraction: 1.0,
            degrade_after: 1,
            recover_after: 3,
            recover_margin: 0.7,
        }
    }
}

/// Deadline-aware degradation state machine: full → skip-refinement →
/// reduced-ratio → interpolate-only → passthrough, with hysteresis (see
/// the module docs and [`DegradationConfig`]).
#[derive(Debug, Clone)]
pub struct DegradationController {
    config: DegradationConfig,
    level: DegradationLevel,
    over_streak: u32,
    headroom_streak: u32,
    residency: [u64; 5],
    misses: u64,
}

impl DegradationController {
    /// Creates a controller starting at [`DegradationLevel::Full`].
    pub fn new(config: DegradationConfig) -> Self {
        Self {
            config,
            level: DegradationLevel::Full,
            over_streak: 0,
            headroom_streak: 0,
            residency: [0; 5],
            misses: 0,
        }
    }

    /// The current level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// The compute budget for a chunk of the given playback duration.
    pub fn budget_s(&self, chunk_duration_s: f64) -> f64 {
        chunk_duration_s * self.config.compute_budget_fraction
    }

    /// Chooses the level for the next chunk/frame. `predict` maps a level
    /// to its predicted compute time (typically through
    /// [`DegradationLevel::chunk_time_on_device`] with the live model).
    /// Degrades after `degrade_after` consecutive over-budget predictions
    /// (stepping down as far as needed to fit); recovers one level after
    /// `recover_after` consecutive chunks in which the higher level fits
    /// within `recover_margin` of the budget. Records residency.
    pub fn plan(
        &mut self,
        predict: impl Fn(DegradationLevel) -> f64,
        budget_s: f64,
    ) -> DegradationLevel {
        // Recovery probe: would one level up fit, with margin?
        if self.level != DegradationLevel::Full {
            let up = DegradationLevel::ALL[self.level.index() - 1];
            if predict(up) <= self.config.recover_margin * budget_s {
                self.headroom_streak += 1;
                if self.headroom_streak >= self.config.recover_after {
                    self.level = up;
                    self.headroom_streak = 0;
                }
            } else {
                self.headroom_streak = 0;
            }
        }
        // Degradation: step down once the over-budget streak is long enough.
        if predict(self.level) > budget_s {
            self.over_streak += 1;
            if self.over_streak >= self.config.degrade_after {
                while predict(self.level) > budget_s && self.level != DegradationLevel::Passthrough
                {
                    self.level = DegradationLevel::ALL[self.level.index() + 1];
                }
                self.over_streak = 0;
                self.headroom_streak = 0;
            }
        } else {
            self.over_streak = 0;
        }
        self.residency[self.level.index()] += 1;
        self.level
    }

    /// Server-side overload escalation: forces the level at least down to
    /// `floor`, re-attributing the residency grain [`Self::plan`] recorded
    /// for the current frame and resetting both hysteresis streaks (the
    /// escalation is an external decision, not evidence about this
    /// session's own budget fit).
    pub fn escalate_to(&mut self, floor: DegradationLevel) {
        if floor.index() > self.level.index() {
            self.residency[self.level.index()] -= 1;
            self.residency[floor.index()] += 1;
            self.level = floor;
            self.over_streak = 0;
            self.headroom_streak = 0;
        }
    }

    /// Records the realized compute time against the budget.
    pub fn observe(&mut self, actual_s: f64, budget_s: f64) {
        if actual_s > budget_s {
            self.misses += 1;
        }
    }

    /// Chunks/frames spent at each level, `Full` first.
    pub fn residency(&self) -> [u64; 5] {
        self.residency
    }

    /// Deadline misses recorded by [`Self::observe`].
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Folds this controller's counters into a [`RobustnessStats`].
    pub fn fill_stats(&self, stats: &mut RobustnessStats) {
        stats.deadline_misses = self.misses;
        stats.degradation_residency = self.residency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultyLink};
    use crate::link::SimulatedLink;
    use crate::trace::NetworkTrace;
    use volut_core::refine::IdentityRefiner;
    use volut_core::{SrConfig, SrPipeline};
    use volut_pointcloud::synthetic::{self, DeltaStreamConfig};

    fn frames(n_points: usize, frames: usize, churn: f64, seed: u64) -> Vec<PointCloud> {
        let base = synthetic::humanoid(n_points, 0.4, seed);
        synthetic::delta_frame_sequence(
            &base,
            frames,
            DeltaStreamConfig {
                churn,
                drift: 0.04,
                jitter: 0.008,
                seed,
            },
        )
    }

    fn make_session() -> SrSession {
        SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ))
    }

    #[test]
    fn messages_roundtrip() {
        let f = frames(300, 3, 0.2, 5);
        let server = DeltaServer::new(f.clone());
        let key = server.keyframe_message(0).unwrap();
        let msg = FrameMessage::decode(&key).unwrap();
        assert_eq!(msg.seq, 0);
        match msg.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                assert_eq!(positions, f[0].positions());
                assert_eq!(colors.as_deref(), f[0].colors());
                assert_eq!(digest, geometry_digest(f[0].positions()));
            }
            _ => panic!("expected keyframe"),
        }
        let del = server.delta_message(0, 2).unwrap();
        let msg = FrameMessage::decode(&del).unwrap();
        assert_eq!(msg.seq, 2);
        match msg.body {
            MessageBody::Delta {
                base_seq,
                delta,
                inserted,
                inserted_colors,
                digest,
            } => {
                assert_eq!(base_seq, 0);
                let rebuilt = delta.apply(f[0].positions(), &inserted).unwrap();
                assert_eq!(rebuilt, f[2].positions());
                let colors = delta
                    .apply(f[0].colors().unwrap(), &inserted_colors.unwrap())
                    .unwrap();
                assert_eq!(colors, f[2].colors().unwrap());
                assert_eq!(digest, geometry_digest(f[2].positions()));
            }
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn decode_rejects_mangled_payloads() {
        let f = frames(100, 2, 0.1, 9);
        let server = DeltaServer::new(f);
        let msg = server.delta_message(0, 1).unwrap();
        assert!(FrameMessage::decode(&msg).is_ok());
        // Truncation at every prefix length must never decode to Ok with
        // the original content (checksum coverage).
        for cut in [0, 5, 16, msg.len() / 2, msg.len() - 1] {
            match FrameMessage::decode(&msg[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated payload at {cut} decoded"),
            }
        }
        // Any single bit flip is caught.
        for bit in [0usize, 65, 8 * msg.len() - 1] {
            let mut bad = msg.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                FrameMessage::decode(&bad),
                Err(DecodeError::BadChecksum),
                "bit {bit}"
            );
        }
        assert_eq!(FrameMessage::decode(&[1, 2, 3]), Err(DecodeError::TooShort));
    }

    #[test]
    fn clean_link_session_matches_plain_session_bitwise() {
        let f = frames(800, 6, 0.12, 21);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        let mut plain = make_session();
        for (i, frame) in f.iter().enumerate() {
            let a = resilient
                .advance(&server, &mut link, i as u64, 2.0)
                .unwrap();
            let b = plain.upsample_frame(frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud, "frame {i}");
        }
        let stats = resilient.stats();
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.clean_frames, 6);
        assert_eq!(stats.recoveries(), 0);
        assert_eq!(stats.poisonings_detected, 0);
        assert!(resilient.clock_s() > 0.0);
    }

    #[test]
    fn dropped_deltas_recover_via_compose_and_stay_bit_identical() {
        let f = frames(600, 8, 0.1, 33);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        let mut clean = make_session();
        // Frames 0..3 delivered; frames 4 and 5 never requested (viewer
        // skipped ahead / chunks lost wholesale); frame 6 must splice 3→6.
        for i in 0..4u64 {
            resilient.advance(&server, &mut link, i, 2.0).unwrap();
        }
        for frame in &f[..6] {
            clean.upsample_frame(frame, 2.0).unwrap();
        }
        let a = resilient.advance(&server, &mut link, 6, 2.0).unwrap();
        let b = clean.upsample_frame(&f[6], 2.0).unwrap();
        assert_eq!(a.cloud, b.cloud, "spliced recovery must be bit-identical");
        let stats = resilient.stats();
        assert_eq!(stats.recovered_compose, 1, "{stats:?}");
        assert_eq!(stats.poisonings_detected, 0, "{stats:?}");
    }

    #[test]
    fn lossy_session_recovers_and_converges_to_clean_output() {
        let f = frames(500, 10, 0.1, 41);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(60.0, 300.0);
        let mut link = FaultyLink::new(
            SimulatedLink::new(&trace),
            FaultConfig::chaos(0.25),
            0xC0FFEE,
        );
        // Chaos at 25% with 4-frame bursts can blank several consecutive
        // rounds; give the ladder enough retransmissions to outlast them.
        let mut resilient = ResilientSession::with_policy(
            make_session(),
            RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            },
        );
        let mut clean = make_session();
        for (i, frame) in f.iter().enumerate() {
            let a = resilient
                .advance(&server, &mut link, i as u64, 2.0)
                .unwrap();
            let b = clean.upsample_frame(frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud, "frame {i} diverged under chaos");
        }
        let stats = resilient.stats();
        assert_eq!(stats.frames, 10);
        assert!(
            stats.drops_seen + stats.integrity_failures > 0,
            "chaos at 25% should have injected something: {stats:?}"
        );
        assert!(stats.recoveries() > 0, "{stats:?}");
    }

    #[test]
    fn retention_byte_cap_bounds_a_long_session() {
        let f = frames(150, 40, 0.15, 17);
        let cap = 4 * frame_bytes(&f[0]);
        let mut server = DeltaServer::with_retention(
            f[..1].to_vec(),
            RetentionPolicy {
                max_frames: usize::MAX,
                max_bytes: cap,
            },
        );
        for frame in &f[1..] {
            server.push_frame(frame.clone());
            // The cap holds throughout the session, not just at the end.
            assert!(
                server.retained_bytes() <= cap || server.retained_frames() == 1,
                "retained {} bytes over cap {cap}",
                server.retained_bytes()
            );
        }
        assert_eq!(server.frame_count(), 40, "dropped frames still count");
        assert!(server.base_seq() > 0, "cap never evicted anything");
        assert!(server.retained_frames() < 40);
        // Evicted frames are gone; the head is still fully servable.
        assert!(server.frame(0).is_none());
        let head = server.frame_count() as u64 - 1;
        assert!(server.frame(head).is_some());
        assert!(server.keyframe_message(head).is_some());
        // A gap request based before the window refuses (keyframe fallback);
        // one inside the window still splices.
        assert!(server.delta_message(0, head).is_none());
        assert!(server.delta_message(server.base_seq(), head).is_some());
    }

    #[test]
    fn retained_bytes_counts_the_head_and_every_step_vector() {
        let f = frames(400, 6, 0.2, 29);
        let server = DeltaServer::new(f.clone());
        let head = &f[5];
        let mut expected = head.len() as u64 * (12 + 3);
        for w in f.windows(2) {
            let d = FrameDelta::diff(w[0].positions(), w[1].positions());
            let (r, i) = (d.removed().len() as u64, d.inserted().len() as u64);
            // Indices (4 B each), removed positions (12 B) and colors (3 B),
            // plus the step record holding them.
            expected += (r + i) * 4 + r * 12 + r * 3 + std::mem::size_of::<Step>() as u64;
        }
        assert_eq!(server.retained_frames(), 6);
        assert_eq!(server.retained_bytes(), expected);
    }

    #[test]
    fn origin_footprint_stays_a_fraction_of_its_frames() {
        let f = frames(4096, 29, 0.1, 31);
        assert!(f[0].colors().is_some());
        let mut server =
            DeltaServer::with_retention(f[..1].to_vec(), RetentionPolicy::last_frames(32));
        for frame in &f[1..] {
            server.push_frame(frame.clone());
        }
        assert_eq!(server.retained_frames(), 29);
        let budget = 28 * frame_bytes(&f[0]) / 4;
        assert!(
            server.retained_bytes() <= budget,
            "origin holds {} bytes, budget {budget}",
            server.retained_bytes()
        );
        for (seq, frame) in f.iter().enumerate() {
            assert_eq!(server.frame(seq as u64).as_ref(), Some(frame), "seq {seq}");
        }
    }

    #[test]
    fn wrong_trusted_delta_is_caught_by_the_pushed_digest() {
        let f = frames(300, 4, 0.2, 37);
        let truth = FrameDelta::diff(f[1].positions(), f[2].positions());
        // Stale but structurally valid: frame 0 → 1 declared for 1 → 2.
        let wrong = FrameDelta::diff(f[0].positions(), f[1].positions());
        assert_eq!(
            (wrong.old_len(), wrong.new_len()),
            (truth.old_len(), truth.new_len())
        );
        assert_ne!(wrong, truth);
        let digest_of = |msg: Vec<u8>| match FrameMessage::decode(&msg).unwrap().body {
            MessageBody::Keyframe { digest, .. } | MessageBody::Delta { digest, .. } => digest,
        };
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);

        // A paced receiver: frames 0 and 1 arrive clean, frame 2 only
        // through the keyframe rung, frame 3 clean again.
        let mut server = DeltaServer::new(f[..2].to_vec());
        let mut receiver = ResilientReceiver::new(RetryPolicy::default(), 0);
        let mut deliver = |server: &DeltaServer, receiver: &mut ResilientReceiver, seq: u64| {
            let frame = receiver.recover(server, &mut link, seq).unwrap();
            assert_eq!(frame.positions, f[seq as usize].positions(), "seq {seq}");
            receiver.commit(frame, seq);
        };
        deliver(&server, &mut receiver, 0);
        deliver(&server, &mut receiver, 1);
        server.push_frame_with_delta(f[2].clone(), wrong);
        assert_eq!(
            digest_of(server.keyframe_message(2).unwrap()),
            f[2].geometry_digest()
        );
        assert_eq!(
            digest_of(server.delta_message(1, 2).unwrap()),
            f[2].geometry_digest()
        );
        deliver(&server, &mut receiver, 2);
        let stats = receiver.stats();
        assert!(stats.integrity_failures > 0, "{stats:?}");
        assert_eq!(stats.recovered_keyframe, 1, "{stats:?}");
        server.push_frame(f[3].clone());
        deliver(&server, &mut receiver, 3);

        // Every retained seq, head or rebuilt through the wrong step,
        // carries the digest of the frame that was pushed.
        for seq in 0..4u64 {
            let pushed = f[seq as usize].geometry_digest();
            assert_eq!(digest_of(server.keyframe_message(seq).unwrap()), pushed);
            for base in 0..seq {
                assert_eq!(digest_of(server.delta_message(base, seq).unwrap()), pushed);
            }
        }
        // A cold receiver asking for an older seq either gets the pushed
        // frame or counts the corruption; it never gets another frame.
        for seq in 0..4u64 {
            let mut cold = ResilientReceiver::new(RetryPolicy::default(), 0);
            match cold.recover(&server, &mut link, seq) {
                Ok(frame) => assert_eq!(frame.positions, f[seq as usize].positions()),
                Err(_) => assert!(cold.stats().integrity_failures > 0, "seq {seq}"),
            }
        }
    }

    #[test]
    fn beyond_window_gap_recovers_via_keyframe_bit_identically() {
        let f = frames(150, 12, 0.1, 23);
        let mut server =
            DeltaServer::with_retention(f[..3].to_vec(), RetentionPolicy::last_frames(3));
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        for i in 0..3u64 {
            resilient.advance(&server, &mut link, i, 2.0).unwrap();
        }
        for frame in &f[3..] {
            server.push_frame(frame.clone());
        }
        assert!(server.base_seq() > 2, "old delta base must have aged out");
        // The session's base (frame 2) fell out of the window: the delta
        // rung refuses and the ladder resyncs with a keyframe, whose cold
        // output must match a never-faulted cold session bit for bit.
        let head = server.frame_count() as u64 - 1;
        let a = resilient.advance(&server, &mut link, head, 2.0).unwrap();
        let b = make_session()
            .upsample_frame(&f[head as usize], 2.0)
            .unwrap();
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(resilient.stats().recovered_keyframe, 1);
    }

    #[test]
    fn jittered_backoff_is_reproducible_and_stays_in_bounds() {
        let f = frames(100, 2, 0.1, 3);
        let server = DeltaServer::new(f);
        let trace = NetworkTrace::stable(50.0, 60.0);
        let all_drops = FaultConfig {
            drop: 1.0,
            ..FaultConfig::default()
        };
        // Every request is dropped, so the receiver walks the whole ladder
        // and its final clock is exactly the link + timeout + backoff sum.
        let run = |jitter: f64, seed: u64| {
            let policy = RetryPolicy {
                max_retries: 4,
                jitter,
                ..RetryPolicy::default()
            };
            let mut link = FaultyLink::new(SimulatedLink::new(&trace), all_drops.clone(), 1);
            let mut rx = ResilientReceiver::new(policy, seed);
            assert!(matches!(
                rx.recover(&server, &mut link, 0),
                Err(Error::Transport(_))
            ));
            assert_eq!(rx.stats().retries, 4);
            rx.clock_s()
        };
        let nominal = run(0.0, 42);
        let jittered = run(0.5, 42);
        assert_eq!(jittered, run(0.5, 42), "same seed, same schedule");
        assert_ne!(jittered, run(0.5, 43), "different seeds de-correlate");
        assert_ne!(jittered, nominal);
        // The jittered schedule stays within ±jitter of the nominal
        // backoff sum: base * (1 + 2 + 4 + 8) scaled by at most 0.5.
        let backoff_sum = RetryPolicy::default().base_backoff_s * 15.0;
        assert!(
            (jittered - nominal).abs() <= 0.5 * backoff_sum + 1e-9,
            "jittered {jittered} vs nominal {nominal}"
        );
    }

    #[test]
    fn degradation_controller_hysteresis() {
        let mut ctl = DegradationController::new(DegradationConfig {
            compute_budget_fraction: 1.0,
            degrade_after: 2,
            recover_after: 2,
            recover_margin: 0.7,
        });
        // Cost table: Full takes 2.0 s, each level down halves it.
        let cost = |l: DegradationLevel| 2.0 / (1u64 << l.index()) as f64;
        // Budget 1.0: Full (2.0) is over budget, but hysteresis holds the
        // first chunk at Full.
        assert_eq!(ctl.plan(cost, 1.0), DegradationLevel::Full);
        // Second over-budget chunk: degrade to the first level that fits
        // (SkipRefinement at 1.0 is not < budget... it's exactly 1.0, fits).
        assert_eq!(ctl.plan(cost, 1.0), DegradationLevel::SkipRefinement);
        // Recovery: budget rises to 4.0; Full (2.0) fits within 0.7*4.0,
        // but only after two consecutive headroom chunks.
        assert_eq!(ctl.plan(cost, 4.0), DegradationLevel::SkipRefinement);
        assert_eq!(ctl.plan(cost, 4.0), DegradationLevel::Full);
        assert_eq!(ctl.residency(), [2, 2, 0, 0, 0]);
        // Deadline accounting.
        ctl.observe(2.0, 1.0);
        ctl.observe(0.5, 1.0);
        assert_eq!(ctl.deadline_misses(), 1);
        let mut stats = RobustnessStats::default();
        ctl.fill_stats(&mut stats);
        assert_eq!(stats.deadline_misses, 1);
        assert!((stats.deadline_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degradation_levels_shrink_cost_and_quality_monotonically() {
        let model = SrComputeModel::volut_lut();
        let chunk = crate::chunk::chunk_video(&crate::video::VideoMeta::long_dress(), 1.0)[0];
        let device = DeviceProfile::orange_pi();
        let mut prev_cost = f64::INFINITY;
        let mut prev_quality = f64::INFINITY;
        for level in DegradationLevel::ALL {
            let cost = level.chunk_time_on_device(&model, &chunk, 0.25, 4.0, &device, false);
            assert!(cost <= prev_cost, "{level:?} cost {cost} > {prev_cost}");
            assert!(level.quality_factor() < prev_quality, "{level:?}");
            prev_cost = cost;
            prev_quality = level.quality_factor();
        }
        assert_eq!(
            DegradationLevel::Passthrough
                .chunk_time_on_device(&model, &chunk, 0.25, 4.0, &device, false),
            0.0
        );
    }
}
