//! The sender side of the protocol: a retention-bounded origin that keeps
//! its newest frame whole and undo steps behind it.

use std::collections::VecDeque;
use std::sync::Arc;

use volut_pointcloud::{Color, FrameDelta, Point3, PointCloud};

use super::wire::{build_cloud, DeltaParts, FrameMessage, MessageBody};

/// Bound on the history a [`DeltaServer`] retains. A long-running origin
/// cannot keep every frame forever; once either limit is exceeded the
/// oldest frames (and their deltas) are dropped. Gap requests whose base
/// has fallen out of the window return `None` from
/// [`DeltaServer::delta_message`], which the recovery ladder answers with
/// a keyframe resync — retention never breaks recovery, it only changes
/// which rung serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    parts: DeltaParts,
    /// Positions of the removed points, in `parts.removed` order.
    removed_positions: Vec<Point3>,
    /// Colors that restore the older frame: the removed points' colors, or
    /// the older frame's whole color array when the newer frame carries
    /// none (then survivors have no colors to ride back on). `None` when
    /// the older frame is colorless. The two cases have the same length
    /// only when every point was removed, and then they are equal.
    old_colors: Option<Vec<Color>>,
    /// [`PointCloud::geometry_digest`] of the newer frame, recorded when it
    /// was pushed.
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
            parts: DeltaParts::of(delta),
            removed_positions: gather(old.positions(), delta.removed()).unwrap_or_default(),
            old_colors,
            digest,
        }
    }

    /// Bytes this step holds: the record itself plus its four vectors
    /// (each allocated to its exact length).
    fn bytes(&self) -> u64 {
        let vecs = (self.parts.removed.len() + self.parts.inserted.len()) * 4
            + self.removed_positions.len() * 12
            + self.old_colors.as_ref().map_or(0, |c| c.len() * 3);
        (vecs + std::mem::size_of::<Self>()) as u64
    }

    /// The forward delta, older frame → newer frame.
    fn forward(&self) -> Option<FrameDelta> {
        self.parts.clone().against(self.parts.old_len)
    }

    /// Rebuilds the older frame from the newer one. `None` when the step
    /// does not fit `frame` (only possible after a wrong trusted delta).
    fn undo(&self, frame: Frame) -> Option<Frame> {
        let DeltaParts {
            old_len,
            new_len,
            removed,
            inserted,
        } = self.parts.clone();
        let inverse = FrameDelta::from_parts(new_len, old_len, inserted, removed)?;
        let positions = inverse.apply(&frame.0, &self.removed_positions)?;
        let colors = match &self.old_colors {
            None => None,
            Some(all) if all.len() == self.parts.old_len => Some(all.clone()),
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
/// undo step behind it: the transition's delta parts plus the positions and
/// colors of the points it removed, so undoing steps back from the head
/// rebuilds any retained frame bit for bit. Paced callers only ever ask
/// for the head, which is served directly. The head is an `Arc`, so a
/// producer that keeps its current frame (a
/// [`DeltaStream`](volut_pointcloud::synthetic::DeltaStream)) and pushes it
/// here shares one allocation with the origin. Every frame's digest is
/// recorded when it is pushed and carried by every message for it, never
/// recomputed from a rebuilt frame. History is bounded by a
/// [`RetentionPolicy`]: frames older than the window are dropped and any
/// delta request based on them falls back to a keyframe.
#[derive(Debug, Clone)]
pub struct DeltaServer {
    /// The newest frame, whole (`None` until the first push); possibly
    /// shared with the producer that pushed it.
    head: Option<Arc<PointCloud>>,
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
    /// then enforces the retention bound. An `Arc` is kept as it is, not
    /// copied.
    pub fn push_frame(&mut self, frame: impl Into<Arc<PointCloud>>) {
        let frame = frame.into();
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
    pub fn push_frame_with_delta(&mut self, frame: impl Into<Arc<PointCloud>>, delta: FrameDelta) {
        let delta = self.head.as_ref().map(|_| delta);
        self.push_frame_inner(frame.into(), delta);
    }

    fn push_frame_inner(&mut self, frame: Arc<PointCloud>, delta: Option<FrameDelta>) {
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
        self.head.as_ref().map_or(0, |h| h.byte_size() as u64) + self.step_bytes
    }

    /// Bytes of the undo steps alone: [`Self::retained_bytes`] without the
    /// head, for a caller that counts a head it shares elsewhere.
    pub fn step_bytes(&self) -> u64 {
        self.step_bytes
    }

    /// The newest frame, as the shared handle the origin keeps (`None`
    /// before the first push).
    #[cfg(test)]
    pub(crate) fn head(&self) -> Option<&Arc<PointCloud>> {
        self.head.as_ref()
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
                    delta: DeltaParts::of(&delta),
                    inserted,
                    inserted_colors,
                    digest: self.digest_at(to),
                },
            }
            .encode(),
        )
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::faults::{FaultConfig, OwnedFaultyLink};
    use crate::resilience::{ResilientReceiver, RetryPolicy};
    use crate::trace::NetworkTrace;
    use std::sync::Arc;
    use volut_pointcloud::synthetic::{self, DeltaStreamConfig};

    /// `frames` churned frames of a `n_points` humanoid.
    pub(in crate::resilience) fn frames(
        n_points: usize,
        frames: usize,
        churn: f64,
        seed: u64,
    ) -> Vec<PointCloud> {
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

    #[test]
    fn retention_byte_cap_bounds_a_long_session() {
        let f = frames(150, 40, 0.15, 17);
        let cap = 4 * f[0].byte_size() as u64;
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
        let budget = 28 * f[0].byte_size() as u64 / 4;
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
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);

        // A paced receiver: frames 0 and 1 arrive clean, frame 2 only
        // through the keyframe rung, frame 3 clean again.
        let mut server = DeltaServer::new(f[..2].to_vec());
        let mut receiver = ResilientReceiver::new(RetryPolicy::default(), 0);
        let mut deliver = |server: &DeltaServer, receiver: &mut ResilientReceiver, seq: u64| {
            let frame = receiver.recover(server, &mut link, seq).unwrap();
            assert_eq!(
                frame.cloud().positions(),
                f[seq as usize].positions(),
                "seq {seq}"
            );
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
                Ok(frame) => assert_eq!(frame.cloud().positions(), f[seq as usize].positions()),
                Err(_) => assert!(cold.stats().integrity_failures > 0, "seq {seq}"),
            }
        }
    }
}
