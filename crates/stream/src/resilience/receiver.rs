//! The receiving side: the recovery ladder ([`ResilientReceiver::recover`])
//! and the one loop that upsamples and commits what it recovers
//! ([`ResilientReceiver::deliver`]).

use rand::{Rng, SeedableRng, StdRng};
use volut_core::pipeline::{SrPipeline, SrResult};
use volut_pointcloud::{Color, FrameDelta, Point3, PointCloud};

use super::origin::DeltaServer;
use super::wire::{FrameMessage, MessageBody};
use crate::client::SrSession;
use crate::faults::Transport;
use crate::{Error, Result};

/// Robustness telemetry of a resilient session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
}

impl RobustnessStats {
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
    }
}

/// Retry/backoff/timeout policy of the resilient session.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Full keyframe resync: the caches are flushed and the frame
    /// recomputes cold.
    Keyframe,
}

/// One frame recovered off the wire by [`ResilientReceiver::recover`],
/// verified (checksum + digest) but not yet upsampled or committed. When
/// `delta` is `Some` it may feed the SR engine's incremental path; when
/// `None` (keyframe / cold start) the engine's cross-frame caches are
/// flushed and the frame recomputes cold.
#[derive(Debug, Clone)]
pub struct RecoveredFrame {
    /// The reconstructed frame (colors when the stream carries them). Its
    /// geometry digest was computed once, to check the wire's, and stays
    /// memoized on the cloud, so the engine reads it without rehashing.
    cloud: PointCloud,
    /// The structural delta from the receiver's previous frame, for the
    /// incremental SR path; `None` means cold recompute.
    pub delta: Option<FrameDelta>,
    /// Which rung of the ladder produced the frame.
    pub kind: RecoveryKind,
}

impl RecoveredFrame {
    /// The point cloud for the SR engine: a copy that keeps the verified
    /// digest.
    pub fn cloud(&self) -> PointCloud {
        self.cloud.clone()
    }
}

/// What [`ResilientReceiver::deliver`] reports of the frame it committed.
/// The frame itself becomes the receiver's delta base, so it is not
/// handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The frame's geometry digest, verified against the wire's.
    pub digest: u64,
    /// Points in the frame.
    pub points: usize,
}

/// Receiver-side protocol state of the resilient delta stream: the last
/// good sequence number, the reconstructed current frame (the delta base),
/// the session clock (link time + backoff + timeouts), the seeded backoff
/// jitter RNG, and the robustness counters. [`Self::recover`] climbs the
/// ladder; [`Self::deliver`] upsamples and commits what it returns.
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

    /// Capacity (bytes) of the delta base: the last committed frame's
    /// positions and colors, resident between frames.
    pub fn base_bytes(&self) -> usize {
        self.positions.capacity() * std::mem::size_of::<Point3>()
            + self
                .colors
                .as_ref()
                .map_or(0, |c| c.capacity() * std::mem::size_of::<Color>())
    }

    /// Fetches frame `seq` over the (faulty) link, climbing the recovery
    /// ladder as needed (see the module docs), and returns the verified
    /// frame for [`Self::deliver`].
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
                        let applied = delta.against(self.positions.len()).and_then(|delta| {
                            let positions = delta.apply(&self.positions, &inserted)?;
                            Some((delta, positions))
                        });
                        let Some((delta, new_positions)) = applied else {
                            // Inapplicable to our base: it diverged from the
                            // server's, or the parts are inconsistent.
                            // Resync below.
                            self.stats.integrity_failures += 1;
                            break;
                        };
                        let mut cloud = PointCloud::from_positions(new_positions);
                        if cloud.geometry_digest() != digest {
                            self.stats.integrity_failures += 1;
                            continue;
                        }
                        // Survivor colors ride the survivor map; a color
                        // presence mismatch means base divergence.
                        match (&self.colors, &inserted_colors) {
                            (Some(base), Some(ins)) => match delta.apply(base, ins) {
                                Some(c) => cloud
                                    .set_colors(c)
                                    .expect("a delta's output has its new length"),
                                None => {
                                    self.stats.integrity_failures += 1;
                                    break;
                                }
                            },
                            (None, None) => {}
                            _ => {
                                self.stats.integrity_failures += 1;
                                break;
                            }
                        }
                        let kind = if seq - base_seq > 1 {
                            RecoveryKind::Compose
                        } else if round > 0 {
                            RecoveryKind::Retransmit
                        } else {
                            RecoveryKind::Clean
                        };
                        return Ok(RecoveredFrame {
                            cloud,
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
                    let mut cloud = PointCloud::from_positions(positions);
                    if cloud.geometry_digest() != digest {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    if colors.is_some_and(|c| cloud.set_colors(c).is_err()) {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    let cold_start = self.last_seq.is_none() && seq == 0;
                    return Ok(RecoveredFrame {
                        cloud,
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

    /// The receive loop every caller runs: upsamples a recovered frame at
    /// `rung` ([`Upsampler::upsample`]), counts a rejected declared delta as
    /// a detected poisoning, and commits the frame. It is committed even
    /// when the engine fails on it: the protocol verified it, and the
    /// failure only leaves the next frame undeclared. Returns the committed
    /// frame's digest and size and the engine's output (`None`: passed
    /// through).
    pub fn deliver(
        &mut self,
        mut frame: RecoveredFrame,
        seq: u64,
        sr: &mut Upsampler,
        rung: Rung<'_>,
        ratio: f64,
    ) -> (Delivered, Option<volut_core::Result<SrResult>>) {
        let (output, rejected) = sr.upsample(&frame.cloud, frame.delta.take(), rung, ratio);
        if rejected {
            self.note_poisoning();
        }
        let delivered = Delivered {
            digest: frame.cloud.geometry_digest(),
            points: frame.cloud.len(),
        };
        self.commit(frame, seq);
        (delivered, output)
    }

    /// Stores a frame as the new delta base, advances `last_seq`, and
    /// counts the recovery kind.
    pub fn commit(&mut self, frame: RecoveredFrame, seq: u64) {
        (self.positions, self.colors) = frame.cloud.into_parts();
        self.last_seq = Some(seq);
        self.stats.frames += 1;
        match frame.kind {
            RecoveryKind::Clean => self.stats.clean_frames += 1,
            RecoveryKind::Compose => self.stats.recovered_compose += 1,
            RecoveryKind::Retransmit => self.stats.recovered_retransmit += 1,
            RecoveryKind::Keyframe => self.stats.recovered_keyframe += 1,
        }
    }

    /// Records that the SR engine rejected a declared delta on verification
    /// (attempted cache poisoning, detected and never served).
    fn note_poisoning(&mut self) {
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

/// The degradation rung one frame runs at (see [`super::DegradationLevel`]).
#[derive(Debug, Clone, Copy)]
pub enum Rung<'a> {
    /// The session's own pipeline.
    Full,
    /// A cheaper pipeline sharing the session's caches.
    Degraded(&'a SrPipeline),
    /// No SR: the received points are served untouched.
    Passthrough,
}

/// An [`SrSession`] plus whether its caches follow the stream's previous
/// frame. After a frame the engine did not finish (passed through or
/// failed) a declared delta is withheld: the engine would reject it against
/// the older frame it holds, and that rejection is no poisoning.
#[derive(Debug)]
pub struct Upsampler {
    session: SrSession,
    synced: bool,
}

impl Upsampler {
    /// Wraps a session whose caches follow no frame yet.
    pub fn new(session: SrSession) -> Self {
        Self {
            session,
            synced: false,
        }
    }

    /// The wrapped SR session.
    pub fn session(&self) -> &SrSession {
        &self.session
    }

    /// Runs `frame` at `rung`. A `delta` of `None` (keyframe or first frame)
    /// flushes the caches so the frame recomputes from its own bits alone.
    /// When the engine rejects a declared delta the caches are flushed too,
    /// so the next frame starts clean; this frame is right either way, as
    /// the engine falls back to its own diff. Returns the engine's output
    /// (`None`: passed through) and whether a declared delta was rejected.
    pub fn upsample(
        &mut self,
        frame: &PointCloud,
        delta: Option<FrameDelta>,
        rung: Rung<'_>,
        ratio: f64,
    ) -> (Option<volut_core::Result<SrResult>>, bool) {
        if delta.is_none() {
            self.session.flush_caches();
        }
        let declared = delta.filter(|_| self.synced && !matches!(rung, Rung::Passthrough));
        let was_declared = declared.is_some();
        let output = match rung {
            Rung::Passthrough => None,
            Rung::Full => Some(match declared {
                Some(d) => self.session.upsample_frame_delta(frame, ratio, d),
                None => self.session.upsample_frame(frame, ratio),
            }),
            Rung::Degraded(pipeline) => Some(
                self.session
                    .upsample_frame_via(pipeline, frame, ratio, declared),
            ),
        };
        let rejected = was_declared && self.session.last_delta_error().is_some();
        if rejected {
            self.session.flush_caches();
        }
        self.synced = matches!(output, Some(Ok(_))) && !rejected;
        (output, rejected)
    }
}

/// A fault-tolerant wrapper around [`SrSession`] implementing the recovery
/// ladder of the [module docs](super): a [`ResilientReceiver`] for the
/// protocol state plus the SR engine that upsamples what it recovers.
#[derive(Debug)]
pub struct ResilientSession {
    sr: Upsampler,
    receiver: ResilientReceiver,
}

impl ResilientSession {
    /// Wraps an SR session with the default retry policy.
    pub fn new(session: SrSession) -> Self {
        Self::with_policy_seeded(session, RetryPolicy::default(), 0)
    }

    /// Wraps an SR session with an explicit retry policy and backoff
    /// jitter seed.
    pub fn with_policy_seeded(session: SrSession, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            sr: Upsampler::new(session),
            receiver: ResilientReceiver::new(policy, seed),
        }
    }

    /// The wrapped SR session.
    pub fn session(&self) -> &SrSession {
        self.sr.session()
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> RobustnessStats {
        self.receiver.stats()
    }

    /// The session clock: link time + backoff + timeouts accrued so far.
    pub fn clock_s(&self) -> f64 {
        self.receiver.clock_s()
    }

    /// Fetches frame `seq` over the (faulty) link and upsamples it,
    /// climbing the recovery ladder as needed (see the module docs): one
    /// [`ResilientReceiver::recover`] and one [`ResilientReceiver::deliver`]
    /// at [`Rung::Full`]. On success the output is bit-identical to what a
    /// never-faulted session would produce for the same frame.
    ///
    /// # Errors
    /// [`Error::Transport`] when even the keyframe rung fails after all
    /// retries (the link is effectively down); SR-engine errors propagate,
    /// with the frame committed all the same.
    pub fn advance(
        &mut self,
        server: &DeltaServer,
        link: &mut impl Transport,
        seq: u64,
        ratio: f64,
    ) -> Result<SrResult> {
        let frame = self.receiver.recover(server, link, seq)?;
        let (_, output) = self
            .receiver
            .deliver(frame, seq, &mut self.sr, Rung::Full, ratio);
        Ok(output.expect("the full rung always runs the engine")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, OwnedFaultyLink};
    use crate::resilience::origin::tests::frames;
    use crate::resilience::wire::tests::identity_delta_bytes;
    use crate::resilience::RetentionPolicy;
    use crate::trace::NetworkTrace;
    use std::sync::Arc;
    use volut_core::refine::IdentityRefiner;
    use volut_core::SrConfig;

    fn make_session() -> SrSession {
        SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ))
    }

    #[test]
    fn clean_link_session_matches_plain_session_bitwise() {
        let f = frames(800, 6, 0.12, 21);
        let server = DeltaServer::new(f.clone());
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);
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
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);
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
        let trace = Arc::new(NetworkTrace::stable(60.0, 300.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::chaos(0.25), 0xC0FFEE);
        // Chaos at 25% with 4-frame bursts can blank several consecutive
        // rounds; give the ladder enough retransmissions to outlast them.
        let mut resilient = ResilientSession::with_policy_seeded(
            make_session(),
            RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            },
            0,
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
    fn beyond_window_gap_recovers_via_keyframe_bit_identically() {
        let f = frames(150, 12, 0.1, 23);
        let mut server =
            DeltaServer::with_retention(f[..3].to_vec(), RetentionPolicy::last_frames(3));
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);
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
        let trace = Arc::new(NetworkTrace::stable(50.0, 60.0));
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
            let mut link = OwnedFaultyLink::new(Arc::clone(&trace), all_drops.clone(), 1);
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
    fn an_engine_error_commits_the_frame_and_undeclares_the_next() {
        let mut f = frames(300, 4, 0.1, 43);
        // Frame 2 has too few points for the engine; the protocol still
        // carries it like any other frame.
        f[2] = f[2].select(&[0]);
        let server = DeltaServer::new(f.clone());
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        for (i, frame) in f.iter().enumerate() {
            let result = resilient.advance(&server, &mut link, i as u64, 2.0);
            if i == 2 {
                assert!(
                    matches!(
                        result,
                        Err(Error::Core(volut_core::Error::InsufficientPoints { .. }))
                    ),
                    "{result:?}"
                );
                continue;
            }
            let cold = make_session().upsample_frame(frame, 2.0).unwrap();
            assert_eq!(result.unwrap().cloud, cold.cloud, "frame {i}");
        }
        // The failed frame was committed, so frame 3 came as the plain
        // 2 → 3 delta, not as a splice over a gap the link never had.
        let stats = resilient.stats();
        assert_eq!(stats.frames, 4, "{stats:?}");
        assert_eq!(stats.clean_frames, 4, "{stats:?}");
        assert_eq!(stats.recovered_compose, 0, "{stats:?}");
        assert_eq!(stats.poisonings_detected, 0, "{stats:?}");
    }

    #[test]
    fn a_wrong_declared_delta_is_counted_once_and_flushed() {
        let f = frames(300, 6, 0.15, 47);
        let server = DeltaServer::new(f.clone());
        let trace = Arc::new(NetworkTrace::stable(80.0, 120.0));
        let mut link = OwnedFaultyLink::new(Arc::clone(&trace), FaultConfig::lossless(), 1);
        let mut receiver = ResilientReceiver::new(RetryPolicy::default(), 0);
        let mut sr = Upsampler::new(make_session());
        let degraded = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        for seq in 0..6u64 {
            let mut frame = receiver.recover(&server, &mut link, seq).unwrap();
            if seq == 2 {
                // Verified positions, but declared with the stale 0 → 1
                // delta: a poisoned survivor map.
                frame.delta = Some(FrameDelta::diff(f[0].positions(), f[1].positions()));
            }
            let rung = match seq {
                4 => Rung::Passthrough,
                5 => Rung::Degraded(&degraded),
                _ => Rung::Full,
            };
            let (delivered, output) = receiver.deliver(frame, seq, &mut sr, rung, 2.0);
            let cloud = &f[seq as usize];
            assert_eq!(
                delivered,
                Delivered {
                    digest: cloud.geometry_digest(),
                    points: cloud.len(),
                }
            );
            let expected = match rung {
                Rung::Passthrough => {
                    assert!(output.is_none());
                    continue;
                }
                Rung::Degraded(pipeline) => pipeline.upsample(cloud, 2.0),
                Rung::Full => make_session().upsample_frame(cloud, 2.0),
            };
            let output = output.expect("the engine ran").unwrap();
            assert_eq!(output.cloud, expected.unwrap().cloud, "frame {seq}");
        }
        // Counted when declared, never again: frame 3 ran undeclared with
        // the rejection still on record, and the passthrough frame 4
        // handed the engine nothing.
        let stats = receiver.stats();
        assert_eq!(stats.poisonings_detected, 1, "{stats:?}");
        assert_eq!(stats.frames, 6, "{stats:?}");
    }

    #[test]
    fn a_forged_base_length_is_rejected_before_any_allocation() {
        // A link that answers every delta request with a checksum-valid
        // delta claiming a u32::MAX-point base.
        struct Forger;
        impl Transport for Forger {
            fn transmit(&mut self, payload: &[u8], _start_s: f64) -> crate::faults::Transfer {
                let msg = FrameMessage::decode(payload).expect("the origin's own bytes");
                let arrival = match msg.body {
                    MessageBody::Delta { base_seq, .. } => {
                        identity_delta_bytes(msg.seq, base_seq, u32::MAX)
                    }
                    MessageBody::Keyframe { .. } => payload.to_vec(),
                };
                crate::faults::Transfer {
                    time_s: 0.001,
                    arrivals: vec![arrival],
                }
            }
        }
        let f = frames(200, 2, 0.1, 53);
        let server = DeltaServer::with_retention(f.clone(), RetentionPolicy::unbounded());
        let mut receiver = ResilientReceiver::new(RetryPolicy::default(), 0);
        let first = receiver.recover(&server, &mut Forger, 0).unwrap();
        receiver.commit(first, 0);
        let frame = receiver.recover(&server, &mut Forger, 1).unwrap();
        assert_eq!(frame.cloud().positions(), f[1].positions());
        assert_eq!(frame.kind, RecoveryKind::Keyframe);
        assert_eq!(receiver.stats().integrity_failures, 1);
    }
}
