//! End-to-end streaming session simulator.
//!
//! Drives one playback session chunk by chunk: the ABR controller picks a
//! `{density, SR ratio}`, the simulated link downloads the encoded chunk,
//! the client compute model charges SR time, the playback buffer drains in
//! wall-clock time, and the QoE accumulator scores the outcome. This
//! reproduces the setups behind Figures 12, 13 and 14.

use crate::abr::AbrContext;
use crate::buffer::PlaybackBuffer;
use crate::chunk::chunk_video;
use crate::link::SimulatedLink;
use crate::motion::MotionTrace;
use crate::qoe::{QoeParams, QoeSummary};
use crate::resilience::{DegradationConfig, DegradationLevel, QualityAccount};
use crate::systems::{SystemKind, SystemSpec};
use crate::trace::NetworkTrace;
use crate::video::VideoMeta;
use crate::viewport::VisibilityModel;
use crate::Result;
use volut_core::device::{DeviceProfile, StageKind};

/// Static configuration of a streaming session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Chunk duration in seconds.
    pub chunk_duration_s: f64,
    /// Playback buffer capacity in seconds.
    pub buffer_capacity_s: f64,
    /// Startup threshold before playback begins, in seconds.
    pub startup_threshold_s: f64,
    /// QoE weights.
    pub qoe: QoeParams,
    /// Client device profile.
    pub device: DeviceProfile,
    /// Viewer motion pattern.
    pub motion: MotionTrace,
    /// Viewport-prediction horizon used by viewport-adaptive systems.
    pub prediction_horizon_s: f64,
    /// Deadline-aware graceful degradation (see [`crate::resilience`]).
    /// `None` (the default) disables the ladder: every chunk runs the full
    /// pipeline.
    pub degradation: Option<DegradationConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            chunk_duration_s: 1.0,
            buffer_capacity_s: 8.0,
            startup_threshold_s: 1.0,
            qoe: QoeParams::default(),
            device: DeviceProfile::desktop_3080ti(),
            motion: MotionTrace::orbit(),
            prediction_horizon_s: 1.0,
            degradation: None,
        }
    }
}

/// Per-chunk record of the session timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRecord {
    /// Chunk index.
    pub index: usize,
    /// Density fetched from the server.
    pub fetch_density: f64,
    /// Upsampling ratio applied client-side.
    pub sr_ratio: f64,
    /// Displayed (post-SR) quality in `[0, 1]`.
    pub displayed_quality: f64,
    /// Bytes downloaded for this chunk.
    pub bytes: u64,
    /// Download time in seconds.
    pub download_s: f64,
    /// Client compute time in seconds.
    pub compute_s: f64,
    /// Stall incurred while waiting for this chunk, in seconds.
    pub stall_s: f64,
    /// Buffer level after this chunk was added.
    pub buffer_after_s: f64,
    /// Degradation level the chunk ran at (index into
    /// [`DegradationLevel::ALL`]; 0 = full pipeline).
    pub degradation_level: usize,
}

/// Outcome of one simulated session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// System variant that was simulated.
    pub system: SystemKind,
    /// Video name.
    pub video: String,
    /// Network trace name.
    pub trace: String,
    /// QoE summary (Eq. 10).
    pub qoe: QoeSummary,
    /// Total bytes downloaded, including any startup model download.
    pub data_bytes: u64,
    /// Total stall time in seconds.
    pub stall_s: f64,
    /// Mean fetched density across chunks.
    pub mean_fetch_density: f64,
    /// Mean displayed (post-SR) quality across chunks.
    pub mean_displayed_quality: f64,
    /// Chunks whose predicted compute overran their playback duration.
    pub deadline_misses: u64,
    /// Chunks served at each [`DegradationLevel`], `Full` first.
    pub residency: [u64; 5],
    /// Full per-chunk timeline.
    pub timeline: Vec<ChunkRecord>,
}

impl SessionResult {
    /// Data usage as a fraction of streaming every chunk at full density.
    pub fn data_fraction_of_full(&self, meta: &VideoMeta, chunk_duration_s: f64) -> f64 {
        let full: u64 = chunk_video(meta, chunk_duration_s)
            .iter()
            .map(|c| c.encoded_bytes(1.0))
            .sum();
        if full == 0 {
            0.0
        } else {
            self.data_bytes as f64 / full as f64
        }
    }
}

/// The streaming session simulator.
#[derive(Debug, Clone)]
pub struct StreamingSimulator {
    config: SessionConfig,
}

impl StreamingSimulator {
    /// Creates a simulator with the given session configuration.
    pub fn new(config: SessionConfig) -> Self {
        Self { config }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs one session of `video` over `trace` with the given system
    /// variant, overriding the system's default compute model with one
    /// calibrated from a live [`crate::client::SrSession`] (or any other
    /// measurement source). This ties the analytic simulator to the actual
    /// batched SR engine instead of the baked-in per-point constants.
    ///
    /// # Errors
    /// Returns an error when the video produces no chunks.
    pub fn run_with_model(
        &self,
        video: &VideoMeta,
        trace: &NetworkTrace,
        system: SystemKind,
        compute: crate::client::SrComputeModel,
    ) -> Result<SessionResult> {
        let mut spec = SystemSpec::build(system, self.config.qoe);
        spec.compute = compute;
        self.run_with_spec(video, trace, spec)
    }

    /// Runs one session of `video` over `trace` with the given system variant.
    ///
    /// # Errors
    /// Returns an error when the video produces no chunks.
    pub fn run(
        &self,
        video: &VideoMeta,
        trace: &NetworkTrace,
        system: SystemKind,
    ) -> Result<SessionResult> {
        let spec = SystemSpec::build(system, self.config.qoe);
        self.run_with_spec(video, trace, spec)
    }

    fn run_with_spec(
        &self,
        video: &VideoMeta,
        trace: &NetworkTrace,
        mut spec: SystemSpec,
    ) -> Result<SessionResult> {
        let chunks = chunk_video(video, self.config.chunk_duration_s);
        if chunks.is_empty() {
            return Err(crate::Error::InvalidConfig(
                "video produced no chunks; check frame count and chunk duration".into(),
            ));
        }
        let link = SimulatedLink::new(trace);
        let mut buffer = PlaybackBuffer::new(
            self.config.buffer_capacity_s,
            self.config.startup_threshold_s,
        );
        let mut timeline = Vec::with_capacity(chunks.len());
        // The first chunk's quality switch is scored against 0.0.
        let mut account = QualityAccount::new(self.config.degradation, self.config.qoe, Some(0.0));

        let visibility =
            VisibilityModel::for_motion(&self.config.motion, self.config.prediction_horizon_s);

        // Session clock and counters.
        let mut now_s = 0.0f64;
        let mut data_bytes = spec.startup_download_bytes;
        if spec.startup_download_bytes > 0 {
            now_s += link.download_time(spec.startup_download_bytes, now_s);
        }
        let mut density_sum = 0.0f64;
        let mut quality_sum = 0.0f64;

        for chunk in &chunks {
            let throughput = spec
                .abr
                .throughput_estimate()
                .unwrap_or_else(|| trace.bandwidth_at(now_s));
            // SR compute cost for synthesizing one full chunk's worth of
            // points: measured at the smallest density / largest ratio and
            // normalized by the synthesized fraction.
            let min_density = 1.0 / spec.max_sr_ratio.max(1.0);
            let full_synth_cost = spec.compute.chunk_time_on_device(
                chunk,
                min_density,
                spec.max_sr_ratio,
                &self.config.device,
                spec.nn_inference,
            );
            let sr_seconds_per_chunk = if spec.max_sr_ratio > 1.0 {
                full_synth_cost / (1.0 - min_density)
            } else {
                0.0
            };
            let ctx = AbrContext {
                throughput_mbps: throughput,
                buffer_level_s: buffer.level_s(),
                chunk_duration_s: chunk.duration_s,
                full_chunk_bytes: chunk.encoded_bytes(1.0),
                previous_quality: account.previous_quality().unwrap_or_default(),
                max_sr_ratio: spec.max_sr_ratio,
                sr_seconds_per_chunk,
                sr_quality_factor: spec.sr_quality_factor,
            };
            let decision = spec.abr.decide(&ctx);

            // Bytes actually fetched: viewport-adaptive systems fetch only the
            // predicted-visible region.
            let bytes_fraction = if spec.viewport_adaptive {
                visibility.bytes_fraction()
            } else {
                1.0
            };
            let bytes = (chunk.encoded_bytes(decision.fetch_density) as f64 * bytes_fraction)
                .round() as u64;

            let download_s = link.download_time(bytes, now_s);
            // Deadline-aware degradation: the account picks the cheapest
            // level that fits the chunk's playback duration (with
            // hysteresis), and the chunk's compute time is charged at that
            // level. Without a ladder every chunk runs the full pipeline.
            let plan = account.plan(
                |l| {
                    l.chunk_time_on_device(
                        &spec.compute,
                        chunk,
                        decision.fetch_density,
                        decision.sr_ratio,
                        &self.config.device,
                        spec.nn_inference,
                    )
                },
                chunk.duration_s,
                DegradationLevel::Full,
            );
            let compute_s = plan.predicted_s;
            // Download and client-side SR are pipelined (the paper's client
            // overlaps fetching chunk i+1 with upsampling chunk i), plus a
            // small serial overhead for decode/protocol handling.
            let serial_overhead_s = 0.01 * self.config.device.scale_for(StageKind::SerialCpu);
            let ready_after = download_s.max(compute_s) + serial_overhead_s;

            // Wall-clock advances while the chunk is being fetched/processed;
            // playback drains the buffer during that interval.
            let stall_s = buffer.advance(ready_after);
            now_s += ready_after;
            buffer.add_content(chunk.duration_s);

            // Displayed quality: real + SR-synthesized points, with ViVo's
            // viewport-miss model applied when relevant; the account prices
            // the served level into it.
            let base_quality = if spec.viewport_adaptive {
                visibility.effective_quality(decision.fetch_density)
            } else {
                ctx.displayed_quality(decision.fetch_density, decision.sr_ratio)
            };
            account.record(
                plan.level,
                base_quality,
                compute_s,
                chunk.duration_s,
                stall_s,
                chunk.duration_s,
            );
            let displayed_quality = account.previous_quality().unwrap_or_default();

            // Feed the estimator with what the transfer actually achieved.
            let observed = link.observed_throughput(bytes.max(1), now_s - ready_after);
            spec.abr.observe_throughput(observed);

            timeline.push(ChunkRecord {
                index: chunk.index,
                fetch_density: decision.fetch_density,
                sr_ratio: decision.sr_ratio,
                displayed_quality,
                bytes,
                download_s,
                compute_s,
                stall_s,
                buffer_after_s: buffer.level_s(),
                degradation_level: plan.level.index(),
            });

            data_bytes += bytes;
            density_sum += decision.fetch_density;
            quality_sum += displayed_quality;
        }

        let n = chunks.len() as f64;
        Ok(SessionResult {
            system: spec.kind,
            video: video.name.clone(),
            trace: trace.name.clone(),
            qoe: account.qoe(),
            data_bytes,
            stall_s: buffer.total_stall_s(),
            mean_fetch_density: density_sum / n,
            mean_displayed_quality: quality_sum / n,
            deadline_misses: account.deadline_misses(),
            residency: account.residency(),
            timeline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_video() -> VideoMeta {
        // 60 seconds of 100K-point content keeps the test fast.
        VideoMeta {
            name: "test-dress".into(),
            frame_count: 1800,
            fps: 30.0,
            points_per_frame: 100_000,
        }
    }

    #[test]
    fn volut_beats_yuzu_and_vivo_on_stable_50mbps() {
        // The Figure 12 (stable bandwidth) ordering: VoLUT > Yuzu-SR > ViVo.
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = short_video();
        let trace = NetworkTrace::stable(50.0, 120.0);
        let volut = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        let yuzu = sim.run(&video, &trace, SystemKind::YuzuSr).unwrap();
        let vivo = sim.run(&video, &trace, SystemKind::Vivo).unwrap();
        assert!(
            volut.qoe.normalized > yuzu.qoe.normalized,
            "volut {} vs yuzu {}",
            volut.qoe.normalized,
            yuzu.qoe.normalized
        );
        assert!(
            yuzu.qoe.normalized > vivo.qoe.normalized,
            "yuzu {} vs vivo {}",
            yuzu.qoe.normalized,
            vivo.qoe.normalized
        );
    }

    #[test]
    fn volut_uses_less_data_than_raw_streaming() {
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = short_video();
        let trace = NetworkTrace::stable(100.0, 120.0);
        let volut = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        let raw_bytes: u64 = chunk_video(&video, 1.0)
            .iter()
            .map(|c| c.encoded_bytes(1.0))
            .sum();
        // The headline bandwidth claim: up to ~70% reduction vs raw streaming.
        let fraction = volut.data_bytes as f64 / raw_bytes as f64;
        assert!(
            fraction < 0.6,
            "volut should use well under 60% of raw bytes, got {fraction}"
        );
        assert!(volut.qoe.normalized > 60.0);
    }

    #[test]
    fn continuous_abr_beats_discrete_ablation_under_lte() {
        // Figure 14 / §7.5: H1 ≥ H2 > H3 in QoE, and H1 uses the least data.
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = short_video();
        let trace = NetworkTrace::synthetic_lte(40.0, 15.0, 180.0, 9);
        let h1 = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        let h2 = sim.run(&video, &trace, SystemKind::VolutDiscrete).unwrap();
        let h3 = sim.run(&video, &trace, SystemKind::DiscreteYuzuSr).unwrap();
        assert!(
            h1.qoe.normalized >= h2.qoe.normalized - 2.0,
            "h1 {} h2 {}",
            h1.qoe.normalized,
            h2.qoe.normalized
        );
        assert!(
            h2.qoe.normalized > h3.qoe.normalized,
            "h2 {} h3 {}",
            h2.qoe.normalized,
            h3.qoe.normalized
        );
        assert!(
            h1.data_bytes < h2.data_bytes,
            "h1 {} h2 {}",
            h1.data_bytes,
            h2.data_bytes
        );
    }

    #[test]
    fn session_accounting_is_consistent() {
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = VideoMeta::tiny(300, 50_000);
        let trace = NetworkTrace::stable(40.0, 60.0);
        let r = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        assert_eq!(r.timeline.len(), 10);
        let timeline_bytes: u64 = r.timeline.iter().map(|c| c.bytes).sum();
        assert!(r.data_bytes >= timeline_bytes);
        let timeline_stall: f64 = r.timeline.iter().map(|c| c.stall_s).sum();
        assert!((timeline_stall - r.stall_s).abs() < 1e-6);
        assert!(r.mean_fetch_density > 0.0 && r.mean_fetch_density <= 1.0);
        assert!(r.mean_displayed_quality >= r.mean_fetch_density - 1e-9);
        assert!(r.data_fraction_of_full(&video, 1.0) > 0.0);
    }

    #[test]
    fn empty_video_is_rejected() {
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = VideoMeta::tiny(0, 1000);
        let trace = NetworkTrace::stable(40.0, 30.0);
        assert!(sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .is_err());
    }

    #[test]
    fn degradation_disabled_leaves_sessions_unchanged() {
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = VideoMeta::tiny(300, 50_000);
        let trace = NetworkTrace::stable(40.0, 60.0);
        let r = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        assert_eq!(r.residency, [r.timeline.len() as u64, 0, 0, 0, 0]);
        assert!(r.timeline.iter().all(|c| c.degradation_level == 0));
    }

    #[test]
    fn residency_counts_every_chunk_with_the_ladder_on_and_off() {
        let video = VideoMeta::tiny(600, 100_000);
        let trace = NetworkTrace::synthetic_lte(40.0, 15.0, 60.0, 9);
        for degradation in [None, Some(DegradationConfig::default())] {
            let sim = StreamingSimulator::new(SessionConfig {
                device: DeviceProfile::orange_pi(),
                degradation,
                ..SessionConfig::default()
            });
            for system in SystemKind::all() {
                let r = sim.run(&video, &trace, system).unwrap();
                assert_eq!(
                    r.residency.iter().sum::<u64>(),
                    r.timeline.len() as u64,
                    "{system:?} ladder {degradation:?}: {:?}",
                    r.residency
                );
                let misses = r.timeline.iter().filter(|c| c.compute_s > 1.0).count();
                assert_eq!(r.deadline_misses, misses as u64, "{system:?}");
            }
        }
    }

    #[test]
    fn fast_device_with_headroom_never_degrades() {
        let config = SessionConfig {
            degradation: Some(DegradationConfig::default()),
            ..SessionConfig::default()
        };
        let sim = StreamingSimulator::new(config);
        let video = short_video();
        let trace = NetworkTrace::stable(50.0, 120.0);
        let r = sim
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(
            r.residency[0],
            r.timeline.len() as u64,
            "desktop + LUT SR has plenty of headroom: {:?}",
            r.residency
        );
        // At Full level the quality factor is 1.0, so enabling the
        // ladder must not change the scored outcome.
        let baseline = StreamingSimulator::new(SessionConfig::default())
            .run(&video, &trace, SystemKind::VolutContinuous)
            .unwrap();
        assert_eq!(r.qoe.score, baseline.qoe.score);
        assert_eq!(r.data_bytes, baseline.data_bytes);
    }

    #[test]
    fn overloaded_device_degrades_instead_of_missing_deadlines() {
        // GradPU-class neural refinement on an embedded device cannot hold
        // the real-time line at Full; the ladder must shed stages and keep
        // the realized miss rate at zero (predictions are exact in the
        // analytic model) while actually spending time below budget.
        let config = SessionConfig {
            device: DeviceProfile::orange_pi(),
            degradation: Some(DegradationConfig::default()),
            ..SessionConfig::default()
        };
        let sim = StreamingSimulator::new(config.clone());
        let video = short_video();
        let trace = NetworkTrace::stable(50.0, 120.0);
        let r = sim.run(&video, &trace, SystemKind::DiscreteYuzuSr).unwrap();
        let degraded: u64 = r.residency[1..].iter().sum();
        assert!(
            degraded > 0,
            "expected shedding on orange-pi: {:?}",
            r.residency
        );
        let miss_rate = r.deadline_misses as f64 / r.timeline.len() as f64;
        assert!(
            miss_rate <= 0.05,
            "miss rate {miss_rate} residency {:?}",
            r.residency
        );
        // Degraded chunks must actually be cheaper than the budget they
        // were planned against.
        for c in &r.timeline {
            assert!(
                c.compute_s <= config.chunk_duration_s + 1e-9,
                "chunk {} spent {}s against a {}s budget at level {}",
                c.index,
                c.compute_s,
                config.chunk_duration_s,
                c.degradation_level
            );
        }
        // The same session without the ladder stalls on compute.
        let unmanaged = StreamingSimulator::new(SessionConfig {
            device: DeviceProfile::orange_pi(),
            ..SessionConfig::default()
        })
        .run(&video, &trace, SystemKind::DiscreteYuzuSr)
        .unwrap();
        assert!(
            r.stall_s < unmanaged.stall_s,
            "managed {} unmanaged {}",
            r.stall_s,
            unmanaged.stall_s
        );
    }

    #[test]
    fn low_bandwidth_forces_lower_density_but_sr_recovers_quality() {
        let sim = StreamingSimulator::new(SessionConfig::default());
        let video = short_video();
        let low = sim
            .run(
                &video,
                &NetworkTrace::stable(30.0, 120.0),
                SystemKind::VolutContinuous,
            )
            .unwrap();
        let high = sim
            .run(
                &video,
                &NetworkTrace::stable(150.0, 120.0),
                SystemKind::VolutContinuous,
            )
            .unwrap();
        // With SR saturating the displayed density, the controller never
        // fetches more than the higher-bandwidth session would.
        assert!(low.mean_fetch_density <= high.mean_fetch_density + 1e-9);
        assert!(low.data_bytes <= high.data_bytes);
        // SR keeps displayed quality much higher than the fetched density.
        assert!(low.mean_displayed_quality > low.mean_fetch_density + 0.2);
        // Both sessions play back without heavy stalling.
        assert!(low.qoe.normalized > 60.0);
        assert!(high.qoe.normalized > 60.0);
    }
}
