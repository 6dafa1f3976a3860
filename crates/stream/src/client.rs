//! Client-side compute: the live SR session and the analytic compute model.
//!
//! [`SrSession`] wraps a [`volut_core::SrPipeline`] together with the
//! session's cross-frame state ([`FrameScratch`]: cached index, previous
//! frame's rows and outputs), so consecutive frames of one streaming
//! session reuse what the geometry lets them. Per-frame working buffers are
//! not the session's: they come from the calling thread's
//! [`volut_core::interpolate::FrameArena`].
//!
//! The streaming simulator additionally needs to know how long the client
//! spends upsampling each chunk without actually running super-resolution on
//! every frame of a multi-minute session. [`SrComputeModel`] captures the
//! per-point cost of each pipeline stage; defaults are provided for the SR
//! back-ends the simulator compares, and
//! [`SrSession::calibrate_model_churned`] re-calibrates one from a live
//! session.

use volut_core::device::{DeviceProfile, StageKind};
use volut_core::interpolate::FrameScratch;
use volut_core::pipeline::{SrPipeline, SrResult};
use volut_pointcloud::{FrameDelta, PointCloud};

use crate::chunk::Chunk;

/// A live client-side super-resolution session: one pipeline plus the
/// cross-frame state shared by all frames it upsamples.
///
/// # Example
///
/// ```
/// use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
/// use volut_stream::client::SrSession;
/// use volut_pointcloud::synthetic;
///
/// # fn main() -> Result<(), volut_core::Error> {
/// let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
/// let mut session = SrSession::new(pipeline);
/// for seed in 0..3 {
///     let frame = synthetic::sphere(500, 1.0, seed);
///     let result = session.upsample_frame(&frame, 2.0)?;
///     assert_eq!(result.cloud.len(), 1000);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SrSession {
    pipeline: SrPipeline,
    scratch: FrameScratch,
}

impl SrSession {
    /// Creates a session around a configured pipeline.
    pub fn new(pipeline: SrPipeline) -> Self {
        Self {
            pipeline,
            scratch: FrameScratch::new(),
        }
    }

    /// Creates a session serving a published [`volut_core::registry::ContentModel`]:
    /// the pipeline probes the registry's shared table through an `Arc`, so
    /// constructing a session allocates per-session state only — never a
    /// copy of the content item's LUT or network. This is the constructor
    /// the multi-tenant server uses at admission.
    ///
    /// # Errors
    /// Propagates [`volut_core::registry::ContentModel::pipeline`] failures
    /// (invalid stored configuration).
    pub fn from_model(model: &volut_core::registry::ContentModel) -> volut_core::Result<Self> {
        Ok(Self::new(model.pipeline()?))
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &SrPipeline {
        &self.pipeline
    }

    /// Upsamples one frame through a **different** pipeline while reusing
    /// this session's state — the degraded-path entry point: a
    /// server under deadline pressure swaps a session to a cheaper pipeline
    /// (e.g. interpolation-only) for some frames without losing the warm
    /// spatial index and temporal row store. Cross-frame caches are keyed
    /// by pipeline id, config, and ratio, so alternating pipelines can
    /// never serve each other's cached outputs (see
    /// `volut_core::interpolate::temporal`); a swapped frame simply runs
    /// its cacheable stages cold. Pass `delta` when the transition from the
    /// previous frame is known, exactly as with
    /// [`Self::upsample_frame_delta`].
    ///
    /// # Errors
    /// Propagates pipeline failures (invalid ratio, insufficient points).
    pub fn upsample_frame_via(
        &mut self,
        pipeline: &SrPipeline,
        low: &PointCloud,
        ratio: f64,
        delta: Option<FrameDelta>,
    ) -> volut_core::Result<SrResult> {
        if let Some(delta) = delta {
            self.scratch.set_frame_delta(delta);
        }
        pipeline.upsample_with(low, ratio, &mut self.scratch)
    }

    /// Upsamples one received frame as the session's next frame.
    ///
    /// The session's spatial index is cached across frames: when the frame
    /// geometry is unchanged (static chunks, repeated frames) the index
    /// (re)build cost is amortized to a content check after frame 1 — see
    /// [`Self::temporal_stats`] and the `index_build` stage timing.
    ///
    /// # Errors
    /// Propagates pipeline failures (invalid ratio, insufficient points).
    pub fn upsample_frame(&mut self, low: &PointCloud, ratio: f64) -> volut_core::Result<SrResult> {
        self.pipeline.upsample_with(low, ratio, &mut self.scratch)
    }

    /// [`Self::upsample_frame`] for a delta-frame whose change from the
    /// previous frame the streaming layer already knows (chunk scheduling,
    /// delta-encoded transport): the declared [`FrameDelta`] spares the
    /// engine its own frame diff, and the temporal layer reuses every kNN
    /// row the churn cannot affect (see `volut_core::interpolate::temporal`
    /// — results are bit-identical to a full recompute). The delta is
    /// verified before use; a wrong declaration falls back to the engine's
    /// diff, costing time but never correctness.
    ///
    /// # Errors
    /// Propagates pipeline failures (invalid ratio, insufficient points).
    pub fn upsample_frame_delta(
        &mut self,
        low: &PointCloud,
        ratio: f64,
        delta: FrameDelta,
    ) -> volut_core::Result<SrResult> {
        self.scratch.set_frame_delta(delta);
        self.upsample_frame(low, ratio)
    }

    /// The session's counters: index rebuilds, reuses and patches,
    /// dual-tree batches, and the frame-, row- and point-level counters of
    /// the temporal (delta-frame) reuse layer.
    pub fn temporal_stats(&self) -> volut_core::interpolate::TemporalStats {
        self.scratch.temporal_stats()
    }

    /// Why the engine rejected the most recent externally declared
    /// [`FrameDelta`] (see [`Self::upsample_frame_delta`]), or `None` when
    /// it verified. A rejection never corrupts output — the engine falls
    /// back to its own bitwise diff — but a resilient transport reads the
    /// typed reason to tell a mangled payload from genuine divergence.
    pub fn last_delta_error(&self) -> Option<volut_pointcloud::DeltaError> {
        self.scratch.last_delta_error()
    }

    /// Flushes every cross-frame cache (temporal rows, interpolation
    /// outputs, refined tail, pending delta, spatial index) so the next
    /// frame recomputes cold from its own bits alone — the keyframe-resync
    /// primitive of fault-tolerant sessions. See the cache-flush invariants
    /// in `volut_core::interpolate::temporal`.
    pub fn flush_caches(&mut self) {
        self.scratch.flush_temporal();
    }

    /// The session's cross-frame state (index cache, previous frame's rows
    /// and outputs) — read-only, for capacity/stats inspection.
    pub fn scratch(&self) -> &FrameScratch {
        &self.scratch
    }

    /// Calibrates an [`SrComputeModel`] by driving a churned delta-frame
    /// sequence live through this session. A single cold frame would price
    /// every chunk as if its geometry were brand new; real volumetric
    /// streams churn only a fraction of each frame, and the engine's
    /// incremental kNN reuse makes steady-state frames far cheaper. The
    /// sequence comes from [`volut_pointcloud::synthetic::DeltaStream`]
    /// (spatially coherent churn at `churn` fraction per frame); the model
    /// is calibrated from the *median*-total steady-state frame, so the
    /// analytic simulator charges temporally-coherent compute costs when
    /// handed to `StreamingSimulator::run_with_model`.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn calibrate_model_churned(
        &mut self,
        base_frame: &PointCloud,
        ratio: f64,
        churn: f64,
        frames: usize,
    ) -> volut_core::Result<SrComputeModel> {
        use volut_pointcloud::synthetic::{DeltaStream, DeltaStreamConfig};
        let name = self.pipeline.refiner_name().to_string();
        let spacing = base_frame.mean_spacing(64).unwrap_or(0.01);
        let mut stream = DeltaStream::new(
            base_frame.clone(),
            DeltaStreamConfig {
                churn,
                drift: spacing * 4.0,
                jitter: spacing * 0.5,
                seed: 0xCAB,
            },
        );
        // Warm frame (cold index + row capture), then measured frames.
        self.upsample_frame(base_frame, ratio)?;
        let mut measured: Vec<SrResult> = Vec::with_capacity(frames.max(1));
        for _ in 0..frames.max(1) {
            let delta = stream.advance();
            measured.push(self.upsample_frame_delta(stream.frame(), ratio, delta)?);
        }
        measured.sort_by(|a, b| {
            a.timings
                .total()
                .as_secs_f64()
                .total_cmp(&b.timings.total().as_secs_f64())
        });
        let median = &measured[measured.len() / 2];
        Ok(SrComputeModel::calibrate(&name, median))
    }
}

/// Per-point compute cost of a super-resolution back-end, in microseconds on
/// the reference host.
#[derive(Debug, Clone, PartialEq)]
pub struct SrComputeModel {
    /// Name used in reports.
    pub name: String,
    /// kNN / index time per *input* point.
    pub knn_us_per_input_point: f64,
    /// Interpolation time per *output* point.
    pub interp_us_per_output_point: f64,
    /// Colorization time per *output* point.
    pub colorize_us_per_output_point: f64,
    /// Refinement time per *output* point (LUT lookup or NN inference).
    pub refine_us_per_output_point: f64,
}

impl SrComputeModel {
    /// VoLUT's pipeline: k-d tree kNN + dilated interpolation + LUT lookup.
    /// Defaults calibrated from host micro-benchmarks of `volut-core`.
    pub fn volut_lut() -> Self {
        Self {
            name: "volut-lut".into(),
            knn_us_per_input_point: 0.30,
            interp_us_per_output_point: 0.06,
            colorize_us_per_output_point: 0.02,
            refine_us_per_output_point: 0.06,
        }
    }

    /// Yuzu's neural SR: per-point inference through a ~500-wide network
    /// even in its frozen, optimized deployment.
    pub fn yuzu_nn() -> Self {
        Self {
            name: "yuzu-sr".into(),
            knn_us_per_input_point: 1.0,
            interp_us_per_output_point: 0.45,
            colorize_us_per_output_point: 0.05,
            refine_us_per_output_point: 8.0,
        }
    }

    /// No client-side SR (ViVo, raw streaming).
    pub fn none() -> Self {
        Self {
            name: "no-sr".into(),
            knn_us_per_input_point: 0.0,
            interp_us_per_output_point: 0.0,
            colorize_us_per_output_point: 0.0,
            refine_us_per_output_point: 0.0,
        }
    }

    /// Calibrates a model from a measured [`SrResult`]: divides the measured
    /// stage times by the actual point counts.
    pub fn calibrate(name: &str, result: &SrResult) -> Self {
        let input = result.input_points.max(1) as f64;
        let output = (result.cloud.len() - result.input_points).max(1) as f64;
        Self {
            name: name.into(),
            knn_us_per_input_point: (result.timings.index_build + result.timings.knn).as_secs_f64()
                * 1e6
                / input,
            interp_us_per_output_point: result.timings.interpolation.as_secs_f64() * 1e6 / output,
            colorize_us_per_output_point: result.timings.colorization.as_secs_f64() * 1e6 / output,
            refine_us_per_output_point: result.timings.refinement.as_secs_f64() * 1e6 / output,
        }
    }

    /// Host-time (seconds) to upsample one frame of `input_points` points by
    /// `sr_ratio`.
    pub fn frame_time_s(&self, input_points: f64, sr_ratio: f64) -> f64 {
        let ratio = sr_ratio.max(1.0);
        let output_points = input_points * (ratio - 1.0).max(0.0);
        (input_points * self.knn_us_per_input_point
            + output_points
                * (self.interp_us_per_output_point
                    + self.colorize_us_per_output_point
                    + self.refine_us_per_output_point))
            / 1e6
    }

    /// Device-time (seconds) for the same chunk on a specific device profile:
    /// each stage is scaled by the profile's per-stage factor. The
    /// `nn_inference` flag controls whether refinement scales like NN
    /// inference (Yuzu/GradPU) or like a memory-bound lookup (VoLUT).
    pub fn chunk_time_on_device(
        &self,
        chunk: &Chunk,
        fetch_density: f64,
        sr_ratio: f64,
        device: &DeviceProfile,
        nn_inference: bool,
    ) -> f64 {
        let input_per_frame = chunk.points_per_frame as f64 * fetch_density.clamp(0.0, 1.0);
        let ratio = sr_ratio.max(1.0);
        let output_per_frame = input_per_frame * (ratio - 1.0).max(0.0);
        let frames = chunk.frame_count as f64;
        let knn =
            input_per_frame * self.knn_us_per_input_point / 1e6 * device.scale_for(StageKind::Knn);
        let interp = output_per_frame * self.interp_us_per_output_point / 1e6
            * device.scale_for(StageKind::Interpolation);
        let colorize = output_per_frame * self.colorize_us_per_output_point / 1e6
            * device.scale_for(StageKind::Colorization);
        let refine_kind = if nn_inference {
            StageKind::NnInference
        } else {
            StageKind::LutLookup
        };
        let refine = output_per_frame * self.refine_us_per_output_point / 1e6
            * device.scale_for(refine_kind);
        (knn + interp + colorize + refine) * frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_video;
    use crate::video::VideoMeta;

    fn chunk() -> Chunk {
        chunk_video(&VideoMeta::long_dress(), 1.0)[0]
    }

    #[test]
    fn volut_is_faster_than_yuzu() {
        let volut = SrComputeModel::volut_lut().frame_time_s(25_000.0, 4.0);
        let yuzu = SrComputeModel::yuzu_nn().frame_time_s(25_000.0, 4.0);
        assert!(volut < yuzu);
        assert!(volut > 0.0);
        assert_eq!(SrComputeModel::none().frame_time_s(25_000.0, 4.0), 0.0);
    }

    #[test]
    fn frame_time_scales_with_ratio_moderately() {
        // The dominant cost is kNN over input points, so the frame time
        // should grow sub-linearly with the upsampling ratio (Figure 18).
        let m = SrComputeModel::volut_lut();
        let t2 = m.frame_time_s(25_000.0, 2.0);
        let t8 = m.frame_time_s(25_000.0, 8.0);
        assert!(t8 < t2 * 4.0, "t8 {t8} should be < 4x t2 {t2}");
        assert!(t8 > t2);
    }

    #[test]
    fn device_scaling_orders_platforms() {
        let c = chunk();
        let m = SrComputeModel::volut_lut();
        let desktop =
            m.chunk_time_on_device(&c, 0.25, 4.0, &DeviceProfile::desktop_3080ti(), false);
        let pi = m.chunk_time_on_device(&c, 0.25, 4.0, &DeviceProfile::orange_pi(), false);
        assert!(desktop < pi);
        // Yuzu pays the NN-inference scale factor on the Pi.
        let yuzu_pi = SrComputeModel::yuzu_nn().chunk_time_on_device(
            &c,
            0.25,
            4.0,
            &DeviceProfile::orange_pi(),
            true,
        );
        assert!(yuzu_pi > pi);
    }

    #[test]
    fn volut_hits_line_rate_on_orange_pi() {
        // The headline claim: 30+ FPS SR on mobile for 100K-point output.
        // A quarter of a 100K-point frame, upsampled x4.
        let c = chunk();
        let m = SrComputeModel::volut_lut();
        let fps_on = |device: &DeviceProfile| {
            c.frame_count as f64 / m.chunk_time_on_device(&c, 0.25, 4.0, device, false)
        };
        let fps = fps_on(&DeviceProfile::orange_pi());
        assert!(fps > 5.0, "orange pi fps {fps}");
        let desktop_fps = fps_on(&DeviceProfile::desktop_3080ti());
        assert!(desktop_fps > 30.0, "desktop fps {desktop_fps}");
        assert!(desktop_fps > fps);
    }

    #[test]
    fn calibration_from_measured_result() {
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic;
        let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let low = synthetic::sphere(2000, 1.0, 1);
        let result = pipeline.upsample(&low, 2.0).unwrap();
        let model = SrComputeModel::calibrate("measured", &result);
        assert!(model.knn_us_per_input_point > 0.0);
        assert!(model.frame_time_s(2000.0, 2.0) > 0.0);
    }

    #[test]
    fn repeated_frames_amortize_index_builds() {
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic;
        let mut session = SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ));
        // A static chunk: the same frame repeated. Only frame 1 builds the
        // spatial index; every later frame reuses the cached one, and the
        // stage timings report the (near-zero) validation cost separately.
        let frame = synthetic::sphere(2_000, 1.0, 5);
        let first = session.upsample_frame(&frame, 2.0).unwrap();
        let mut later_builds = std::time::Duration::ZERO;
        for _ in 0..4 {
            let r = session.upsample_frame(&frame, 2.0).unwrap();
            assert_eq!(r.cloud, first.cloud);
            later_builds += r.timings.index_build;
        }
        let stats = session.temporal_stats();
        assert_eq!(stats.rebuilds, 1, "stats {stats:?}");
        assert_eq!(stats.reuses, 4, "stats {stats:?}");
        // The content check is linear; the rebuild is O(n log n) plus a
        // clone. Four validations together should undercut one build by a
        // wide margin (loose 2x bound to stay robust on noisy CI hosts).
        assert!(
            later_builds
                < first
                    .timings
                    .index_build
                    .max(std::time::Duration::from_micros(50))
                    * 2,
            "validation {later_builds:?} vs first build {:?}",
            first.timings.index_build
        );
    }

    #[test]
    fn repeated_frames_hit_dual_tree_without_rebuilds_or_allocs() {
        use volut_core::interpolate::FrameArena;
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic;
        // Production-scale frame: large enough that the batch layer's auto
        // policy selects the dual-tree kernel for the per-frame kNN
        // self-join. The engine keeps such batches whole at every worker
        // count — the traversal parallelizes internally by sharding the
        // query-leaf set — so the counter assertions hold on any host.
        let n = 6_000;
        let frames = 4u64;
        let mut session = SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ));
        let frame = synthetic::sphere(n, 1.0, 17);
        let first = session.upsample_frame(&frame, 2.0).unwrap();
        // The dual-tree slab lives on this thread's frame arena; the
        // session itself must hold nothing a frame clears before use.
        let reserved = FrameArena::thread_idle_bytes();
        let state = session.scratch().reserved_bytes();
        for _ in 1..frames {
            let r = session.upsample_frame(&frame, 2.0).unwrap();
            assert_eq!(r.cloud, first.cloud);
        }
        let stats = session.temporal_stats();
        // Identical geometry: exactly one index rebuild, every later frame
        // served from the cache...
        assert_eq!(stats.rebuilds, 1, "stats {stats:?}");
        assert_eq!(stats.reuses, frames - 1, "stats {stats:?}");
        // ...the cold frame's self-join answered by the dual-tree kernel,
        // and every later (identical) frame's rows copied forward wholesale
        // by the temporal layer instead of paying the kernel again...
        assert_eq!(stats.dual_tree_batches, 1, "stats {stats:?}");
        assert_eq!(
            stats.rows_reused,
            (frames - 1) * n as u64,
            "stats {stats:?}"
        );
        assert!(reserved > 0);
        // ...and steady-state frames grow neither the arena (dual-tree slab
        // included) nor the session state.
        assert_eq!(
            FrameArena::thread_idle_bytes(),
            reserved,
            "repeated identical frames must not allocate frame scratch"
        );
        assert_eq!(session.scratch().reserved_bytes(), state);
    }

    #[test]
    fn churned_session_reuses_rows_and_matches_full_recompute() {
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic::{DeltaStream, DeltaStreamConfig};
        let make_session = || {
            SrSession::new(SrPipeline::new(
                SrConfig::default(),
                Box::new(IdentityRefiner),
            ))
        };
        let mut incremental = make_session();
        // The cold oracle: a session flushed before every frame.
        let mut full = make_session();
        let base = volut_pointcloud::synthetic::humanoid(3_000, 0.4, 23);
        let mut stream = DeltaStream::new(
            base,
            DeltaStreamConfig {
                churn: 0.1,
                drift: 0.05,
                jitter: 0.01,
                seed: 7,
            },
        );
        for frame_no in 0..6 {
            let frame = stream.frame().clone();
            let a = incremental.upsample_frame(&frame, 2.0).unwrap();
            full.flush_caches();
            let b = full.upsample_frame(&frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud, "frame {frame_no}: bit-identical");
            stream.advance();
        }
        let t = incremental.temporal_stats();
        assert!(t.rows_reused > 0, "stats {t:?}");
        assert!(t.rows_recomputed > 0, "stats {t:?}");
        // Frame 1 rebuilds; later frames are patched or (rarely, once the
        // churn budget is crossed) rebuilt — never content-reused, since
        // every frame differs.
        assert_eq!(t.reuses, 0, "stats {t:?}");
        assert_eq!(t.rebuilds + t.patches, 6, "stats {t:?}");
        assert!(t.patches >= 3, "stats {t:?}");
        assert_eq!(t.incremental_frames, 5, "stats {t:?}");
        assert_eq!(t.full_frames, 1, "stats {t:?}");
        // At 10% spatially-coherent churn, most rows must be copied
        // forward, not recomputed.
        assert!(
            t.rows_reused > t.rows_recomputed,
            "reuse should dominate at 10% coherent churn: {t:?}"
        );
        // Downstream reuse must track churn too: most generated points —
        // and their refined positions — ride the copy-forward path through
        // interpolation, colorization and refinement.
        assert!(
            t.gen_points_reused > t.gen_points_recomputed,
            "gen-point reuse should dominate at 10% coherent churn: {t:?}"
        );
        assert!(
            t.refined_points_reused > t.refined_points_recomputed,
            "refined-point reuse should dominate at 10% coherent churn: {t:?}"
        );
        // The flushed session did all-full frames.
        let t_full = full.temporal_stats();
        assert_eq!(t_full.rows_reused, 0);
        assert_eq!(t_full.incremental_frames, 0);
        assert_eq!(t_full.gen_points_reused, 0);
        assert_eq!(t_full.refined_points_reused, 0);
    }

    #[test]
    fn churned_session_has_zero_steady_state_scratch_growth() {
        use volut_core::interpolate::FrameArena;
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic::{DeltaStream, DeltaStreamConfig};
        // `FrameScratch::reserved_bytes()` of this exact sequence before the
        // per-frame buffers moved to the frame arena (commit f862a8e, 2
        // workers): the session-state diet must at least halve it.
        for (points, pre_change_bytes) in [(512, 178_372), (4_096, 1_702_576)] {
            // A thread of its own: the arena free-list is per thread, and
            // the larger size must not pre-grow the smaller one's arena.
            std::thread::spawn(move || {
                let mut session = SrSession::new(SrPipeline::new(
                    SrConfig::default(),
                    Box::new(IdentityRefiner),
                ));
                let base = volut_pointcloud::synthetic::humanoid(points, 0.2, 29);
                let mut stream = DeltaStream::new(
                    base,
                    DeltaStreamConfig {
                        churn: 0.1,
                        drift: 0.04,
                        jitter: 0.01,
                        seed: 13,
                    },
                );
                // Warm up past the first full rebuild cycle (patch budget
                // crossing included) so every buffer reaches its
                // steady-state high-water mark...
                for _ in 0..8 {
                    session.upsample_frame(stream.frame(), 2.0).unwrap();
                    stream.advance();
                }
                let state = session.scratch().reserved_bytes();
                let arena = FrameArena::thread_idle_bytes();
                assert!(state > 0 && arena > 0);
                assert!(
                    state * 2 <= pre_change_bytes,
                    "{points} points: session state {state} B is more than half of \
                     the pre-arena {pre_change_bytes} B"
                );
                // ...then assert the churned steady state allocates nothing
                // new, neither in the session nor in the arena its frames
                // check out.
                for frame_no in 8..16 {
                    session.upsample_frame(stream.frame(), 2.0).unwrap();
                    stream.advance();
                    assert_eq!(
                        session.scratch().reserved_bytes(),
                        state,
                        "{points} points: frame {frame_no} grew the session state"
                    );
                    assert_eq!(
                        FrameArena::thread_idle_bytes(),
                        arena,
                        "{points} points: frame {frame_no} grew the frame arena"
                    );
                }
            })
            .join()
            .expect("sizing thread");
        }
    }

    #[test]
    fn explicit_delta_api_matches_diffed_and_full_paths() {
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic::{DeltaStream, DeltaStreamConfig};
        let make_session = || {
            SrSession::new(SrPipeline::new(
                SrConfig::default(),
                Box::new(IdentityRefiner),
            ))
        };
        let mut keyed = make_session();
        let mut diffed = make_session();
        // The cold oracle: a session flushed before every frame.
        let mut full = make_session();
        let base = volut_pointcloud::synthetic::sphere(2_500, 1.0, 31);
        let cfg = DeltaStreamConfig {
            churn: 0.15,
            drift: 0.06,
            jitter: 0.01,
            seed: 3,
        };
        let mut stream = DeltaStream::new(base.clone(), cfg);
        let a = keyed.upsample_frame(&base, 2.0).unwrap();
        let b = diffed.upsample_frame(&base, 2.0).unwrap();
        assert_eq!(a.cloud, b.cloud);
        for _ in 0..4 {
            let delta = stream.advance();
            let frame = stream.frame().clone();
            let a = keyed.upsample_frame_delta(&frame, 2.0, delta).unwrap();
            let b = diffed.upsample_frame(&frame, 2.0).unwrap();
            full.flush_caches();
            let c = full.upsample_frame(&frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud);
            assert_eq!(a.cloud, c.cloud);
        }
        assert!(keyed.temporal_stats().rows_reused > 0);
        // Every delta so far was correct, so no rejection is recorded.
        assert_eq!(keyed.last_delta_error(), None);
        // A *wrong* delta (stale by one frame) must not corrupt results —
        // the engine verifies and falls back to its own diff.
        let stale = stream.advance();
        let _skipped = stream.frame().clone();
        let wrong_frame_delta = stale; // describes the previous transition
        let next = stream.advance();
        drop(next);
        let frame = stream.frame().clone();
        let a = keyed
            .upsample_frame_delta(&frame, 2.0, wrong_frame_delta)
            .unwrap();
        let c = full.upsample_frame(&frame, 2.0).unwrap();
        assert_eq!(a.cloud, c.cloud);
        // The rejection reason is typed: the stale delta chains from the
        // cached frame (old length matches) but lands on the skipped frame,
        // so verification fails on content — a survivor whose position
        // differs (or, had the churn changed the count, the new length).
        match keyed.last_delta_error() {
            Some(
                volut_pointcloud::DeltaError::PositionMismatch { .. }
                | volut_pointcloud::DeltaError::NewLenMismatch { .. },
            ) => {}
            other => panic!("expected a content rejection, got {other:?}"),
        }
        // A subsequent correct delta clears the record.
        let delta = stream.advance();
        keyed
            .upsample_frame_delta(&stream.frame().clone(), 2.0, delta)
            .unwrap();
        assert_eq!(keyed.last_delta_error(), None);
    }

    #[test]
    fn session_reuses_scratch_across_frames() {
        use volut_core::{refine::IdentityRefiner, SrConfig, SrPipeline};
        use volut_pointcloud::synthetic;
        let fresh_pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
        let mut session = SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ));
        for seed in 0..4 {
            let frame = synthetic::sphere(600, 1.0, seed);
            let expected = fresh_pipeline.upsample(&frame, 2.5).unwrap();
            let got = session.upsample_frame(&frame, 2.5).unwrap();
            assert_eq!(expected.cloud, got.cloud, "frame {seed}");
        }
        let frame = synthetic::sphere(600, 1.0, 9);
        let model = session
            .calibrate_model_churned(&frame, 2.0, 0.1, 2)
            .unwrap();
        assert_eq!(model.name, "identity");
        assert!(model.frame_time_s(600.0, 2.0) >= 0.0);
    }
}
