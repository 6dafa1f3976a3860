//! The one file that names the library. Every `volut_*` import and every
//! call into a public function lives here, so a later library refactor
//! breaks at most this file; the rest of the benchmark sees only the plain
//! structs below. Nothing here reads the library's own timers: times are
//! taken around the calls, and program-reported numbers come from the
//! already-public reports (`TelemetrySnapshot`, `memory_stats()`,
//! `temporal_stats()`, `stats()`, `counters()`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use volut_core::encoding::{EncodeScratch, KeyScheme, PositionEncoder};
use volut_core::interpolate::{DilatedInterpolator, FrameScratch, Interpolator};
use volut_core::lut::{DenseLut, Lut, Offset};
use volut_core::pipeline::SrResult;
use volut_core::refine::{refine_in_place, LutRefiner};
use volut_core::registry::{ContentModel, ModelRegistry, SharedLut};
use volut_core::{SrConfig, SrPipeline};
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::NeighborSearch;
use volut_pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
use volut_pointcloud::{runtime, FrameDelta, Neighborhoods, Point3, PointCloud};
use volut_stream::client::SrSession;
use volut_stream::faults::{FaultConfig, OwnedFaultyLink};
use volut_stream::resilience::{
    DeltaServer, FrameMessage, ResilientReceiver, ResilientSession, RetentionPolicy, RetryPolicy,
};
use volut_stream::server::{IngestConfig, IngestSource, ServerConfig, SessionSpec, SrServer};
use volut_stream::trace::NetworkTrace;

use crate::measure::{median, mix_seed, Digest};
use crate::trace::Tracer;
use crate::workloads::{Shape, Workload};

/// Registry name of the one content item every workload serves.
const CONTENT: &str = "e2e-content";
/// Largest LUT offset component, in normalized neighborhood units.
const MAX_OFFSET: f32 = 0.02;
/// Block size of the key-encode / probe replays (the refiner's own).
const REFINE_BLOCK: usize = 64;
/// Frames of origin history the viewer's `DeltaServer` retains.
const RETENTION_FRAMES: usize = 32;
/// Ingest link bandwidth of every resilient path, Mbps.
const LINK_MBPS: f64 = 80.0;
/// Consecutive exhausted ticks before the server quarantines a tenant. A
/// quarantined tenant fails the run; at the server's default of 2 that
/// happens on 19 of seeds 1–200, at 4 and above on none.
const QUARANTINE_AFTER_EXHAUSTIONS: u32 = 8;

// Seed streams: every content, churn and fault seed derives from `--seed`.
const SEED_LUT: u64 = 1;
const SEED_CONTENT: u64 = 2;
const SEED_CHURN: u64 = 3;
const SEED_FAULTS: u64 = 4;
const SEED_SESSIONS: u64 = 1000;

/// The published content model: a dense Compact LUT (bins = 32) sized by
/// the encoder's own key space, every key populated with a small
/// seed-derived offset so refinement really moves points.
pub struct Content {
    registry: Arc<ModelRegistry>,
    model: Arc<ContentModel>,
    config: SrConfig,
    /// Second handle on the table for the layer replays (traced runs only).
    table: Option<Arc<DenseLut>>,
    pub publish_ms: f64,
    pub lut_bytes: usize,
}

pub fn build_content(seed: u64, keep_table: bool) -> Content {
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact).expect("valid config");
    let key_space = encoder.key_space();
    let mut lut = DenseLut::new(key_space).expect("2^20 keys fit the default budget");
    let lut_seed = mix_seed(seed, SEED_LUT);
    for key in 0..key_space {
        let bits = mix_seed(lut_seed, key as u64);
        let component =
            |shift: u32| (((bits >> shift) & 0xffff) as f32 / 65535.0 * 2.0 - 1.0) * MAX_OFFSET;
        lut.set(key, [component(0), component(16), component(32)])
            .expect("key inside the key space");
    }
    let lut_bytes = lut.memory_bytes();
    let table = keep_table.then(|| Arc::new(lut.clone()));
    let mut registry = ModelRegistry::new();
    let started = Instant::now();
    let model = registry.publish(ContentModel::from_dense(
        CONTENT,
        config,
        KeyScheme::Compact,
        lut,
        None,
    ));
    let publish_ms = started.elapsed().as_secs_f64() * 1e3;
    Content {
        registry: Arc::new(registry),
        model,
        config,
        table,
        publish_ms,
        lut_bytes,
    }
}

/// What one delivered cloud looked like, for the correctness gate.
#[derive(Debug, Clone, Copy)]
pub struct OutputSummary {
    pub points: usize,
    pub finite: bool,
    pub digest: u64,
}

/// One delivered frame, kept opaque so checks run outside the timed call.
pub struct Output(SrResult);

impl Output {
    pub fn summary(&self) -> OutputSummary {
        OutputSummary {
            points: self.0.cloud.len(),
            finite: self.0.cloud.positions().iter().all(|p| p.is_finite()),
            digest: self.0.cloud.geometry_digest(),
        }
    }
}

/// `useful ÷ (useful + wasted)`, 0 when nothing was attempted.
pub fn ratio(useful: u64, wasted: u64) -> f64 {
    match useful + wasted {
        0 => 0.0,
        attempted => useful as f64 / attempted as f64,
    }
}

/// Cumulative temporal-reuse counters of a session: `(reused, recomputed)`
/// for self-join rows, generated points and refined points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reuse([(u64, u64); 3]);

impl Reuse {
    /// Per-layer metric names of [`Self::ratios_since`], in order.
    pub const RATIO_NAMES: [&'static str; 3] = [
        "interpolate.rows_reused_ratio",
        "interpolate.gen_reused_ratio",
        "refine.reused_ratio",
    ];

    /// Reused ÷ attempted over the frames since `before` was read.
    pub fn ratios_since(&self, before: &Reuse) -> [f64; 3] {
        std::array::from_fn(|i| {
            let (reused, recomputed) = self.0[i];
            let (reused0, recomputed0) = before.0[i];
            ratio(reused - reused0, recomputed - recomputed0)
        })
    }
}

/// Exact, seed-deterministic transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Wire {
    pub retries: u64,
    pub keyframe_resyncs: u64,
    pub integrity_failures: u64,
    pub drops: u64,
    pub corruptions: u64,
    pub sim_link_s: f64,
}

impl Wire {
    /// Per-layer metric names of [`Self::counts`], in order.
    pub const COUNT_NAMES: [&'static str; 5] = [
        "resilience.retries",
        "resilience.keyframe_resyncs",
        "resilience.integrity_failures",
        "faults.drops",
        "faults.corruptions",
    ];

    /// The exact counts (everything but the simulated clock).
    pub fn counts(&self) -> [u64; 5] {
        [
            self.retries,
            self.keyframe_resyncs,
            self.integrity_failures,
            self.drops,
            self.corruptions,
        ]
    }
}

// One value per process, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum ViewerPath {
    Cold {
        session: SrSession,
    },
    Delta {
        session: ResilientSession,
        origin: DeltaServer,
        link: OwnedFaultyLink,
        stream: DeltaStream,
    },
}

/// One viewer session and its input generator. `prepare` makes the next
/// input (untimed), `deliver` is the one timed call.
pub struct Viewer {
    path: ViewerPath,
    ratio: f64,
    points: usize,
    content_seed: u64,
    /// Frames prepared so far; the current frame is `frame_no - 1`.
    frame_no: u64,
    frame: PointCloud,
    prev: PointCloud,
    delta: Option<FrameDelta>,
}

fn humanoid_frame(points: usize, content_seed: u64, frame_no: u64) -> PointCloud {
    // A walking figure resampled every frame: no point survives a frame.
    synthetic::humanoid(
        points,
        0.4 + 0.1 * frame_no as f32,
        mix_seed(content_seed, frame_no),
    )
}

fn lossless_link() -> OwnedFaultyLink {
    let trace = Arc::new(NetworkTrace::stable(LINK_MBPS, 60.0));
    OwnedFaultyLink::new(trace, FaultConfig::lossless(), 0)
}

/// Six retries per rung put the end of the recovery ladder within reach of
/// the 5 % bursty link: over seeds 1–200 every 26-tick round of
/// `fleet_256_lossy` stalls 7–27 tenant-ticks (at 12 retries 15 of the 200
/// seeds never stall and one ever resyncs from a keyframe).
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 6,
        jitter: 0.25,
        ..RetryPolicy::default()
    }
}

impl Viewer {
    pub fn new(content: &Content, workload: &Workload, seed: u64) -> Self {
        let content_seed = mix_seed(seed, SEED_CONTENT);
        let session = SrSession::from_model(&content.model).expect("registry-built model");
        let base = humanoid_frame(workload.points, content_seed, 0);
        let path = match workload.shape {
            Shape::ViewerDelta => {
                let spacing = base.mean_spacing(64).unwrap_or(0.01);
                ViewerPath::Delta {
                    session: ResilientSession::with_policy_seeded(
                        session,
                        retry_policy(),
                        mix_seed(seed, SEED_FAULTS),
                    ),
                    origin: DeltaServer::with_retention(
                        Vec::new(),
                        RetentionPolicy::last_frames(RETENTION_FRAMES),
                    ),
                    link: lossless_link(),
                    stream: DeltaStream::new(
                        base.clone(),
                        DeltaStreamConfig {
                            churn: workload.churn,
                            drift: spacing * 4.0,
                            jitter: spacing * 0.5,
                            seed: mix_seed(seed, SEED_CHURN),
                        },
                    ),
                }
            }
            _ => ViewerPath::Cold { session },
        };
        Self {
            path,
            ratio: workload.ratio,
            points: workload.points,
            content_seed,
            frame_no: 0,
            frame: base,
            prev: PointCloud::new(),
            delta: None,
        }
    }

    /// Generates the next input frame (and, on the delta path, publishes it
    /// at the paced origin). Not part of any timed call.
    pub fn prepare(&mut self) {
        match &mut self.path {
            ViewerPath::Cold { .. } => {
                if self.frame_no > 0 {
                    let next = humanoid_frame(self.points, self.content_seed, self.frame_no);
                    self.prev = std::mem::replace(&mut self.frame, next);
                }
            }
            ViewerPath::Delta { origin, stream, .. } => {
                if self.frame_no == 0 {
                    origin.push_frame(self.frame.clone());
                } else {
                    let delta = stream.advance();
                    self.prev = std::mem::replace(&mut self.frame, stream.frame().clone());
                    origin.push_frame_with_delta(self.frame.clone(), delta.clone());
                    self.delta = Some(delta);
                }
            }
        }
        self.frame_no += 1;
    }

    /// The timed call: one `upsample_frame` / `ResilientSession::advance`.
    pub fn deliver(&mut self) -> Result<Output, String> {
        let seq = self.frame_no - 1;
        match &mut self.path {
            ViewerPath::Cold { session } => session
                .upsample_frame(&self.frame, self.ratio)
                .map(Output)
                .map_err(|e| e.to_string()),
            ViewerPath::Delta {
                session,
                origin,
                link,
                ..
            } => session
                .advance(origin, link, seq, self.ratio)
                .map(Output)
                .map_err(|e| e.to_string()),
        }
    }

    /// Span name of the timed call.
    pub fn real_span(&self) -> &'static str {
        match self.path {
            ViewerPath::Cold { .. } => "client.frame",
            ViewerPath::Delta { .. } => "resilience.advance",
        }
    }

    pub fn input_points(&self) -> usize {
        self.frame.len()
    }

    pub fn reuse(&self) -> Reuse {
        let t = match &self.path {
            ViewerPath::Cold { session } => session.temporal_stats(),
            ViewerPath::Delta { session, .. } => session.session().temporal_stats(),
        };
        Reuse([
            (t.rows_reused, t.rows_recomputed),
            (t.gen_points_reused, t.gen_points_recomputed),
            (t.refined_points_reused, t.refined_points_recomputed),
        ])
    }

    pub fn wire(&self) -> Wire {
        match &self.path {
            ViewerPath::Cold { .. } => Wire::default(),
            ViewerPath::Delta { session, link, .. } => {
                let stats = session.stats();
                let faults = link.counters();
                Wire {
                    retries: stats.retries,
                    keyframe_resyncs: stats.recovered_keyframe,
                    integrity_failures: stats.integrity_failures + stats.poisonings_detected,
                    drops: faults.dropped,
                    corruptions: faults.corrupted + faults.truncated,
                    sim_link_s: session.clock_s(),
                }
            }
        }
    }
}

/// What the layer replays observed, summed over a traced round.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    pub probes: u64,
    pub hits: u64,
    pub generated_points: Vec<f64>,
    pub churn_ratio: Vec<f64>,
    pub wire_bytes: Vec<f64>,
    pub dual_tree_selected: Vec<f64>,
    pub self_join_queries: usize,
    /// Frames compared against a cold recompute, and how many differed.
    pub cold_checks: u64,
    pub cold_mismatches: u64,
}

/// Shadow state behind a traced viewer: a second pipeline, interpolator
/// scratch, receiver and session that replay each layer from outside after
/// the real call. On declared-delta workloads the shadows advance on every
/// step so their temporal caches stay one frame behind, exactly like the
/// real session's; at 100% churn no state survives a frame, so they run on
/// replay steps only.
pub struct Shadow {
    config: SrConfig,
    ratio: f64,
    lockstep: bool,
    pipeline: SrPipeline,
    pipe_scratch: FrameScratch,
    interp_scratch: FrameScratch,
    refiner: LutRefiner,
    encoder: PositionEncoder,
    table: Arc<DenseLut>,
    /// Delta path only: protocol receiver + client session + cold oracle.
    protocol: Option<ShadowProtocol>,
    centers: Vec<Point3>,
    keys: Vec<u128>,
    radii: Vec<f32>,
    probes: Vec<Option<Offset>>,
    encode_scratch: EncodeScratch,
    rows: Neighborhoods,
    pub stats: ReplayStats,
}

struct ShadowProtocol {
    receiver: ResilientReceiver,
    link: OwnedFaultyLink,
    client: SrSession,
    cold: SrSession,
}

/// Where a traced step's replays attach.
#[derive(Debug, Clone, Copy)]
pub struct StepSpans {
    pub step: u32,
    /// The step's own span.
    pub step_span: u32,
    /// The span of the timed call.
    pub real: u32,
    /// Whether this is a spanned (every 8th) step; the lock-stepped shadows
    /// advance either way.
    pub replay: bool,
}

/// Records `f` as a span when `record` is set; runs it either way.
fn maybe_span<R>(
    tracer: &mut Tracer,
    record: bool,
    name: &'static str,
    parent: u32,
    step: u32,
    f: impl FnOnce() -> R,
) -> (u32, R) {
    if record {
        tracer.span(name, Some(parent), step, f)
    } else {
        (parent, f())
    }
}

impl Shadow {
    pub fn new(content: &Content, workload: &Workload, seed: u64) -> Self {
        let table = Arc::clone(
            content
                .table
                .as_ref()
                .expect("traced runs keep a table handle"),
        );
        let shared = || Box::new(SharedLut::new(Arc::clone(&table) as Arc<dyn Lut>));
        let new_session = || SrSession::from_model(&content.model).expect("registry-built model");
        let protocol = (workload.shape == Shape::ViewerDelta).then(|| ShadowProtocol {
            receiver: ResilientReceiver::new(retry_policy(), mix_seed(seed, SEED_FAULTS)),
            link: lossless_link(),
            client: new_session(),
            cold: new_session(),
        });
        Self {
            config: content.config,
            ratio: workload.ratio,
            lockstep: workload.churn < 1.0,
            pipeline: content.model.pipeline().expect("registry-built model"),
            pipe_scratch: FrameScratch::new(),
            interp_scratch: FrameScratch::new(),
            refiner: LutRefiner::from_config(&content.config, KeyScheme::Compact, shared())
                .expect("valid config"),
            encoder: PositionEncoder::new(&content.config, KeyScheme::Compact)
                .expect("valid config"),
            table,
            protocol,
            centers: Vec::new(),
            keys: Vec::new(),
            radii: Vec::new(),
            probes: Vec::new(),
            encode_scratch: EncodeScratch::default(),
            rows: Neighborhoods::new(),
            stats: ReplayStats::default(),
        }
    }

    /// Replays the layers behind the step the viewer just delivered.
    pub fn follow(&mut self, viewer: &Viewer, output: &Output, tracer: &mut Tracer, at: StepSpans) {
        let StepSpans {
            step,
            step_span,
            real,
            replay,
        } = at;
        let frame = &viewer.frame;
        let prev = viewer.prev.positions();
        let declared = viewer.delta.as_ref();
        let seq = viewer.frame_no - 1;

        // resilience.recover → (encode, decode) and the client.frame replay.
        let mut client_span = real;
        if let (Some(protocol), ViewerPath::Delta { origin, .. }) =
            (&mut self.protocol, &viewer.path)
        {
            let ShadowProtocol {
                receiver,
                link,
                client,
                cold,
            } = protocol;
            let (recover_span, recovered) =
                maybe_span(tracer, replay, "resilience.recover", real, step, || {
                    receiver
                        .recover(origin, link, seq)
                        .expect("a lossless link never exhausts the ladder")
                });
            if replay {
                let (_, bytes) = tracer.span("resilience.encode", Some(recover_span), step, || {
                    match seq.checked_sub(1) {
                        Some(base) => origin.delta_message(base, seq),
                        None => origin.keyframe_message(seq),
                    }
                    .expect("the head of the stream is always retained")
                });
                tracer.span("resilience.decode", Some(recover_span), step, || {
                    black_box(FrameMessage::decode(&bytes).expect("clean bytes decode"))
                });
                self.stats.wire_bytes.push(bytes.len() as f64);
            }
            let cloud = recovered.cloud();
            let (span, result) =
                maybe_span(
                    tracer,
                    replay,
                    "client.frame",
                    real,
                    step,
                    || match recovered.delta.clone() {
                        Some(delta) => client.upsample_frame_delta(&cloud, self.ratio, delta),
                        None => {
                            client.flush_caches();
                            client.upsample_frame(&cloud, self.ratio)
                        }
                    },
                );
            black_box(result.expect("the shadow session sees the real session's frames"));
            receiver.commit(recovered, seq);
            client_span = span;

            if replay {
                // Gate: a delta-path frame must equal a cold recompute.
                cold.flush_caches();
                let reference = cold
                    .upsample_frame(frame, self.ratio)
                    .expect("cold recompute of a valid frame");
                self.stats.cold_checks += 1;
                if reference.cloud != output.0.cloud {
                    self.stats.cold_mismatches += 1;
                }
            }
        }

        if !(self.lockstep || replay) {
            return;
        }

        // pipeline.frame on the shadow scratch.
        if let Some(delta) = declared {
            self.pipe_scratch.set_frame_delta(delta.clone());
        }
        let (pipe_span, result) =
            maybe_span(tracer, replay, "pipeline.frame", client_span, step, || {
                self.pipeline
                    .upsample_with(frame, self.ratio, &mut self.pipe_scratch)
            });
        black_box(result.expect("the shadow pipeline sees the real session's frames"));

        // interpolate.frame on its own lock-stepped scratch.
        if let Some(delta) = declared {
            self.interp_scratch.set_frame_delta(delta.clone());
        }
        let (interp_span, interp) =
            maybe_span(tracer, replay, "interpolate.frame", pipe_span, step, || {
                DilatedInterpolator.interpolate(
                    frame,
                    &self.config,
                    self.ratio,
                    &mut self.interp_scratch,
                )
            });
        let mut interp = interp.expect("the shadow interpolator sees the real session's frames");
        if !replay {
            self.interp_scratch
                .recycle_neighborhoods(interp.neighborhoods);
            return;
        }
        self.stats.generated_points.push(interp.new_points() as f64);

        // refine.batch over the whole generated tail → (encoding.keys, lut.probe).
        let source = frame.positions();
        let original_len = interp.original_len;
        let (refine_span, ()) = tracer.span("refine.batch", Some(pipe_span), step, || {
            refine_in_place(
                &self.refiner,
                &mut interp.cloud,
                original_len,
                &interp.neighborhoods,
                source,
                &mut self.centers,
            )
        });
        // `centers` now holds the pre-refinement tail the refiner encoded.
        let generated = self.centers.len();
        self.keys.resize(generated, 0);
        self.radii.resize(generated, -1.0);
        self.probes.resize(generated, None);
        let view = interp.neighborhoods.view();
        tracer.span("encoding.keys", Some(refine_span), step, || {
            for start in (0..generated).step_by(REFINE_BLOCK) {
                let end = (start + REFINE_BLOCK).min(generated);
                self.encoder.encode_keys_block(
                    &self.centers[start..end],
                    view,
                    start,
                    source,
                    &mut self.keys[start..end],
                    &mut self.radii[start..end],
                    &mut self.encode_scratch,
                );
            }
        });
        tracer.span("lut.probe", Some(refine_span), step, || {
            for start in (0..generated).step_by(REFINE_BLOCK) {
                let end = (start + REFINE_BLOCK).min(generated);
                Lut::get_batch(
                    self.table.as_ref(),
                    &self.keys[start..end],
                    &mut self.probes[start..end],
                );
            }
        });
        for (probe, radius) in self.probes.iter().zip(&self.radii) {
            if *radius >= 0.0 {
                self.stats.probes += 1;
                self.stats.hits += u64::from(probe.is_some());
            }
        }
        self.interp_scratch
            .recycle_neighborhoods(interp.neighborhoods);

        // Index, self-join and delta replays. What the real path runs hangs
        // under interpolate.frame; what the temporal layer lets it skip
        // hangs under the step as a reference cost.
        let new = frame.positions();
        let kq = self.config.dilated_neighborhood() + 1;
        let cold_path = declared.is_none();
        let full_parent = if cold_path { interp_span } else { step_span };
        let (_, tree) = tracer.span("kdtree.build", Some(full_parent), step, || {
            KdTree::build(new)
        });
        self.stats
            .dual_tree_selected
            .push(f64::from(u8::from(tree.auto_selects_dual_tree(new, kq))));
        self.rows.clear();
        tracer.span("knn.self_join", Some(full_parent), step, || {
            tree.knn_batch(new, kq, &mut self.rows)
        });
        self.stats.self_join_queries = new.len();
        if !prev.is_empty() {
            let (_, diffed) = tracer.span("delta.diff", Some(full_parent), step, || {
                FrameDelta::diff(prev, new)
            });
            self.stats.churn_ratio.push(diffed.churn());
        }
        if let Some(delta) = declared {
            let mut patched = KdTree::build(prev);
            tracer.span("kdtree.patch", Some(interp_span), step, || {
                patched.patch(delta, new)
            });
            let (_, verdict) = tracer.span("delta.verify", Some(interp_span), step, || {
                delta.verify(prev, new)
            });
            verdict.expect("the generator's own delta verifies");
        }
    }
}

/// One retired session, for the digest gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDigest {
    pub seed: u64,
    pub frames: u64,
    pub digest: u64,
    pub quarantined: bool,
}

/// Program-reported server numbers (`TelemetrySnapshot`, `memory_stats()`).
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    pub frames_total: u64,
    pub step_ms_p50: f64,
    pub step_ms_p99: f64,
    pub step_ms_mean: f64,
    pub reported_misses: u64,
    pub frame_errors: u64,
    pub quarantined: u64,
    pub rejected: u64,
    pub rows_reused_ratio: f64,
    pub wire: Wire,
    pub sessions: Vec<SessionDigest>,
}

/// One `SrServer` and the driver-side session generator feeding it.
pub struct Fleet {
    server: SrServer,
    tenants: usize,
    points: usize,
    churn: f64,
    seed: u64,
    ingest: IngestSource,
    /// `(seed, frames)` of every session submitted so far.
    enqueued: Vec<(u64, u64)>,
}

impl Fleet {
    /// `clean_twin` swaps a lossy workload's fault profile for a lossless
    /// one (same seeds): the digest oracle of `fleet_256_lossy`.
    pub fn new(content: &Content, workload: &Workload, seed: u64, clean_twin: bool) -> Self {
        let lossy = matches!(workload.shape, Shape::FleetClosed { lossy: true });
        let mut config = ServerConfig {
            capacity: workload.tenants,
            queue_limit: workload.tenants,
            ratio: workload.ratio,
            ..ServerConfig::default()
        };
        let ingest = if lossy {
            // The degradation planner sees simulated ingest seconds, so a
            // faulted tenant would plan other levels than its clean twin;
            // pinned to Full, digests isolate the transport path.
            config.degradation = None;
            IngestSource::Resilient(IngestConfig {
                faults: if clean_twin {
                    FaultConfig::lossless()
                } else {
                    FaultConfig::bursty_loss(0.05)
                },
                retry: retry_policy(),
                quarantine_after_exhaustions: QUARANTINE_AFTER_EXHAUSTIONS,
                link_mbps: LINK_MBPS,
                ..IngestConfig::default()
            })
        } else {
            IngestSource::Local
        };
        Self {
            server: SrServer::new(Arc::clone(&content.registry), config),
            tenants: workload.tenants,
            points: workload.points,
            churn: workload.churn,
            seed,
            ingest,
            enqueued: Vec::new(),
        }
    }

    /// Submits one session of `frames` frames; its seed is the next of the
    /// run's session-seed stream. Returns `false` when admission rejects.
    pub fn enqueue(&mut self, frames: u64) -> bool {
        let spec = SessionSpec {
            content: CONTENT.into(),
            seed: mix_seed(self.seed, SEED_SESSIONS + self.enqueued.len() as u64),
            points: self.points,
            churn: self.churn,
            frames,
            ingest: self.ingest.clone(),
        };
        self.enqueued.push((spec.seed, frames));
        self.server.enqueue(spec)
    }

    /// Submitted sessions that `retired` does not show served in full.
    pub fn incomplete(&self, retired: &[SessionDigest]) -> usize {
        self.enqueued
            .iter()
            .filter(|(seed, frames)| {
                !retired
                    .iter()
                    .any(|s| s.seed == *seed && s.frames == *frames && !s.quarantined)
            })
            .count()
    }

    /// Session slots neither active nor queued.
    pub fn free_slots(&self) -> usize {
        self.tenants
            .saturating_sub(self.server.active_sessions() + self.server.queued_sessions())
    }

    /// Frames the next tick is asked for: one per session active after
    /// admission.
    pub fn expected_frames(&self) -> u64 {
        (self.server.active_sessions() + self.server.queued_sessions()).min(self.tenants) as u64
    }

    pub fn tick(&mut self) {
        self.server.tick();
    }

    /// Sessions admitted or queued and not yet retired.
    pub fn unfinished(&self) -> usize {
        self.server.active_sessions() + self.server.queued_sessions()
    }

    pub fn frames_total(&self) -> u64 {
        self.server.telemetry().frames_total
    }

    /// Wall time of one `telemetry().snapshot()`, µs.
    pub fn snapshot_us(&self) -> f64 {
        let started = Instant::now();
        black_box(self.server.telemetry().snapshot());
        started.elapsed().as_secs_f64() * 1e6
    }

    /// `(bytes_per_session, registry_bytes)` from `memory_stats()`.
    pub fn memory(&self) -> (f64, usize) {
        let stats = self.server.memory_stats();
        (stats.bytes_per_session, stats.registry_bytes)
    }

    pub fn report(&self) -> FleetReport {
        let report = self.server.report(0.0);
        let t = &report.telemetry;
        let reuse = &t.reuse_histogram;
        let buckets = reuse.counts().len();
        let rows_reused_ratio = (0..buckets)
            .map(|i| reuse.fraction(i) * (i as f64 + 0.5) / buckets as f64)
            .sum();
        FleetReport {
            frames_total: t.frames_total,
            step_ms_p50: t.frame_time_p50_ms,
            step_ms_p99: t.frame_time_p99_ms,
            step_ms_mean: t.frame_time_mean_ms,
            reported_misses: t.deadline_misses,
            frame_errors: report.frame_errors,
            quarantined: t.sessions_quarantined,
            rejected: t.sessions_rejected,
            rows_reused_ratio,
            wire: Wire {
                retries: t.ingest.retries,
                keyframe_resyncs: t.ingest.recovered_keyframe,
                integrity_failures: t.ingest.integrity_failures + t.ingest.poisonings_detected,
                drops: t.ingest.drops_seen,
                // The tenants' links are private to the server; only the
                // receiver-side view is reported.
                corruptions: 0,
                sim_link_s: 0.0,
            },
            sessions: report
                .sessions
                .iter()
                .map(|s| SessionDigest {
                    seed: s.seed,
                    frames: s.frames,
                    digest: s.digest,
                    quarantined: s.failure.is_some(),
                })
                .collect(),
        }
    }
}

/// Folds retired sessions into one digest, in retirement order.
pub fn fold_sessions(sessions: &[SessionDigest]) -> u64 {
    let mut digest = Digest::default();
    for s in sessions {
        digest.fold(s.seed);
        digest.fold(s.frames);
        digest.fold(s.digest);
    }
    digest.0
}

pub fn runtime_workers() -> usize {
    runtime::current_workers()
}

/// Runs `f` with the calling thread routed to a one-worker pool.
pub fn with_one_worker<R>(f: impl FnOnce() -> R) -> R {
    runtime::with_workers(1, f)
}

/// Median cost of dispatching one no-op task: `run_order` over 2048 items
/// at grain 1, µs per item.
pub fn probe_dispatch_us_per_task() -> f64 {
    let order: Vec<u32> = (0..2048).collect();
    let samples: Vec<f64> = (0..25)
        .map(|_| {
            let started = Instant::now();
            runtime::run_order(&order, 1, |items| {
                black_box(items);
            });
            started.elapsed().as_secs_f64() * 1e6 / order.len() as f64
        })
        .collect();
    median(&samples)
}

/// Median wall time of a 2-item `run_range` issued after 30 ms of idle
/// (workers parked), µs.
pub fn probe_park_wake_us() -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(30));
            let started = Instant::now();
            runtime::run_range(2, 1, |range| {
                black_box(range);
            });
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
