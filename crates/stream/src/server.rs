//! Multi-tenant SR server: thousands of streaming sessions over one shared
//! thread pool and one shared immutable model registry.
//!
//! The paper's system claim is that LUT-based SR is cheap enough to scale
//! volumetric streaming past per-client GPU inference. This module is the
//! server side of that claim: [`SrServer`] drives N concurrent churned
//! [`DeltaStream`] sessions, where
//!
//! * **state is shared, never copied** — every session of a content item
//!   probes the registry's one `Arc`'d LUT through
//!   [`volut_core::registry::SharedLut`], so bytes/session is dominated by
//!   per-session scratch, not by the model (a per-session copy would add
//!   [`ServerMemoryStats::registry_bytes`] to every session);
//! * **admission is controlled** — a bounded run queue in front of a fixed
//!   active-session capacity; overflow is *rejected and counted*, never
//!   silently queued without bound;
//! * **deadlines drive scheduling and degradation** — each tick plans every
//!   session's [`DegradationLevel`] through its [`QualityAccount`] against
//!   the per-frame compute budget using the deterministic analytic
//!   [`SrComputeModel`] (wall-clock feeds the account's miss count and
//!   telemetry only, keeping outputs bit-identical across
//!   worker counts), then steps the tenants longest-predicted-first, one
//!   chunk each, through `volut_pointcloud::runtime::for_each_chunk_mut`
//!   over their `&mut`s, so heavy tenants cannot convoy behind thousands of
//!   light ones. When a tick steps more than one tenant, each frame runs
//!   start to finish on the thread that claimed it, its own parallel
//!   stages inline (the runtime's nesting rule);
//! * **telemetry is lock-cheap** — each tenant owns plain counters written
//!   by exactly one worker during the parallel step; the coordinator rolls
//!   them into the aggregate [`ServerTelemetry`] (frame-time p50/p95/p99,
//!   QoE distribution, reuse-rate histogram, ingest/recovery stats)
//!   between ticks;
//! * **ingest is a real protocol boundary** — an [`IngestSource`] per
//!   tenant feeds frames either from the local generator or through the
//!   resilient delta protocol (a retention-bounded
//!   [`DeltaServer`] origin behind a seeded
//!   faulty link, recovered by the splice → retransmit → keyframe ladder
//!   *inside* the tick loop). Recovery time charges against the frame
//!   deadline and QoE; hopeless tenants are quarantined with a typed
//!   [`QuarantineCause`]; keyframe resyncs queue against a per-tick budget
//!   (recovery-storm control); sustained degradation pressure sheds
//!   admissions and raises a server-wide degradation floor
//!   ([`OverloadPolicy`]). Faults stay per-tenant: a poisoned or dead link
//!   never changes a neighbor's digest or QoE.
//!
//! Determinism contract: given the same specs and seeds, per-session output
//! digests and aggregate QoE are identical across `VOLUT_WORKERS` counts
//! and across admission orderings — pinned by `tests/property_server.rs`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use volut_core::registry::{ContentModel, ModelRegistry};
use volut_core::SrPipeline;
use volut_pointcloud::runtime;
use volut_pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};

use crate::client::{SrComputeModel, SrSession};
use crate::faults::{FaultConfig, OwnedFaultyLink};
use crate::qoe::{QoeParams, QoeSummary};
use crate::resilience::{
    fnv1a, DegradationConfig, DegradationLevel, Delivered, DeltaServer, QualityAccount,
    ResilientReceiver, RetentionPolicy, RetryPolicy, RobustnessStats, Rung, Upsampler, FNV_OFFSET,
};
use crate::telemetry::{ServerTelemetry, SessionCounters, TelemetrySnapshot};
use crate::trace::NetworkTrace;

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently active sessions; admission beyond this waits in
    /// the run queue.
    pub capacity: usize,
    /// Bound of the run queue; [`SrServer::enqueue`] beyond it is rejected
    /// and counted.
    pub queue_limit: usize,
    /// Playback interval of one frame (the QoE chunk duration), seconds.
    pub frame_interval_s: f64,
    /// Per-frame compute deadline (the degradation planning budget),
    /// seconds.
    pub deadline_s: f64,
    /// Upsampling ratio requested by every session.
    pub ratio: f64,
    /// Degradation hysteresis; `None` pins every session to
    /// [`DegradationLevel::Full`].
    pub degradation: Option<DegradationConfig>,
    /// Deterministic analytic model used for deadline planning (never
    /// wall-clock — see the module docs).
    pub planning_model: SrComputeModel,
    /// Keyframe-resync slots granted per tick across all resilient-ingest
    /// tenants (recovery-storm control): tenants needing a full resync
    /// park in a deterministic queue and at most this many are released
    /// each tick, so a correlated burst cannot trigger a thundering herd
    /// of cold recomputes. Cold starts are exempt.
    pub resync_budget_per_tick: usize,
    /// Overload shedding policy; `None` (default) disables server-level
    /// overload control entirely.
    pub overload: Option<OverloadPolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            queue_limit: 4096,
            frame_interval_s: 1.0 / 30.0,
            deadline_s: 1.0 / 30.0,
            ratio: 2.0,
            degradation: Some(DegradationConfig::default()),
            planning_model: SrComputeModel::volut_lut(),
            resync_budget_per_tick: 8,
            overload: None,
        }
    }
}

/// Overload shedding policy: sustained degradation pressure tightens
/// admission and escalates a server-wide degradation floor, one level per
/// escalation. The pressure signal is the fraction of active tenants whose
/// *planned* level (from the deterministic analytic model, before any
/// floor) sits below [`DegradationLevel::Full`] — never wall-clock — so
/// overload decisions replay identically across worker counts and
/// admission orderings.
#[derive(Debug, Clone)]
pub struct OverloadPolicy {
    /// Pressure at or above this fraction counts the tick as overloaded.
    pub pressure_threshold: f64,
    /// Consecutive overloaded ticks before escalating one level.
    pub escalate_after: u32,
    /// Consecutive calm ticks before relaxing one level.
    pub relax_after: u32,
    /// Maximum overload level. Each level halves the effective admission
    /// queue and active capacity and raises the degradation floor one
    /// rung.
    pub max_level: u32,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            pressure_threshold: 0.5,
            escalate_after: 3,
            relax_after: 6,
            max_level: 3,
        }
    }
}

/// Where a tenant's frames come from — the server's ingest boundary.
#[derive(Debug, Clone, Default)]
pub enum IngestSource {
    /// Frames come straight from the local generator with no transport in
    /// between (the pre-ingest-boundary behavior): no link, no faults, no
    /// ingest cost.
    #[default]
    Local,
    /// Frames are fetched through the resilient delta protocol — a
    /// [`DeltaServer`] origin behind a seeded faulty link, recovered by
    /// the full splice → retransmit → keyframe ladder inside the tick
    /// loop. Recovery time is charged against the tenant's frame deadline
    /// and QoE.
    Resilient(IngestConfig),
}

/// Configuration of one tenant's resilient ingest path.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Fault profile of the tenant's ingest link.
    pub faults: FaultConfig,
    /// Recovery-ladder retry policy (set [`RetryPolicy::jitter`] non-zero
    /// to de-correlate co-tenant retransmits after a shared burst).
    pub retry: RetryPolicy,
    /// Ingest link bandwidth, Mbps (modeled as a stable trace).
    pub link_mbps: f64,
    /// `Some(seed)`: every tenant with the same value draws the identical
    /// fault schedule — the correlated-burst scenario where one backbone
    /// event hits many tenants at once. `None` (default): the schedule is
    /// seeded per tenant from the session seed, independent of admission
    /// order.
    pub shared_fault_seed: Option<u64>,
    /// Retention bound of the tenant's origin history; gap requests behind
    /// the window fall back to a keyframe resync.
    ///
    /// The default keeps two frames. The origin is paced: a tick pushes
    /// frames only up to the receiver's next sequence number, and the
    /// recovery ladder asks only for a delta from the receiver's base to
    /// that frame or for that frame's keyframe. The head and the base
    /// answer every such request, so a longer window holds undo steps no
    /// request can reach. The 32-frame window it replaces kept 30 of them,
    /// about 9 KB each on a 4096-point tenant: with it and the origin's own
    /// copy of the generator's frame, `fleet_256_lossy` (256 such tenants,
    /// seed 1, 2-vCPU host) read 736 KB per session and 192.6 MiB peak
    /// RSS, against 426 KB and 119.8 MiB with two frames and one shared
    /// copy.
    pub retention: RetentionPolicy,
    /// Consecutive ticks of full recovery-ladder exhaustion before the
    /// tenant is quarantined with [`QuarantineCause::RetryExhausted`].
    pub quarantine_after_exhaustions: u32,
    /// Consecutive delivered frames whose recovery hit integrity failures
    /// (checksum/digest rejections or detected poisonings) before the
    /// tenant is quarantined with [`QuarantineCause::IntegrityFailure`].
    pub quarantine_after_integrity: u32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            faults: FaultConfig::lossless(),
            retry: RetryPolicy::default(),
            link_mbps: 80.0,
            shared_fault_seed: None,
            retention: RetentionPolicy::last_frames(2),
            quarantine_after_exhaustions: 2,
            quarantine_after_integrity: 8,
        }
    }
}

/// Why a tenant was retired before completing its frames. A quarantined
/// tenant is counted, reported, and never served again — and never takes
/// the tick (or any co-tenant) down with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The recovery ladder exhausted every rung and retry for several
    /// consecutive ticks: the ingest link is effectively down.
    RetryExhausted,
    /// Recovery kept hitting integrity failures (mangled payloads,
    /// digest mismatches, detected poisonings) past the configured
    /// threshold.
    IntegrityFailure,
}

/// One session request: which content to stream and how the synthetic
/// client behaves.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Registry name of the content item to serve.
    pub content: String,
    /// Seed of the session's synthetic base cloud and churn stream.
    pub seed: u64,
    /// Points per delivered (low-resolution) frame.
    pub points: usize,
    /// Fraction of each frame's points churned per frame.
    pub churn: f64,
    /// Session length in frames (clamped to ≥ 1 at admission).
    pub frames: u64,
    /// How the tenant is fed frames (local generator or resilient delta
    /// protocol over a faulty link).
    pub ingest: IngestSource,
}

/// Per-tenant state of the resilient ingest path: a paced origin behind a
/// seeded faulty link plus the receiver running the recovery ladder. Lives
/// inside the tenant, so the parallel frame step still hands each worker
/// one exclusive `&mut` — ingest never adds locks to the frame path.
struct ResilientIngest {
    /// The tenant's origin: frames are pushed as the client consumes them
    /// (paced, so the served sequence is identical to a clean run's) and
    /// retention-bounded.
    delta_server: DeltaServer,
    receiver: ResilientReceiver,
    link: OwnedFaultyLink,
    config: IngestConfig,
    /// Parked awaiting a keyframe-resync grant (recovery-storm control).
    parked: bool,
    /// Grant from the coordinator's per-tick resync budget.
    granted: bool,
    /// Tick at which the tenant parked (primary grant-queue key).
    park_tick: u64,
    /// Consecutive ticks the whole recovery ladder was exhausted.
    transport_streak: u32,
    /// Consecutive delivered frames whose recovery hit integrity failures.
    integrity_streak: u32,
    /// `integrity_failures + poisonings_detected` at the last commit.
    prev_integrity: u64,
}

/// Per-session serving state. All mutable state lives here, so the parallel
/// frame step hands each worker exclusive `&mut` access to disjoint tenants.
struct Tenant {
    id: u64,
    spec: SessionSpec,
    sr: Upsampler,
    /// Refinement-free pipeline sharing the session's scratch for degraded
    /// frames (temporal caches are keyed per pipeline/ratio, so swapping is
    /// bit-safe — see [`SrSession::upsample_frame_via`]).
    degraded: SrPipeline,
    stream: DeltaStream,
    /// `Some` when the tenant is fed through the resilient delta protocol.
    ingest: Option<ResilientIngest>,
    /// Plans every tick's level (the coordinator calls `plan`); charges
    /// and scores every served frame.
    account: QualityAccount,
    remaining: u64,
    counters: SessionCounters,
    /// FNV-1a fold of every frame's output geometry digest — the cheap
    /// cross-run bit-identity witness.
    digest: u64,
    frame_errors: u64,
    prev_rows_reused: u64,
    prev_rows_recomputed: u64,
    /// Simulated ingest seconds of the most recent frame (link + backoff +
    /// timeouts) — deterministic, charged into next tick's planning.
    last_ingest_s: f64,
    /// Stall seconds accrued on frameless ticks (parked / exhausted),
    /// charged into the next delivered frame's QoE.
    pending_stall_s: f64,
    /// Quarantine verdict; set inside the parallel step, acted on by the
    /// coordinator at retirement.
    failure: Option<QuarantineCause>,
    /// Whether this tick produced a frame (gates the telemetry rollup).
    stepped: bool,
    /// Ingest stats already rolled into the aggregate telemetry.
    rolled_stats: RobustnessStats,
}

impl Tenant {
    fn admit(
        id: u64,
        spec: SessionSpec,
        model: &Arc<ContentModel>,
        config: &ServerConfig,
    ) -> volut_core::Result<Self> {
        let session = SrSession::from_model(model)?;
        let degraded = model.identity_pipeline();
        let base = synthetic::sphere(spec.points.max(16), 1.0, spec.seed);
        let spacing = base.mean_spacing(64).unwrap_or(0.01);
        let stream = DeltaStream::new(
            base,
            DeltaStreamConfig {
                churn: spec.churn,
                drift: spacing * 4.0,
                jitter: spacing * 0.5,
                seed: spec.seed,
            },
        );
        let remaining = spec.frames.max(1);
        let ingest = match &spec.ingest {
            IngestSource::Local => None,
            IngestSource::Resilient(cfg) => {
                let trace = Arc::new(NetworkTrace::stable(cfg.link_mbps.max(0.1), 60.0));
                // Seeds derive from the session seed, never the admission
                // id, so schedules replay across admission orderings; a
                // shared seed reproduces one backbone event across tenants.
                let fault_seed = cfg.shared_fault_seed.unwrap_or(spec.seed);
                Some(ResilientIngest {
                    delta_server: DeltaServer::with_retention(Vec::new(), cfg.retention),
                    receiver: ResilientReceiver::new(cfg.retry, spec.seed ^ 0x6a09_e667_f3bc_c908),
                    link: OwnedFaultyLink::new(trace, cfg.faults.clone(), fault_seed),
                    config: cfg.clone(),
                    parked: false,
                    granted: false,
                    park_tick: 0,
                    transport_streak: 0,
                    integrity_streak: 0,
                    prev_integrity: 0,
                })
            }
        };
        Ok(Self {
            id,
            spec,
            sr: Upsampler::new(session),
            degraded,
            stream,
            ingest,
            // The first frame's quality switch is scored against itself.
            account: QualityAccount::new(config.degradation, QoeParams::default(), None),
            remaining,
            counters: SessionCounters::default(),
            digest: FNV_OFFSET,
            frame_errors: 0,
            prev_rows_reused: 0,
            prev_rows_recomputed: 0,
            last_ingest_s: 0.0,
            pending_stall_s: 0.0,
            failure: None,
            stepped: false,
            rolled_stats: RobustnessStats::default(),
        })
    }

    /// Runs one frame at the planned level. Called from the parallel step
    /// with exclusive access; everything observable in the output digest
    /// and QoE depends only on the session's own seed, plan, and simulated
    /// ingest schedule — never on wall-clock or worker interleaving.
    ///
    /// A resilient-ingest tenant first pulls the frame through the recovery
    /// ladder and then runs it through the receive loop
    /// ([`ResilientReceiver::deliver`]); what stays here is server policy:
    /// pacing the origin, parking for a resync grant, and quarantine
    /// streaks. Three frameless outcomes exist: the tenant is parked
    /// awaiting a resync grant (pure stall), the ladder exhausted every
    /// rung (stall, possibly quarantine), or the tenant was already
    /// quarantined. Frameless ticks charge stall time into the next
    /// delivered frame's QoE and leave the digest/frame counters untouched,
    /// so the delivered sequence stays bit-identical to a clean run's.
    fn step(&mut self, config: &ServerConfig, tick: u64) {
        self.stepped = false;
        if self.failure.is_some() {
            return;
        }
        let started = Instant::now();
        let level = self.account.level();
        let rung = match level {
            DegradationLevel::Full => Rung::Full,
            DegradationLevel::Passthrough => Rung::Passthrough,
            _ => Rung::Degraded(&self.degraded),
        };
        let ratio = level.effective_ratio(config.ratio);
        let (input, output, ingest_s) = match &mut self.ingest {
            None => {
                let delta = (self.counters.frames > 0).then(|| self.stream.advance());
                let frame = self.stream.frame();
                let (output, _) = self.sr.upsample(frame, delta, rung, ratio);
                let input = Delivered {
                    digest: frame.geometry_digest(),
                    points: frame.len(),
                };
                (input, output, 0.0)
            }
            Some(ingest) => {
                if ingest.parked && !ingest.granted {
                    // Waiting in the resync queue: the whole interval
                    // stalls, no frame is produced.
                    self.pending_stall_s += config.frame_interval_s;
                    return;
                }
                // Pace the origin: produce exactly the frames the client
                // consumes, so the served sequence — and therefore the
                // digest — is identical to a clean-link run's. The origin's
                // head is the generator's frame itself, not a copy.
                let seq = ingest.receiver.last_seq().map_or(0, |s| s + 1);
                while ingest.delta_server.frame_count() as u64 <= seq {
                    if ingest.delta_server.frame_count() == 0 {
                        ingest.delta_server.push_frame(self.stream.shared_frame());
                    } else {
                        let d = self.stream.advance();
                        ingest
                            .delta_server
                            .push_frame_with_delta(self.stream.shared_frame(), d);
                    }
                }
                // Pacing keeps the head one frame past the receiver's base,
                // so any window of two or more frames holds that base: every
                // request `recover` makes is a delta from it or a keyframe
                // of the head.
                debug_assert!(
                    ingest.delta_server.retained_frames() < 2
                        || ingest
                            .receiver
                            .last_seq()
                            .is_none_or(|base| base >= ingest.delta_server.base_seq()),
                    "receiver base {:?} is behind the origin's window at {}",
                    ingest.receiver.last_seq(),
                    ingest.delta_server.base_seq()
                );
                let clock0 = ingest.receiver.clock_s();
                let recovered =
                    ingest
                        .receiver
                        .recover(&ingest.delta_server, &mut ingest.link, seq);
                let Ok(frame) = recovered else {
                    // Every rung and retry failed: stall the interval and
                    // quarantine once the streak is long enough. The tick —
                    // and every co-tenant — keeps going.
                    ingest.transport_streak += 1;
                    self.pending_stall_s += config.frame_interval_s;
                    if ingest.transport_streak >= ingest.config.quarantine_after_exhaustions.max(1)
                    {
                        self.failure = Some(QuarantineCause::RetryExhausted);
                    }
                    return;
                };
                let resync = frame.delta.is_none() && ingest.receiver.last_seq().is_some();
                if resync && !ingest.granted {
                    // A full keyframe resync costs a cold recompute; park
                    // until the coordinator grants a slot from the per-tick
                    // budget (recovery-storm control). Cold starts never
                    // reach here (`last_seq` is still `None`), so startup
                    // is budget-exempt.
                    ingest.parked = true;
                    ingest.park_tick = tick;
                    self.pending_stall_s += config.frame_interval_s;
                    return;
                }
                if resync {
                    ingest.parked = false;
                    ingest.granted = false;
                }
                ingest.transport_streak = 0;
                let ingest_s = ingest.receiver.clock_s() - clock0;
                let (input, output) =
                    ingest
                        .receiver
                        .deliver(frame, seq, &mut self.sr, rung, ratio);
                let stats = ingest.receiver.stats();
                let integrity = stats.integrity_failures + stats.poisonings_detected;
                if integrity > ingest.prev_integrity {
                    ingest.integrity_streak += 1;
                    if ingest.integrity_streak >= ingest.config.quarantine_after_integrity.max(1) {
                        self.failure = Some(QuarantineCause::IntegrityFailure);
                    }
                } else {
                    ingest.integrity_streak = 0;
                }
                ingest.prev_integrity = integrity;
                (input, output, ingest_s)
            }
        };
        let output_digest = match output {
            Some(Ok(result)) => result.cloud.geometry_digest(),
            // Passthrough serves the received points untouched.
            None => input.digest,
            Some(Err(_)) => {
                // Degenerate frame (e.g. churned below the neighborhood
                // minimum): serve the input untouched, count it, keep going.
                self.frame_errors += 1;
                input.digest
            }
        };
        self.digest = fnv1a(self.digest, &self.counters.frames.to_le_bytes());
        self.digest = fnv1a(self.digest, &output_digest.to_le_bytes());
        self.digest = fnv1a(self.digest, &(input.points as u64).to_le_bytes());

        let elapsed = started.elapsed().as_secs_f64();
        self.counters.frames += 1;
        self.counters.last_frame_time_s = elapsed;
        self.counters.last_quality = level.quality_factor();
        let t = self.sr.session().temporal_stats();
        let frame_reused = t.rows_reused - self.prev_rows_reused;
        let frame_recomputed = t.rows_recomputed - self.prev_rows_recomputed;
        self.prev_rows_reused = t.rows_reused;
        self.prev_rows_recomputed = t.rows_recomputed;
        let rows = frame_reused + frame_recomputed;
        self.counters.last_reuse_rate = if rows == 0 {
            0.0
        } else {
            frame_reused as f64 / rows as f64
        };
        // Stall = everything accrued while frameless (parked / exhausted
        // intervals) plus the part of this frame's recovery that overran
        // the playback interval.
        let stall_s = self.pending_stall_s + (ingest_s - config.frame_interval_s).max(0.0);
        self.pending_stall_s = 0.0;
        // Ingest recovery time (simulated link + backoff seconds —
        // deterministic) is charged against the frame deadline alongside
        // the measured compute, so the miss count sees real fault cost.
        self.counters.last_deadline_miss = self.account.record(
            level,
            1.0,
            elapsed + ingest_s,
            config.deadline_s,
            stall_s,
            config.frame_interval_s,
        );
        self.last_ingest_s = ingest_s;
        self.stepped = true;
        self.remaining -= 1;
    }

    /// What this tenant keeps resident between frames, by component.
    /// The shared table is not in here: it is counted once, registry-side.
    /// The origin's head is the generator's frame, so it is counted once,
    /// as `frame_cloud`.
    fn memory(&self) -> SessionMemory {
        let state = self.sr.session().scratch().state_bytes();
        SessionMemory {
            index: state.index,
            rows: state.rows,
            outputs: state.outputs,
            refined: state.refined,
            frame_cloud: self.stream.frame().byte_size(),
            retention: self
                .ingest
                .as_ref()
                .map_or(0, |i| i.delta_server.step_bytes() as usize),
            delta_base: self.ingest.as_ref().map_or(0, |i| i.receiver.base_bytes()),
            fixed: std::mem::size_of::<Self>(),
        }
    }
}

/// Final report of one completed session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Admission-order id.
    pub id: u64,
    /// Content item served.
    pub content: String,
    /// Session seed.
    pub seed: u64,
    /// Frames produced.
    pub frames: u64,
    /// Frames whose measured compute exceeded the deadline.
    pub deadline_misses: u64,
    /// Frames that hit an engine error and were served passthrough.
    pub frame_errors: u64,
    /// Session QoE summary (deterministic: built from planned levels, not
    /// wall-clock).
    pub qoe: QoeSummary,
    /// FNV-1a fold of per-frame output digests — compare across runs to
    /// check bit-identity.
    pub digest: u64,
    /// Frames served at each degradation level, `Full` first.
    pub residency: [u64; 5],
    /// `Some` when the session was quarantined before completing its
    /// frames; the typed cause of retirement.
    pub failure: Option<QuarantineCause>,
    /// Final recovery-ladder stats of a resilient-ingest session (`None`
    /// for local ingest).
    pub ingest: Option<RobustnessStats>,
}

/// Per-session resident bytes by component, summed over the sessions
/// measured. The components add up to
/// [`ServerMemoryStats::session_bytes_total`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMemory {
    /// Cached spatial index of the previous frame.
    pub index: usize,
    /// Cached kNN self-join rows of the previous frame.
    pub rows: usize,
    /// Cached interpolation outputs of the previous frame.
    pub outputs: usize,
    /// Cached refined tail of the previous frame.
    pub refined: usize,
    /// The session's current input frame. A resilient-ingest tenant's
    /// origin keeps this same allocation as its newest frame.
    pub frame_cloud: usize,
    /// What a resilient-ingest origin holds for catch-up deltas besides
    /// its newest frame (counted in `frame_cloud`): one undo step per older
    /// retained frame ([`DeltaServer::step_bytes`]).
    pub retention: usize,
    /// What a resilient-ingest receiver holds as the base of the next
    /// delta: the last delivered frame's positions and colors
    /// ([`ResilientReceiver::base_bytes`]).
    pub delta_base: usize,
    /// The tenant record itself.
    pub fixed: usize,
}

impl SessionMemory {
    /// Sum over the components.
    pub fn total(&self) -> usize {
        self.index
            + self.rows
            + self.outputs
            + self.refined
            + self.frame_cloud
            + self.retention
            + self.delta_base
            + self.fixed
    }

    fn add(&mut self, other: &SessionMemory) {
        self.index += other.index;
        self.rows += other.rows;
        self.outputs += other.outputs;
        self.refined += other.refined;
        self.frame_cloud += other.frame_cloud;
        self.retention += other.retention;
        self.delta_base += other.delta_base;
        self.fixed += other.fixed;
    }
}

/// Memory accounting of a running server, from [`SrServer::memory_stats`].
/// The benchmark ledger reports `bytes_per_session` as
/// `server.bytes_per_session`; `examples/multi_tenant_server.rs` prints the
/// split by component.
#[derive(Debug, Clone, Copy)]
pub struct ServerMemoryStats {
    /// Active sessions measured.
    pub sessions: usize,
    /// Bytes held once for all sessions (registry tables + networks).
    pub registry_bytes: usize,
    /// Total bytes across per-session state (cached index/rows/outputs,
    /// frame clouds, origin retention, receiver delta bases).
    pub session_bytes_total: usize,
    /// `session_bytes_total / sessions` (0 when idle).
    pub bytes_per_session: f64,
    /// `session_bytes_total` by component.
    pub session_bytes: SessionMemory,
    /// Frame scratch held once per worker, not per session: the idle frame
    /// arenas of every thread of the process
    /// ([`volut_core::interpolate::FrameArena::idle_bytes`]).
    pub arena_bytes: usize,
}

/// Aggregate report of a full [`SrServer::run`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Aggregate telemetry snapshot (percentiles, histograms, counters).
    pub telemetry: TelemetrySnapshot,
    /// Total frames produced per wall-clock second across all sessions.
    pub aggregate_fps: f64,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
    /// Frames served passthrough due to engine errors, across all sessions.
    pub frame_errors: u64,
    /// Per-session reports, admission order.
    pub sessions: Vec<SessionReport>,
}

/// The multi-tenant serving harness. See the module docs for the design.
pub struct SrServer {
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    queue: VecDeque<SessionSpec>,
    tenants: Vec<Tenant>,
    telemetry: ServerTelemetry,
    finished: Vec<SessionReport>,
    next_id: u64,
    /// Monotonic tick counter (grant-queue ordering key).
    ticks: u64,
    /// Current overload level (0 = no shedding).
    overload_level: u32,
    /// Consecutive overloaded ticks (escalation streak).
    overload_pressured: u32,
    /// Consecutive calm ticks (relaxation streak).
    overload_calm: u32,
}

impl SrServer {
    /// Creates a server over a published registry.
    pub fn new(registry: Arc<ModelRegistry>, config: ServerConfig) -> Self {
        Self {
            registry,
            config,
            queue: VecDeque::new(),
            tenants: Vec::new(),
            telemetry: ServerTelemetry::new(),
            finished: Vec::new(),
            next_id: 0,
            ticks: 0,
            overload_level: 0,
            overload_pressured: 0,
            overload_calm: 0,
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Currently active sessions.
    pub fn active_sessions(&self) -> usize {
        self.tenants.len()
    }

    /// Sessions waiting in the run queue.
    pub fn queued_sessions(&self) -> usize {
        self.queue.len()
    }

    /// Submits a session request. Returns `false` — and counts a rejection
    /// — when the run queue is full or the content item is not published.
    /// Under overload the effective queue bound halves per overload level
    /// (admission tightening); requests shed this way are additionally
    /// counted in [`ServerTelemetry::sessions_shed`].
    pub fn enqueue(&mut self, spec: SessionSpec) -> bool {
        if self.registry.get(&spec.content).is_none() {
            self.telemetry.sessions_rejected += 1;
            return false;
        }
        let limit = (self.config.queue_limit >> self.overload_level.min(31)).max(1);
        if self.queue.len() >= limit {
            if limit < self.config.queue_limit {
                self.telemetry.sessions_shed += 1;
            }
            self.telemetry.sessions_rejected += 1;
            return false;
        }
        self.queue.push_back(spec);
        true
    }

    /// Runs one server tick: admit from the queue up to (overload-adjusted)
    /// capacity, grant keyframe-resync slots from the per-tick budget, plan
    /// every active session's degradation level against the deadline,
    /// dispatch the frame jobs longest-predicted-first onto the pool, roll
    /// counters into the aggregate, retire completed or quarantined
    /// sessions, and update the overload controller.
    pub fn tick(&mut self) {
        let tick = self.ticks;
        self.ticks += 1;

        // 1. Admission: fill free (overload-adjusted) capacity from the
        // queue, in order.
        let capacity = (self.config.capacity >> self.overload_level.min(31)).max(1);
        while self.tenants.len() < capacity {
            let Some(spec) = self.queue.pop_front() else {
                break;
            };
            let model = self
                .registry
                .get(&spec.content)
                .expect("enqueue validated the content name");
            match Tenant::admit(self.next_id, spec, &model, &self.config) {
                Ok(tenant) => {
                    self.tenants.push(tenant);
                    self.next_id += 1;
                    self.telemetry.sessions_admitted += 1;
                }
                Err(_) => {
                    self.telemetry.sessions_rejected += 1;
                }
            }
        }
        if self.tenants.is_empty() {
            return;
        }

        // 1.5. Recovery-storm control: release at most
        // `resync_budget_per_tick` parked tenants, longest-waiting first
        // (ties broken by session seed then admission id — all
        // deterministic, independent of worker count and wall-clock).
        let mut waiting: Vec<usize> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.failure.is_none() && t.ingest.as_ref().is_some_and(|i| i.parked && !i.granted)
            })
            .map(|(ix, _)| ix)
            .collect();
        waiting.sort_by_key(|&ix| {
            let t = &self.tenants[ix];
            let park_tick = t.ingest.as_ref().map_or(0, |i| i.park_tick);
            (park_tick, t.spec.seed, t.id)
        });
        for (rank, &ix) in waiting.iter().enumerate() {
            if rank < self.config.resync_budget_per_tick {
                self.tenants[ix].ingest.as_mut().expect("filtered").granted = true;
                self.telemetry.resync_grants += 1;
            } else {
                self.telemetry.resync_deferrals += 1;
            }
        }

        // 2. Plan levels sequentially (admission order) with the analytic
        // model — deterministic, and cheap relative to the frames. Ingest
        // cost (last frame's simulated recovery seconds) is charged into
        // the prediction so the LPT order sees fault-burdened tenants as
        // heavy. Overload pressure is measured on the *pre-floor* planned
        // levels, so the floor itself never feeds back into the signal.
        let mut predicted: Vec<f64> = Vec::with_capacity(self.tenants.len());
        let mut below_full = 0usize;
        // No floor (`Full`) until an overload policy escalates.
        let floor = DegradationLevel::ALL
            [(self.overload_level as usize).min(DegradationLevel::ALL.len() - 1)];
        let model = &self.config.planning_model;
        let ratio = self.config.ratio;
        for tenant in &mut self.tenants {
            let points = tenant.stream.frame().len() as f64;
            let last_ingest = tenant.last_ingest_s;
            let plan = tenant.account.plan(
                |level| {
                    level
                        .adjusted_model(model)
                        .frame_time_s(points, level.effective_ratio(ratio))
                        + last_ingest
                },
                self.config.deadline_s,
                floor,
            );
            below_full += usize::from(plan.unfloored != DegradationLevel::Full);
            predicted.push(plan.predicted_s);
        }
        let planned_active = self.tenants.len();

        // 3. LPT dispatch order: longest predicted frame first (ties keep
        // admission order — the sort is stable) so heavy sessions start
        // while light ones backfill.
        let mut lpt: Vec<(f64, &mut Tenant)> =
            predicted.into_iter().zip(&mut self.tenants).collect();
        lpt.sort_by(|a, b| b.0.total_cmp(&a.0));

        // 4. Parallel frame step: one chunk per tenant, each holding its
        // tenant's `&mut`. The chunk cursor hands tenants out in `lpt`
        // order, so the heaviest start first; with more than one tenant,
        // each frame's own parallel stages run inline on its thread (the
        // runtime's nesting rule).
        let config = &self.config;
        runtime::for_each_chunk_mut(&mut lpt, 1, |_, _, job| job[0].1.step(config, tick));

        // 5. Sequential roll-up in admission order (only tenants that
        // actually produced a frame this tick), then retirement.
        for tenant in &mut self.tenants {
            if tenant.stepped {
                self.telemetry.record_frame(&tenant.counters);
                tenant.stepped = false;
            }
            if let Some(ingest) = &tenant.ingest {
                // Lock-free by construction: the stats live in the tenant,
                // written only by its one worker; the coordinator folds the
                // per-tick delta here, between parallel steps.
                let current = ingest.receiver.stats();
                self.telemetry
                    .ingest
                    .add_delta(&current, &tenant.rolled_stats);
                tenant.rolled_stats = current;
            }
        }
        let mut retired = Vec::new();
        self.tenants.retain_mut(|tenant| {
            if tenant.remaining > 0 && tenant.failure.is_none() {
                return true;
            }
            retired.push(SessionReport {
                id: tenant.id,
                content: std::mem::take(&mut tenant.spec.content),
                seed: tenant.spec.seed,
                frames: tenant.counters.frames,
                deadline_misses: tenant.account.deadline_misses(),
                frame_errors: tenant.frame_errors,
                qoe: tenant.account.qoe(),
                digest: tenant.digest,
                residency: tenant.account.residency(),
                failure: tenant.failure,
                ingest: tenant.ingest.as_ref().map(|i| i.receiver.stats()),
            });
            false
        });
        self.telemetry.sessions_quarantined +=
            retired.iter().filter(|r| r.failure.is_some()).count() as u64;
        self.telemetry.sessions_retired += retired.len() as u64;
        self.finished.extend(retired);

        // 6. Overload controller: escalate after sustained pressure, relax
        // after sustained calm. `below_full` came from the pre-floor plans
        // of the analytic model — nothing here reads wall-clock.
        if let Some(policy) = &self.config.overload {
            let pressure = below_full as f64 / planned_active.max(1) as f64;
            if pressure >= policy.pressure_threshold {
                self.overload_pressured += 1;
                self.overload_calm = 0;
                if self.overload_pressured >= policy.escalate_after
                    && self.overload_level < policy.max_level
                {
                    self.overload_level += 1;
                    self.overload_pressured = 0;
                    self.telemetry.overload_escalations += 1;
                }
            } else {
                self.overload_calm += 1;
                self.overload_pressured = 0;
                if self.overload_calm >= policy.relax_after && self.overload_level > 0 {
                    self.overload_level -= 1;
                    self.overload_calm = 0;
                }
            }
        }
        self.telemetry.overload_level = self.overload_level;
    }

    /// Drives ticks until the queue and every admitted session are drained,
    /// then reports. `max_ticks` bounds the loop against misconfiguration.
    pub fn run(&mut self, max_ticks: u64) -> ServerReport {
        let started = Instant::now();
        let mut ticks = 0;
        while (!self.tenants.is_empty() || !self.queue.is_empty()) && ticks < max_ticks {
            self.tick();
            ticks += 1;
        }
        let wall_s = started.elapsed().as_secs_f64();
        self.report(wall_s)
    }

    /// Builds the aggregate report for the work completed so far.
    pub fn report(&self, wall_s: f64) -> ServerReport {
        let snapshot = self.telemetry.snapshot();
        ServerReport {
            aggregate_fps: if wall_s > 0.0 {
                snapshot.frames_total as f64 / wall_s
            } else {
                0.0
            },
            wall_s,
            frame_errors: self.finished.iter().map(|s| s.frame_errors).sum::<u64>()
                + self.tenants.iter().map(|t| t.frame_errors).sum::<u64>(),
            sessions: self.finished.clone(),
            telemetry: snapshot,
        }
    }

    /// Aggregate telemetry accumulated so far.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Memory accounting across the currently active sessions: what is held
    /// once (registry), once per worker (frame arenas) and per session
    /// (cached previous-frame state, frame clouds, retention, delta bases).
    pub fn memory_stats(&self) -> ServerMemoryStats {
        let mut session_bytes = SessionMemory::default();
        for tenant in &self.tenants {
            session_bytes.add(&tenant.memory());
        }
        let session_bytes_total = session_bytes.total();
        ServerMemoryStats {
            sessions: self.tenants.len(),
            registry_bytes: self.registry.shared_bytes(),
            session_bytes_total,
            bytes_per_session: if self.tenants.is_empty() {
                0.0
            } else {
                session_bytes_total as f64 / self.tenants.len() as f64
            },
            session_bytes,
            arena_bytes: volut_core::interpolate::FrameArena::idle_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_core::encoding::KeyScheme;
    use volut_core::lut::DenseLut;
    use volut_core::SrConfig;

    fn test_registry() -> Arc<ModelRegistry> {
        let mut registry = ModelRegistry::new();
        use volut_core::lut::Lut;
        let mut lut = DenseLut::new(1 << 12).unwrap();
        lut.set(7, [0.01, 0.0, -0.01]).unwrap();
        registry.publish(ContentModel::from_dense(
            "demo",
            SrConfig::default(),
            KeyScheme::Compact,
            lut,
            None,
        ));
        Arc::new(registry)
    }

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            content: "demo".into(),
            seed,
            points: 400,
            churn: 0.1,
            frames: 4,
            ingest: IngestSource::Local,
        }
    }

    #[test]
    fn admits_runs_and_retires_sessions() {
        let mut server = SrServer::new(test_registry(), ServerConfig::default());
        for seed in 0..8 {
            assert!(server.enqueue(spec(seed)));
        }
        let report = server.run(64);
        assert_eq!(report.telemetry.sessions_admitted, 8);
        assert_eq!(report.telemetry.sessions_retired, 8);
        assert_eq!(report.telemetry.sessions_rejected, 0);
        assert_eq!(report.telemetry.frames_total, 8 * 4);
        assert_eq!(report.sessions.len(), 8);
        assert_eq!(report.frame_errors, 0);
        for s in &report.sessions {
            assert_eq!(s.frames, 4);
            assert!(s.qoe.normalized > 0.0);
        }
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn rejects_beyond_queue_limit_and_unknown_content() {
        let config = ServerConfig {
            queue_limit: 2,
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(test_registry(), config);
        assert!(server.enqueue(spec(0)));
        assert!(server.enqueue(spec(1)));
        assert!(!server.enqueue(spec(2)), "queue is bounded");
        let unknown = SessionSpec {
            content: "missing".into(),
            ..spec(3)
        };
        // Unknown content cannot occupy a queue slot.
        let mut server2 = SrServer::new(test_registry(), ServerConfig::default());
        assert!(!server2.enqueue(unknown));
        assert_eq!(server2.telemetry().sessions_rejected, 1);
        assert_eq!(server.telemetry().sessions_rejected, 1);
    }

    #[test]
    fn capacity_staggers_admission_without_losing_sessions() {
        let config = ServerConfig {
            capacity: 2,
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(test_registry(), config);
        for seed in 0..6 {
            assert!(server.enqueue(spec(seed)));
        }
        server.tick();
        assert_eq!(server.active_sessions(), 2);
        assert_eq!(server.queued_sessions(), 4);
        let report = server.run(256);
        assert_eq!(report.telemetry.sessions_retired, 6);
        assert_eq!(report.telemetry.frames_total, 6 * 4);
    }

    #[test]
    fn same_seed_sessions_share_one_digest() {
        // Two sessions of the same spec inside one server run must produce
        // the same per-session digest: tenant state is fully isolated.
        let mut server = SrServer::new(test_registry(), ServerConfig::default());
        server.enqueue(spec(42));
        server.enqueue(spec(7));
        server.enqueue(spec(42));
        let report = server.run(64);
        assert_eq!(report.sessions[0].digest, report.sessions[2].digest);
        assert_ne!(report.sessions[0].digest, report.sessions[1].digest);
    }

    #[test]
    fn passthrough_budget_degrades_without_corruption() {
        // An impossible budget forces Passthrough; a later recovery frame
        // must not chain a stale declared delta (synced gating).
        let config = ServerConfig {
            deadline_s: 1e-9,
            degradation: Some(DegradationConfig {
                degrade_after: 1,
                recover_after: 1,
                recover_margin: 1.0,
            }),
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(test_registry(), config);
        server.enqueue(SessionSpec {
            frames: 6,
            ..spec(9)
        });
        let report = server.run(64);
        assert_eq!(report.frame_errors, 0);
        let s = &report.sessions[0];
        assert!(
            s.residency[DegradationLevel::Passthrough.index()] > 0,
            "residency {:?}",
            s.residency
        );
        // Passthrough quality is priced into QoE.
        assert!(s.qoe.mean_quality < 0.9);
    }

    fn resilient_spec(seed: u64, cfg: IngestConfig) -> SessionSpec {
        SessionSpec {
            ingest: IngestSource::Resilient(cfg),
            ..spec(seed)
        }
    }

    /// Degradation pinned off so planning (which sees ingest cost) cannot
    /// shift levels between the compared runs — digest comparisons then
    /// isolate the transport path alone.
    fn undegraded() -> ServerConfig {
        ServerConfig {
            degradation: None,
            ..ServerConfig::default()
        }
    }

    fn digests_by_seed(report: &ServerReport) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> =
            report.sessions.iter().map(|s| (s.seed, s.digest)).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn resilient_clean_link_matches_local_digests() {
        let mut local = SrServer::new(test_registry(), undegraded());
        let mut resilient = SrServer::new(test_registry(), undegraded());
        for seed in [3, 11, 27] {
            local.enqueue(spec(seed));
            resilient.enqueue(resilient_spec(seed, IngestConfig::default()));
        }
        let local_report = local.run(64);
        let report = resilient.run(64);
        assert_eq!(digests_by_seed(&report), digests_by_seed(&local_report));
        for s in &report.sessions {
            assert_eq!(s.frames, 4);
            assert_eq!(s.failure, None);
            let stats = s.ingest.expect("resilient sessions report ingest stats");
            assert_eq!(stats.frames, 4);
            assert_eq!(stats.poisonings_detected, 0);
        }
        assert!(local_report.sessions.iter().all(|s| s.ingest.is_none()));
    }

    #[test]
    fn fleet_tenants_cache_half_width_rows_and_outputs() {
        // 64 local 512-point tenants at ratio 2: a frame this small caches
        // `u16` indices, so the rows (9 entries per point) and the outputs
        // (a partner and 4 neighbors per generated point) take 9 216 and
        // 5 120 bytes per session.
        let mut server = SrServer::new(test_registry(), undegraded());
        for seed in 0..64 {
            server.enqueue(SessionSpec {
                points: 512,
                frames: 8,
                ..spec(seed)
            });
        }
        for _ in 0..3 {
            server.tick();
        }
        let m = server.memory_stats();
        assert_eq!(m.sessions, 64);
        let per_session = (m.session_bytes.rows + m.session_bytes.outputs) / m.sessions;
        assert!(per_session <= 14_336, "{:?}", m.session_bytes);
    }

    #[test]
    fn resilient_tenant_counts_its_delta_base() {
        // The receiver keeps the last delivered frame (positions and
        // colors) as the next delta's base; a local tenant keeps none.
        let mut server = SrServer::new(test_registry(), undegraded());
        server.enqueue(SessionSpec {
            points: 512,
            ..resilient_spec(5, IngestConfig::default())
        });
        server.tick();
        server.tick();
        let bytes = server.memory_stats().session_bytes;
        assert_eq!(bytes.delta_base, 512 * 12 + 512 * 3, "{bytes:?}");

        let mut local = SrServer::new(test_registry(), undegraded());
        local.enqueue(SessionSpec {
            points: 512,
            ..spec(5)
        });
        local.tick();
        assert_eq!(local.memory_stats().session_bytes.delta_base, 0);
    }

    #[test]
    fn resilient_footprint_is_flat_over_a_session() {
        // A paced origin keeps its head, which is the generator's frame
        // itself, and one undo step, so a tenant holds as much at tick 40
        // as at tick 5.
        let mut server = SrServer::new(test_registry(), undegraded());
        for seed in [6, 19] {
            server.enqueue(SessionSpec {
                points: 4096,
                frames: 48,
                ..resilient_spec(seed, IngestConfig::default())
            });
        }
        let mut readings = Vec::new();
        for tick in 1..=40 {
            server.tick();
            for tenant in &server.tenants {
                let ingest = tenant.ingest.as_ref().expect("resilient tenant");
                let head = ingest.delta_server.head().expect("a pushed frame");
                assert!(
                    Arc::ptr_eq(head, &tenant.stream.shared_frame()),
                    "tick {tick}: the origin copied the generator's frame"
                );
            }
            if tick == 5 || tick == 40 {
                readings.push(server.memory_stats());
            }
        }
        let (early, late) = (readings[0], readings[1]);
        assert_eq!(late.sessions, 2);
        assert_eq!(
            early.bytes_per_session, late.bytes_per_session,
            "tick 5 {:?}, tick 40 {:?}",
            early.session_bytes, late.session_bytes
        );
    }

    #[test]
    fn lossy_ingest_stays_bit_identical_to_clean() {
        // Heavy independent loss on the default retry budget, and the
        // evaluation's 2 % Gilbert–Elliott burst loss on a deep, jittered
        // one: a recoverable link, so every tenant serves its clean twin's
        // bits and none is quarantined.
        let independent = IngestConfig {
            faults: FaultConfig {
                drop: 0.3,
                ..FaultConfig::default()
            },
            ..IngestConfig::default()
        };
        let bursty = IngestConfig {
            faults: FaultConfig::bursty_loss(0.02),
            retry: RetryPolicy {
                max_retries: 12,
                jitter: 0.25,
                ..RetryPolicy::default()
            },
            ..IngestConfig::default()
        };
        for (lossy, seeds) in [(independent, vec![5, 13, 21]), (bursty, (0..64).collect())] {
            let mut clean = SrServer::new(test_registry(), undegraded());
            let mut faulted = SrServer::new(test_registry(), undegraded());
            for &seed in &seeds {
                clean.enqueue(SessionSpec {
                    frames: 8,
                    ..resilient_spec(seed, IngestConfig::default())
                });
                faulted.enqueue(SessionSpec {
                    frames: 8,
                    ..resilient_spec(seed, lossy.clone())
                });
            }
            let clean_report = clean.run(256);
            let report = faulted.run(256);
            assert_eq!(digests_by_seed(&report), digests_by_seed(&clean_report));
            let recovered: u64 = report
                .sessions
                .iter()
                .filter_map(|s| s.ingest)
                .map(|st| st.recovered_retransmit + st.recovered_compose + st.recovered_keyframe)
                .sum();
            assert!(recovered > 0, "the lossy run must exercise the ladder");
            assert_eq!(report.telemetry.sessions_quarantined, 0);
            assert_eq!(report.telemetry.ingest.frames, seeds.len() as u64 * 8);
        }
    }

    #[test]
    fn permanent_link_failure_quarantines_and_isolates_neighbors() {
        let dead = IngestConfig {
            faults: FaultConfig {
                drop: 1.0,
                ..FaultConfig::default()
            },
            ..IngestConfig::default()
        };
        let mut baseline = SrServer::new(test_registry(), undegraded());
        let mut chaotic = SrServer::new(test_registry(), undegraded());
        for seed in [1, 2, 3] {
            baseline.enqueue(resilient_spec(seed, IngestConfig::default()));
            chaotic.enqueue(resilient_spec(seed, IngestConfig::default()));
        }
        chaotic.enqueue(resilient_spec(99, dead));
        let baseline_report = baseline.run(64);
        let report = chaotic.run(64);
        let victim = report
            .sessions
            .iter()
            .find(|s| s.seed == 99)
            .expect("quarantined sessions are still reported");
        assert_eq!(victim.failure, Some(QuarantineCause::RetryExhausted));
        assert_eq!(victim.frames, 0, "a dead link never delivers a frame");
        assert_eq!(report.telemetry.sessions_quarantined, 1);
        let healthy: Vec<(u64, u64)> = digests_by_seed(&report)
            .into_iter()
            .filter(|(seed, _)| *seed != 99)
            .collect();
        assert_eq!(
            healthy,
            digests_by_seed(&baseline_report),
            "a neighbor's dead link must not move any other tenant's bits"
        );
    }

    #[test]
    fn resync_budget_serializes_keyframe_storms() {
        // A one-frame retention window turns every post-start fetch into a
        // keyframe resync, so all tenants storm the budget at once.
        let tiny_window = IngestConfig {
            retention: RetentionPolicy::last_frames(1),
            ..IngestConfig::default()
        };
        let config = ServerConfig {
            resync_budget_per_tick: 1,
            ..undegraded()
        };
        let mut local = SrServer::new(test_registry(), undegraded());
        let mut server = SrServer::new(test_registry(), config);
        for seed in [4, 8, 15] {
            local.enqueue(spec(seed));
            server.enqueue(resilient_spec(seed, tiny_window.clone()));
        }
        let local_report = local.run(64);
        let report = server.run(256);
        assert_eq!(report.telemetry.sessions_retired, 3);
        assert!(report.telemetry.resync_grants > 0);
        assert!(
            report.telemetry.resync_deferrals > 0,
            "three simultaneous resyncs against a budget of one must defer"
        );
        // Keyframe resyncs recompute cold; cold output is bit-identical to
        // the incremental path, so digests still match the local run.
        assert_eq!(digests_by_seed(&report), digests_by_seed(&local_report));
        for s in &report.sessions {
            let stats = s.ingest.expect("resilient stats");
            assert!(stats.recovered_keyframe > 0, "{stats:?}");
        }
    }

    #[test]
    fn overload_sheds_admissions_and_escalates() {
        let config = ServerConfig {
            capacity: 1,
            queue_limit: 8,
            deadline_s: 1e-9,
            overload: Some(OverloadPolicy {
                escalate_after: 1,
                relax_after: 1000,
                ..OverloadPolicy::default()
            }),
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(test_registry(), config);
        for seed in 0..8 {
            assert!(server.enqueue(SessionSpec {
                frames: 16,
                ..spec(seed)
            }));
        }
        server.tick();
        server.tick();
        assert!(
            server.telemetry().overload_level >= 1,
            "an impossible deadline must escalate overload"
        );
        assert!(server.telemetry().overload_escalations >= 1);
        // The queue still holds 7 requests; the tightened limit (8 >> 1 = 4)
        // sheds the next one.
        assert!(!server.enqueue(spec(100)));
        assert!(server.telemetry().sessions_shed >= 1);
    }
}
