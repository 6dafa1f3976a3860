//! Stage one of the VoLUT pipeline: interpolation (§4.1).
//!
//! [`dilated::dilated_interpolate`] is VoLUT's enhanced interpolation with
//! dilation (Eq. 1), a k-d tree self-join for the neighbor search (the
//! paper's structure is an octree; the k-d tree is the only index this path
//! builds), neighbor relationship reuse (Eq. 2) and multi-threaded
//! execution. It is the one interpolator on the frame path; the paper's
//! vanilla kNN baseline (`K4d1`) is a cold one-shot function kept apart in
//! [`crate::baselines::naive`].
//!
//! It returns an [`InterpolationResult`] that carries the upsampled cloud,
//! the parent/neighborhood bookkeeping that later stages reuse (as one flat
//! fixed-width [`Neighborhoods`] slab — one allocation for the whole frame
//! instead of one per generated point), and stage timings.
//!
//! # Session state vs frame arena
//!
//! A frame's memory is split by lifetime. [`FrameScratch`] is **session
//! state**: what the *next* frame of the same session reads — the cached
//! spatial index, the previous frame's self-join rows, interpolation outputs
//! and refined tail (one record of the previous frame, which every frame
//! rewrites or clears), the counters, a pending declared delta.
//! Passing the same scratch to every `upsample` call of a streaming session
//! is what makes delta frames cost `O(churn)`. Everything a frame clears,
//! fills and forgets — raw and dilated neighbor lists, the join's row
//! verdicts, the dual-tree slab, kd-tree build and patch buffers, the
//! recycled result containers — lives on a [`FrameArena`] instead, checked
//! out from a per-thread free-list for the duration of one frame, so a
//! process holds about one arena per worker however many sessions it
//! serves. The re-entrancy rule (a frame nested inside another on the same
//! thread gets its own arena) is spelled out in [`arena`].

pub mod arena;
pub mod dilated;
pub mod reuse;
pub mod temporal;

use crate::config::SrConfig;
use crate::pipeline::StageTimings;
use crate::{Error, Result};
pub use arena::FrameArena;
pub use temporal::TemporalStats;
use volut_pointcloud::delta::FrameDelta;
use volut_pointcloud::{runtime, Neighborhoods, Point3, PointCloud};

/// Output of an interpolation pass.
///
/// The upsampled cloud stores the original points first (indices
/// `0..original_len`) followed by the newly generated points; the
/// `parents` and `neighborhoods` containers are indexed by *new-point
/// ordinal* (i.e. `cloud index - original_len`).
#[derive(Debug, Clone)]
pub struct InterpolationResult {
    /// The upsampled cloud (original points followed by interpolated points).
    pub cloud: PointCloud,
    /// Number of original (input) points at the front of `cloud`.
    pub original_len: usize,
    /// For each new point, the indices (into the original cloud) of the two
    /// points whose midpoint generated it.
    pub parents: Vec<(usize, usize)>,
    /// For each new point, the (approximate) `k` nearest original-point
    /// indices ordered by increasing distance, stored as one flat
    /// fixed-width container. Every row holds `min(k, n)` entries for an
    /// `n`-point input. Reused by colorization and by the LUT refinement
    /// stage so no further kNN queries (and no per-point allocations) are
    /// needed.
    pub neighborhoods: Neighborhoods,
    /// Stage timings measured on the host (see [`StageTimings`] for which
    /// fields are summed worker time); `refinement` is zero unless a
    /// pipeline refined the frame.
    pub timings: StageTimings,
}

impl InterpolationResult {
    /// Number of newly generated points.
    pub fn new_points(&self) -> usize {
        self.cloud.len() - self.original_len
    }

    /// The achieved upsampling ratio (output size / input size).
    pub fn achieved_ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.cloud.len() as f64 / self.original_len as f64
        }
    }
}

/// Cumulative patched churn (fraction of the cloud) that forces the next
/// delta frame onto a full rebuild of the session's k-d tree instead of
/// another patch.
///
/// One frame's `KdTree::patch_with` against a `KdTree::build_in` of the same
/// frame (ms), `synthetic::humanoid` content and a `DeltaStream` delta at
/// each churn, warm scratch, median of six alternating rounds of 20 on the
/// shared 2-vCPU host (the rebuild column spans the three frames):
///
/// | points | workers | patch 2 % | patch 10 % | patch 30 % | rebuild |
/// |-------:|--------:|----------:|-----------:|-----------:|--------:|
/// |    512 |       1 |     0.006 |      0.011 |      0.020 | 0.016–0.018 |
/// |  4 096 |       1 |     0.055 |      0.061 |      0.148 | 0.098–0.123 |
/// | 50 000 |       1 |      0.85 |       1.37 |       2.26 |   1.81–2.00 |
/// | 50 000 |       2 |      0.87 |       1.32 |       2.72 |   1.95–2.14 |
///
/// A single frame's patch is the cheaper step up to about 20–25 % churn at
/// every size; against the median-select builder's 4.2 ms rebuild the
/// crossover read near 35 %. The constant bounds *cumulative* churn, which
/// decides how stale the split planes get, not what one frame costs; at
/// the ledger's 10 % a patch still costs 0.6–0.7× a rebuild, so the table
/// gives no reason to move it.
pub const PATCH_REBUILD_FRACTION: f64 = 0.5;

/// Bytes of cross-frame state a session holds, by component (capacities,
/// not lengths — what the allocator was asked for). The cached indices
/// (`rows` and `outputs`) count at their stored width: two bytes an entry
/// when the previous frame had at most 65 536 points, four above (see
/// [`temporal`]'s *Downstream output reuse*).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStateBytes {
    /// The cached spatial index (points, permutation, SoA lanes, nodes).
    pub index: usize,
    /// The previous frame's self-join rows: `kq` indices per point.
    pub rows: usize,
    /// The previous frame's interpolation outputs (each generated point's
    /// partner and `k`-wide neighborhood, as indices).
    pub outputs: usize,
    /// The previous frame's refined tail.
    pub refined: usize,
}

impl SessionStateBytes {
    /// Sum over the components.
    pub fn total(&self) -> usize {
        self.index + self.rows + self.outputs + self.refined
    }
}

/// The cross-frame state of one streaming session (see the module docs:
/// *session state vs frame arena*).
///
/// A streaming client upsamples tens of frames per second whose geometry
/// mostly repeats. A `FrameScratch` owned by the session (see
/// `volut_stream::client::SrSession`) is threaded through
/// [`crate::SrPipeline::upsample_with`] and carries exactly what the next
/// frame reads: one record of the previous frame — its spatial index,
/// self-join rows, interpolation outputs and refined tail ([`temporal`]) —
/// the reuse counters, and a declared delta waiting for its frame. It owns
/// no buffer that a frame clears before use — those live on the
/// [`FrameArena`] a frame checks out — so its footprint is what a resident
/// tenant costs between frames.
#[derive(Debug, Default)]
pub struct FrameScratch {
    /// The previous frame's index, self-join rows and downstream outputs —
    /// the temporal-coherence layer that turns delta frames into `O(churn)`
    /// work (see [`temporal`]).
    pub(crate) temporal: temporal::TemporalCache,
}

impl FrameScratch {
    /// Creates an empty session state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a result's neighborhood container for reuse, to the arena
    /// this thread's next frame will check out.
    pub fn recycle_neighborhoods(&mut self, neighborhoods: Neighborhoods) {
        FrameArena::adopt_neighborhoods(neighborhoods);
    }

    /// The session's counters: how its index was rebuilt, reused or
    /// patched, how many batches ran through the dual-tree kernel, and the
    /// frame-, row- and point-level counters of the temporal (delta-frame)
    /// reuse layer.
    pub fn temporal_stats(&self) -> TemporalStats {
        self.temporal.stats
    }

    /// Declares the exact delta from the previous upsampled frame to the
    /// next one, sparing the engine its bitwise diff. The delta is verified
    /// against both frames before use (one linear pass); a delta that does
    /// not match falls back to the engine's own diff, so a wrong
    /// declaration costs time, never correctness. Consumed by the next
    /// frame.
    pub fn set_frame_delta(&mut self, delta: FrameDelta) {
        self.temporal.pending_delta = Some(delta);
    }

    /// Flushes the record of the previous frame — its spatial index, cached
    /// rows, interpolation outputs and refined tail — and any pending delta,
    /// together. The next frame recomputes cold, so its output depends only
    /// on that frame's bits — the resync primitive of fault-tolerant streaming sessions whose cached state may no
    /// longer describe a frame that was actually processed (see the
    /// cache-flush invariants in [`temporal`]'s module docs). Buffers keep
    /// their capacity; incremental reuse re-arms on the following frame.
    pub fn flush_temporal(&mut self) {
        self.temporal.clear();
    }

    /// Why the most recent externally supplied frame delta
    /// ([`Self::set_frame_delta`]) was rejected by verification, or `None`
    /// when it verified (or none was consumed since). A rejected delta never
    /// corrupts output — the engine falls back to its own bitwise diff — but
    /// a resilient transport reads the reason to distinguish mangled
    /// payloads from genuine geometry divergence.
    pub fn last_delta_error(&self) -> Option<volut_pointcloud::DeltaError> {
        self.temporal.last_delta_error
    }

    /// Capacity (bytes) reserved by the session state, by component.
    pub fn state_bytes(&self) -> SessionStateBytes {
        self.temporal.state_bytes()
    }

    /// Capacity (bytes) reserved by the session state — everything this
    /// scratch keeps between frames. Frame transients are accounted on the
    /// arena ([`FrameArena::idle_bytes`]). Steady-state frames of a
    /// stable-size churned session must not grow it (asserted by the
    /// streaming-session tests).
    pub fn reserved_bytes(&self) -> usize {
        self.state_bytes().total()
    }
}

/// The interpolation stage as a trait object, with one implementation,
/// [`DilatedInterpolator`]. [`crate::SrPipeline`] calls the dilated path
/// directly; the trait stays only because the benchmark package imports it
/// (its shadow interpolator runs `DilatedInterpolator` through it). It is to
/// be deleted together with that shadow path, in a change to the benchmark
/// package.
pub trait Interpolator: Send + Sync {
    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Upsamples `low` to roughly `ratio ×` its point count, reusing the
    /// buffers in `scratch` where possible.
    ///
    /// # Errors
    /// Returns an error when the configuration or ratio is invalid, or when
    /// the input has fewer than two points or a non-finite coordinate.
    fn interpolate(
        &self,
        low: &PointCloud,
        config: &SrConfig,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<InterpolationResult>;
}

/// VoLUT's dilated, reuse-enabled, data-parallel interpolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DilatedInterpolator;

impl Interpolator for DilatedInterpolator {
    fn name(&self) -> &'static str {
        "dilated"
    }

    fn interpolate(
        &self,
        low: &PointCloud,
        config: &SrConfig,
        ratio: f64,
        scratch: &mut FrameScratch,
    ) -> Result<InterpolationResult> {
        dilated::dilated_interpolate_with(low, config, ratio, scratch)
    }
}

/// How the new points of an `n`-point frame at `ratio` are distributed over
/// its source points (round-robin, earlier points first): every row
/// generates `base`, the first `extra` rows one more. Closed form, so a
/// row's tail offset needs no prefix-sum array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointSplit {
    base: usize,
    extra: usize,
}

impl PointSplit {
    pub(crate) fn new(n: usize, ratio: f64) -> Self {
        if n == 0 {
            return Self { base: 0, extra: 0 };
        }
        let new_total = ((n as f64 * ratio).round() as usize).saturating_sub(n);
        Self {
            base: new_total / n,
            extra: new_total % n,
        }
    }

    /// Points row `r` generates.
    pub(crate) fn count(self, r: usize) -> usize {
        self.base + usize::from(r < self.extra)
    }

    /// Tail ordinal of row `r`'s first generated point (for `r = n`, the
    /// tail length).
    pub(crate) fn offset(self, r: usize) -> usize {
        r * self.base + r.min(self.extra)
    }
}

/// The checks both interpolation entry points ([`dilated`]'s and
/// [`crate::baselines::naive`]'s) make before any work: the configuration
/// and the ratio are valid, the cloud holds at least two points, and every
/// coordinate is finite. A NaN coordinate's packed distance keys sort above
/// a row's padding, so its kNN row would never fill; a frame that arrives
/// intact from the wire can still carry one, and the k-d tree's batches
/// take finite queries only.
///
/// # Errors
/// [`SrConfig::validate`]'s and [`SrConfig::validate_ratio`]'s errors,
/// [`Error::InsufficientPoints`] below two points, and
/// [`volut_pointcloud::Error::InvalidArgument`] (as [`Error::PointCloud`])
/// naming the first point with a NaN or infinite coordinate.
pub(crate) fn validate_frame(low: &PointCloud, config: &SrConfig, ratio: f64) -> Result<()> {
    config.validate()?;
    config.validate_ratio(ratio)?;
    if low.len() < 2 {
        return Err(Error::InsufficientPoints {
            required: 2,
            available: low.len(),
        });
    }
    if let Some(i) = low.positions().iter().position(|p| !p.is_finite()) {
        return Err(volut_pointcloud::Error::InvalidArgument(format!(
            "point {i} has a non-finite coordinate"
        ))
        .into());
    }
    Ok(())
}

/// Runs `f` on every job of a pre-split pass, one task per job through
/// [`runtime::for_each_chunk_mut`], heaviest `weight` first (ties in job
/// order): the runtime starts tasks in order, so a heavy job started last
/// would finish alone. A single job runs inline on the caller without being
/// collected, so a one-job frame allocates nothing.
pub(crate) fn run_jobs<J: Send>(
    mut jobs: impl Iterator<Item = J>,
    weight: impl Fn(&J) -> usize,
    f: impl Fn(J) + Sync,
) {
    let Some(first) = jobs.next() else {
        return;
    };
    let Some(second) = jobs.next() else {
        return f(first);
    };
    let mut jobs: Vec<Option<J>> = [first, second].into_iter().chain(jobs).map(Some).collect();
    jobs.sort_by_key(|job| std::cmp::Reverse(job.as_ref().map_or(0, &weight)));
    runtime::for_each_chunk_mut(&mut jobs, 1, |_, _, job| {
        f(job[0].take().expect("each job runs once"));
    });
}

/// Splits the first `len` elements off `slice`: how a pass hands each of its
/// jobs a disjoint `&mut` window of an output.
pub(crate) fn take_front<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, rest) = std::mem::take(slice).split_at_mut(len);
    *slice = rest;
    front
}

/// Per-row RNG seed derived from the session seed and the source point's
/// *position bits* (splitmix64-style finalizer). Seeding partner draws by
/// content rather than by row index makes every row's output sequence
/// invariant under index remapping — the property that lets the temporal
/// layer copy interpolated outputs forward across frames whose surviving
/// rows moved to new indices (see [`temporal`]).
pub(crate) fn row_seed(seed: u64, p: Point3) -> u64 {
    fn mix(mut h: u64) -> u64 {
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
    let xy = u64::from(p.x.to_bits()) | (u64::from(p.y.to_bits()) << 32);
    let h = mix(seed ^ 0x9E37_79B9_7F4A_7C15 ^ xy);
    mix(h.wrapping_add(u64::from(p.z.to_bits())))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-row counts of `split` over `n` rows.
    fn counts(n: usize, ratio: f64) -> Vec<usize> {
        let split = PointSplit::new(n, ratio);
        (0..n).map(|r| split.count(r)).collect()
    }

    #[test]
    fn split_reaches_target() {
        assert_eq!(counts(100, 2.0).iter().sum::<usize>(), 100);
        assert_eq!(counts(100, 2.5).iter().sum::<usize>(), 150);
        assert_eq!(
            counts(7, 3.3).iter().sum::<usize>(),
            (7.0f64 * 3.3).round() as usize - 7
        );
    }

    #[test]
    fn split_handles_identity_and_empty() {
        assert_eq!(counts(10, 1.0).iter().sum::<usize>(), 0);
        assert_eq!(PointSplit::new(0, 4.0).offset(0), 0);
    }

    #[test]
    fn split_is_balanced() {
        let d = counts(10, 2.35);
        let min = d.iter().min().unwrap();
        let max = d.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn split_offsets_are_the_prefix_sums_of_the_counts() {
        for (n, ratio) in [
            (100, 2.0),
            (7, 3.3),
            (512, 2.0),
            (10, 2.35),
            (9, 1.0),
            (1, 8.0),
        ] {
            let split = PointSplit::new(n, ratio);
            let mut at = 0;
            for (r, count) in counts(n, ratio).into_iter().enumerate() {
                assert_eq!(split.offset(r), at, "n {n} ratio {ratio} row {r}");
                at += count;
            }
            assert_eq!(split.offset(n), at, "n {n} ratio {ratio}: tail length");
        }
    }

    #[test]
    fn recycled_neighborhoods_reach_the_next_frame_cleared() {
        // Outside a frame the container goes to the thread's idle arena —
        // there is one after the first frame — and comes back cleared.
        let mut scratch = FrameScratch::new();
        drop(FrameArena::checkout());
        let mut n = Neighborhoods::new();
        n.push_rows(1, 2).copy_from_slice(&[1, 2]);
        let reserved = n.reserved_bytes();
        scratch.recycle_neighborhoods(n);
        let mut arena = FrameArena::checkout();
        let n2 = arena.take_neighborhoods();
        assert!(n2.is_empty(), "recycled container must come back cleared");
        assert_eq!(n2.reserved_bytes(), reserved, "and keep its allocation");
    }

    #[test]
    fn dilated_interpolator_object_matches_the_function() {
        let low = volut_pointcloud::synthetic::sphere(200, 1.0, 3);
        let cfg = SrConfig::default();
        let interp: &dyn Interpolator = &DilatedInterpolator;
        assert_eq!(interp.name(), "dilated");
        let out = interp
            .interpolate(&low, &cfg, 2.0, &mut FrameScratch::new())
            .unwrap();
        let want = dilated::dilated_interpolate(&low, &cfg, 2.0).unwrap();
        assert_eq!(out.cloud, want.cloud);
        assert_eq!(out.neighborhoods, want.neighborhoods);
    }
}
