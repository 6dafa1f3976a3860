//! Aggregate serving telemetry: streaming percentiles and fixed histograms.
//!
//! A multi-tenant server cannot afford to keep every frame time of every
//! session (10k sessions × thousands of frames) just to answer "what is the
//! p99?". This module provides the standard fix — a **log-linear histogram
//! sketch** ([`PercentileSketch`]) with bounded memory (~4 KiB) and bounded
//! relative error (≤ 1/64 per recorded value), plus fixed unit-interval
//! histograms ([`UnitHistogram`]) for QoE-quality and reuse-rate
//! distributions, and the [`ServerTelemetry`] roll-up the server publishes.
//!
//! Everything here is deterministic (bucketing is pure bit arithmetic on the
//! recorded values — no sampling) and single-threaded by design: sessions
//! record into plain per-tenant counters during the parallel frame step, and
//! the coordinator merges them into the aggregate between ticks. That keeps
//! the hot path free of atomics and locks while the roll-up stays exact.

use crate::resilience::RobustnessStats;

/// Lowest binade recorded distinctly: values below `2^MIN_EXP` (≈ 0.95 µs
/// when recording seconds) collapse into the first bucket.
const MIN_EXP: i32 = -20;
/// Highest binade recorded distinctly: values at or above `2^(MAX_EXP+1)`
/// (≈ 68 min in seconds) collapse into the last bucket.
const MAX_EXP: i32 = 11;
/// Sub-buckets per binade (top 5 mantissa bits): relative bucket width is
/// `1/32`, so the midpoint representative is within `1/64` of any member.
const SUBBUCKETS: usize = 32;
const BINADES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Bucket 0 holds zeros/negatives; the rest are binade × sub-bucket cells.
const BUCKETS: usize = 1 + BINADES * SUBBUCKETS;

/// Bounded-memory streaming percentile estimator over non-negative samples.
///
/// Log-linear histogram: each positive sample lands in one of 1024 buckets
/// keyed by its floating-point exponent (clamped to `[2^-20, 2^12)`) and the
/// top 5 mantissa bits. Percentiles are answered by a nearest-rank walk over
/// the cumulative counts, returning the bucket midpoint — relative error is
/// at most half the bucket width (1/64 ≈ 1.6%) for in-range samples. Merging
/// two sketches is element-wise addition, so per-shard sketches roll up
/// exactly.
#[derive(Clone)]
pub struct PercentileSketch {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for PercentileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PercentileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PercentileSketch")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl PercentileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            return 1;
        }
        if exp > MAX_EXP {
            return BUCKETS - 1;
        }
        let mantissa_top = ((bits >> 47) & 0x1f) as usize;
        1 + (exp - MIN_EXP) as usize * SUBBUCKETS + mantissa_top
    }

    /// Midpoint of a bucket's value range (its nearest-rank representative).
    fn representative(bucket: usize) -> f64 {
        if bucket == 0 {
            return 0.0;
        }
        let cell = bucket - 1;
        let exp = MIN_EXP + (cell / SUBBUCKETS) as i32;
        let sub = (cell % SUBBUCKETS) as f64;
        let base = (exp as f64).exp2();
        base * (1.0 + (sub + 0.5) / SUBBUCKETS as f64)
    }

    /// Records one sample. Zeros, negatives, and non-finite values land in
    /// the underflow bucket (reported as 0).
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        if value.is_finite() {
            self.sum += value.max(0.0);
            self.min = self.min.min(value.max(0.0));
            self.max = self.max.max(value.max(0.0));
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the recorded samples (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile estimate for `q` in `[0, 1]`.
    ///
    /// Returns the midpoint of the bucket containing the rank-`⌈q·n⌉`
    /// sample, clamped into the exact observed `[min, max]` envelope (so
    /// `percentile(1.0)` never exceeds the true maximum).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::representative(bucket).clamp(
                    if self.min.is_finite() { self.min } else { 0.0 },
                    if self.max.is_finite() {
                        self.max
                    } else {
                        f64::MAX
                    },
                );
            }
        }
        self.max()
    }
}

/// Number of buckets in a [`UnitHistogram`].
pub const UNIT_BUCKETS: usize = 10;

/// Fixed 10-bucket histogram over `[0, 1]` for bounded ratios (QoE quality,
/// per-frame reuse rate). Bucket `i` covers `[i/10, (i+1)/10)`; 1.0 lands in
/// the last bucket.
#[derive(Debug, Clone, Default)]
pub struct UnitHistogram {
    counts: [u64; UNIT_BUCKETS],
    total: u64,
}

impl UnitHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value, clamped into `[0, 1]`.
    pub fn record(&mut self, value: f64) {
        let v = value.clamp(0.0, 1.0);
        let idx = ((v * UNIT_BUCKETS as f64) as usize).min(UNIT_BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64; UNIT_BUCKETS] {
        &self.counts
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fraction of samples in bucket `i` (0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

/// Plain per-session counters, written by exactly one worker during the
/// parallel frame step (no atomics — ownership is the synchronization) and
/// drained into [`ServerTelemetry`] by the coordinator between ticks.
#[derive(Debug, Clone, Default)]
pub struct SessionCounters {
    /// Frames this session has produced.
    pub frames: u64,
    /// Whether the most recent frame missed its deadline.
    pub last_deadline_miss: bool,
    /// Wall-clock seconds of this session's most recent frame.
    pub last_frame_time_s: f64,
    /// kNN row reuse rate of the most recent frame, in `[0, 1]`.
    pub last_reuse_rate: f64,
    /// Quality factor of the degradation level served on the last frame.
    pub last_quality: f64,
}

/// Aggregate roll-up across every session of a server run.
#[derive(Debug, Clone, Default)]
pub struct ServerTelemetry {
    /// Per-frame wall-clock times (seconds) across all sessions.
    pub frame_time: PercentileSketch,
    /// Distribution of served quality factors (1.0 = full pipeline).
    pub quality: UnitHistogram,
    /// Distribution of per-frame kNN row reuse rates.
    pub reuse: UnitHistogram,
    /// Total frames produced across all sessions.
    pub frames_total: u64,
    /// Total deadline misses across all sessions.
    pub deadline_misses: u64,
    /// Sessions admitted over the run.
    pub sessions_admitted: u64,
    /// Sessions rejected by admission control (queue overflow).
    pub sessions_rejected: u64,
    /// Sessions that completed and were retired.
    pub sessions_retired: u64,
    /// Sessions retired early with a quarantine cause (retry exhaustion or
    /// repeated integrity failure on their ingest path).
    pub sessions_quarantined: u64,
    /// Sessions rejected specifically because overload tightened the
    /// admission queue below its configured bound (a subset of
    /// `sessions_rejected`).
    pub sessions_shed: u64,
    /// Current server overload level (0 = no overload).
    pub overload_level: u32,
    /// Times the overload controller escalated one level.
    pub overload_escalations: u64,
    /// Keyframe-resync slots granted from the per-tick budget.
    pub resync_grants: u64,
    /// Ticks a parked tenant spent waiting past the per-tick resync budget.
    pub resync_deferrals: u64,
    /// Aggregate ingest/recovery counters across all resilient-ingest
    /// tenants, merged per tick from each tenant's own monotone counters
    /// (the frame path itself stays lock-free).
    pub ingest: RobustnessStats,
}

impl ServerTelemetry {
    /// An empty roll-up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one session's last-frame observations into the aggregate.
    /// Called by the coordinator after each tick, once per active session.
    pub fn record_frame(&mut self, counters: &SessionCounters) {
        self.frame_time.record(counters.last_frame_time_s);
        self.quality.record(counters.last_quality);
        self.reuse.record(counters.last_reuse_rate);
        self.frames_total += 1;
        self.deadline_misses += u64::from(counters.last_deadline_miss);
    }

    /// Summary snapshot for reports and the scaling bench.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            frames_total: self.frames_total,
            deadline_misses: self.deadline_misses,
            sessions_admitted: self.sessions_admitted,
            sessions_rejected: self.sessions_rejected,
            sessions_retired: self.sessions_retired,
            sessions_quarantined: self.sessions_quarantined,
            sessions_shed: self.sessions_shed,
            overload_level: self.overload_level,
            overload_escalations: self.overload_escalations,
            resync_grants: self.resync_grants,
            resync_deferrals: self.resync_deferrals,
            ingest: self.ingest,
            frame_time_p50_ms: self.frame_time.percentile(0.50) * 1e3,
            frame_time_p95_ms: self.frame_time.percentile(0.95) * 1e3,
            frame_time_p99_ms: self.frame_time.percentile(0.99) * 1e3,
            frame_time_mean_ms: self.frame_time.mean() * 1e3,
            frame_time_max_ms: self.frame_time.max() * 1e3,
            quality_histogram: self.quality.clone(),
            reuse_histogram: self.reuse.clone(),
        }
    }
}

/// Serializable summary of a [`ServerTelemetry`] roll-up.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Total frames produced across all sessions.
    pub frames_total: u64,
    /// Total deadline misses across all sessions.
    pub deadline_misses: u64,
    /// Sessions admitted over the run.
    pub sessions_admitted: u64,
    /// Sessions rejected by admission control.
    pub sessions_rejected: u64,
    /// Sessions that completed and were retired.
    pub sessions_retired: u64,
    /// Sessions retired early with a quarantine cause.
    pub sessions_quarantined: u64,
    /// Sessions rejected because overload tightened the admission queue.
    pub sessions_shed: u64,
    /// Overload level at snapshot time (0 = no overload).
    pub overload_level: u32,
    /// Times the overload controller escalated one level.
    pub overload_escalations: u64,
    /// Keyframe-resync slots granted from the per-tick budget.
    pub resync_grants: u64,
    /// Ticks parked tenants spent waiting past the resync budget.
    pub resync_deferrals: u64,
    /// Aggregate ingest/recovery counters across resilient-ingest tenants.
    pub ingest: RobustnessStats,
    /// Median per-frame wall time, milliseconds.
    pub frame_time_p50_ms: f64,
    /// 95th-percentile per-frame wall time, milliseconds.
    pub frame_time_p95_ms: f64,
    /// 99th-percentile per-frame wall time, milliseconds.
    pub frame_time_p99_ms: f64,
    /// Mean per-frame wall time, milliseconds (exact).
    pub frame_time_mean_ms: f64,
    /// Maximum per-frame wall time, milliseconds (exact).
    pub frame_time_max_ms: f64,
    /// Distribution of served quality factors.
    pub quality_histogram: UnitHistogram,
    /// Distribution of per-frame reuse rates.
    pub reuse_histogram: UnitHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng, StdRng};

    /// Exact nearest-rank percentile over a sorted copy — the reference the
    /// sketch is tested against.
    fn reference_percentile(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty());
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn check_against_reference(samples: &mut [f64], tolerance: f64) {
        let mut sketch = PercentileSketch::new();
        for &s in samples.iter() {
            sketch.record(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.5, 0.95, 0.99] {
            let exact = reference_percentile(samples, q);
            let approx = sketch.percentile(q);
            let err = (approx - exact).abs() / exact.max(1e-12);
            assert!(
                err <= tolerance,
                "q={q}: sketch {approx} vs exact {exact} (rel err {err:.4})"
            );
        }
    }

    #[test]
    fn sketch_matches_sorted_reference_uniform() {
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples: Vec<f64> = (0..10_000)
                .map(|_| rng.random_range(0.001f64..0.1))
                .collect();
            // Bucket width 1/32 ⇒ midpoint within 1/64; nearest-rank
            // boundary effects stay well inside 3%.
            check_against_reference(&mut samples, 0.03);
        }
    }

    #[test]
    fn sketch_matches_sorted_reference_heavy_tail() {
        // Log-uniform over six decades — the regime frame times actually
        // occupy when a server degrades under load.
        for seed in [3u64, 99] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples: Vec<f64> = (0..10_000)
                .map(|_| 10f64.powf(rng.random_range(-6.0f64..0.0)))
                .collect();
            check_against_reference(&mut samples, 0.03);
        }
    }

    #[test]
    fn sketch_exact_stats_and_envelope() {
        let mut sketch = PercentileSketch::new();
        for v in [0.5, 0.25, 1.0, 0.75] {
            sketch.record(v);
        }
        assert_eq!(sketch.count(), 4);
        assert!((sketch.mean() - 0.625).abs() < 1e-12);
        assert_eq!(sketch.min(), 0.25);
        assert_eq!(sketch.max(), 1.0);
        // Percentiles are clamped into the exact observed range.
        assert!(sketch.percentile(1.0) <= 1.0);
        assert!(sketch.percentile(0.0) >= 0.25);
    }

    #[test]
    fn sketch_handles_degenerate_inputs() {
        let mut sketch = PercentileSketch::new();
        assert_eq!(sketch.percentile(0.5), 0.0);
        sketch.record(0.0);
        sketch.record(-1.0);
        sketch.record(f64::NAN);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.percentile(0.5), 0.0);
        // Out-of-range magnitudes clamp instead of panicking.
        sketch.record(1e-12);
        sketch.record(1e12);
        assert!(sketch.percentile(1.0).is_finite());
    }

    #[test]
    fn unit_histogram_buckets_and_fractions() {
        let mut h = UnitHistogram::new();
        for v in [0.0, 0.05, 0.95, 1.0, 2.0, -1.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.counts()[0], 3); // 0.0, 0.05, -1.0 (clamped)
        assert_eq!(h.counts()[9], 3); // 0.95, 1.0, 2.0 (clamped)
        assert!((h.fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn telemetry_rollup_snapshot() {
        let mut agg = ServerTelemetry::new();
        let mut c = SessionCounters::default();
        for i in 0..100 {
            c.frames += 1;
            c.last_frame_time_s = 0.001 * (1.0 + i as f64 / 100.0);
            c.last_reuse_rate = 0.9;
            c.last_quality = 1.0;
            c.last_deadline_miss = i % 10 == 0;
            agg.record_frame(&c);
        }
        agg.sessions_admitted = 1;
        let snap = agg.snapshot();
        assert_eq!(snap.frames_total, 100);
        assert_eq!(snap.deadline_misses, 10);
        assert!(snap.frame_time_p50_ms >= 1.0 && snap.frame_time_p50_ms <= 2.1);
        assert!(snap.frame_time_p99_ms >= snap.frame_time_p50_ms);
        assert_eq!(snap.quality_histogram.counts()[9], 100);
        assert_eq!(snap.reuse_histogram.counts()[9], 100);
    }
}
