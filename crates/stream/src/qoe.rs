//! The QoE objective (Eq. 10), borrowed from Yuzu's SR-targeting
//! formulation: `QoE = Σ α·Q(r) − β·V(r_i, r_{i−1}) − γ·S(r_i)`.
//!
//! * `Q(r)` — visual quality, measured as the post-SR point density the user
//!   actually views, normalized by the full-density point count;
//! * `V` — quality-variation penalty between consecutive chunks, weighted
//!   more heavily for quality drops (which viewers notice more);
//! * `S` — stall (rebuffering) time in seconds.

/// Weights of the QoE objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeParams {
    /// Weight of the quality term.
    pub alpha: f64,
    /// Weight of the quality-variation penalty.
    pub beta: f64,
    /// Extra multiplier applied to downward quality switches.
    pub drop_penalty: f64,
    /// Weight of the stall penalty (per second of stall).
    pub gamma: f64,
}

impl Default for QoeParams {
    fn default() -> Self {
        // α = 1 per chunk-second of full quality; stalls are heavily
        // penalized (a 1-second stall erases ~4 chunk-seconds of quality),
        // matching the qualitative weighting of Yuzu's user study.
        Self {
            alpha: 1.0,
            beta: 1.0,
            drop_penalty: 1.5,
            gamma: 4.0,
        }
    }
}

/// Final QoE summary of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeSummary {
    /// Raw QoE score (Eq. 10).
    pub score: f64,
    /// Maximum achievable score for the same session (full quality, no
    /// stalls, no switches) — used for normalization.
    pub ideal_score: f64,
    /// `score / ideal_score × 100`, the "normalized QoE" of Figures 12/14.
    pub normalized: f64,
    /// Mean post-SR quality.
    pub mean_quality: f64,
    /// Total stall seconds.
    pub total_stall_s: f64,
    /// Mean absolute quality change between consecutive chunks.
    pub mean_variation: f64,
}

/// Folds a session's chunks, in push order, into its Eq. 10 score.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeAccumulator {
    params: QoeParams,
    /// Quality the next chunk's variation term is measured against.
    previous_quality: Option<f64>,
    chunks: u64,
    score: f64,
    ideal: f64,
    quality_sum: f64,
    stall_sum: f64,
    variation_sum: f64,
}

impl QoeAccumulator {
    /// An empty fold under `params`. The first chunk's variation term is
    /// measured against `opening_quality`; `None` measures it against the
    /// chunk itself (no opening switch).
    pub fn new(params: QoeParams, opening_quality: Option<f64>) -> Self {
        Self {
            params,
            previous_quality: opening_quality,
            chunks: 0,
            score: 0.0,
            ideal: 0.0,
            quality_sum: 0.0,
            stall_sum: 0.0,
            variation_sum: 0.0,
        }
    }

    /// Scores one chunk of `duration_s` seconds shown at `quality` (post-SR,
    /// clamped to `[0, 1]`) after `stall_s` seconds of stall.
    pub fn push(&mut self, quality: f64, stall_s: f64, duration_s: f64) {
        let params = &self.params;
        let prev = self.previous_quality.unwrap_or(quality).clamp(0.0, 1.0);
        self.previous_quality = Some(quality);
        let quality = quality.clamp(0.0, 1.0);
        let variation = (quality - prev).abs();
        let drop_extra = if quality < prev {
            params.drop_penalty
        } else {
            1.0
        };
        self.score += params.alpha * quality * duration_s
            - params.beta * variation * drop_extra
            - params.gamma * stall_s;
        self.ideal += params.alpha * duration_s;
        self.quality_sum += quality;
        self.stall_sum += stall_s;
        self.variation_sum += variation;
        self.chunks += 1;
    }

    /// The (unclamped) quality of the last chunk pushed, or the opening
    /// quality before the first.
    pub fn previous_quality(&self) -> Option<f64> {
        self.previous_quality
    }

    /// Number of recorded chunks.
    pub fn len(&self) -> u64 {
        self.chunks
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks == 0
    }

    /// The session summary so far.
    pub fn summary(&self) -> QoeSummary {
        if self.chunks == 0 {
            return QoeSummary {
                score: 0.0,
                ideal_score: 0.0,
                normalized: 0.0,
                mean_quality: 0.0,
                total_stall_s: 0.0,
                mean_variation: 0.0,
            };
        }
        let n = self.chunks as f64;
        let normalized = if self.ideal > 0.0 {
            (self.score / self.ideal * 100.0).max(0.0)
        } else {
            0.0
        };
        QoeSummary {
            score: self.score,
            ideal_score: self.ideal,
            normalized,
            mean_quality: self.quality_sum / n,
            total_stall_s: self.stall_sum,
            mean_variation: self.variation_sum / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng, StdRng};

    /// One chunk as the stored-vector accumulator kept it.
    #[derive(Debug, Clone, Copy)]
    struct ChunkQoe {
        quality: f64,
        previous_quality: f64,
        stall_s: f64,
        duration_s: f64,
    }

    /// The stored-vector summary the fold replaced: the oracle.
    fn reference_summary(chunks: &[ChunkQoe], params: &QoeParams) -> QoeSummary {
        if chunks.is_empty() {
            return QoeSummary {
                score: 0.0,
                ideal_score: 0.0,
                normalized: 0.0,
                mean_quality: 0.0,
                total_stall_s: 0.0,
                mean_variation: 0.0,
            };
        }
        let mut score = 0.0;
        let mut ideal = 0.0;
        let mut quality_sum = 0.0;
        let mut stall_sum = 0.0;
        let mut variation_sum = 0.0;
        for c in chunks {
            let quality = c.quality.clamp(0.0, 1.0);
            let prev = c.previous_quality.clamp(0.0, 1.0);
            let variation = (quality - prev).abs();
            let drop_extra = if quality < prev {
                params.drop_penalty
            } else {
                1.0
            };
            score += params.alpha * quality * c.duration_s
                - params.beta * variation * drop_extra
                - params.gamma * c.stall_s;
            ideal += params.alpha * c.duration_s;
            quality_sum += quality;
            stall_sum += c.stall_s;
            variation_sum += variation;
        }
        let n = chunks.len() as f64;
        let normalized = if ideal > 0.0 {
            (score / ideal * 100.0).max(0.0)
        } else {
            0.0
        };
        QoeSummary {
            score,
            ideal_score: ideal,
            normalized,
            mean_quality: quality_sum / n,
            total_stall_s: stall_sum,
            mean_variation: variation_sum / n,
        }
    }

    fn bits(s: &QoeSummary) -> [u64; 6] {
        [
            s.score.to_bits(),
            s.ideal_score.to_bits(),
            s.normalized.to_bits(),
            s.mean_quality.to_bits(),
            s.total_stall_s.to_bits(),
            s.mean_variation.to_bits(),
        ]
    }

    /// Extra seed rotated by CI (`CHAOS_SEED=<run id>`); 0 when unset.
    fn chaos_seed() -> u64 {
        std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn fold_is_bit_identical_to_the_stored_vector_reference() {
        let chaos = chaos_seed();
        for case in 0..400u64 {
            let seed = case ^ chaos.rotate_left(17);
            let mut rng = StdRng::seed_from_u64(seed);
            let params = QoeParams {
                alpha: rng.random_range(0.1..3.0),
                beta: rng.random_range(0.0..3.0),
                drop_penalty: rng.random_range(1.0..4.0),
                gamma: rng.random_range(0.0..8.0),
            };
            // Sessions of 0 and 1 chunks come up every few cases.
            let len = match case % 4 {
                0 => (case / 4 % 2) as usize,
                _ => rng.random_range(2..48usize),
            };
            // Both opening conventions: the simulator's 0.0 (or any value,
            // in or out of [0, 1]) and the server's "against itself".
            let opening = match case % 3 {
                0 => None,
                1 => Some(0.0),
                _ => Some(rng.random_range(-0.5..1.5)),
            };
            let mut fold = QoeAccumulator::new(params, opening);
            let mut chunks = Vec::with_capacity(len);
            let mut previous = opening;
            for _ in 0..len {
                // Qualities outside [0, 1], sudden drops and stalls.
                let quality = match rng.random_range(0..6u32) {
                    0 => rng.random_range(-1.0..0.0),
                    1 => rng.random_range(1.0..2.0),
                    2 => 0.0,
                    _ => rng.random_range(0.0..1.0),
                };
                let stall_s = if rng.random::<bool>() {
                    0.0
                } else {
                    rng.random_range(0.0..3.0)
                };
                let duration_s = if case % 5 == 0 {
                    1.0 / 30.0
                } else {
                    rng.random_range(0.0..2.0)
                };
                chunks.push(ChunkQoe {
                    quality,
                    previous_quality: previous.unwrap_or(quality),
                    stall_s,
                    duration_s,
                });
                previous = Some(quality);
                fold.push(quality, stall_s, duration_s);
            }
            assert_eq!(fold.len(), len as u64);
            assert_eq!(fold.previous_quality(), previous);
            assert_eq!(
                bits(&fold.summary()),
                bits(&reference_summary(&chunks, &params)),
                "case {case} (CHAOS_SEED {chaos}): {chunks:?}"
            );
        }
    }

    fn session(opening: f64, qualities: &[f64], stall_s: f64) -> QoeSummary {
        let mut acc = QoeAccumulator::new(QoeParams::default(), Some(opening));
        for &q in qualities {
            acc.push(q, stall_s, 1.0);
        }
        acc.summary()
    }

    #[test]
    fn perfect_session_is_normalized_100() {
        let s = session(1.0, &[1.0; 10], 0.0);
        assert!((s.normalized - 100.0).abs() < 1e-9);
        assert_eq!(s.total_stall_s, 0.0);
        assert_eq!(s.mean_quality, 1.0);
    }

    #[test]
    fn stalls_reduce_qoe() {
        let no_stall = session(0.8, &[0.8; 10], 0.0);
        let stall = session(0.8, &[0.8; 10], 0.2);
        assert!(stall.score < no_stall.score);
        assert!((stall.total_stall_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quality_drops_penalized_more_than_rises() {
        let rise_score = session(0.5, &[1.0], 0.0).score;
        let drop_score = session(1.0, &[0.5], 0.0).score;
        // Same |Δq| but dropping also has lower quality and a drop multiplier.
        assert!(drop_score < rise_score);
    }

    #[test]
    fn higher_quality_higher_qoe() {
        let low = session(0.3, &[0.3; 5], 0.0);
        let high = session(0.9, &[0.9; 5], 0.0);
        assert!(high.normalized > low.normalized);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = QoeAccumulator::new(QoeParams::default(), None);
        assert!(acc.is_empty());
        let s = acc.summary();
        assert_eq!(s.score, 0.0);
        assert_eq!(s.normalized, 0.0);
    }
}
