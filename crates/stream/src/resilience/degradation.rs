//! Deadline-aware graceful degradation: the five-level ladder and the
//! hysteresis controller that walks it.

use serde::{Deserialize, Serialize};
use volut_core::device::DeviceProfile;

use super::receiver::RobustnessStats;
use crate::chunk::Chunk;
use crate::client::SrComputeModel;

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
/// the [module docs](super) and [`DegradationConfig`]).
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
