//! Deadline-aware graceful degradation: the five-level ladder and the
//! per-session quality account that walks it, charges the deadline and
//! scores QoE.

use volut_core::device::DeviceProfile;

use crate::chunk::Chunk;
use crate::client::SrComputeModel;
use crate::qoe::{QoeAccumulator, QoeParams, QoeSummary};

/// Graceful-degradation level, cheapest-quality-loss first. Each level
/// drops or shrinks pipeline stages; [`DegradationLevel::quality_factor`]
/// is the QoE-side price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// The full pipeline at the requested ratio.
    Full,
    /// Skip the refinement stage (LUT lookup / NN inference).
    SkipRefinement,
    /// Halve the upsampling factor (and still skip refinement).
    ReducedRatio,
    /// Halved ratio without refinement, priced lower than `ReducedRatio`.
    /// The server runs it exactly like `ReducedRatio` (the same
    /// refinement-free pipeline at the same ratio, colorization included);
    /// only [`Self::adjusted_model`] drops colorization, and
    /// [`Self::quality_factor`] prices it at 0.65 against 0.85.
    InterpolateOnly,
    /// Pass the received points through untouched (no SR compute at all).
    Passthrough,
}

impl DegradationLevel {
    /// All levels, `Full` first — index order matches
    /// [`QualityAccount::residency`].
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

    /// The compute model planned at this level: dropped stages are zeroed.
    /// It matches the pipeline the server runs at every level but
    /// `InterpolateOnly`: there it zeroes colorization, which the server
    /// still runs (as at `ReducedRatio`), so that level's planned time is
    /// short by the colorization cost.
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

/// Hysteresis parameters of a [`QualityAccount`]'s degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
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
            degrade_after: 1,
            recover_after: 3,
            recover_margin: 0.7,
        }
    }
}

/// What [`QualityAccount::plan`] chose for the next chunk/frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The level to serve: the ladder's choice, lowered to the floor.
    pub level: DegradationLevel,
    /// The ladder's own choice before the floor.
    pub unfloored: DegradationLevel,
    /// Predicted compute seconds of `level`.
    pub predicted_s: f64,
}

/// One session's quality account: the hysteresis ladder (full →
/// skip-refinement → reduced-ratio → interpolate-only → passthrough, see
/// the [module docs](super) and [`DegradationConfig`]), the residency of
/// served levels, the deadline-miss count and the running QoE (Eq. 10).
/// The streaming simulator and the server plan, charge and score every
/// chunk/frame through it.
#[derive(Debug, Clone)]
pub struct QualityAccount {
    /// `None` pins the session to [`DegradationLevel::Full`].
    config: Option<DegradationConfig>,
    level: DegradationLevel,
    over_streak: u32,
    headroom_streak: u32,
    residency: [u64; 5],
    misses: u64,
    qoe: QoeAccumulator,
}

impl QualityAccount {
    /// An account starting at [`DegradationLevel::Full`]; see
    /// [`QoeAccumulator::new`] for `opening_quality`.
    pub fn new(
        config: Option<DegradationConfig>,
        qoe: QoeParams,
        opening_quality: Option<f64>,
    ) -> Self {
        Self {
            config,
            level: DegradationLevel::Full,
            over_streak: 0,
            headroom_streak: 0,
            residency: [0; 5],
            misses: 0,
            qoe: QoeAccumulator::new(qoe, opening_quality),
        }
    }

    /// Chooses the level for the next chunk/frame. `predict` maps a level
    /// to its predicted compute time (typically through
    /// [`DegradationLevel::chunk_time_on_device`] with the live model).
    /// Degrades after `degrade_after` consecutive over-budget predictions
    /// (stepping down as far as needed to fit); recovers one level after
    /// `recover_after` consecutive chunks in which the higher level fits
    /// within `recover_margin` of the budget. A `floor` below the ladder's
    /// choice (the server's overload escalation) is served instead and
    /// resets both streaks: it is an external decision, not evidence about
    /// this session's own budget fit. Without a ladder every plan is
    /// `Full`, whatever the floor.
    pub fn plan(
        &mut self,
        predict: impl Fn(DegradationLevel) -> f64,
        budget_s: f64,
        floor: DegradationLevel,
    ) -> Plan {
        let Some(config) = self.config else {
            let level = DegradationLevel::Full;
            return Plan {
                level,
                unfloored: level,
                predicted_s: predict(level),
            };
        };
        // Recovery probe: would one level up fit, with margin?
        if self.level != DegradationLevel::Full {
            let up = DegradationLevel::ALL[self.level.index() - 1];
            if predict(up) <= config.recover_margin * budget_s {
                self.headroom_streak += 1;
                if self.headroom_streak >= config.recover_after {
                    self.level = up;
                    self.headroom_streak = 0;
                }
            } else {
                self.headroom_streak = 0;
            }
        }
        // Degradation: step down once the over-budget streak is long enough.
        let mut predicted_s = predict(self.level);
        if predicted_s > budget_s {
            self.over_streak += 1;
            if self.over_streak >= config.degrade_after {
                while predicted_s > budget_s && self.level != DegradationLevel::Passthrough {
                    self.level = DegradationLevel::ALL[self.level.index() + 1];
                    predicted_s = predict(self.level);
                }
                self.over_streak = 0;
                self.headroom_streak = 0;
            }
        } else {
            self.over_streak = 0;
        }
        let unfloored = self.level;
        if floor > self.level {
            self.level = floor;
            self.over_streak = 0;
            self.headroom_streak = 0;
            predicted_s = predict(floor);
        }
        Plan {
            level: self.level,
            unfloored,
            predicted_s,
        }
    }

    /// Charges one served chunk/frame: counts it at `level`, counts a
    /// deadline miss when `spent_s` overran `budget_s`, and scores it at
    /// `base_quality` priced by the level's
    /// [`DegradationLevel::quality_factor`]. Returns whether it missed.
    pub fn record(
        &mut self,
        level: DegradationLevel,
        base_quality: f64,
        spent_s: f64,
        budget_s: f64,
        stall_s: f64,
        duration_s: f64,
    ) -> bool {
        self.residency[level.index()] += 1;
        let missed = spent_s > budget_s;
        self.misses += u64::from(missed);
        self.qoe
            .push(level.quality_factor() * base_quality, stall_s, duration_s);
        missed
    }

    /// The level the last plan chose (`Full` before the first).
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Served chunks/frames at each level, `Full` first.
    pub fn residency(&self) -> [u64; 5] {
        self.residency
    }

    /// Deadline misses counted by [`Self::record`].
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// The quality the last chunk was scored at (the opening quality
    /// before the first).
    pub fn previous_quality(&self) -> Option<f64> {
        self.qoe.previous_quality()
    }

    /// The session's QoE so far.
    pub fn qoe(&self) -> QoeSummary {
        self.qoe.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(degrade_after: u32, recover_after: u32) -> QualityAccount {
        let config = DegradationConfig {
            degrade_after,
            recover_after,
            recover_margin: 0.7,
        };
        QualityAccount::new(Some(config), QoeParams::default(), None)
    }

    /// Cost table: Full takes 2.0 s, each level down halves it.
    fn cost(l: DegradationLevel) -> f64 {
        2.0 / (1u64 << l.index()) as f64
    }

    #[test]
    fn degradation_controller_hysteresis() {
        let mut acct = ladder(2, 2);
        let mut serve = |budget_s: f64| {
            let plan = acct.plan(cost, budget_s, DegradationLevel::Full);
            assert_eq!(plan.predicted_s, cost(plan.level));
            acct.record(plan.level, 1.0, plan.predicted_s, budget_s, 0.0, 1.0);
            plan.level
        };
        // Budget 1.0: Full (2.0) is over budget, but hysteresis holds the
        // first chunk at Full.
        assert_eq!(serve(1.0), DegradationLevel::Full);
        // Second over-budget chunk: degrade to the first level that fits
        // (SkipRefinement at exactly 1.0 fits).
        assert_eq!(serve(1.0), DegradationLevel::SkipRefinement);
        // Recovery: budget rises to 4.0; Full (2.0) fits within 0.7*4.0,
        // but only after two consecutive headroom chunks.
        assert_eq!(serve(4.0), DegradationLevel::SkipRefinement);
        assert_eq!(serve(4.0), DegradationLevel::Full);
        assert_eq!(acct.residency(), [2, 2, 0, 0, 0]);
        // Only the first chunk (Full at 2.0 s against 1.0 s) missed.
        assert_eq!(acct.deadline_misses(), 1);
        let qoe = acct.qoe();
        assert!((qoe.mean_quality - (2.0 + 2.0 * 0.96) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn residency_counts_recorded_frames_only() {
        let mut acct = ladder(1, 3);
        // Plans advance the ladder on frameless ticks; only records count.
        for _ in 0..3 {
            acct.plan(cost, 0.3, DegradationLevel::Full);
        }
        assert_eq!(acct.residency(), [0; 5]);
        let plan = acct.plan(cost, 0.3, DegradationLevel::Full);
        assert_eq!(plan.level, DegradationLevel::InterpolateOnly);
        assert!(!acct.record(plan.level, 1.0, plan.predicted_s, 0.3, 0.0, 1.0));
        assert_eq!(acct.residency(), [0, 0, 0, 1, 0]);
    }

    #[test]
    fn the_floor_overrides_the_ladder_but_not_a_pinned_session() {
        let mut acct = ladder(1, 1);
        let plan = acct.plan(cost, 4.0, DegradationLevel::ReducedRatio);
        assert_eq!(plan.unfloored, DegradationLevel::Full);
        assert_eq!(plan.level, DegradationLevel::ReducedRatio);
        assert_eq!(plan.predicted_s, cost(DegradationLevel::ReducedRatio));
        // A floor above the ladder's choice changes nothing.
        let plan = acct.plan(cost, 0.3, DegradationLevel::SkipRefinement);
        assert_eq!(plan.level, DegradationLevel::InterpolateOnly);
        assert_eq!(plan.unfloored, plan.level);
        let mut pinned = QualityAccount::new(None, QoeParams::default(), None);
        let plan = pinned.plan(cost, 1e-9, DegradationLevel::Passthrough);
        assert_eq!(plan.level, DegradationLevel::Full);
        assert_eq!(plan.unfloored, DegradationLevel::Full);
        assert_eq!(plan.predicted_s, 2.0);
        assert!(pinned.record(plan.level, 1.0, plan.predicted_s, 1e-9, 0.0, 1.0));
        assert_eq!(pinned.deadline_misses(), 1);
        assert_eq!(pinned.residency(), [1, 0, 0, 0, 0]);
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
