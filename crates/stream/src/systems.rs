//! End-to-end system variants compared in the evaluation (§7.4, §7.5).
//!
//! | Variant | ABR | SR back-end | Notes |
//! |---|---|---|---|
//! | H1 `VolutContinuous` | continuous MPC | LUT | the full VoLUT system |
//! | H2 `VolutDiscrete` | discrete MPC | LUT | ablation: discrete ladder |
//! | H3 `DiscreteYuzuSr` | discrete MPC | Yuzu NN | ablation: slow SR |
//! | `YuzuSr` | discrete MPC | Yuzu NN | the Yuzu baseline (cache/delta coding disabled) |
//! | `Vivo` | rate-based | none | viewport-adaptive streaming without SR |
//! | `Raw` | rate-based | none | full-density streaming, no adaptation beyond rate |

use crate::abr::{AbrController, ContinuousMpcAbr, DiscreteMpcAbr, RateBasedAbr};
use crate::client::SrComputeModel;
use crate::qoe::QoeParams;

/// The system variants reproduced from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// H1: VoLUT with continuous ABR and LUT-based SR.
    VolutContinuous,
    /// H2: VoLUT with a discrete ABR ladder and LUT-based SR.
    VolutDiscrete,
    /// H3: discrete ABR with Yuzu's neural SR.
    DiscreteYuzuSr,
    /// Yuzu-SR baseline (discrete ABR + neural SR + per-ratio model downloads).
    YuzuSr,
    /// ViVo: viewport-adaptive streaming, no SR.
    Vivo,
    /// Raw point-cloud streaming at the highest sustainable density, no SR.
    Raw,
}

impl SystemKind {
    /// All variants, in presentation order.
    pub fn all() -> Vec<SystemKind> {
        vec![
            SystemKind::VolutContinuous,
            SystemKind::VolutDiscrete,
            SystemKind::DiscreteYuzuSr,
            SystemKind::YuzuSr,
            SystemKind::Vivo,
            SystemKind::Raw,
        ]
    }

    /// The three ablation variants of Table 2.
    pub fn ablation_variants() -> Vec<SystemKind> {
        vec![
            SystemKind::VolutContinuous,
            SystemKind::VolutDiscrete,
            SystemKind::DiscreteYuzuSr,
        ]
    }

    /// Human-readable label used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::VolutContinuous => "VoLUT (H1, continuous ABR)",
            SystemKind::VolutDiscrete => "VoLUT (H2, discrete ABR)",
            SystemKind::DiscreteYuzuSr => "H3 (discrete ABR + Yuzu SR)",
            SystemKind::YuzuSr => "Yuzu-SR",
            SystemKind::Vivo => "ViVo",
            SystemKind::Raw => "Raw streaming",
        }
    }
}

/// Everything the simulator needs to emulate one system variant.
pub struct SystemSpec {
    /// Which variant this is.
    pub kind: SystemKind,
    /// The ABR controller instance.
    pub abr: Box<dyn AbrController>,
    /// The client compute model.
    pub compute: SrComputeModel,
    /// Quality discount for SR-generated points in `[0, 1]` (0 disables SR).
    pub sr_quality_factor: f64,
    /// Maximum SR ratio the client applies.
    pub max_sr_ratio: f64,
    /// Whether refinement scales like NN inference on the device profile.
    pub nn_inference: bool,
    /// One-time extra download at session start (SR models, metadata), bytes.
    pub startup_download_bytes: u64,
    /// Whether the system only fetches the predicted viewport (ViVo).
    pub viewport_adaptive: bool,
}

impl std::fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSpec")
            .field("kind", &self.kind)
            .field("abr", &self.abr.name())
            .field("compute", &self.compute.name)
            .field("sr_quality_factor", &self.sr_quality_factor)
            .finish()
    }
}

impl SystemSpec {
    /// Builds the specification for a system variant under the given QoE
    /// weights.
    pub fn build(kind: SystemKind, qoe: QoeParams) -> Self {
        // Approximate size of Yuzu's per-ratio SR models shipped to the
        // client before playback (the paper counts them in data usage).
        const YUZU_MODEL_BYTES: u64 = 60_000_000;
        match kind {
            SystemKind::VolutContinuous => Self {
                kind,
                abr: Box::new(ContinuousMpcAbr::new(qoe, 5, 96)),
                compute: SrComputeModel::volut_lut(),
                sr_quality_factor: 0.95,
                max_sr_ratio: 8.0,
                nn_inference: false,
                startup_download_bytes: 2_000_000, // the distilled LUT subset + metadata
                viewport_adaptive: false,
            },
            SystemKind::VolutDiscrete => Self {
                kind,
                // The discrete ablation uses a Yuzu-style ladder: the point of
                // H2 is precisely that coarse rungs waste bandwidth or quality.
                abr: Box::new(DiscreteMpcAbr::new(qoe, 5, vec![0.25, 1.0 / 3.0, 0.5, 1.0])),
                compute: SrComputeModel::volut_lut(),
                sr_quality_factor: 0.95,
                max_sr_ratio: 8.0,
                nn_inference: false,
                startup_download_bytes: 2_000_000,
                viewport_adaptive: false,
            },
            SystemKind::DiscreteYuzuSr => Self {
                kind,
                abr: Box::new(DiscreteMpcAbr::yuzu_ladder(qoe)),
                compute: SrComputeModel::yuzu_nn(),
                sr_quality_factor: 0.85,
                max_sr_ratio: 4.0,
                nn_inference: true,
                startup_download_bytes: YUZU_MODEL_BYTES,
                viewport_adaptive: false,
            },
            SystemKind::YuzuSr => Self {
                kind,
                abr: Box::new(DiscreteMpcAbr::yuzu_ladder(qoe)),
                compute: SrComputeModel::yuzu_nn(),
                sr_quality_factor: 0.85,
                max_sr_ratio: 4.0,
                nn_inference: true,
                startup_download_bytes: YUZU_MODEL_BYTES,
                viewport_adaptive: false,
            },
            SystemKind::Vivo => Self {
                kind,
                abr: Box::new(RateBasedAbr::default()),
                compute: SrComputeModel::none(),
                sr_quality_factor: 0.0,
                max_sr_ratio: 1.0,
                nn_inference: false,
                startup_download_bytes: 500_000,
                viewport_adaptive: true,
            },
            SystemKind::Raw => Self {
                kind,
                abr: Box::new(RateBasedAbr::default()),
                compute: SrComputeModel::none(),
                sr_quality_factor: 0.0,
                max_sr_ratio: 1.0,
                nn_inference: false,
                startup_download_bytes: 0,
                viewport_adaptive: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_build() {
        for kind in SystemKind::all() {
            let spec = SystemSpec::build(kind, QoeParams::default());
            assert_eq!(spec.kind, kind);
            assert!(!spec.compute.name.is_empty());
            assert!(!kind.label().is_empty());
        }
        assert_eq!(SystemKind::all().len(), 6);
        assert_eq!(SystemKind::ablation_variants().len(), 3);
    }

    #[test]
    fn volut_uses_continuous_abr_and_lut() {
        let spec = SystemSpec::build(SystemKind::VolutContinuous, QoeParams::default());
        assert_eq!(spec.abr.name(), "continuous-mpc");
        assert_eq!(spec.compute.name, "volut-lut");
        assert!(!spec.nn_inference);
        assert!(spec.max_sr_ratio > 4.0);
    }

    #[test]
    fn yuzu_pays_model_download_and_nn_inference() {
        let spec = SystemSpec::build(SystemKind::YuzuSr, QoeParams::default());
        assert!(spec.startup_download_bytes > 10_000_000);
        assert!(spec.nn_inference);
        assert_eq!(spec.abr.name(), "discrete-mpc");
    }

    #[test]
    fn vivo_is_viewport_adaptive_without_sr() {
        let spec = SystemSpec::build(SystemKind::Vivo, QoeParams::default());
        assert!(spec.viewport_adaptive);
        assert_eq!(spec.sr_quality_factor, 0.0);
        assert_eq!(spec.max_sr_ratio, 1.0);
    }
}
