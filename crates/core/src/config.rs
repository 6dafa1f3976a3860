//! Configuration of the two-stage super-resolution pipeline.

use crate::error::Error;
use crate::Result;
use volut_pointcloud::kernels::MERGE_MAX_K;

/// Configuration shared by the interpolation and refinement stages.
///
/// The defaults mirror the paper's deployed configuration: `k = 4` neighbors
/// with dilation `d = 2` (receptive field `k×d = 8` candidates), a refinement
/// receptive field of `n = 4` points and `b = 128` quantization bins.
///
/// # Example
///
/// ```
/// use volut_core::config::SrConfig;
/// let cfg = SrConfig::default();
/// assert_eq!(cfg.k, 4);
/// assert_eq!(cfg.dilation, 2);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrConfig {
    /// Number of neighbors `k` used when generating each interpolated point.
    pub k: usize,
    /// Dilation factor `d`; the dilated neighborhood holds `k × d` candidates (Eq. 1).
    pub dilation: usize,
    /// Receptive-field size `n` of the refinement stage (center + `n-1` neighbors).
    pub receptive_field: usize,
    /// Number of quantization bins `b` per encoded value (Eq. 4).
    ///
    /// The default, the paper's 128, sets the networks' feature
    /// quantization. A table holds only the keys the encoder can emit
    /// ([`crate::encoding::PositionEncoder::reachable_keys`], `1/b` of the
    /// `b^n` key space): 2²¹ entries (12.3 MiB) at 128 bins, inside
    /// [`crate::lut::DenseLut::DEFAULT_BYTE_BUDGET`], and 2¹⁵ (196 KiB) at
    /// 32. Tables are trained at 32 bins or fewer, where they hit: one
    /// network of [`crate::nn::train::Recipe::paper`] at 4 000 points hits
    /// 31.5 % of a held-out frame's probes distilled at 128 bins and 87.0 %
    /// at 32 (the `train_and_build_lut` example), and its 32-bin table gains
    /// 0.14–0.20 dB PSNR over interpolation alone on Fig 7's four videos.
    /// On frames it was not trained on, the 16-bin table of
    /// [`crate::nn::train::Recipe::test`] hits 77 % and 76 % of its probes
    /// and gains +0.28 and +0.22 dB PSNR at ×2 (its network: +0.56 and
    /// +0.48 dB; `tests/integration_sr_pipeline.rs`).
    pub bins: usize,
    /// Seed for the deterministic pseudo-random choices inside interpolation.
    pub seed: u64,
}

impl Default for SrConfig {
    fn default() -> Self {
        Self {
            k: 4,
            dilation: 2,
            receptive_field: 4,
            bins: 128,
            seed: 0,
        }
    }
}

impl SrConfig {
    /// The paper's "K4d1" baseline: vanilla kNN interpolation without dilation.
    pub fn k4d1() -> Self {
        Self {
            dilation: 1,
            ..Self::default()
        }
    }

    /// The paper's "K4d2" configuration: dilation 2.
    pub fn k4d2() -> Self {
        Self::default()
    }

    /// Size of the dilated candidate neighborhood (`k × d`).
    pub fn dilated_neighborhood(&self) -> usize {
        self.k * self.dilation
    }

    /// Checks that every field is inside its documented domain.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] describing the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::InvalidConfig("k must be at least 1".into()));
        }
        // Eq. 2 ranks a generated point's row in a fixed-size array.
        if self.k > MERGE_MAX_K {
            return Err(Error::InvalidConfig(format!(
                "k must be at most {MERGE_MAX_K}"
            )));
        }
        if self.dilation == 0 {
            return Err(Error::InvalidConfig("dilation must be at least 1".into()));
        }
        if self.receptive_field < 2 {
            return Err(Error::InvalidConfig(
                "receptive_field must be at least 2 (center plus one neighbor)".into(),
            ));
        }
        if self.bins < 2 {
            return Err(Error::InvalidConfig("bins must be at least 2".into()));
        }
        // The encoder and the LUT file header store the count as a `u16`.
        if self.bins > usize::from(u16::MAX) {
            return Err(Error::InvalidConfig("bins must fit in 16 bits".into()));
        }
        Ok(())
    }

    /// Validates an upsampling ratio for this configuration.
    ///
    /// # Errors
    /// Returns [`Error::InvalidRatio`] when `ratio` is below 1 or not finite.
    pub fn validate_ratio(&self, ratio: f64) -> Result<()> {
        if !ratio.is_finite() || ratio < 1.0 {
            return Err(Error::InvalidRatio(ratio));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_configuration() {
        let c = SrConfig::default();
        assert_eq!(c.k, 4);
        assert_eq!(c.dilation, 2);
        assert_eq!(c.receptive_field, 4);
        assert_eq!(c.bins, 128);
        assert_eq!(c.dilated_neighborhood(), 8);
    }

    #[test]
    fn named_presets() {
        assert_eq!(SrConfig::k4d1().dilation, 1);
        assert_eq!(SrConfig::k4d2().dilation, 2);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(SrConfig {
            k: 0,
            ..SrConfig::default()
        }
        .validate()
        .is_err());
        for (k, ok) in [(MERGE_MAX_K, true), (MERGE_MAX_K + 1, false), (40, false)] {
            let result = SrConfig {
                k,
                ..SrConfig::default()
            }
            .validate();
            assert_eq!(result.is_ok(), ok, "k {k}");
        }
        assert!(SrConfig {
            dilation: 0,
            ..SrConfig::default()
        }
        .validate()
        .is_err());
        assert!(SrConfig {
            receptive_field: 1,
            ..SrConfig::default()
        }
        .validate()
        .is_err());
        assert!(SrConfig {
            bins: 1,
            ..SrConfig::default()
        }
        .validate()
        .is_err());
        for (bins, ok) in [(1 << 17, false), (65_536, false), (65_535, true)] {
            let result = SrConfig {
                bins,
                ..SrConfig::default()
            }
            .validate();
            assert_eq!(result.is_ok(), ok, "bins {bins}");
        }
        assert!(SrConfig::default().validate().is_ok());
    }

    #[test]
    fn ratio_validation() {
        let c = SrConfig::default();
        assert!(c.validate_ratio(1.0).is_ok());
        assert!(c.validate_ratio(2.7).is_ok());
        assert!(c.validate_ratio(0.9).is_err());
        assert!(c.validate_ratio(f64::NAN).is_err());
        assert!(c.validate_ratio(f64::INFINITY).is_err());
    }
}
