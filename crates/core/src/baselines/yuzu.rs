//! Yuzu-style baseline: neural point-cloud SR with discrete upsampling
//! ratios (Zhang et al.).
//!
//! Yuzu is the state-of-the-art SR-based volumetric streaming system the
//! paper compares against. Two properties matter for the evaluation and are
//! reproduced here:
//! 1. SR is performed by a heavyweight neural network, so per-frame latency
//!    is dominated by inference (even with a frozen, optimized runtime);
//! 2. only a discrete set of upsampling ratios is supported
//!    (`1x2, 2x2, 1x3, 1x4, 4x1, 2x1` in the paper — i.e. effective ratios
//!    {2, 3, 4}), which forces the ABR controller to over- or under-shoot
//!    the network-optimal density.

use super::naive::naive_interpolate;
use crate::config::SrConfig;
use crate::error::Error;
use crate::lut::LookupStats;
use crate::nn::mlp::Mlp;
use crate::pipeline::SrResult;
use crate::refine::{refine_in_place, NnRefiner};
use crate::Result;
use std::time::Instant;
use volut_pointcloud::PointCloud;

/// Bound on each component of Yuzu's predicted offset, in neighborhood
/// radii: it keeps the (possibly untrained) baseline geometrically sane.
const OFFSET_CLAMP: f32 = 0.25;

/// Yuzu-style neural upsampler with discrete ratio support.
pub struct YuzuUpsampler {
    config: SrConfig,
    /// One network per supported ratio (the paper trains per-ratio models),
    /// each run as a clamped [`NnRefiner`].
    refiners: Vec<(u32, NnRefiner)>,
}

impl std::fmt::Debug for YuzuUpsampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("YuzuUpsampler")
            .field("config", &self.config)
            .field("ratios", &self.supported_ratios())
            .finish()
    }
}

impl YuzuUpsampler {
    /// The discrete upsampling ratios Yuzu supports.
    pub const SUPPORTED_RATIOS: [u32; 3] = [2, 3, 4];

    /// Creates a Yuzu baseline with one paper-scale network per ratio.
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid.
    pub fn new(config: SrConfig, seed: u64) -> Result<Self> {
        let input = config.receptive_field * 3;
        let refiners = Self::SUPPORTED_RATIOS
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let network = Mlp::new(&[input, 512, 512, 3], seed.wrapping_add(i as u64));
                let mut refiner = NnRefiner::from_config(&config, network)?;
                refiner.offset_clamp = OFFSET_CLAMP;
                Ok((r, refiner))
            })
            .collect::<Result<_>>()?;
        Ok(Self { config, refiners })
    }

    /// The discrete ratios this model can produce.
    pub fn supported_ratios(&self) -> Vec<u32> {
        self.refiners.iter().map(|(r, _)| *r).collect()
    }

    /// The largest supported ratio not exceeding `requested`, or the
    /// smallest supported ratio when `requested` is below all of them.
    /// This is the quantization step that costs Yuzu bandwidth efficiency
    /// compared to VoLUT's continuous ratios.
    pub fn quantize_ratio(&self, requested: f64) -> u32 {
        let ratios = self.supported_ratios();
        let mut best = ratios[0];
        for &r in &ratios {
            if f64::from(r) <= requested + 1e-9 {
                best = r;
            }
        }
        best
    }

    /// Resident memory of all per-ratio models plus per-batch activations,
    /// mirroring the frozen-model C++ deployment the paper measures.
    pub fn memory_bytes(&self, points_per_frame: usize) -> usize {
        let weights: usize = self
            .refiners
            .iter()
            .map(|(_, r)| r.network().parameter_count() * 4)
            .sum();
        let act: usize = self
            .refiners
            .first()
            .map(|(_, r)| r.network().dims().iter().sum::<usize>() * points_per_frame / 8)
            .unwrap_or(0);
        weights + act * 4
    }

    /// Upsamples `low` by the *discrete* ratio closest to (but not above)
    /// `requested_ratio`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidRatio`] for ratios below 1 and propagates
    /// interpolation failures.
    pub fn upsample(&self, low: &PointCloud, requested_ratio: f64) -> Result<SrResult> {
        if !requested_ratio.is_finite() || requested_ratio < 1.0 {
            return Err(Error::InvalidRatio(requested_ratio));
        }
        let ratio = self.quantize_ratio(requested_ratio);
        let refiner = &self
            .refiners
            .iter()
            .find(|(r, _)| *r == ratio)
            .expect("quantize_ratio returns a supported ratio")
            .1;

        // Yuzu's generator: interpolation to the discrete ratio followed by a
        // single heavyweight, clamped network pass per generated point.
        let interp = naive_interpolate(low, &self.config, f64::from(ratio))?;
        let mut timings = interp.timings;

        let t0 = Instant::now();
        let original_len = interp.original_len;
        let mut cloud = interp.cloud;
        refine_in_place(
            refiner,
            &mut cloud,
            original_len,
            &interp.neighborhoods,
            low.positions(),
            &mut Vec::new(),
        );
        timings.refinement = t0.elapsed();

        Ok(SrResult {
            cloud,
            input_points: low.len(),
            timings,
            lookup_stats: LookupStats::default(),
            refiner_name: "yuzu-sr".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::{metrics, sampling, synthetic};

    /// FNV-1a over a byte stream.
    fn checksum(bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn output_is_pinned() {
        // Point count, geometry digest and a checksum of the refined tail's
        // position bits at ratios 2 and 3 (two different networks), recorded
        // when the clamped refinement had its own batch loop.
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 7).unwrap();
        let cases = [
            (
                synthetic::humanoid(400, 0.4, 3),
                2.0,
                [800, 4_882_232_550_742_017_259, 16_279_798_385_371_347_624],
            ),
            (
                synthetic::humanoid(400, 0.4, 3),
                3.0,
                [1_200, 1_804_899_032_337_384_229, 2_598_668_992_991_980_719],
            ),
            (
                synthetic::torus(300, 1.0, 0.3, 5),
                2.0,
                [600, 5_557_944_184_425_470_836, 15_832_214_753_376_404_176],
            ),
            (
                synthetic::torus(300, 1.0, 0.3, 5),
                3.0,
                [900, 3_304_840_507_154_721_906, 7_682_827_173_765_276_625],
            ),
        ];
        for (low, ratio, want) in cases {
            let out = yuzu.upsample(&low, ratio).unwrap();
            let tail = &out.cloud.positions()[low.len()..];
            let got = [
                out.cloud.len() as u64,
                out.cloud.geometry_digest(),
                checksum(
                    tail.iter()
                        .flat_map(|p| [p.x, p.y, p.z])
                        .flat_map(|c| c.to_bits().to_le_bytes()),
                ),
            ];
            assert_eq!(got, want, "ratio {ratio}");
        }
    }

    #[test]
    fn ratio_quantization() {
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 1).unwrap();
        assert_eq!(yuzu.quantize_ratio(1.2), 2);
        assert_eq!(yuzu.quantize_ratio(2.0), 2);
        assert_eq!(yuzu.quantize_ratio(2.9), 2);
        assert_eq!(yuzu.quantize_ratio(3.5), 3);
        assert_eq!(yuzu.quantize_ratio(7.0), 4);
        assert_eq!(yuzu.supported_ratios(), vec![2, 3, 4]);
    }

    #[test]
    fn upsample_reaches_discrete_ratio() {
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 2).unwrap();
        let low = synthetic::sphere(300, 1.0, 3);
        let r = yuzu.upsample(&low, 2.7).unwrap();
        // Requested 2.7 but only x2 is available below it.
        assert_eq!(r.cloud.len(), 600);
        assert_eq!(r.refiner_name, "yuzu-sr");
    }

    #[test]
    fn quality_remains_better_than_no_sr() {
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 4).unwrap();
        let gt = synthetic::torus(2000, 1.0, 0.3, 5);
        let low = sampling::random_downsample_exact(&gt, 600, 1).unwrap();
        let r = yuzu.upsample(&low, 3.0).unwrap();
        // Coverage improves thanks to the added points; the clamped (here
        // untrained) network must not blow up the symmetric Chamfer distance.
        let cover_low = metrics::one_sided_chamfer(&gt, &low);
        let cover_sr = metrics::one_sided_chamfer(&gt, &r.cloud);
        assert!(cover_sr < cover_low);
        let cd_low = metrics::chamfer_distance(&low, &gt);
        let cd_sr = metrics::chamfer_distance(&r.cloud, &gt);
        assert!(
            cd_sr < cd_low * 2.0,
            "yuzu sr ({cd_sr}) should stay near the surface ({cd_low})"
        );
    }

    #[test]
    fn invalid_ratio_rejected() {
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 1).unwrap();
        let low = synthetic::sphere(100, 1.0, 1);
        assert!(yuzu.upsample(&low, 0.5).is_err());
        assert!(yuzu.upsample(&low, f64::NAN).is_err());
    }

    #[test]
    fn memory_is_dominated_by_per_ratio_models() {
        let yuzu = YuzuUpsampler::new(SrConfig::default(), 1).unwrap();
        let m = yuzu.memory_bytes(100_000);
        // Three networks of ~280K parameters each in f32.
        assert!(m > 3 * 250_000 * 4);
    }
}
