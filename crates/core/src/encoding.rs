//! Position encoding for LUT indexing (§4.2.1).
//!
//! The refinement stage must turn a *continuous* 3D neighborhood into a
//! *discrete* table index. The paper's pipeline (Figure 6) does this in
//! three steps: take the receptive field's raw coordinates (a), normalize
//! them relative to the center point and neighborhood radius (b, Eq. 3), and
//! quantize each normalized value into `b` bins (c, Eq. 4).
//!
//! The key packs one `b`-bin code per receptive-field point (octant plus
//! quantized radial distance), giving `b^n` possible keys: the count whose
//! byte figures Table 1 reports, and the index of the dense table. (The
//! text's Eq. 5 counts `b^(3n)` per-coordinate keys; a table over that space
//! cannot be stored densely, and one stored sparsely hit no key of a frame
//! it was not trained on.) The network paths read the per-coordinate bins
//! ([`EncodedNeighborhood::indices`]), never the key.
//!
//! [`PositionEncoder::encode`] is the allocating reference (offline use, and
//! the oracle of the property tests); [`PositionEncoder::encode_keys_block`]
//! is the run-time encoder, a lane-wise kernel over a block of fixed-width
//! neighborhood rows whose keys and radii equal the reference's bit for bit.

use crate::config::SrConfig;
use crate::error::Error;
use crate::Result;
use std::ops::Range;
use volut_pointcloud::{NeighborhoodsView, Point3};

/// How receptive-field points are mapped to table keys. There is one
/// layout; the enum is kept only because [`PositionEncoder::new`],
/// [`crate::refine::LutRefiner::from_config`] and
/// [`crate::registry::ContentModel::from_dense`] take it, and all three
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyScheme {
    /// Per-point scalar code (octant ⊕ radial bin): `b^n` possible keys
    /// (matches the sizes reported in Table 1).
    Compact,
}

/// A quantized neighborhood ready for LUT lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedNeighborhood {
    /// The packed lookup key.
    pub key: u128,
    /// Quantized per-coordinate indices (row-major: point, then x/y/z),
    /// kept for NN dequantization and debugging.
    pub indices: Vec<u16>,
    /// Neighborhood radius `R` used for normalization; refinement offsets
    /// are expressed in this normalized scale and must be multiplied back.
    pub radius: f32,
}

/// Lanes one pass of [`PositionEncoder::encode_keys_block`] works in.
const ENCODE_LANES: usize = 512;

/// Fixed-size working lanes of [`PositionEncoder::encode_keys_block`]: the
/// center-relative neighbor offsets of one pass of rows and their point
/// codes, slot-major (slot `s` of row `b` at `s · rows + b`) so the
/// normalize-and-quantize loops sweep them at vector width. No heap: a
/// refiner keeps one on its stack for a whole batch.
#[derive(Debug, Clone)]
pub struct EncodeScratch {
    /// Offsets, one lane array per axis, then the reciprocal radius per row.
    lanes: [[f32; ENCODE_LANES]; 4],
    /// The point code of every slot lane.
    codes: [u32; ENCODE_LANES],
}

impl Default for EncodeScratch {
    fn default() -> Self {
        Self {
            lanes: [[0.0; ENCODE_LANES]; 4],
            codes: [0; ENCODE_LANES],
        }
    }
}

/// Encoder turning `(center, neighbors)` into quantized LUT keys.
///
/// # Example
///
/// ```
/// use volut_core::encoding::{PositionEncoder, KeyScheme};
/// use volut_core::config::SrConfig;
/// use volut_pointcloud::Point3;
///
/// let enc = PositionEncoder::new(&SrConfig::default(), KeyScheme::Compact).unwrap();
/// let center = Point3::new(0.0, 0.0, 0.0);
/// let neighbors = [Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 1.0, 0.0), Point3::new(0.0, 0.0, 1.0)];
/// let e = enc.encode(center, &neighbors).unwrap();
/// assert!(e.radius > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PositionEncoder {
    /// Receptive field size `n` (center + `n-1` neighbors).
    receptive_field: usize,
    /// Number of quantization bins `b`.
    bins: u16,
}

impl PositionEncoder {
    /// Creates an encoder from an [`SrConfig`]; the [`KeyScheme`] is
    /// ignored.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when the configuration is invalid or
    /// when the resulting key would not fit in 128 bits.
    pub fn new(config: &SrConfig, _scheme: KeyScheme) -> Result<Self> {
        config.validate()?;
        let bits_per_value = bits_for(config.bins);
        if bits_per_value * config.receptive_field > 128 {
            return Err(Error::InvalidConfig(format!(
                "key of {} values x {} bits does not fit in 128 bits",
                config.receptive_field, bits_per_value
            )));
        }
        Ok(Self {
            receptive_field: config.receptive_field,
            bins: config.bins as u16,
        })
    }

    /// Receptive field size `n`.
    pub fn receptive_field(&self) -> usize {
        self.receptive_field
    }

    /// Number of quantization bins `b`.
    pub fn bins(&self) -> u16 {
        self.bins
    }

    /// Total number of addressable keys of the packed representation:
    /// `(2^ceil(log2 b))^n` (equal to `b^n` when `b` is a power of two, as in
    /// all paper configurations). Saturates at `u128::MAX`.
    pub fn key_space(&self) -> u128 {
        let per_value = 1u128 << bits_for(usize::from(self.bins));
        let mut total: u128 = 1;
        for _ in 0..self.receptive_field {
            total = total.saturating_mul(per_value);
        }
        total
    }

    /// The keys [`Self::encode`] and [`Self::encode_keys_block`] emit for a
    /// non-empty row. The centre normalizes to the origin, so every key
    /// starts with the origin's code `c`, and the `n − 1` neighbour codes
    /// below it span `P^(n−1)` keys (`P = 2^ceil(log2 b)`): the range is
    /// `c · P^(n−1) .. (c + 1) · P^(n−1)`, `1/P` of [`Self::key_space`]. A
    /// table over it answers every probe one over the whole key space
    /// does. Like [`Self::key_space`], the end saturates at `u128::MAX`
    /// when the key is a full 128 bits and `c` is the top code (2 or 4
    /// bins), so that one all-ones key lies past the end.
    pub fn reachable_keys(&self) -> Range<u128> {
        let tail_bits = bits_for(usize::from(self.bins)) * (self.receptive_field - 1);
        let start = u128::from(self.center_code()) << tail_bits;
        start..start.saturating_add(1 << tail_bits)
    }

    /// The code of the centre's slot, the same in every key.
    fn center_code(&self) -> u16 {
        self.compact_code(Point3::ZERO)
    }

    /// Normalizes the neighborhood relative to the center (Eq. 3): returns
    /// the normalized points (center first) and the neighborhood radius `R`.
    /// All returned coordinates lie inside `[-1, 1]`.
    ///
    /// Normalization multiplies by the reciprocal radius (one `sqrt`, one
    /// divide per neighborhood) — every encode path in this module uses the
    /// exact same arithmetic so packed keys agree bit-for-bit between the
    /// offline distillation and the batched runtime lookups.
    pub fn normalize(&self, center: Point3, neighbors: &[Point3]) -> (Vec<Point3>, f32) {
        let radius = Self::radius_of(center, neighbors);
        let inv_radius = 1.0 / radius;
        let mut out = Vec::with_capacity(neighbors.len() + 1);
        out.push(Point3::ZERO);
        for &p in neighbors {
            out.push((p - center) * inv_radius);
        }
        (out, radius)
    }

    /// Quantizes a normalized value in `[-1, 1]` into a bin index (Eq. 4).
    pub fn quantize_value(&self, v: f32) -> u16 {
        let b = f32::from(self.bins);
        // The scaled operand is non-negative, so the `as u16` truncation IS
        // the floor of Eq. 4 — and unlike `.floor()` it compiles to a single
        // cvttss2si instead of a libm call on baseline x86-64.
        let q = ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * (b - 1.0)) as u16;
        q.min(self.bins - 1)
    }

    /// Inverse of [`Self::quantize_value`]: the center of bin `q` in `[-1, 1]`.
    pub fn dequantize_value(&self, q: u16) -> f32 {
        let b = f32::from(self.bins);
        (f32::from(q.min(self.bins - 1)) + 0.5) / (b - 1.0) * 2.0 - 1.0
    }

    /// Neighborhood radius `R` (Eq. 3) without allocating: the largest
    /// center-to-neighbor distance, floored at `f32::EPSILON`. One `sqrt`
    /// over the max *squared* distance (`sqrt` is monotone and correctly
    /// rounded, so this equals the max of the individual distances).
    #[inline]
    fn radius_of(center: Point3, neighbors: &[Point3]) -> f32 {
        let max_sq = neighbors
            .iter()
            .map(|p| p.distance_squared(center))
            .fold(0.0f32, f32::max);
        max_sq.sqrt().max(f32::EPSILON)
    }

    /// Normalized receptive-field slot `i` (center first, then neighbors,
    /// padded with the center's zero when the neighborhood is short).
    #[inline]
    fn normalized_slot(
        center: Point3,
        neighbors: &[Point3],
        inv_radius: f32,
        slot: usize,
    ) -> Point3 {
        if slot == 0 {
            Point3::ZERO
        } else {
            match neighbors.get(slot - 1) {
                Some(&p) => (p - center) * inv_radius,
                None => Point3::ZERO,
            }
        }
    }

    /// Block encoder of the batched LUT refiner: encodes `centers.len()`
    /// consecutive neighborhood rows (`rows.row(row_base + b)` for center
    /// `b`) into packed keys and neighborhood radii, bit-identical to
    /// [`Self::encode`] row by row. `radii[b] < 0` marks a row that cannot be encoded (no
    /// neighbors); its key slot is set to 0 and should be ignored.
    ///
    /// Lane-wise: a gather pass writes each row's first `n − 1`
    /// center-relative offsets into fixed slot lanes (zero-padded, which
    /// encodes exactly like the center) and takes the radius over the *whole*
    /// row; then normalize → code runs over whole lanes — multiply by the
    /// reciprocal radius, octant from three sign compares, `sqrt`,
    /// `/ 3f32.sqrt()`, clamp, and round-half-away as `floor + (frac ≥ 0.5)`
    /// (not `floor(x + 0.5)`, which differs at `0.49999997`). Every step is
    /// one correctly rounded IEEE operation per lane, so the result does not
    /// depend on the vector width the compiler picks. Keys are assembled in
    /// a `u64` when they fit.
    ///
    /// Measured on the 2-vCPU AVX-512 host (56 000 rows of 4 neighbors,
    /// 32 bins, blocks of 64, one thread): 18 ns per row — gather
    /// 9.5, lanes 5.4, assembly 3 — against 56 for the per-slot scalar loop
    /// this replaces (`sqrt`, divide and a libm `roundf` per slot). Under
    /// `#[target_feature(enable = "avx2")]` the lane loops read 4.4 (6.2
    /// under `avx512f`): half a percent of the frame, so no per-tier
    /// instance is kept.
    ///
    /// # Panics
    /// Panics when `keys`/`radii` lengths differ from `centers.len()`, when
    /// the rows are out of range, or when a row indexes out of `source`.
    #[allow(clippy::too_many_arguments)] // mirrors the (keys, radii) output pair of the per-row API
    pub fn encode_keys_block(
        &self,
        centers: &[Point3],
        rows: NeighborhoodsView<'_>,
        row_base: usize,
        source: &[Point3],
        keys: &mut [u128],
        radii: &mut [f32],
        scratch: &mut EncodeScratch,
    ) {
        assert_eq!(centers.len(), keys.len(), "one key slot per center");
        assert_eq!(centers.len(), radii.len(), "one radius slot per center");
        let slots = self.receptive_field - 1;
        let bits = bits_for(usize::from(self.bins)) as u32;
        let center_word = u64::from(self.center_code());
        let narrow = bits as usize * self.receptive_field <= 64;
        let EncodeScratch {
            lanes: [dx, dy, dz, inv],
            codes,
        } = scratch;
        // One pass per `ENCODE_LANES / slots` rows (a 128-bit key holds at
        // most 128 slots, so never none): every slot lane fits the scratch.
        for first in (0..centers.len()).step_by(ENCODE_LANES / slots) {
            let centers = &centers[first..centers.len().min(first + ENCODE_LANES / slots)];
            let m = centers.len();
            let radii = &mut radii[first..first + m];
            // Gather: offsets of the keyed slots, radius over the whole row.
            for (b, &center) in centers.iter().enumerate() {
                let row = rows.row(row_base + first + b);
                let mut max_sq = 0.0f32;
                for (s, &j) in row.iter().enumerate() {
                    let d = source[j as usize] - center;
                    max_sq = max_sq.max(d.norm_squared());
                    if s < slots {
                        (dx[s * m + b], dy[s * m + b], dz[s * m + b]) = (d.x, d.y, d.z);
                    }
                }
                for s in row.len()..slots {
                    (dx[s * m + b], dy[s * m + b], dz[s * m + b]) = (0.0, 0.0, 0.0);
                }
                radii[b] = match row.len() {
                    0 => -1.0,
                    _ => max_sq.sqrt().max(f32::EPSILON),
                };
                inv[b] = 1.0 / radii[b];
            }
            // Normalize and code, one slot lane at a time.
            for at in (0..slots).map(|s| s * m..(s + 1) * m) {
                let d = [&dx[at.clone()], &dy[at.clone()], &dz[at.clone()]];
                compact_lanes(d, &inv[..m], bits, &mut codes[at]);
            }
            // Assemble: the center's constant code first, then the slots'.
            for (b, key) in keys[first..first + m].iter_mut().enumerate() {
                let code = |s: usize| u64::from(codes[s * m + b]);
                *key = if radii[b] < 0.0 {
                    0
                } else if narrow {
                    u128::from((0..slots).fold(center_word, |k, s| (k << bits) | code(s)))
                } else {
                    let center = u128::from(center_word);
                    (0..slots).fold(center, |k, s| (k << bits) | u128::from(code(s)))
                };
            }
        }
    }

    /// Allocation-free variant of [`Self::encode`] + [`Self::features`]:
    /// writes the dequantized feature vector into `features` (cleared and
    /// reused) and returns the neighborhood radius. Used by the batched NN
    /// refinement path.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when `neighbors` is empty.
    pub fn encode_features_into(
        &self,
        center: Point3,
        neighbors: &[Point3],
        features: &mut Vec<f32>,
    ) -> Result<f32> {
        if neighbors.is_empty() {
            return Err(Error::InvalidConfig(
                "cannot encode a neighborhood with no neighbors".into(),
            ));
        }
        let radius = Self::radius_of(center, neighbors);
        let inv_radius = 1.0 / radius;
        features.clear();
        features.reserve(self.receptive_field * 3);
        for slot in 0..self.receptive_field {
            let p = Self::normalized_slot(center, neighbors, inv_radius, slot);
            features.push(self.dequantize_value(self.quantize_value(p.x)));
            features.push(self.dequantize_value(self.quantize_value(p.y)));
            features.push(self.dequantize_value(self.quantize_value(p.z)));
        }
        Ok(radius)
    }

    /// Encodes a neighborhood into a lookup key.
    ///
    /// The interpolated (center) point occupies the first slot of the
    /// receptive field, as required by the paper ("the interpolated point
    /// will be placed at first in the index"). When fewer than `n - 1`
    /// neighbors are supplied the remaining slots are padded with the
    /// center; extra neighbors are ignored.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when `neighbors` is empty.
    pub fn encode(&self, center: Point3, neighbors: &[Point3]) -> Result<EncodedNeighborhood> {
        if neighbors.is_empty() {
            return Err(Error::InvalidConfig(
                "cannot encode a neighborhood with no neighbors".into(),
            ));
        }
        let needed = self.receptive_field - 1;
        let (normalized, radius) = self.normalize(center, neighbors);
        // normalized[0] is the center; slots 1..n hold neighbors.
        let mut slots: Vec<Point3> = Vec::with_capacity(self.receptive_field);
        slots.push(normalized[0]);
        for i in 0..needed {
            slots.push(*normalized.get(i + 1).unwrap_or(&Point3::ZERO));
        }

        let mut indices = Vec::with_capacity(self.receptive_field * 3);
        for p in &slots {
            indices.push(self.quantize_value(p.x));
            indices.push(self.quantize_value(p.y));
            indices.push(self.quantize_value(p.z));
        }

        let bits = bits_for(usize::from(self.bins)) as u32;
        let key = slots.iter().fold(0u128, |key, &p| {
            (key << bits) | u128::from(self.compact_code(p))
        });

        Ok(EncodedNeighborhood {
            key,
            indices,
            radius,
        })
    }

    /// Dequantized feature vector (length `n × 3`, values in `[-1, 1]`) for a
    /// given encoded neighborhood — the input representation fed to the
    /// refinement network both at training and at distillation time, so that
    /// the network sees exactly what the LUT can index.
    pub fn features(&self, encoded: &EncodedNeighborhood) -> Vec<f32> {
        encoded
            .indices
            .iter()
            .map(|&q| self.dequantize_value(q))
            .collect()
    }

    /// Re-derives the lookup key from a dequantized feature vector (as
    /// returned by [`Self::features`]): values are re-quantized and packed
    /// exactly like [`Self::encode`] would. This is what the LUT builder
    /// uses to key distilled network outputs.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when the feature length is not
    /// `receptive_field × 3`.
    pub fn key_from_features(&self, features: &[f32]) -> Result<u128> {
        if features.len() != self.receptive_field * 3 {
            return Err(Error::InvalidConfig(format!(
                "feature vector length {} does not match receptive field {} x 3",
                features.len(),
                self.receptive_field
            )));
        }
        let bits = bits_for(usize::from(self.bins)) as u32;
        Ok(features.chunks_exact(3).fold(0u128, |key, c| {
            (key << bits) | u128::from(self.compact_code(Point3::new(c[0], c[1], c[2])))
        }))
    }

    /// Per-point compact code: 3 octant bits plus the remaining bits encode
    /// the quantized radial distance from the center.
    fn compact_code(&self, p: Point3) -> u16 {
        let bits = bits_for(usize::from(self.bins)) as u32;
        let octant =
            (u16::from(p.x >= 0.0) << 2) | (u16::from(p.y >= 0.0) << 1) | u16::from(p.z >= 0.0);
        if bits <= 3 {
            return octant & ((1 << bits) - 1);
        }
        let radial_bits = bits - 3;
        let radial_levels = (1u16 << radial_bits) - 1;
        // Radial distance in normalized space is in [0, sqrt(3)]; for surface
        // neighborhoods it is almost always <= 1.
        let r = (p.norm() / 3.0f32.sqrt()).clamp(0.0, 1.0);
        let radial = ((r * f32::from(radial_levels)).round() as u16).min(radial_levels);
        (octant << radial_bits) | radial
    }
}

/// Number of bits needed to represent values in `0..bins`.
fn bits_for(bins: usize) -> usize {
    (usize::BITS - (bins - 1).leading_zeros()) as usize
}

/// `v` (`0 ≤ v < 2²²`; NaN reads 0, as `NaN as u16` does) rounded half
/// away from zero to an integer, in exact float operations: adding and
/// subtracting `2²³` rounds to the nearest integer, one step back where that
/// went up is the floor, a step up from the floor where the fraction is at
/// least one half is the rounded value, and the integer is read out of the
/// mantissa of `whole + 2²³`. (A float→int cast compiles to one scalar
/// convert, with NaN and range fix-up branches, per lane.)
#[inline(always)]
fn lane_round(v: f32) -> u32 {
    const MANTISSA_ONE: f32 = 8_388_608.0;
    let near = (v + MANTISSA_ONE) - MANTISSA_ONE;
    let floor = near - if near > v { 1.0 } else { 0.0 };
    let whole = floor + if v - floor >= 0.5 { 1.0 } else { 0.0 };
    let valid = if v.is_nan() { 0 } else { u32::MAX };
    (whole + MANTISSA_ONE).to_bits() & 0x7F_FFFF & valid
}

/// [`PositionEncoder::compact_code`] of every lane's normalized offset:
/// octant bits above the radial bin, rounded half away from zero. (The
/// clamped radius times `levels` cannot exceed `levels`: no `min` here
/// either.)
fn compact_lanes(d: [&[f32]; 3], inv: &[f32], bits: u32, codes: &mut [u32]) {
    let radial_bits = bits.saturating_sub(3);
    let levels = ((1u32 << radial_bits) - 1) as f32;
    let keep = (1u32 << bits) - 1;
    for i in 0..codes.len() {
        let (x, y, z) = (d[0][i] * inv[i], d[1][i] * inv[i], d[2][i] * inv[i]);
        let octant = (u32::from(x >= 0.0) << 2) | (u32::from(y >= 0.0) << 1) | u32::from(z >= 0.0);
        let scaled = ((x * x + y * y + z * z).sqrt() / 3.0f32.sqrt()).clamp(0.0, 1.0) * levels;
        // With three bits or fewer there is no radial field and the octant
        // itself is cut to the key width.
        codes[i] = ((octant << radial_bits) | lane_round(scaled)) & keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn encoder() -> PositionEncoder {
        PositionEncoder::new(&SrConfig::default(), KeyScheme::Compact).unwrap()
    }

    #[test]
    fn bits_for_is_correct() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(64), 6);
        assert_eq!(bits_for(128), 7);
        assert_eq!(bits_for(100), 7);
    }

    #[test]
    fn normalization_puts_points_in_unit_cube() {
        let enc = encoder();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let center = Point3::new(
                rng.random_range(-10.0..10.0),
                rng.random_range(-10.0..10.0),
                rng.random_range(-10.0..10.0),
            );
            let neighbors: Vec<Point3> = (0..3)
                .map(|_| {
                    center
                        + Point3::new(
                            rng.random_range(-0.5..0.5),
                            rng.random_range(-0.5..0.5),
                            rng.random_range(-0.5..0.5),
                        )
                })
                .collect();
            let (norm, radius) = enc.normalize(center, &neighbors);
            assert!(radius > 0.0);
            for p in norm {
                assert!(p.x.abs() <= 1.0 + 1e-5);
                assert!(p.y.abs() <= 1.0 + 1e-5);
                assert!(p.z.abs() <= 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn quantization_roundtrip_stays_in_bin() {
        let enc = encoder();
        for q in [0u16, 1, 50, 126, 127] {
            let v = enc.dequantize_value(q);
            assert_eq!(enc.quantize_value(v), q);
        }
        assert_eq!(enc.quantize_value(-1.0), 0);
        assert_eq!(enc.quantize_value(1.0), 127);
        assert_eq!(enc.quantize_value(5.0), 127);
        assert_eq!(enc.quantize_value(-5.0), 0);
    }

    #[test]
    fn key_space_matches_paper_formulas() {
        assert_eq!(encoder().key_space(), 128u128.pow(4));
        // Bins are packed a whole number of bits per point: 24 bins take 5.
        let cfg = SrConfig {
            bins: 24,
            ..SrConfig::default()
        };
        let enc = PositionEncoder::new(&cfg, KeyScheme::Compact).unwrap();
        assert_eq!(enc.key_space(), 32u128.pow(4));
    }

    #[test]
    fn reachable_keys_are_the_centre_codes_slice_of_the_key_space() {
        // 32 bins: the centre's code 0b11100 heads every key, so 2¹⁵ of
        // the 2²⁰ keys are reachable.
        let cfg = SrConfig {
            bins: 32,
            ..SrConfig::default()
        };
        let enc = PositionEncoder::new(&cfg, KeyScheme::Compact).unwrap();
        assert_eq!(enc.reachable_keys(), 28 << 15..29 << 15);
        // 128 bins: 2²¹ of 2²⁸.
        let reachable = encoder().reachable_keys();
        assert_eq!(reachable.end - reachable.start, 1 << 21);
        assert!(reachable.end <= encoder().key_space());
        // A full 128-bit key whose centre code is the top code saturates.
        let cfg = SrConfig {
            bins: 2,
            receptive_field: 128,
            ..SrConfig::default()
        };
        let enc = PositionEncoder::new(&cfg, KeyScheme::Compact).unwrap();
        assert_eq!(enc.reachable_keys(), 1 << 127..u128::MAX);
    }

    #[test]
    fn rejects_configs_whose_keys_overflow() {
        // n = 9, b = 65535 would need 9 * 16 = 144 bits.
        let cfg = SrConfig {
            receptive_field: 9,
            bins: 65_535,
            ..SrConfig::default()
        };
        assert!(PositionEncoder::new(&cfg, KeyScheme::Compact).is_err());
        // One point fewer fits exactly (8 * 16 = 128 bits).
        let cfg = SrConfig {
            receptive_field: 8,
            ..cfg
        };
        assert!(PositionEncoder::new(&cfg, KeyScheme::Compact).is_ok());
    }

    #[test]
    fn encode_is_deterministic_and_translation_invariant() {
        let enc = encoder();
        let center = Point3::new(1.0, 2.0, 3.0);
        let neighbors = vec![
            Point3::new(1.5, 2.0, 3.0),
            Point3::new(1.0, 2.5, 3.0),
            Point3::new(1.0, 2.0, 3.5),
        ];
        let a = enc.encode(center, &neighbors).unwrap();
        let b = enc.encode(center, &neighbors).unwrap();
        assert_eq!(a, b);
        // Translate everything: the key must not change (encoding is relative).
        let offset = Point3::new(-7.0, 4.0, 11.0);
        let moved: Vec<Point3> = neighbors.iter().map(|&p| p + offset).collect();
        let c = enc.encode(center + offset, &moved).unwrap();
        assert_eq!(a.key, c.key);
    }

    #[test]
    fn encode_scale_invariant_key_but_radius_tracks_scale() {
        let enc = encoder();
        let center = Point3::ZERO;
        let neighbors = vec![
            Point3::new(0.1, 0.0, 0.0),
            Point3::new(0.0, 0.1, 0.0),
            Point3::new(0.0, 0.0, 0.1),
        ];
        let small = enc.encode(center, &neighbors).unwrap();
        let scaled: Vec<Point3> = neighbors.iter().map(|&p| p * 10.0).collect();
        let big = enc.encode(center, &scaled).unwrap();
        assert_eq!(small.key, big.key);
        assert!((big.radius / small.radius - 10.0).abs() < 1e-4);
    }

    #[test]
    fn encode_pads_and_truncates_neighbors() {
        let enc = encoder();
        let center = Point3::ZERO;
        let one = enc.encode(center, &[Point3::new(1.0, 0.0, 0.0)]).unwrap();
        assert_eq!(one.indices.len(), 4 * 3);
        let many: Vec<Point3> = (0..10)
            .map(|i| Point3::new(i as f32 + 1.0, 0.0, 0.0))
            .collect();
        let truncated = enc.encode(center, &many).unwrap();
        assert_eq!(truncated.indices.len(), 4 * 3);
        assert!(enc.encode(center, &[]).is_err());
    }

    #[test]
    fn features_have_expected_length_and_range() {
        let enc = encoder();
        let e = enc
            .encode(
                Point3::ZERO,
                &[Point3::new(0.5, -0.25, 1.0), Point3::new(-1.0, 0.0, 0.3)],
            )
            .unwrap();
        let f = enc.features(&e);
        assert_eq!(f.len(), 12);
        assert!(f.iter().all(|v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn alloc_free_paths_match_encode() {
        let mut rng = StdRng::seed_from_u64(5);
        let enc = encoder();
        let mut features = Vec::new();
        for neighbors_len in 1..6 {
            let center = Point3::new(
                rng.random_range(-5.0f32..5.0),
                rng.random_range(-5.0f32..5.0),
                rng.random_range(-5.0f32..5.0),
            );
            let neighbors: Vec<Point3> = (0..neighbors_len)
                .map(|_| {
                    center
                        + Point3::new(
                            rng.random_range(-0.4f32..0.4),
                            rng.random_range(-0.4f32..0.4),
                            rng.random_range(-0.4f32..0.4),
                        )
                })
                .collect();
            let reference = enc.encode(center, &neighbors).unwrap();
            let r2 = enc
                .encode_features_into(center, &neighbors, &mut features)
                .unwrap();
            assert_eq!(r2, reference.radius);
            assert_eq!(features, enc.features(&reference));
        }
        assert!(enc
            .encode_features_into(Point3::ZERO, &[], &mut features)
            .is_err());
    }

    /// The lane-wise block encoder must agree bit-for-bit with the
    /// allocating per-row reference — the parity the batched LUT refiner
    /// depends on (the property suite sweeps bins, fields and rounding edges).
    #[test]
    fn encode_keys_block_matches_the_reference() {
        use volut_pointcloud::Neighborhoods;
        let mut rng = StdRng::seed_from_u64(77);
        let source: Vec<Point3> = (0..50)
            .map(|_| {
                Point3::new(
                    rng.random_range(-2.0f32..2.0),
                    rng.random_range(-2.0f32..2.0),
                    rng.random_range(-2.0f32..2.0),
                )
            })
            .collect();
        let centers: Vec<Point3> = (0..70)
            .map(|_| {
                Point3::new(
                    rng.random_range(-2.0f32..2.0),
                    rng.random_range(-2.0f32..2.0),
                    rng.random_range(-2.0f32..2.0),
                )
            })
            .collect();
        // One container per row width: 0..=6 neighbors, including none.
        for len in 0..7 {
            let mut hoods = Neighborhoods::new();
            let slab = hoods.push_rows(centers.len(), len);
            for (s, slot) in slab.iter_mut().enumerate() {
                let (i, k) = (s / len, s % len);
                *slot = ((i * 3 + k) % source.len()) as u32;
            }
            check_block_against_reference(&centers, hoods.view(), &source);
        }
    }

    fn check_block_against_reference(
        centers: &[Point3],
        hoods: NeighborhoodsView<'_>,
        source: &[Point3],
    ) {
        // Keys of 28 bits, assembled in a `u64`, and of 70, in a `u128`.
        for receptive_field in [4, 10] {
            let config = SrConfig {
                receptive_field,
                ..SrConfig::default()
            };
            let enc = PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
            let mut keys = vec![0u128; centers.len()];
            let mut radii = vec![0.0f32; centers.len()];
            let mut scratch = EncodeScratch::default();
            // Encode in two blocks to exercise a non-zero row_base.
            let split = 33;
            enc.encode_keys_block(
                &centers[..split],
                hoods,
                0,
                source,
                &mut keys[..split],
                &mut radii[..split],
                &mut scratch,
            );
            enc.encode_keys_block(
                &centers[split..],
                hoods,
                split,
                source,
                &mut keys[split..],
                &mut radii[split..],
                &mut scratch,
            );
            for (i, &center) in centers.iter().enumerate() {
                let neighbors: Vec<Point3> =
                    hoods.row(i).iter().map(|&j| source[j as usize]).collect();
                match enc.encode(center, &neighbors) {
                    Ok(reference) => {
                        assert_eq!(keys[i], reference.key, "n {receptive_field} row {i}");
                        assert_eq!(radii[i], reference.radius, "n {receptive_field} row {i}");
                    }
                    Err(_) => assert!(
                        radii[i] < 0.0,
                        "n {receptive_field} row {i} should be marked"
                    ),
                }
            }
        }
    }

    /// The float-only floor, round-half-away and integer read-out of the
    /// lane kernel against `round` and `as u16` at every integer and
    /// half-integer boundary of its domain, one ulp either side, and the
    /// value `floor(x + 0.5)` gets wrong.
    #[test]
    fn lane_rounding_matches_floor_round_and_cast() {
        let mut probes = vec![0.0f32, 0.49999997, 0.5, 0.50000006, f32::NAN];
        for whole in [1u32, 2, 3, 7, 100, 8_190, 8_191, 65_534, 65_535] {
            for base in [whole as f32, whole as f32 - 0.5] {
                for ulps in -2i32..=2 {
                    probes.push(f32::from_bits((base.to_bits() as i32 + ulps) as u32));
                }
            }
        }
        for v in probes {
            assert_eq!(lane_round(v), u32::from(v.round() as u16), "round of {v}");
        }
    }

    #[test]
    fn compact_scheme_produces_distinct_keys_for_distinct_shapes() {
        let enc = encoder();
        let a = enc
            .encode(
                Point3::ZERO,
                &[
                    Point3::new(1.0, 0.0, 0.0),
                    Point3::new(0.0, 1.0, 0.0),
                    Point3::new(0.0, 0.0, 1.0),
                ],
            )
            .unwrap();
        let b = enc
            .encode(
                Point3::ZERO,
                &[
                    Point3::new(-1.0, 0.0, 0.0),
                    Point3::new(0.0, -1.0, 0.0),
                    Point3::new(0.0, 0.0, -1.0),
                ],
            )
            .unwrap();
        assert_ne!(a.key, b.key);
        assert!(a.key < enc.key_space());
        assert!(b.key < enc.key_space());
    }
}
