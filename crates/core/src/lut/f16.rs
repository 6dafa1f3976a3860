//! Minimal IEEE 754 half-precision (binary16) conversion.
//!
//! The paper stores LUT offsets as `float16` (2 bytes per offset component,
//! Eq. 7). To keep that byte accounting honest without pulling in an extra
//! dependency, this module implements the f32 ↔ f16 bit conversions needed
//! for storage; all arithmetic still happens in `f32`.
//!
//! The encoder is straight-line code: it reads its rounding constants from
//! a per-exponent table, so a table fill (three conversions per entry) pays
//! no data-dependent branch. The decoder selects among three results by
//! exponent (zero and subnormal, normal, infinity and NaN).

/// Per biased `f32` exponent, how [`f32_to_f16_bits`] maps the 24-bit
/// significand `s` (implicit one included) to the result's magnitude:
/// `base + ((s + add + (rne & (s >> 13))) >> shift)`, as `[base, add,
/// shift | rne << 8]`.
///
/// * 113..=142 (normal results): `base` is the re-biased exponent field
///   less the implicit one, and `s + 0x0fff + lsb` rounds to nearest-even
///   at bit 13; a carry out of the mantissa bumps the exponent, so
///   `0x7bff` plus half an ulp becomes `0x7c00`, infinity.
/// * 103..=112 (subnormal results): `s >> (126 - e)` plus half an output
///   ulp, which rounds ties up.
/// * 143..=255 (overflow, infinity, NaN): `base` is infinity and the shift
///   drops every significand bit; NaN's quiet bit is added separately.
/// * 0..=102 (below 2⁻²⁴): the shift drops every bit, leaving zero.
static ENCODE: [[u32; 3]; 256] = {
    let mut table = [[0, 0, 24]; 256];
    let mut e = 103;
    while e < 256 {
        table[e] = if e >= 143 {
            [0x7c00, 0, 24]
        } else if e >= 113 {
            [((e as u32 - 112) << 10) - 0x400, 0x0fff, 13 | 1 << 8]
        } else {
            let shift = 126 - e as u32;
            [0, 1 << (shift - 1), shift]
        };
        e += 1;
    }
    table
};

/// Converts an `f32` to its binary16 bit pattern.
///
/// The rounding rule, which every stored `.vlut` entry and every table
/// digest depend on (so it cannot change without a format epoch):
///
/// * normal results round to nearest, ties to even;
/// * subnormal results (magnitudes in `[2⁻²⁴, 2⁻¹⁴)`) round half up —
///   a tie moves away from zero;
/// * magnitudes below `2⁻²⁴` flush to a zero of the input's sign (even
///   those that would round up to the smallest subnormal);
/// * overflow saturates to ±infinity, infinities stay infinite and every
///   NaN becomes the quiet NaN `sign | 0x7e00` (the payload is dropped).
///
/// Hardware conversions (F16C) round subnormal ties to even and keep NaN
/// payloads, so they are not a drop-in replacement.
#[inline]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    let [base, add, shift_rne] = ENCODE[(abs >> 23) as usize];
    let significand = (abs & 0x007f_ffff) | 0x0080_0000;
    let rounded =
        (significand + add + ((significand >> 13) & (shift_rne >> 8))) >> (shift_rne & 0xff);
    let quiet_nan = u32::from(abs > 0x7f80_0000) << 9;
    (sign | (base + rounded) | quiet_nan) as u16
}

/// Converts a binary16 bit pattern back to `f32` (exactly: every binary16
/// value is an `f32`; NaN payloads are kept).
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    /// `2⁻²⁴`, the value of the lowest binary16 mantissa bit of a subnormal.
    const SUBNORMAL_ULP: f32 = 1.0 / 16_777_216.0;
    let sign = u32::from(bits & 0x8000) << 16;
    let abs = u32::from(bits & 0x7fff);
    // Exponent 1..=30: move the fields into place and re-bias (15 → 127).
    let normal = (abs << 13) + (112 << 23);
    // Exponent 0: zero or a subnormal, mantissa · 2⁻²⁴ (exact in f32).
    let subnormal = (abs as f32 * SUBNORMAL_ULP).to_bits();
    // Exponent 31: infinity or NaN, exponent 255 with the mantissa kept.
    let special = normal + (112 << 23);
    let magnitude = match abs >> 10 {
        0 => subnormal,
        31 => special,
        _ => normal,
    };
    f32::from_bits(sign | magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy encoder this module used to ship, kept as the oracle the
    /// straight-line one must match bit for bit.
    fn reference_f32_to_f16_bits(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mantissa = bits & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN.
            let nan_bit = if mantissa != 0 { 0x0200 } else { 0 };
            return sign | 0x7c00 | nan_bit;
        }
        // Re-bias exponent: f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow -> infinity.
            return sign | 0x7c00;
        }
        if unbiased >= -14 {
            // Normal f16.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_mant = (mantissa >> 13) as u16;
            // Round to nearest even.
            let round_bit = (mantissa >> 12) & 1;
            let sticky = mantissa & 0x0fff;
            let mut out = sign | half_exp | half_mant;
            if round_bit == 1 && (sticky != 0 || (half_mant & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return out;
        }
        if unbiased >= -24 {
            // Subnormal f16: value = half_mant * 2^-24, so the 24-bit mantissa
            // (with the implicit leading one) is shifted right by -unbiased - 1.
            let shift = (-unbiased - 1) as u32;
            let full_mant = mantissa | 0x0080_0000;
            let half_mant = (full_mant >> shift) as u16;
            let round_bit = if shift > 0 {
                (full_mant >> (shift - 1)) & 1
            } else {
                0
            };
            let mut out = sign | half_mant;
            if round_bit == 1 {
                out = out.wrapping_add(1);
            }
            return out;
        }
        // Underflow to signed zero.
        sign
    }

    /// The branchy decoder this module used to ship (the oracle of
    /// [`f16_bits_to_f32`]).
    fn reference_f16_bits_to_f32(bits: u16) -> f32 {
        let sign = u32::from(bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1f;
        let mantissa = u32::from(bits & 0x03ff);
        let out_bits = match exp {
            0 => {
                if mantissa == 0 {
                    sign
                } else {
                    // Subnormal: normalize it.
                    let mut m = mantissa;
                    let mut e = -14i32;
                    while m & 0x0400 == 0 {
                        m <<= 1;
                        e -= 1;
                    }
                    m &= 0x03ff;
                    sign | (((e + 127) as u32) << 23) | (m << 13)
                }
            }
            0x1f => sign | 0x7f80_0000 | (mantissa << 13),
            _ => {
                let e = i32::from(exp) - 15 + 127;
                sign | ((e as u32) << 23) | (mantissa << 13)
            }
        };
        f32::from_bits(out_bits)
    }

    /// Every one of the 2³² `f32` bit patterns, split across the machine's
    /// threads. Release only (a few seconds there, minutes in debug); CI's
    /// release test step runs it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "exhaustive over 2^32 inputs: run with --release"
    )]
    fn encoder_matches_the_reference_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u32;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    // Thread `t` takes every `threads`-th block of 2¹⁶ inputs.
                    for high in (t..1 << 16).step_by(threads as usize) {
                        for low in 0..1u32 << 16 {
                            let bits = high << 16 | low;
                            let v = f32::from_bits(bits);
                            let (got, want) = (f32_to_f16_bits(v), reference_f32_to_f16_bits(v));
                            assert_eq!(got, want, "input bits {bits:#010x}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn decoder_matches_the_reference_on_every_f16() {
        for bits in 0..=u16::MAX {
            let got = f16_bits_to_f32(bits).to_bits();
            let want = reference_f16_bits_to_f32(bits).to_bits();
            assert_eq!(got, want, "input bits {bits:#06x}");
        }
    }

    #[test]
    fn the_rounding_rule_at_its_edges() {
        // Normal ties go to even: 1 + 2⁻¹¹ is halfway between 1 and 1 + 2⁻¹⁰.
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11)), 0x3c00);
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
        // Subnormal ties round up: 1.5 · 2⁻²⁴ → 2 · 2⁻²⁴, 2.5 · 2⁻²⁴ → 3 · 2⁻²⁴.
        assert_eq!(f32_to_f16_bits(1.5 * 2f32.powi(-24)), 0x0002);
        assert_eq!(f32_to_f16_bits(2.5 * 2f32.powi(-24)), 0x0003);
        // Below 2⁻²⁴ everything flushes to a signed zero, even 0.9 · 2⁻²⁴.
        assert_eq!(f32_to_f16_bits(2f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_bits(0.9 * 2f32.powi(-24)), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.9 * 2f32.powi(-24)), 0x8000);
        // The largest finite value rounds up into infinity past its half ulp.
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        // Every NaN becomes the quiet NaN of its sign.
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x7f80_0001)), 0x7e00);
        assert_eq!(f32_to_f16_bits(f32::from_bits(0xffc0_1234)), 0xfe00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
    }

    #[test]
    fn exact_small_values_roundtrip() {
        for v in [0.0f32, 1.0, -1.0, 0.5, -0.5, 0.25, 2.0, 1024.0, -0.125] {
            let bits = f32_to_f16_bits(v);
            assert_eq!(f16_bits_to_f32(bits), v, "value {v}");
        }
    }

    #[test]
    fn roundtrip_error_is_small_for_unit_range() {
        // LUT offsets live in roughly [-2, 2]; half precision gives ~1e-3 there.
        let mut v = -2.0f32;
        while v <= 2.0 {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert!((back - v).abs() <= 2e-3, "value {v} -> {back}");
            v += 0.0137;
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(1e9)).is_infinite());
        assert!(f16_bits_to_f32(f32_to_f16_bits(-1e9)).is_infinite());
    }

    #[test]
    fn nan_is_preserved() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn subnormals_roundtrip_approximately() {
        let v = 3.0e-5f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        assert!((back - v).abs() < 1e-6);
        // Deep underflow flushes to zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-10)), 0.0);
    }

    #[test]
    fn sign_of_zero_is_kept() {
        let neg_zero = f16_bits_to_f32(f32_to_f16_bits(-0.0));
        assert_eq!(neg_zero, 0.0);
        assert!(neg_zero.is_sign_negative());
    }
}
