//! Software half-width floating point: `f16`/`bf16` bit conversions and
//! rounding.
//!
//! The workspace is vendored-only (no `half` crate), so the conversions are
//! implemented directly on the IEEE 754 bit patterns. All narrowing uses
//! round-to-nearest-even, matching hardware convert units.

use crate::DataType;

/// Narrows an `f32` to IEEE 754 binary16 bits (round-to-nearest-even).
///
/// Overflow saturates to infinity; values below the smallest f16 normal
/// round into the subnormal range; NaN stays NaN (quiet, payload kept).
///
/// # Example
///
/// ```
/// use flat_tensor::half::{f16_bits_to_f32, f32_to_f16_bits};
///
/// assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
/// assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
/// assert_eq!(f32_to_f16_bits(65536.0), 0x7C00); // +inf: above f16 max
/// ```
#[must_use]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf or NaN. Force the quiet bit so a NaN whose payload lives
        // entirely in the truncated bits cannot collapse to infinity.
        let payload = if abs > 0x7f80_0000 {
            0x0200 | ((abs >> 13) & 0x03ff) as u16
        } else {
            0
        };
        sign | 0x7c00 | payload
    } else if abs >= 0x4780_0000 {
        // Magnitude >= 2^16: past the largest finite f16 (65504).
        sign | 0x7c00
    } else if abs < 0x3880_0000 {
        // Below 2^-14: f16 subnormal or zero. Scale into units of the
        // subnormal ulp (2^-24) and let the float adder round to nearest
        // even: adding 2^23 aligns the integer part with the mantissa lsb.
        let v = f32::from_bits(abs) * 16_777_216.0; // x · 2^24, exact
        let r = (v + 8_388_608.0).to_bits() & 0x07ff;
        sign | r as u16
    } else {
        // Normal range: re-bias the exponent from 127 to 15 and round the
        // mantissa from 23 to 10 bits (half-ulp bias plus the sticky lsb
        // gives nearest-even; a mantissa carry ripples into the exponent,
        // which is exactly the correct behaviour, including 65520 -> inf).
        let rounded = abs + 0x0fff + ((abs >> 13) & 1);
        sign | ((rounded - 0x3800_0000) >> 13) as u16
    }
}

/// Widens IEEE 754 binary16 bits to `f32` (exact — every f16 value is
/// representable in f32).
#[must_use]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    // Exponent/mantissa shift with two fix-ups (inf/NaN and subnormals).
    let mut o = ((h as u32) & 0x7fff) << 13;
    let exp = o & 0x0f80_0000; // f16 exponent field, now in f32 position
    o += (127 - 15) << 23; // re-bias
    if exp == 0x0f80_0000 {
        // Inf/NaN: push the exponent to 255.
        o += (128 - 16) << 23;
    } else if exp == 0 {
        // Zero/subnormal: renormalize by one extra exponent step and
        // subtract the magic constant the mantissa bits now sit on.
        o += 1 << 23;
        o = (f32::from_bits(o) - f32::from_bits(0x3880_0000)).to_bits();
    }
    f32::from_bits(o | ((h as u32) & 0x8000) << 16)
}

/// Narrows an `f32` to bfloat16 bits (round-to-nearest-even).
///
/// bf16 is the f32 format truncated to an 8-bit mantissa, so the
/// conversion is a rounded shift; exponent range is identical to f32.
#[must_use]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep NaN quiet rather than letting the rounding carry turn the
        // payload into infinity.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let rounding_bias = 0x7fff + ((bits >> 16) & 1);
    (bits.wrapping_add(rounding_bias) >> 16) as u16
}

/// Widens bfloat16 bits to `f32` (exact: a 16-bit left shift).
#[inline]
#[must_use]
pub const fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Rounds an `f32` through f16 storage and back.
#[must_use]
pub fn round_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Rounds an `f32` through bf16 storage and back.
#[must_use]
pub fn round_bf16(x: f32) -> f32 {
    bf16_bits_to_f32(f32_to_bf16_bits(x))
}

/// Rounds an `f32` to the storage precision of `dtype`.
///
/// `Fp32` is the identity; `Int8` is *not* representable as a pure
/// element-wise rounding (it needs a tensor-level scale) and is rejected.
///
/// # Panics
///
/// Panics for [`DataType::Int8`].
#[must_use]
pub fn round_to(dtype: DataType, x: f32) -> f32 {
    match dtype {
        DataType::Fp32 => x,
        DataType::Fp16 => round_f16(x),
        DataType::Bf16 => round_bf16(x),
        DataType::Int8 => panic!("int8 rounding requires a tensor-level scale; use quantization"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_values() {
        for &(f, h) in &[
            (0.0f32, 0x0000u16),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (0.5, 0x3800),
            (65504.0, 0x7bff),
            (6.103_515_6e-5, 0x0400), // smallest normal
            (5.960_464_5e-8, 0x0001), // smallest subnormal
            (f32::INFINITY, 0x7c00),
        ] {
            assert_eq!(f32_to_f16_bits(f), h, "{f}");
            assert_eq!(f16_bits_to_f32(h), f, "0x{h:04x}");
        }
    }

    #[test]
    fn f16_round_trip_is_exact_on_representables() {
        // Every finite f16 bit pattern must survive decode -> encode.
        for h in 0..=0xffffu16 {
            let exp = (h >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // inf/NaN handled separately
            }
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(h)), h, "0x{h:04x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1.0 + ulp/2 is a tie: rounds to even mantissa (stays 1.0).
        let ulp = f16_bits_to_f32(0x3c01) - 1.0;
        assert_eq!(f32_to_f16_bits(1.0 + ulp * 0.5), 0x3c00);
        // The next tie rounds *up* to even.
        assert_eq!(f32_to_f16_bits(1.0 + ulp * 1.5), 0x3c02);
        // Just past the tie rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + ulp * 0.51), 0x3c01);
    }

    #[test]
    fn f16_overflow_and_nan() {
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00, "rounds past max to inf");
        assert_eq!(f32_to_f16_bits(65519.0), 0x7bff, "max finite below tie");
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
    }

    #[test]
    fn bf16_matches_truncated_f32_format() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        assert_eq!(round_bf16(-0.0), 0.0);
        assert!(round_bf16(f32::NAN).is_nan());
        assert_eq!(round_bf16(f32::INFINITY), f32::INFINITY);
        // bf16 keeps the f32 exponent range: no overflow at f16's limit.
        assert_eq!(round_bf16(65536.0), 65536.0);
    }

    #[test]
    fn bf16_relative_error_bounded_by_epsilon() {
        let mut x = 1.1e-30f32;
        while x < 1e30 {
            let r = round_bf16(x);
            assert!(((r - x) / x).abs() <= 1.0 / 256.0, "{x} -> {r}");
            x *= 3.7;
        }
    }

    #[test]
    fn round_to_is_identity_for_f32() {
        assert_eq!(round_to(DataType::Fp32, 1.234_567_8), 1.234_567_8);
    }
}
