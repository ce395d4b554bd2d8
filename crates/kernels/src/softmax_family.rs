//! The online-softmax algorithm family: exact, FLASH-D (division folded
//! into the accumulation recurrence), and H-FA (log2-domain adds + LUT).
//!
//! FLAT's fused loop spends its special-function budget on softmax: the
//! reference keeps an `exp` per logit and a divide pass per row in the
//! inner loop. The two variants here remove them incrementally, following
//! the FLASH-D and H-FA papers:
//!
//! * [`FlashDSoftmax`] keeps the output *always normalized* by folding the
//!   division into the accumulation recurrence `o ← o·carry + (w/s')·v`
//!   with `carry = s·α/s'`. The per-row normalize pass disappears; one
//!   reciprocal per absorbed chunk remains. The `exp` becomes a degree-5
//!   polynomial `2^x` evaluation (what a pipelined SFU computes), accurate
//!   to ~1 ulp of f32.
//! * [`LogLutSoftmax`] moves everything to the base-2 log domain: logits
//!   become `y = x·log2(e)`, the running denominator is carried as
//!   `log2(Σ 2^y)` via LUT-based log-domain additions, and normalized
//!   weights come from a 64-entry `2^frac` table with linear
//!   interpolation — no `exp` call and no divider anywhere.
//!
//! Both expose [`OnlineSoftmax`](crate::OnlineSoftmax)'s chunked `absorb`
//! contract (weights written in place, carry returned), so the fused walk
//! and [`RowFold`](crate::RowFold) select a member with [`SoftmaxKind`] at
//! runtime.
//! [`ComputePrecision`] selects the storage/arithmetic width the kernels
//! pair with the softmax kind.

use flat_tensor::{DataType, SoftmaxKind};
use std::fmt;
use std::sync::OnceLock;

/// Storage and arithmetic precision of an attention kernel.
///
/// Distinct from [`DataType`] (a pure storage-width descriptor): a
/// `ComputePrecision` names an executable kernel configuration — f32
/// reference, 16-bit storage rounding with f32 arithmetic, or int8 with
/// integer GEMMs and an int8 score matrix.
///
/// # Example
///
/// ```
/// use flat_kernels::ComputePrecision;
/// use flat_tensor::DataType;
///
/// assert_eq!(ComputePrecision::parse("bf16"), Ok(ComputePrecision::Bf16));
/// assert_eq!(ComputePrecision::Bf16.dtype(), DataType::Bf16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputePrecision {
    /// Full f32: the reference.
    F32,
    /// bfloat16 storage: Q/K/V are rounded to bf16 once, then the f32
    /// kernels run on the rounded values.
    Bf16,
    /// IEEE f16 storage: Q/K/V are rounded to f16 once, then the f32
    /// kernels run on the rounded values.
    F16,
    /// int8 storage with integer GEMMs; the score matrix is quantized too.
    Int8,
}

impl ComputePrecision {
    /// All precisions, reference first.
    #[must_use]
    pub const fn all() -> &'static [ComputePrecision] {
        &[
            ComputePrecision::F32,
            ComputePrecision::Bf16,
            ComputePrecision::F16,
            ComputePrecision::Int8,
        ]
    }

    /// The storage width this precision keeps tensors at.
    #[must_use]
    pub const fn dtype(self) -> DataType {
        match self {
            ComputePrecision::F32 => DataType::Fp32,
            ComputePrecision::Bf16 => DataType::Bf16,
            ComputePrecision::F16 => DataType::Fp16,
            ComputePrecision::Int8 => DataType::Int8,
        }
    }

    /// Parses the lowercase display name (`"fp32"`, `"bf16"`, `"fp16"`,
    /// `"int8"`; `"f32"`/`"f16"` accepted as aliases).
    ///
    /// # Errors
    ///
    /// Returns the list of valid names when `s` matches none.
    pub fn parse(s: &str) -> Result<ComputePrecision, String> {
        match s {
            "fp32" | "f32" => Ok(ComputePrecision::F32),
            "bf16" => Ok(ComputePrecision::Bf16),
            "fp16" | "f16" => Ok(ComputePrecision::F16),
            "int8" => Ok(ComputePrecision::Int8),
            other => Err(format!(
                "unknown precision '{other}' (expected one of: fp32, bf16, fp16, int8)"
            )),
        }
    }
}

impl Default for ComputePrecision {
    /// The f32 reference, matching all pre-existing kernel behavior.
    fn default() -> Self {
        ComputePrecision::F32
    }
}

impl fmt::Display for ComputePrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.dtype().fmt(f)
    }
}

/// log2(e): the natural → base-2 logit conversion factor.
const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// `2^x` by a degree-5 polynomial on `x − round(x)` (the classic Cephes
/// `exp2f` kernel): ~1 ulp of f32, no libm call — this is the arithmetic a
/// pipelined hardware SFU actually performs, and on the host it is several
/// times faster than `f32::exp`, which is what lets the FLASH-D kernels
/// show their wall-clock win.
#[inline]
#[must_use]
pub fn fast_exp2(x: f32) -> f32 {
    // Straight-line select form (no early return) so loops over logit
    // rows auto-vectorize: clamp, evaluate, then mask the saturated ends.
    let xc = x.clamp(-126.0, 127.0);
    let n = (xc + 0.5).floor();
    let z = xc - n; // in [-0.5, 0.5]
    let mut p = 1.535_336_2e-4_f32;
    p = p.mul_add(z, 1.339_887_4e-3);
    p = p.mul_add(z, 9.618_438e-3);
    p = p.mul_add(z, 5.550_332_5e-2);
    p = p.mul_add(z, 2.402_264_8e-1);
    p = p.mul_add(z, 6.931_472e-1);
    p = p.mul_add(z, 1.0);
    // Scale by 2^n through the exponent bits (n is integral, in range).
    let v = p * f32::from_bits((((n as i32) + 127) << 23) as u32);
    if x < -126.0 {
        0.0
    } else if x > 127.0 {
        f32::INFINITY
    } else {
        v
    }
}

/// `e^x` through [`fast_exp2`].
#[inline]
#[must_use]
pub fn fast_exp(x: f32) -> f32 {
    fast_exp2(x * LOG2_E)
}

/// Entries of the `2^frac` mantissa table (64 intervals over `[0, 1)`).
const EXP2_LUT_N: usize = 64;

/// Entries of the `log2(1 + 2^−t)` table (`t` quantized at 1/16 over
/// `[0, 16)`; beyond 16 the correction is below f32 resolution here).
const LOG2_1P_N: usize = 256;

fn exp2_frac_table() -> &'static [f32; EXP2_LUT_N + 1] {
    static TABLE: OnceLock<[f32; EXP2_LUT_N + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f32; EXP2_LUT_N + 1];
        for (i, e) in t.iter_mut().enumerate() {
            *e = (i as f32 / EXP2_LUT_N as f32).exp2();
        }
        t
    })
}

fn log2_1p_table() -> &'static [f32; LOG2_1P_N] {
    static TABLE: OnceLock<[f32; LOG2_1P_N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f32; LOG2_1P_N];
        for (i, e) in t.iter_mut().enumerate() {
            let d = i as f32 / 16.0;
            *e = (1.0 + (-d).exp2()).log2();
        }
        t
    })
}

/// `2^x` from the 64-entry mantissa LUT with linear interpolation — the
/// H-FA conversion back from the log domain. Worst-case relative error is
/// ~`(ln2/64)²/8 ≈ 1.5e-5`, far inside the bf16 noise floor.
#[inline]
#[must_use]
pub fn exp2_lut(x: f32) -> f32 {
    if x < -126.0 {
        return 0.0;
    }
    if x > 127.0 {
        return f32::INFINITY;
    }
    let xf = x.floor();
    let f = (x - xf) * EXP2_LUT_N as f32;
    let idx = f as usize; // 0..=63: x − floor(x) < 1
    let frac = f - idx as f32;
    let t = exp2_frac_table();
    let m = t[idx] + (t[idx + 1] - t[idx]) * frac;
    m * f32::from_bits((((xf as i32) + 127) << 23) as u32)
}

/// Log-domain addition `log2(2^a + 2^b)` as the H-FA adder computes it:
/// `max(a, b) + log2(1 + 2^−|a−b|)`, the correction term from a small LUT
/// (linear interpolation between the 1/16-step entries).
#[inline]
#[must_use]
pub fn log2_add_lut(a: f32, b: f32) -> f32 {
    if a == f32::NEG_INFINITY {
        return b;
    }
    if b == f32::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    let d = (hi - lo) * 16.0;
    let idx = d as usize;
    if idx + 1 >= LOG2_1P_N {
        return hi;
    }
    let frac = d - idx as f32;
    let t = log2_1p_table();
    hi + t[idx] + (t[idx + 1] - t[idx]) * frac
}

/// FLASH-D online softmax: the division is folded into the accumulation
/// recurrence, so the weighted output stays normalized at every step and
/// the per-row normalize pass disappears.
///
/// Contract shared with [`LogLutSoftmax`]: [`absorb`](Self::absorb) takes
/// a chunk of natural-domain logits, replaces each with its *normalized*
/// weight `w/s'`, and returns the `carry` factor for output produced by
/// earlier chunks; the caller folds `o ← o·carry + Σ w̃_j·v_j` and never
/// normalizes. (`carry + Σ w̃_j·(chunk weight share) = 1` by construction —
/// for a single element this is exactly the FLASH-D sigmoid form
/// `o ← o + μ(v − o)`.)
///
/// # Example
///
/// ```
/// use flat_kernels::{softmax_row, FlashDSoftmax};
///
/// let row = [0.5f32, -1.0, 2.0, 0.3];
/// let mut reference = row;
/// softmax_row(&mut reference);
///
/// let mut st = FlashDSoftmax::new();
/// let mut weights = row;
/// let carry = st.absorb(&mut weights);
/// assert_eq!(carry, 0.0); // nothing absorbed before the first chunk
/// for (w, r) in weights.iter().zip(&reference) {
///     assert!((w - r).abs() < 1e-5); // already normalized: no divide pass
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashDSoftmax {
    max: f32,
    sum: f32,
}

impl FlashDSoftmax {
    /// Fresh state: no logits absorbed.
    #[must_use]
    pub fn new() -> Self {
        FlashDSoftmax {
            max: f32::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Absorbs a chunk of logits, replacing each with its normalized
    /// weight, and returns the rescale factor for previously produced
    /// output (0.0 before anything is absorbed, so a cold accumulator
    /// needs no special-casing).
    pub fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        let chunk_max = crate::softmax::lane_max(chunk);
        let new_max = self.max.max(chunk_max);
        if new_max == f32::NEG_INFINITY {
            // Entirely masked so far: no weight anywhere.
            chunk.fill(0.0);
            return if self.sum > 0.0 { 1.0 } else { 0.0 };
        }
        let alpha = if self.max == f32::NEG_INFINITY {
            0.0
        } else {
            fast_exp(self.max - new_max)
        };
        let old = self.sum * alpha;
        // Elementwise map first, laned reduction second: fusing them puts
        // a serial FP add in the loop and defeats the vectorizer.
        for x in chunk.iter_mut() {
            *x = fast_exp2((*x - new_max) * LOG2_E);
        }
        let part = crate::softmax::lane_sum(chunk);
        let new_sum = old + part;
        self.max = new_max;
        self.sum = new_sum;
        // The one reciprocal that remains: per chunk, not per element and
        // not per output lane.
        let inv = 1.0 / new_sum;
        for x in chunk.iter_mut() {
            *x *= inv;
        }
        old * inv
    }

    /// Current running maximum (natural domain).
    #[must_use]
    pub fn running_max(&self) -> f32 {
        self.max
    }
}

impl Default for FlashDSoftmax {
    fn default() -> Self {
        FlashDSoftmax::new()
    }
}

/// H-FA hybrid log-domain softmax: the running denominator lives as
/// `log2(Σ 2^y)` and is grown by LUT-based log-domain adds; normalized
/// weights are `2^(y − acc)` from the mantissa LUT. Same chunked `absorb`
/// contract as [`FlashDSoftmax`] — and like it, division-free, but here
/// the `exp` unit is gone too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogLutSoftmax {
    /// `log2` of the running denominator (−∞ before anything absorbed).
    acc2: f32,
}

impl LogLutSoftmax {
    /// Fresh state: no logits absorbed.
    #[must_use]
    pub fn new() -> Self {
        LogLutSoftmax {
            acc2: f32::NEG_INFINITY,
        }
    }

    /// Absorbs a chunk of natural-domain logits, replacing each with its
    /// normalized weight; returns the rescale factor for earlier output.
    pub fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        // Into the log2 domain: one multiply per logit; from here on the
        // "arithmetic" is adds, compares, and table lookups.
        for x in chunk.iter_mut() {
            *x *= LOG2_E;
        }
        let old = self.acc2;
        let mut acc = old;
        for &y in chunk.iter() {
            acc = log2_add_lut(acc, y);
        }
        if acc == f32::NEG_INFINITY {
            chunk.fill(0.0);
            return 0.0;
        }
        for y in chunk.iter_mut() {
            // Normalization is an exponent *subtraction*: w̃ = 2^(y − acc).
            *y = exp2_lut(*y - acc);
        }
        self.acc2 = acc;
        if old == f32::NEG_INFINITY {
            0.0
        } else {
            exp2_lut(old - acc)
        }
    }

    /// `log2` of the running softmax denominator.
    #[must_use]
    pub fn log2_normalizer(&self) -> f32 {
        self.acc2
    }
}

impl Default for LogLutSoftmax {
    fn default() -> Self {
        LogLutSoftmax::new()
    }
}

/// Applies the selected softmax kind to one complete row, in place.
///
/// For [`SoftmaxKind::Exact`] this is the two-pass reference; for the
/// family members it is a single whole-row `absorb`, which leaves the row
/// already normalized with no divide pass.
pub fn softmax_row_kind(row: &mut [f32], kind: SoftmaxKind) {
    if row.is_empty() {
        return;
    }
    match kind {
        SoftmaxKind::Exact => crate::softmax_row(row),
        SoftmaxKind::FlashD => {
            let _ = FlashDSoftmax::new().absorb(row);
        }
        SoftmaxKind::LogLut => {
            let _ = LogLutSoftmax::new().absorb(row);
        }
    }
}

/// Rounds a matrix through the storage grid of `precision` (identity for
/// f32) — the values a kernel holding its tensors at that width actually
/// computes with. The fused bf16/f16 walk and the non-f32 streaming
/// kernels snap Q/K/V with it, then run f32 arithmetic on the result.
pub(crate) fn storage_snap(m: &crate::Mat, precision: ComputePrecision) -> crate::Mat {
    match precision {
        ComputePrecision::F32 => m.clone(),
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            crate::halfmat::HalfMat::from_mat(m, precision.dtype()).to_mat()
        }
        ComputePrecision::Int8 => crate::QuantizedMat::quantize(m).dequantize(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax_row;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fast_exp2_tracks_libm_to_f32_precision() {
        let mut x = -80.0f32;
        while x < 80.0 {
            let (a, b) = (fast_exp2(x), x.exp2());
            assert!(((a - b) / b).abs() < 1e-6, "{x}: {a} vs {b}");
            x += 0.0371;
        }
        assert_eq!(fast_exp2(f32::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp2(-1000.0), 0.0);
        assert_eq!(fast_exp2(1000.0), f32::INFINITY);
    }

    #[test]
    fn exp2_lut_error_is_within_the_interpolation_bound() {
        let mut x = -30.0f32;
        while x < 30.0 {
            let (a, b) = (exp2_lut(x), x.exp2());
            assert!(((a - b) / b).abs() < 5e-5, "{x}: {a} vs {b}");
            x += 0.0193;
        }
        assert_eq!(exp2_lut(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn log2_add_matches_linear_domain() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let a: f32 = rng.gen_range(-20.0..20.0);
            let b: f32 = rng.gen_range(-20.0..20.0);
            let exact = (a.exp2() as f64 + b.exp2() as f64).log2() as f32;
            let lut = log2_add_lut(a, b);
            assert!((lut - exact).abs() < 2e-4, "{a}+{b}: {lut} vs {exact}");
        }
        assert_eq!(log2_add_lut(f32::NEG_INFINITY, 3.0), 3.0);
        assert_eq!(log2_add_lut(3.0, f32::NEG_INFINITY), 3.0);
    }

    fn family_weights(row: &[f32], chunk: usize, kind: SoftmaxKind) -> (Vec<f32>, Vec<f32>) {
        // Fold an identity "value" through the absorb contract to recover
        // the weights; also check carry telescopes to a distribution.
        let mut weights: Vec<f32> = Vec::new();
        match kind {
            SoftmaxKind::FlashD => {
                let mut st = FlashDSoftmax::new();
                for c in row.chunks(chunk) {
                    let mut w = c.to_vec();
                    let carry = st.absorb(&mut w);
                    for p in &mut weights {
                        *p *= carry;
                    }
                    weights.extend(w);
                }
            }
            SoftmaxKind::LogLut => {
                let mut st = LogLutSoftmax::new();
                for c in row.chunks(chunk) {
                    let mut w = c.to_vec();
                    let carry = st.absorb(&mut w);
                    for p in &mut weights {
                        *p *= carry;
                    }
                    weights.extend(w);
                }
            }
            SoftmaxKind::Exact => unreachable!(),
        }
        let mut reference = row.to_vec();
        softmax_row(&mut reference);
        (weights, reference)
    }

    #[test]
    fn flash_d_matches_reference_within_relative_bound() {
        let mut rng = StdRng::seed_from_u64(21);
        for chunk in [1, 3, 16, 64, 1000] {
            let row: Vec<f32> = (0..256).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let (w, r) = family_weights(&row, chunk, SoftmaxKind::FlashD);
            let sum: f32 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "chunk {chunk}: sum {sum}");
            for (a, b) in w.iter().zip(&r) {
                // fast_exp2 is ~1 ulp; the recurrence adds a few more.
                assert!((a - b).abs() < 1e-5 + b * 1e-4, "chunk {chunk}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn log_lut_matches_reference_within_lut_bound() {
        let mut rng = StdRng::seed_from_u64(22);
        for chunk in [1, 7, 64, 1000] {
            let row: Vec<f32> = (0..256).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let (w, r) = family_weights(&row, chunk, SoftmaxKind::LogLut);
            let sum: f32 = w.iter().sum();
            assert!((sum - 1.0).abs() < 5e-3, "chunk {chunk}: sum {sum}");
            for (a, b) in w.iter().zip(&r) {
                assert!((a - b).abs() < 1e-4 + b * 2e-3, "chunk {chunk}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn masked_logits_get_zero_weight() {
        for kind in [SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            let mut row = [f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY, 1.0];
            softmax_row_kind(&mut row, kind);
            assert_eq!(row[0], 0.0);
            assert_eq!(row[2], 0.0);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{kind}: {sum}");
        }
    }

    #[test]
    fn all_masked_chunks_are_total() {
        for kind in [SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            let mut row = [f32::NEG_INFINITY; 4];
            softmax_row_kind(&mut row, kind);
            assert!(row.iter().all(|&w| w == 0.0), "{kind}");
        }
        // And a masked chunk after real logits must not disturb them.
        let mut st = FlashDSoftmax::new();
        let mut first = [0.0f32, 1.0];
        let _ = st.absorb(&mut first);
        let mut masked = [f32::NEG_INFINITY; 2];
        let carry = st.absorb(&mut masked);
        assert_eq!(carry, 1.0, "earlier output must be kept");
        assert_eq!(masked, [0.0, 0.0]);
    }

    #[test]
    fn decode_shape_single_element_recurrence_is_an_average() {
        // One element at a time, uniform logits: after n steps each weight
        // is 1/n — the o ← o + μ(v − o) incremental-average form.
        let mut st = FlashDSoftmax::new();
        let mut o = 0.0f32;
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            let mut w = [0.0f32];
            let carry = st.absorb(&mut w);
            o = o * carry + w[0] * v;
        }
        assert!((o - 2.5).abs() < 1e-5, "{o}");
    }

    #[test]
    fn precision_selector_round_trips_and_maps_to_dtypes() {
        for &p in ComputePrecision::all() {
            assert_eq!(ComputePrecision::parse(&p.to_string()), Ok(p));
            assert_eq!(p.dtype().to_string(), p.to_string());
        }
        assert_eq!(ComputePrecision::parse("f32"), Ok(ComputePrecision::F32));
        assert!(ComputePrecision::parse("fp8").is_err());
    }
}
