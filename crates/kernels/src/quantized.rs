//! Int8-quantized attention: the §7 orthogonality claim at the numerical
//! level. FLAT is a dataflow; quantization is a model-level compression —
//! int8 runs the *same fused row-tiled execution*,
//! [`flat_attention_group`], over int8 tensors (per-tensor symmetric
//! scales, exact integer sums, fp32 softmax) and measures what the
//! precision costs, proving the two techniques compose without
//! interfering. This module holds what int8 adds to that walk: the loader
//! and Stage A.
//!
//! The loader quantizes each group once and hands the walk the integer
//! levels as f32, so both GEMMs run on the f32 panel kernels. Every int8
//! product is at most `127² = 16,129` in magnitude, so a QKᵀ dot of
//! `dk ≤ 1,040` products and a PV sum over `PV_CHUNK = 1,024` keys both
//! stay below `2²⁴`, where every f32 partial sum of integers is an exact
//! integer in any order. The logits are then the integer dot products bit
//! for bit, and each PV chunk's exact sums fold into i64, so no key length
//! overflows them. The loader rejects a larger `dk` rather than round.
//!
//! Stage A requantizes each tile's probabilities with one scale, the
//! largest weight of the tile. Its abs-max fold (like the logit snap's)
//! runs on `LANES` lanes; `max` over non-NaN values does not depend on
//! order, so both are the serial folds' bits.

use crate::fused::flat_attention_group;
use crate::mat::wide_attend_acc;
use crate::softmax::lane_abs_max;
use crate::ComputePrecision::Int8;
use crate::{Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind::Exact;

/// A symmetric per-tensor int8 quantization of a matrix.
#[derive(Debug, Clone)]
pub struct QuantizedMat {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Dequantization scale: `real ≈ q · scale`.
    pub scale: f32,
}

impl QuantizedMat {
    /// Quantizes `m` symmetrically to int8.
    #[must_use]
    pub fn quantize(m: &Mat) -> Self {
        let max = m.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        QuantizedMat {
            rows: m.rows(),
            cols: m.cols(),
            data: m
                .as_slice()
                .iter()
                .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
                .collect(),
            scale,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Quantized element at `(i, j)`.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.cols + j]
    }

    /// The int8 levels as an unscaled, integer-valued f32 matrix.
    fn levels(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| f32::from(self.at(i, j)))
    }

    /// Dequantizes back to an f32 matrix — the values an int8-stored
    /// tensor actually contributes to downstream arithmetic.
    #[must_use]
    pub fn dequantize(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            f32::from(self.at(i, j)) * self.scale
        })
    }
}

/// Largest head dimension of the int8 walk: a QKᵀ dot of `dk` int8
/// products is an exact f32 integer while `dk · 127² < 2²⁴`.
const MAX_DK: usize = 1040;

/// Keys per PV chunk: `1024 · 127² < 2²⁴`, so a chunk's f32 sums are
/// exact integers before they fold into i64.
const PV_CHUNK: usize = 1024;

/// FLAT row-tiled attention over int8-quantized Q/K/V: exact integer
/// logits, fp32 softmax in the slice, exact integer attend sums (with the
/// softmaxed probabilities requantized to int8), fp32 output. Unlike
/// [`flat_attention_with`](crate::flat_attention_with) at
/// [`ComputePrecision::Int8`](crate::ComputePrecision::Int8), the scores
/// stay fp32: they are not snapped to the int8 grid.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero, or if `dk` exceeds 1,040, past
/// which an int8 QKᵀ dot leaves f32's exact integers.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, quantized_flat_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 5);
/// let q8 = quantized_flat_attention(&input, 8, Mask::None);
/// let f32 = naive_attention(&input, Mask::None);
/// // Int8 attention tracks fp32 to a few percent of the value range.
/// assert!(q8[0].max_abs_diff(&f32[0]) < 0.1);
/// ```
#[must_use]
pub fn quantized_flat_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    (0..input.groups())
        .map(|g| flat_attention_group(input, g, rows_per_tile, mask, Int8, Exact, false).0)
        .collect()
}

/// Snaps the *finite* logits of a row onto a symmetric 127-level int8
/// grid, in place — the score-matrix half of the int8 path. Masked
/// (`−∞`) entries pass through untouched.
pub(crate) fn snap_logits_int8(row: &mut [f32]) {
    let max = lane_abs_max(row);
    if max == 0.0 {
        return;
    }
    let scale = max / 127.0;
    for x in row.iter_mut() {
        if x.is_finite() {
            *x = (*x / scale).round() * scale;
        }
    }
}

/// The int8 loader: quantizes one group's `[q, k, v]` once and returns
/// their integer levels as f32, with `s_q·s_k`, which dequantizes the
/// integer logits, and `s_v`, which dequantizes the PV sums. The i8
/// matrices drop here.
///
/// # Panics
///
/// Panics if `dk` exceeds [`MAX_DK`].
pub(crate) fn int8_levels(qkv: [&Mat; 3]) -> ([Mat; 3], f32, f32) {
    let dk = qkv[0].cols();
    assert!(dk <= MAX_DK, "int8 walk takes dk <= {MAX_DK}, got {dk}");
    let [q, k, v] = qkv.map(QuantizedMat::quantize);
    (
        [q.levels(), k.levels(), v.levels()],
        q.scale * k.scale,
        v.scale,
    )
}

/// The int8 Stage A of one row band: its P chunk, one chunk's exact f32
/// sums and their i64 fold, allocated once, over the band's V levels.
pub(crate) struct Int8Attend<'a> {
    v: &'a Mat,
    v_scale: f32,
    p: Mat,
    sums: Mat,
    acc: Vec<i64>,
}

impl<'a> Int8Attend<'a> {
    pub(crate) fn new(tile_rows: usize, v: &'a Mat, v_scale: f32) -> Self {
        let dk = v.cols();
        Int8Attend {
            v,
            v_scale,
            p: Mat::zeros(tile_rows, PV_CHUNK.min(v.rows())),
            sums: Mat::zeros(tile_rows, dk),
            acc: vec![0; tile_rows * dk],
        }
    }

    /// Requantizes the tile's probabilities with the one scale its largest
    /// weight `p_max` sets, sums P·V exactly over the `live` columns (the
    /// rest are exactly 0), one `PV_CHUNK` of keys at a time, and writes
    /// the dequantized sums to `out`'s rows from `out_lo`.
    pub(crate) fn attend(
        &mut self,
        tile: &Mat,
        nrows: usize,
        live: usize,
        p_max: f32,
        out: &mut Mat,
        out_lo: usize,
    ) {
        let dk = self.v.cols();
        let p_scale = if p_max == 0.0 { 1.0 } else { p_max / 127.0 };
        let acc = &mut self.acc[..nrows * dk];
        acc.fill(0);
        for c_lo in (0..live).step_by(PV_CHUNK) {
            let width = (live - c_lo).min(PV_CHUNK);
            for r in 0..nrows {
                let probs = &tile.row(r)[c_lo..c_lo + width];
                for (pv, &x) in self.p.row_mut(r).iter_mut().zip(probs) {
                    // Through i8, as int8 storage holds it: a NaN weight
                    // (from non-finite inputs) reads level 0.
                    *pv = f32::from((x / p_scale).round().clamp(-127.0, 127.0) as i8);
                }
                self.sums.row_mut(r).fill(0.0);
            }
            wide_attend_acc(&self.p, nrows, width, self.v, c_lo, &mut self.sums, 0);
            for (a, &s) in acc.iter_mut().zip(self.sums.as_slice()) {
                *a += s as i64;
            }
        }
        for (r, a) in acc.chunks_exact(dk).enumerate() {
            for (o, &a) in out.row_mut(out_lo + r).iter_mut().zip(a) {
                *o = (a as f32 * p_scale) * self.v_scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_attention;

    #[test]
    fn quantization_round_trips_within_scale() {
        let m = Mat::from_fn(8, 8, |i, j| ((i * 8 + j) as f32 - 32.0) / 7.0);
        let q = QuantizedMat::quantize(&m);
        for i in 0..8 {
            for j in 0..8 {
                let deq = f32::from(q.at(i, j)) * q.scale;
                assert!((deq - m.at(i, j)).abs() <= q.scale, "({i},{j})");
            }
        }
    }

    #[test]
    fn int8_attention_tracks_fp32() {
        let input = MultiHeadInput::random(2, 2, 48, 48, 8, 17);
        let exact = naive_attention(&input, Mask::None);
        let q8 = quantized_flat_attention(&input, 16, Mask::None);
        for (e, q) in exact.iter().zip(&q8) {
            let d = e.max_abs_diff(q);
            assert!(d < 0.08, "int8 deviation {d}");
        }
    }

    #[test]
    fn tile_size_does_not_change_quantized_result_much() {
        let input = MultiHeadInput::random(1, 1, 32, 32, 4, 19);
        let a = quantized_flat_attention(&input, 4, Mask::None);
        let b = quantized_flat_attention(&input, 32, Mask::None);
        // Per-slice requantization makes tiles differ slightly, bounded by
        // a couple of quantization steps.
        assert!(a[0].max_abs_diff(&b[0]) < 0.1);
    }

    #[test]
    fn causal_masking_survives_quantization() {
        let input = MultiHeadInput::random(1, 1, 12, 12, 4, 23);
        let exact = naive_attention(&input, Mask::Causal);
        let q8 = quantized_flat_attention(&input, 4, Mask::Causal);
        assert!(exact[0].max_abs_diff(&q8[0]) < 0.1);
        // Row 0 attends only to key 0 in both.
        for d in 0..4 {
            assert!((q8[0].at(0, d) - input.v[0].at(0, d)).abs() < 0.05);
        }
    }

    #[test]
    fn dequantize_round_trips_within_one_step() {
        let m = Mat::from_fn(6, 5, |i, j| (i as f32 - j as f32) * 0.3);
        let q = QuantizedMat::quantize(&m);
        let deq = q.dequantize();
        assert!(deq.max_abs_diff(&m) <= q.scale);
    }

    #[test]
    fn logit_snap_preserves_masks_and_zero_rows() {
        let mut row = [f32::NEG_INFINITY, 1.0, -0.5, f32::NEG_INFINITY];
        snap_logits_int8(&mut row);
        assert_eq!(row[0], f32::NEG_INFINITY);
        assert_eq!(row[3], f32::NEG_INFINITY);
        assert!((row[1] - 1.0).abs() <= 1.0 / 127.0);
        let mut zeros = [0.0f32, f32::NEG_INFINITY];
        snap_logits_int8(&mut zeros);
        assert_eq!(zeros, [0.0, f32::NEG_INFINITY]);
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let z = Mat::zeros(4, 4);
        let q = QuantizedMat::quantize(&z);
        assert_eq!(q.scale, 1.0);
        assert!(q.data.iter().all(|&v| v == 0));
    }
}
