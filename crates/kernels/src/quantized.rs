//! Int8-quantized attention: the §7 orthogonality claim at the numerical
//! level. FLAT is a dataflow; quantization is a model-level compression —
//! this module runs the *same fused row-tiled execution* over int8 tensors
//! (per-tensor symmetric scales, i32 accumulation, fp32 softmax) and
//! measures what the precision costs, proving the two techniques compose
//! without interfering.
//!
//! Both GEMMs run on one integer microkernel, `int8_rowmul`: QKᵀ as
//! `q_i · Kᵀ` (K is transposed once per group) and PV as `p_i · V`. A
//! block of output columns stays in i32 registers across the contraction,
//! int8 products are formed at i16 width, and the partial sums fold into
//! i64 every 2¹⁷ steps, so no key length wraps them. Integer sums are exact
//! in any order, so the walk matches the scalar loops it replaced bit for
//! bit; a causal tile stops its PV GEMM at its diagonal and each row's
//! QKᵀ at the row's own.
//!
//! As in the f32 walk, each row's snap and softmax passes stop at the
//! row's diagonal, rounded up to whole `LANES` chunks, and the columns
//! after it read the exact 0 a masked logit's weight is. The two abs-max
//! folds (the logit snap's and the per-tile probability scale's) run on
//! `LANES` lanes; `max` over non-NaN values does not depend on order, so
//! they are the serial folds' bits.
//!
//! Like the f32 walk, the rows run in bands of whole tiles on the thread
//! pool, so each tile keeps its probability scale and the bits do not
//! depend on the lane count.

use crate::fused::row_bands;
use crate::softmax::{lane_abs_max, LANES};
use crate::softmax_family::softmax_row_kind;
use crate::{softmax_row, Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind;

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

    /// Dequantizes back to an f32 matrix — the values an int8-stored
    /// tensor actually contributes to downstream arithmetic.
    #[must_use]
    pub fn dequantize(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            f32::from(self.at(i, j)) * self.scale
        })
    }
}

/// Contraction steps one i32 partial of [`int8_rowmul`] absorbs before it
/// folds into i64: `2¹⁷ · 127² < 2³¹`, so no partial wraps at any key
/// length.
const FOLD: usize = 1 << 17;

/// FLAT row-tiled attention over int8-quantized Q/K/V: integer logit
/// GEMM, fp32 softmax in the slice, integer attend GEMM (with the
/// softmaxed probabilities requantized to int8), fp32 output.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
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
        .map(|g| quantized_group(input, g, rows_per_tile, mask, None))
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

/// FLAT row-tiled int8 attention with the score matrix **also** held at
/// int8: the logit tile is snapped to a symmetric 127-level grid before
/// the softmax (the pre-softmax scores now live on the int8 grid, not
/// just the weights), and the softmax itself runs as the selected
/// [`SoftmaxKind`]. Stage A requantizes the probabilities as in
/// [`quantized_flat_attention`].
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, quantized_flat_attention_with, Mask, MultiHeadInput};
/// use flat_tensor::SoftmaxKind;
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 5);
/// let q8 = quantized_flat_attention_with(&input, 8, Mask::None, SoftmaxKind::FlashD);
/// let f32 = naive_attention(&input, Mask::None);
/// assert!(q8[0].max_abs_diff(&f32[0]) < 0.1);
/// ```
#[must_use]
pub fn quantized_flat_attention_with(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    (0..input.groups())
        .map(|g| quantized_group(input, g, rows_per_tile, mask, Some(kind)))
        .collect()
}

/// One (batch, head) group of the int8 walk behind both entry points:
/// `int8_scores` is `None` for fp32 scores under the exact softmax, or the
/// softmax kind to run on scores snapped to the int8 grid. Q/K/V are
/// quantized once and K is transposed once, so both GEMMs run on
/// [`int8_rowmul`]. Each of the [`row_bands`] allocates its logit tile,
/// int8 probabilities, accumulators and output block once.
fn quantized_group(
    input: &MultiHeadInput,
    g: usize,
    rows_per_tile: usize,
    mask: Mask,
    int8_scores: Option<SoftmaxKind>,
) -> Mat {
    let (seq_q, seq_kv, dk) = (input.seq_q, input.seq_kv, input.dk);
    let q = QuantizedMat::quantize(&input.q[g]);
    let k = QuantizedMat::quantize(&input.k[g]);
    let v = QuantizedMat::quantize(&input.v[g]);
    let mut kt = vec![0i8; dk * seq_kv];
    for (j, krow) in k.data.chunks_exact(dk).enumerate() {
        for (d, &x) in krow.iter().enumerate() {
            kt[d * seq_kv + j] = x;
        }
    }
    let qk_scale = q.scale * k.scale;
    let scale = input.scale();
    let bands = row_bands(seq_q, rows_per_tile, |band| {
        let tile_rows = rows_per_tile.min(band.len());
        let mut tile = vec![0.0f32; tile_rows * seq_kv];
        let mut p = vec![0i8; tile_rows * seq_kv];
        let mut acc = vec![0i64; seq_kv.max(dk)];
        let mut out = Mat::zeros(band.len(), dk);
        for row_lo in band.clone().step_by(rows_per_tile) {
            let row_hi = (row_lo + rows_per_tile).min(band.end);
            let tile = &mut tile[..(row_hi - row_lo) * seq_kv];
            // A causal tile stops at its diagonal: key columns from `live`
            // on are masked for every row, so the PV GEMM never visits
            // them, and each row's QKᵀ stops at the row's own diagonal.
            let live = mask.live_cols(row_hi, seq_kv);
            let mut p_max = 0.0f32;
            for (i, row) in tile.chunks_exact_mut(seq_kv).enumerate() {
                let qi = row_lo + i;
                let row_live = mask.live_cols(qi + 1, seq_kv);
                // Stage L: integer logits, dequantized as `(acc · s_q s_k) / √dk`.
                let qrow = &q.data[qi * dk..(qi + 1) * dk];
                int8_rowmul(qrow, &kt, seq_kv, row_live, &mut acc);
                for (j, (x, &a)) in row.iter_mut().zip(&acc[..row_live]).enumerate() {
                    *x = if mask.allows(qi, j) {
                        (a as f32 * qk_scale) * scale
                    } else {
                        f32::NEG_INFINITY
                    };
                }
                // SFU: fp32 softmax (probabilities need the dynamic range),
                // optionally over scores on the int8 grid, up to the row's
                // diagonal rounded up to whole `LANES` chunks.
                let end = row_live.next_multiple_of(LANES).min(seq_kv);
                row[row_live..end].fill(f32::NEG_INFINITY);
                let (scores, rest) = row.split_at_mut(end);
                match int8_scores {
                    None => softmax_row(scores),
                    Some(kind) => {
                        snap_logits_int8(scores);
                        softmax_row_kind(scores, kind);
                    }
                }
                if end < live {
                    rest[..live - end].fill(0.0);
                }
                p_max = p_max.max(lane_abs_max(scores));
            }
            // Stage A: requantize the probabilities with one per-tile
            // scale, then integer PV over the live columns (the rest are
            // exactly 0).
            let p_scale = if p_max == 0.0 { 1.0 } else { p_max / 127.0 };
            for (i, (prow, trow)) in p
                .chunks_exact_mut(seq_kv)
                .zip(tile.chunks_exact(seq_kv))
                .enumerate()
            {
                for (pv, &x) in prow[..live].iter_mut().zip(&trow[..live]) {
                    *pv = (x / p_scale).round().clamp(-127.0, 127.0) as i8;
                }
                int8_rowmul(&prow[..live], &v.data, dk, dk, &mut acc);
                let orow = out.row_mut(row_lo - band.start + i);
                for (o, &a) in orow.iter_mut().zip(&acc[..dk]) {
                    *o = (a as f32 * p_scale) * v.scale;
                }
            }
        }
        out
    });
    Mat::stack_rows(bands)
}

/// `out[c] = Σ_l a_l · b[l·ldb + c]` for `c < cols`, exact: the one
/// integer microkernel of the int8 walk (QKᵀ as `q_i · Kᵀ`, PV as
/// `p_i · V`). Each block of output columns stays in i32 registers while
/// the contraction walks `b` row by row, widening and multiplying a whole
/// block per step and skipping zero `a_l`; the i32 partials fold into
/// `out` every [`FOLD`] steps, so they never wrap.
fn int8_rowmul(a: &[i8], b: &[i8], ldb: usize, cols: usize, out: &mut [i64]) {
    let out = &mut out[..cols];
    out.fill(0);
    for (f, af) in a.chunks(FOLD).enumerate() {
        let bf = &b[f * FOLD * ldb..];
        let mut c0 = 0;
        while c0 < cols {
            c0 += match cols - c0 {
                64.. => int8_block::<64>(af, bf, ldb, c0, out),
                16.. => int8_block::<16>(af, bf, ldb, c0, out),
                _ => int8_block::<1>(af, bf, ldb, c0, out),
            };
        }
    }
}

/// One `NR`-column block of [`int8_rowmul`]; returns `NR`. The product of
/// two int8 values fits i16, which keeps the multiply narrow.
#[inline(always)]
fn int8_block<const NR: usize>(
    a: &[i8],
    b: &[i8],
    ldb: usize,
    c0: usize,
    out: &mut [i64],
) -> usize {
    let mut acc = [0i32; NR];
    for (l, &x) in a.iter().enumerate() {
        if x != 0 {
            let brow = &b[l * ldb + c0..l * ldb + c0 + NR];
            for (s, &y) in acc.iter_mut().zip(brow) {
                *s += i32::from(i16::from(x) * i16::from(y));
            }
        }
    }
    for (o, s) in out[c0..c0 + NR].iter_mut().zip(acc) {
        *o += i64::from(s);
    }
    NR
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
    fn int8_score_matrix_tracks_fp32_for_every_kind() {
        let input = MultiHeadInput::random(1, 2, 32, 32, 8, 29);
        let exact = naive_attention(&input, Mask::None);
        for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            let q8 = quantized_flat_attention_with(&input, 8, Mask::None, kind);
            for (e, q) in exact.iter().zip(&q8) {
                let d = e.max_abs_diff(q);
                assert!(d < 0.12, "{kind}: deviation {d}");
            }
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
