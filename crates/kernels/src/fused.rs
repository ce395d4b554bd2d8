//! The FLAT fused execution, numerically: row-granularity tiles of the
//! logit tensor are computed, softmaxed, and consumed without ever
//! materializing the full `[N, N]` matrix.
//!
//! The f32 walk and the packed division-free walk run on the wide
//! microkernels of `mat`: QKᵀ per element on `dot`'s reduction tree, PV
//! with a register-held output block contracting in ascending order, so
//! the f32 walk is bit-identical to the `matmul_transposed_rows` +
//! `matmul_into` composition. The logit tile is allocated once per group.
//! A causal tile stops at its diagonal: the key columns past it are never
//! multiplied, only set to the `−∞` every softmax still sees.

use crate::halfmat::{half_attend_into, half_logits_into, HalfMat};
use crate::mat::{wide_attend_acc, wide_logits_into};
use crate::softmax_family::{softmax_row_kind, FlashDSoftmax, LogLutSoftmax};
use crate::{softmax_row, ComputePrecision, Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind;

/// Key-dimension chunk of the packed FLASH-D/LogLut walk: one `R × C`
/// logit slice plus the packed K/V chunk rows stay cache-resident while
/// the division-free recurrence folds them into the output.
const KV_CHUNK: usize = 512;

/// FLAT row-granularity fused attention.
///
/// For each (batch, head) group, iterate over row groups of `rows_per_tile`
/// query rows (one FLAT-tile per iteration, exactly the §4.3 walk-through):
///
/// 1. **Stage L** — compute the tile's logit slice `S = Q_r · Kᵀ` (shape
///    `[R, seq_kv]`; the slice holds *complete* rows, which is what makes
///    the softmax exact — this is FLAT's row-granularity invariant),
/// 2. **SFU** — softmax each row of the slice in place,
/// 3. **Stage A** — accumulate `O_r = S · V` into the output rows.
///
/// Peak live intermediate footprint is `R × seq_kv` instead of
/// `seq_q × seq_kv`: the `O(N²) → O(N)` reduction of Table 2, realized in
/// actual arithmetic. The result is bit-for-bit comparable to
/// [`naive_attention`](crate::naive_attention) up to f32 rounding.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{flat_attention, naive_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let fused = flat_attention(&input, 4, Mask::None);
/// let naive = naive_attention(&input, Mask::None);
/// for (f, n) in fused.iter().zip(&naive) {
///     assert!(f.max_abs_diff(n) < 1e-5);
/// }
/// ```
#[must_use]
pub fn flat_attention(input: &MultiHeadInput, rows_per_tile: usize, mask: Mask) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    (0..input.groups())
        .map(|g| flat_attention_group(input, g, rows_per_tile, mask, SoftmaxKind::Exact))
        .collect()
}

/// FLAT fused attention with an explicit precision and softmax-kind
/// selection — the mixed-precision kernel family entry point.
///
/// * [`ComputePrecision::F32`] + [`SoftmaxKind::Exact`] is bit-identical
///   to [`flat_attention`].
/// * `Bf16`/`F16` pack Q/K/V at 16 bits ([`HalfMat`]) and run the widening
///   microkernels: QK^T and PV stream packed panels at half the bytes.
/// * [`ComputePrecision::Int8`] routes to the quantized path with an int8
///   score matrix
///   ([`quantized_flat_attention_with`](crate::quantized_flat_attention_with)).
/// * [`SoftmaxKind::FlashD`]/[`SoftmaxKind::LogLut`] run the key dimension
///   in chunks with the division-free recurrence: the output rows stay
///   normalized at every step and no per-row normalize pass ever runs.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{flat_attention_with, naive_attention, ComputePrecision, Mask, MultiHeadInput};
/// use flat_tensor::SoftmaxKind;
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let fast = flat_attention_with(
///     &input, 8, Mask::None, ComputePrecision::Bf16, SoftmaxKind::FlashD);
/// let exact = naive_attention(&input, Mask::None);
/// for (f, n) in fast.iter().zip(&exact) {
///     assert!(f.max_abs_diff(n) < 2e-2); // bf16 storage noise, not bugs
/// }
/// ```
#[must_use]
pub fn flat_attention_with(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    match precision {
        ComputePrecision::F32 => (0..input.groups())
            .map(|g| flat_attention_group(input, g, rows_per_tile, mask, kind))
            .collect(),
        ComputePrecision::Bf16 | ComputePrecision::F16 => (0..input.groups())
            .map(|g| flat_attention_group_half(input, g, rows_per_tile, mask, precision, kind))
            .collect(),
        ComputePrecision::Int8 => {
            crate::quantized::quantized_flat_attention_with(input, rows_per_tile, mask, kind)
        }
    }
}

/// The packed 16-bit group walk: widening-load QK^T and PV, with either
/// the exact full-row softmax or the chunked division-free recurrences.
///
/// The division-free kinds walk the key dimension *outermost*: each packed
/// K/V chunk is widened to f32 scratch exactly once, then every query-row
/// tile folds it through the wide microkernels. The per-row recurrence
/// state ([`FlashDSoftmax`]/[`LogLutSoftmax`]) persists across chunks, so
/// the loop order is free — and the packed rows never get re-decoded per
/// tile.
fn flat_attention_group_half(
    input: &MultiHeadInput,
    g: usize,
    rows_per_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Mat {
    let dtype = precision.dtype();
    let scale = input.scale();
    let k = HalfMat::from_mat(&input.k[g], dtype);
    let v = HalfMat::from_mat(&input.v[g], dtype);
    // Q rounds through the same storage; decoded once, the panel then
    // reads f32 rows while K/V stream packed.
    let q = HalfMat::from_mat(&input.q[g], dtype).to_mat();
    let (seq_q, seq_kv) = (input.seq_q, input.seq_kv);
    let mut out = Mat::zeros(seq_q, input.dk);
    if kind == SoftmaxKind::Exact {
        // Row granularity: each tile holds complete rows, softmax is the
        // two-pass reference, and K/V stream packed through the widening
        // kernels.
        let mut row_lo = 0;
        while row_lo < seq_q {
            let row_hi = (row_lo + rows_per_tile).min(seq_q);
            let nrows = row_hi - row_lo;
            let q_rows: Vec<&[f32]> = (row_lo..row_hi).map(|i| q.row(i)).collect();
            let live = mask.live_cols(row_hi, seq_kv);
            let mut tile = Mat::zeros(nrows, seq_kv);
            half_logits_into(&q_rows, &k, 0, live, &mut tile);
            mask_and_scale(&mut tile, nrows, row_lo, 0, seq_kv, mask, scale);
            for i in 0..nrows {
                softmax_row(tile.row_mut(i));
            }
            half_attend_into(&tile, live, &v, 0, &mut out, row_lo);
            row_lo = row_hi;
        }
        return out;
    }
    // Division-free kinds, chunk-outer. Scratch: one widened K chunk, one
    // widened V chunk, one logit tile — all sized for the chunk, all
    // cache-resident across the inner row walk.
    let mut flash: Vec<FlashDSoftmax> = vec![FlashDSoftmax::new(); seq_q];
    let mut loglut: Vec<LogLutSoftmax> = vec![LogLutSoftmax::new(); seq_q];
    let chunk = KV_CHUNK.min(seq_kv);
    let mut k_chunk = Mat::zeros(chunk, input.dk);
    let mut v_chunk = Mat::zeros(chunk, input.dk);
    let mut tile = Mat::zeros(rows_per_tile.min(seq_q), chunk);
    let mut col_lo = 0;
    while col_lo < seq_kv {
        let col_hi = (col_lo + KV_CHUNK).min(seq_kv);
        let width = col_hi - col_lo;
        for j in 0..width {
            k.decode_row_into(col_lo + j, k_chunk.row_mut(j));
            v.decode_row_into(col_lo + j, v_chunk.row_mut(j));
        }
        let mut row_lo = 0;
        while row_lo < seq_q {
            let row_hi = (row_lo + rows_per_tile).min(seq_q);
            let nrows = row_hi - row_lo;
            // Key columns of this chunk the tile may attend to: none once
            // the chunk starts past a causal tile's diagonal. Such a chunk
            // still goes through `absorb`, whose carry `s · (1/s)` is not
            // always exactly 1.0 in f32.
            let live = mask.live_cols(row_hi, col_hi).saturating_sub(col_lo);
            wide_logits_into(&q, row_lo, row_hi, &k_chunk, live, &mut tile);
            mask_and_scale(&mut tile, nrows, row_lo, col_lo, width, mask, scale);
            for r in 0..nrows {
                let row = &mut tile.row_mut(r)[..width];
                let carry = match kind {
                    SoftmaxKind::FlashD => flash[row_lo + r].absorb(row),
                    _ => loglut[row_lo + r].absorb(row),
                };
                if carry != 1.0 {
                    for a in out.row_mut(row_lo + r) {
                        *a *= carry;
                    }
                }
            }
            wide_attend_acc(&tile, nrows, live, &v_chunk, &mut out, row_lo);
            row_lo = row_hi;
        }
        col_lo = col_hi;
    }
    out
}

/// Masks and scales the first `nrows` rows of a logit tile in place:
/// `tile[r][j]` covers query row `row_lo + r` and key column `col_lo + j`,
/// for `j < width`. Rows past `nrows` are scratch and left alone.
fn mask_and_scale(
    tile: &mut Mat,
    nrows: usize,
    row_lo: usize,
    col_lo: usize,
    width: usize,
    mask: Mask,
    scale: f32,
) {
    for i in 0..nrows {
        let qi = row_lo + i;
        for (j, x) in tile.row_mut(i)[..width].iter_mut().enumerate() {
            *x = if mask.allows(qi, col_lo + j) {
                *x * scale
            } else {
                f32::NEG_INFINITY
            };
        }
    }
}

/// The f32 fused execution for one (batch, head) group, with any softmax
/// kind — the unit the parallel kernel distributes across threads.
pub(crate) fn flat_attention_group(
    input: &MultiHeadInput,
    g: usize,
    rows_per_tile: usize,
    mask: Mask,
    kind: SoftmaxKind,
) -> Mat {
    let scale = input.scale();
    let (q, k, v) = (&input.q[g], &input.k[g], &input.v[g]);
    let (seq_q, seq_kv) = (input.seq_q, input.seq_kv);
    let mut out = Mat::zeros(seq_q, input.dk);
    let mut tile = Mat::zeros(rows_per_tile.min(seq_q), seq_kv);
    let mut row_lo = 0;
    while row_lo < seq_q {
        let row_hi = (row_lo + rows_per_tile).min(seq_q);
        let nrows = row_hi - row_lo;
        let live = mask.live_cols(row_hi, seq_kv);
        // Stage L: one FLAT-tile of logits, complete rows only, computed
        // straight from Q's rows; masked columns read −∞.
        wide_logits_into(q, row_lo, row_hi, k, live, &mut tile);
        mask_and_scale(&mut tile, nrows, row_lo, 0, seq_kv, mask, scale);
        // SFU: softmax inside the on-chip slice.
        for r in 0..nrows {
            softmax_row_kind(tile.row_mut(r), kind);
        }
        // Stage A: consume the slice immediately, accumulating into the
        // (still zero) output rows this tile owns.
        wide_attend_acc(&tile, nrows, live, v, &mut out, row_lo);
        row_lo = row_hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_attention;

    fn assert_matches_naive(input: &MultiHeadInput, rows: usize, mask: Mask) {
        let fused = flat_attention(input, rows, mask);
        let naive = naive_attention(input, mask);
        for (g, (f, n)) in fused.iter().zip(&naive).enumerate() {
            let d = f.max_abs_diff(n);
            assert!(d < 1e-5, "group {g}, R={rows}: diff {d}");
        }
    }

    #[test]
    fn equivalent_across_tile_sizes() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 17);
        for rows in [1, 2, 3, 8, 24, 100] {
            assert_matches_naive(&input, rows, Mask::None);
        }
    }

    #[test]
    fn equivalent_under_causal_mask() {
        let input = MultiHeadInput::random(1, 3, 16, 16, 4, 19);
        for rows in [1, 5, 16] {
            assert_matches_naive(&input, rows, Mask::Causal);
        }
    }

    #[test]
    fn equivalent_for_cross_attention() {
        let input = MultiHeadInput::random(2, 1, 6, 40, 8, 23);
        for rows in [1, 4, 6] {
            assert_matches_naive(&input, rows, Mask::None);
        }
    }

    #[test]
    fn non_dividing_tile_sizes_handle_the_tail() {
        let input = MultiHeadInput::random(1, 1, 17, 17, 4, 29);
        assert_matches_naive(&input, 5, Mask::None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_rejected() {
        let input = MultiHeadInput::random(1, 1, 4, 4, 2, 1);
        let _ = flat_attention(&input, 0, Mask::None);
    }

    #[test]
    fn f32_exact_with_variant_is_byte_identical() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 17);
        let reference = flat_attention(&input, 8, Mask::Causal);
        let with = flat_attention_with(
            &input,
            8,
            Mask::Causal,
            ComputePrecision::F32,
            SoftmaxKind::Exact,
        );
        for (a, b) in reference.iter().zip(&with) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn every_precision_and_kind_tracks_naive() {
        let input = MultiHeadInput::random(1, 2, 40, 40, 8, 41);
        let exact = naive_attention(&input, Mask::None);
        for &p in ComputePrecision::all() {
            let precision_bound = match p {
                ComputePrecision::F32 => 1e-4,
                ComputePrecision::Bf16 => 2e-2,
                ComputePrecision::F16 => 5e-3,
                ComputePrecision::Int8 => 0.12,
            };
            for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                // Precision (storage) error and softmax-kind (algorithm)
                // error are independent contributions.
                let kind_bound = match kind {
                    SoftmaxKind::LogLut => 5e-3,
                    _ => 2e-4,
                };
                let bound = precision_bound + kind_bound;
                let out = flat_attention_with(&input, 8, Mask::None, p, kind);
                for (g, (o, e)) in out.iter().zip(&exact).enumerate() {
                    let d = o.max_abs_diff(e);
                    assert!(d < bound, "{p}/{kind} group {g}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn half_paths_handle_causal_masks_and_ragged_tiles() {
        let input = MultiHeadInput::random(1, 1, 17, 17, 4, 43);
        let exact = naive_attention(&input, Mask::Causal);
        for p in [ComputePrecision::Bf16, ComputePrecision::F16] {
            for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                let out = flat_attention_with(&input, 5, Mask::Causal, p, kind);
                let d = out[0].max_abs_diff(&exact[0]);
                assert!(d < 2e-2, "{p}/{kind}: diff {d}");
            }
        }
    }

    #[test]
    fn chunked_walk_crosses_kv_chunk_boundaries() {
        // seq_kv > KV_CHUNK so the FLASH-D walk carries across chunks.
        let input = MultiHeadInput::random(1, 1, 4, KV_CHUNK + 37, 8, 47);
        let exact = naive_attention(&input, Mask::None);
        let out = flat_attention_with(
            &input,
            4,
            Mask::None,
            ComputePrecision::Bf16,
            SoftmaxKind::FlashD,
        );
        let d = out[0].max_abs_diff(&exact[0]);
        assert!(d < 2e-2, "diff {d}");
    }
}
