//! The FLAT fused execution, numerically: row-granularity tiles of the
//! logit tensor are computed, softmaxed, and consumed without ever
//! materializing the full `[N, N]` matrix.
//!
//! One walk serves every precision: bf16/f16 round Q/K/V through their
//! storage grid once per group, int8 quantizes them to integer levels once
//! per group (`quantized` holds its loader and Stage A), and the f32 walk
//! runs on the result. It runs on the wide microkernels of `mat`: QKᵀ per
//! element on `dot`'s reduction tree, PV with a register-held output block
//! contracting in ascending order, so the f32 walk is bit-identical to the
//! `matmul_transposed_rows` + `matmul_into` composition.
//!
//! A causal tile stops at its diagonal, and each row's passes stop at its
//! own. Both GEMMs end at the tile's last live column. Each row's mask,
//! scale and softmax passes end at the row's diagonal, rounded up to whole
//! `LANES` chunks so the laned max and sum see the chunks the full row
//! would; the columns after it up to the tile's end are filled with the
//! exact 0 the softmax gives a `−∞` logit. A KV chunk wholly past a row's
//! diagonal absorbs an empty slice, whose carry is the full masked
//! chunk's, so every output bit is the full-row walk's.
//!
//! A FLAT-tile holds complete logit rows, so no tile depends on another;
//! the paper's cross-loop runs them spatially across PEs. The host walk
//! runs them across cores: bands of whole tiles on the shared thread pool,
//! so the output bits (int8's per-tile probability scale among them) do
//! not depend on the lane count.

use crate::mat::{wide_attend_acc, wide_logits_into, KeyPanels};
use crate::quantized::{int8_levels, snap_logits_int8, Int8Attend};
use crate::softmax::{lane_abs_max, LANES};
use crate::softmax_family::{storage_snap, FlashDSoftmax, LogLutSoftmax};
use crate::{softmax_row, ComputePrecision, ExecutionStats, Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind;
use rayon::prelude::*;
use std::ops::Range;

/// Key-dimension chunk of the bf16/f16 FLASH-D and log-LUT walks: one
/// `R × C` logit slice plus the K/V chunk rows stay cache-resident while
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
/// actual arithmetic. Like the paper's spatial cross-loop, the tiles run
/// in row bands across the shared thread pool, bit-identical at any lane
/// count. The result matches [`naive_attention`](crate::naive_attention)
/// up to f32 rounding.
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
    flat_attention_with(
        input,
        rows_per_tile,
        mask,
        ComputePrecision::F32,
        SoftmaxKind::Exact,
    )
}

/// FLAT fused attention with an explicit precision and softmax-kind
/// selection — the mixed-precision kernel family entry point.
///
/// * [`ComputePrecision::F32`] + [`SoftmaxKind::Exact`] is bit-identical
///   to [`flat_attention`].
/// * `Bf16`/`F16` round Q/K/V through 16-bit storage
///   ([`HalfMat`](crate::HalfMat)) once per group, then run the f32 walk
///   on the rounded values.
/// * [`ComputePrecision::Int8`] quantizes Q/K/V once per group and runs
///   the same walk on their integer levels, exact below `2²⁴`, with an
///   int8 score matrix.
/// * [`SoftmaxKind::FlashD`]/[`SoftmaxKind::LogLut`] fold each row through
///   the division-free recurrence, at bf16/f16 in 512-column KV chunks:
///   the output rows stay normalized at every step and no per-row
///   normalize pass ever runs.
///
/// Every precision runs the tile loop of [`flat_attention`] in row bands
/// across the thread pool, after rounding or quantizing once per group.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero, or at [`ComputePrecision::Int8`] if
/// `dk` exceeds 1,040, past which an int8 QKᵀ dot leaves f32's exact
/// integers.
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
    (0..input.groups())
        .map(|g| flat_attention_group(input, g, rows_per_tile, mask, precision, kind, true).0)
        .collect()
}

/// Masks and scales one logit row in place: `row[j]` covers query row
/// `qi` and key column `col_lo + j`; an allowed logit `x` becomes `f(x)`.
fn mask_and_scale(row: &mut [f32], qi: usize, col_lo: usize, mask: Mask, f: impl Fn(f32) -> f32) {
    for (j, x) in row.iter_mut().enumerate() {
        *x = if mask.allows(qi, col_lo + j) {
            f(*x)
        } else {
            f32::NEG_INFINITY
        };
    }
}

/// Runs `band` on the shared pool over the row bands of a `seq_q`-row
/// walk, returning the results in band order. A band is a run of whole
/// FLAT-tiles, so every tile is the serial walk's. Bands split 4x finer
/// than the lanes, as the pool does; with one lane there is one band.
fn row_bands<T: Send>(
    seq_q: usize,
    rows_per_tile: usize,
    band: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let tiles = seq_q.div_ceil(rows_per_tile);
    let lanes = rayon::current_num_threads();
    let per_band = tiles.div_ceil(if lanes == 1 { 1 } else { 4 * lanes });
    let band_rows = per_band * rows_per_tile;
    (0..tiles.div_ceil(per_band))
        .into_par_iter()
        .map(|b| band(b * band_rows..((b + 1) * band_rows).min(seq_q)))
        .collect()
}

/// The fused execution for group `g` of `input` at `precision`, with any
/// softmax kind, and the [`ExecutionStats`] of the tiles it executed.
///
/// Q/K/V load once per group: rounded through 16-bit storage, or as int8
/// levels, whose logits the mask pass dequantizes (and `int8_scores` snaps
/// to the int8 grid) and whose Stage A is [`Int8Attend`]'s. Each of the
/// [`row_bands`] allocates its scratch once, then walks the key dimension
/// in `kv_chunk`-column chunks, outermost, with its tiles inside. The exact
/// softmax and int8's tile-wide probability scale need complete rows, so
/// they run with one chunk of `seq_kv`. The division-free kinds keep one
/// recurrence state per query row across chunks and rescale the row's
/// output by the carry each chunk returns.
pub(crate) fn flat_attention_group(
    input: &MultiHeadInput,
    g: usize,
    rows_per_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
    int8_scores: bool,
) -> (Mat, ExecutionStats) {
    let (seq_q, seq_kv, dk, scale) = (input.seq_q, input.seq_kv, input.dk, input.scale());
    // K is read only to pack its panels, so a loaded copy of it is
    // dropped before the bands start; Q and V stay for the walk.
    let loaded: [Mat; 2];
    let mut int8 = None;
    let (q, keys, v) = match precision {
        ComputePrecision::F32 => {
            let [q, k, v] = input.group(g);
            (q, KeyPanels::new(k), v)
        }
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            let [q, k, v] = input.group(g).map(|m| storage_snap(m, precision));
            let keys = KeyPanels::new(&k);
            loaded = [q, v];
            (&loaded[0], keys, &loaded[1])
        }
        ComputePrecision::Int8 => {
            let ([q, k, v], s_qk, s_v) = int8_levels(input.group(g));
            let keys = KeyPanels::new(&k);
            (loaded, int8) = ([q, v], Some((s_qk, s_v)));
            (&loaded[0], keys, &loaded[1])
        }
    };
    // The 16-bit division-free walks keep the 512-column chunk their
    // outputs are pinned at; chunking f32 FLASH-D changes its bits, so one
    // chunk for every precision waits for oracle-derived error bounds.
    let kv_chunk = match (precision, kind) {
        (ComputePrecision::F32 | ComputePrecision::Int8, _) | (_, SoftmaxKind::Exact) => seq_kv,
        _ => KV_CHUNK,
    };
    let bands = row_bands(seq_q, rows_per_tile, |band| {
        let mut stats = ExecutionStats::default();
        let band_rows = band.len();
        let tile_rows = rows_per_tile.min(band_rows);
        let mut out = Mat::zeros(band_rows, v.cols());
        let mut flash = vec![FlashDSoftmax::new(); band_rows];
        let mut loglut = vec![LogLutSoftmax::new(); band_rows];
        let mut tile = Mat::zeros(tile_rows, kv_chunk.min(seq_kv));
        let mut int8_attend = int8.map(|(_, s_v)| Int8Attend::new(tile_rows, v, s_v));
        for col_lo in (0..seq_kv).step_by(kv_chunk) {
            let col_hi = (col_lo + kv_chunk).min(seq_kv);
            let width = col_hi - col_lo;
            for row_lo in band.clone().step_by(rows_per_tile) {
                let row_hi = (row_lo + rows_per_tile).min(band.end);
                let (nrows, local) = (row_hi - row_lo, row_lo - band.start);
                // Key columns of this chunk the tile may attend to: none
                // once the chunk starts past a causal tile's diagonal. Such
                // a chunk still goes through `absorb`, whose carry
                // `s · (1/s)` is not always exactly 1.0 in f32.
                let live = mask.live_cols(row_hi, col_hi).saturating_sub(col_lo);
                // Stage L: one FLAT-tile of logits, computed straight from
                // Q's rows and the chunk's K rows.
                wide_logits_into(q, row_lo, row_hi, &keys, col_lo, live, &mut tile);
                // SFU: softmax inside the on-chip slice, each row only up to
                // its own diagonal rounded up to whole `LANES` chunks (see
                // the module docs); the columns after it weigh exactly 0.
                // Int8 also keeps the tile's largest weight for Stage A.
                let mut p_max = 0.0f32;
                for r in 0..nrows {
                    let qi = row_lo + r;
                    let end = mask
                        .live_cols(qi + 1, col_hi)
                        .saturating_sub(col_lo)
                        .next_multiple_of(LANES)
                        .min(width);
                    let (row, rest) = tile.row_mut(r).split_at_mut(end);
                    match int8 {
                        None => mask_and_scale(row, qi, col_lo, mask, |x| x * scale),
                        Some((s_qk, _)) => {
                            mask_and_scale(row, qi, col_lo, mask, |x| (x * s_qk) * scale);
                            if int8_scores {
                                snap_logits_int8(row);
                            }
                        }
                    }
                    let carry = match kind {
                        SoftmaxKind::Exact => {
                            softmax_row(row);
                            1.0
                        }
                        SoftmaxKind::FlashD => flash[local + r].absorb(row),
                        SoftmaxKind::LogLut => loglut[local + r].absorb(row),
                    };
                    if end < live {
                        rest[..live - end].fill(0.0);
                    }
                    if int8.is_some() {
                        p_max = p_max.max(lane_abs_max(row));
                    }
                    if carry != 1.0 {
                        for a in out.row_mut(local + r) {
                            *a *= carry;
                        }
                    }
                }
                // Stage A: consume the slice immediately, accumulating
                // into the output rows this tile owns.
                match &mut int8_attend {
                    None => wide_attend_acc(&tile, nrows, live, v, col_lo, &mut out, local),
                    Some(a) => a.attend(&tile, nrows, live, p_max, &mut out, local),
                }
                stats.count_tile(nrows, live, width, dk);
            }
        }
        (out, stats)
    });
    let (blocks, band_stats): (Vec<_>, Vec<_>) = bands.into_iter().unzip();
    let mut stats = ExecutionStats::default();
    stats.stage_kv(seq_kv, dk);
    let stats = band_stats.into_iter().fold(stats, ExecutionStats::merge);
    (Mat::stack_rows(blocks), stats)
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
    fn int8_walk_executes_the_f32_walks_tiles() {
        // Ragged causal cross-attention: the last tile is short, and every
        // tile stops at its own diagonal.
        let input = MultiHeadInput::random(1, 1, 50, 61, 9, 53);
        let walk = |p, kind| flat_attention_group(&input, 0, 7, Mask::Causal, p, kind, true).1;
        let f32_stats = walk(ComputePrecision::F32, SoftmaxKind::Exact);
        let int8_stats = walk(ComputePrecision::Int8, SoftmaxKind::FlashD);
        assert_eq!(int8_stats, f32_stats);
        assert_eq!(int8_stats.iterations, 8);
        // Stage L writes tile `t`'s 7 rows only up to its diagonal at
        // `7(t + 1)` (the short last tile's row to 50); the SFU pass
        // writes every column.
        let live_writes = 7 * (7 + 14 + 21 + 28 + 35 + 42 + 49) + 50;
        assert_eq!(int8_stats.logit_writes, live_writes + 50 * 61);
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
