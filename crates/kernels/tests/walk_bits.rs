//! Bit-identity of the FLAT walks against the loops they replaced.
//!
//! Each walk runs on register-blocked microkernels and stops causal tiles
//! at their diagonal; each reference below is the straightforward loop
//! nest with no skipping. Outputs must agree in every bit (`to_bits`), for
//! shapes that cross every blocking boundary: odd head dims, ragged row
//! tiles, the 512-column KV chunk, and cross-attention (`seq_q ≠ seq_kv`)
//! under both masks.

use flat_kernels::{
    flat_attention, flat_attention_with, parallel_flat_attention, quantized_flat_attention,
    softmax_row, softmax_row_kind, ComputePrecision, FlashDSoftmax, HalfMat, LogLutSoftmax, Mask,
    Mat, MultiHeadInput, QuantizedMat,
};
use flat_tensor::SoftmaxKind;
use proptest::prelude::*;

/// The key-dimension chunk of the packed division-free walk.
const KV_CHUNK: usize = 512;

/// A random head plus the walk parameters: `seq_q` 1..80, `seq_kv`
/// 1..600 (or `seq_q`), `dk` from the list, `rows_per_tile` 1..seq_q+3.
fn case() -> impl Strategy<Value = (MultiHeadInput, usize, Mask)> {
    (
        1usize..80,
        1usize..600,
        prop::sample::select(vec![1usize, 3, 8, 13, 16, 17, 64]),
        0usize..1 << 16,
        prop::sample::select(vec![Mask::None, Mask::Causal]),
        prop::sample::select(vec![false, true]),
        any::<u64>(),
    )
        .prop_map(|(seq_q, seq_kv, dk, r, mask, square, seed)| {
            let seq_kv = if square { seq_q } else { seq_kv };
            let input = MultiHeadInput::random(1, 1, seq_q, seq_kv, dk, seed);
            (input, 1 + r % (seq_q + 3), mask)
        })
}

fn bits(mats: &[Mat]) -> Vec<u32> {
    mats.iter()
        .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
        .collect()
}

fn mask_and_scale(row: &mut [f32], qi: usize, col_lo: usize, mask: Mask, scale: f32) {
    for (j, x) in row.iter_mut().enumerate() {
        *x = if mask.allows(qi, col_lo + j) {
            *x * scale
        } else {
            f32::NEG_INFINITY
        };
    }
}

/// The f32 walk as it was: `matmul_transposed_rows`, mask, softmax,
/// `matmul_into`, over every key column of every tile.
fn f32_reference(input: &MultiHeadInput, rows: usize, mask: Mask, kind: SoftmaxKind) -> Vec<Mat> {
    let scale = input.scale();
    (0..input.groups())
        .map(|g| {
            let mut out = Mat::zeros(input.seq_q, input.dk);
            for row_lo in (0..input.seq_q).step_by(rows) {
                let row_hi = (row_lo + rows).min(input.seq_q);
                let mut tile = input.q[g].matmul_transposed_rows(row_lo, row_hi, &input.k[g]);
                for i in 0..tile.rows() {
                    mask_and_scale(tile.row_mut(i), row_lo + i, 0, mask, scale);
                    match kind {
                        SoftmaxKind::Exact => softmax_row(tile.row_mut(i)),
                        other => softmax_row_kind(tile.row_mut(i), other),
                    }
                }
                tile.matmul_into(&input.v[g], &mut out, row_lo);
            }
            out
        })
        .collect()
}

/// Snaps finite logits onto the symmetric 127-level int8 grid.
fn snap_logits_int8(row: &mut [f32]) {
    let max = row
        .iter()
        .filter(|x| x.is_finite())
        .fold(0.0f32, |a, &v| a.max(v.abs()));
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

/// The int8 walk as it was: scalar i32 loops over every key column, the
/// logits dequantized per tile, P requantized per tile. `int8_scores`
/// selects the score-grid variant and its softmax kind.
fn int8_reference(
    input: &MultiHeadInput,
    rows: usize,
    mask: Mask,
    int8_scores: Option<SoftmaxKind>,
) -> Vec<Mat> {
    let (seq_q, seq_kv, dk) = (input.seq_q, input.seq_kv, input.dk);
    let scale = input.scale();
    (0..input.groups())
        .map(|g| {
            let q = QuantizedMat::quantize(&input.q[g]);
            let k = QuantizedMat::quantize(&input.k[g]);
            let v = QuantizedMat::quantize(&input.v[g]);
            let s = q.scale * k.scale;
            let mut out = Mat::zeros(seq_q, dk);
            for row_lo in (0..seq_q).step_by(rows) {
                let row_hi = (row_lo + rows).min(seq_q);
                let mut tile = Mat::from_fn(row_hi - row_lo, seq_kv, |i, j| {
                    let mut acc: i32 = 0;
                    for d in 0..dk {
                        acc += i32::from(q.at(row_lo + i, d)) * i32::from(k.at(j, d));
                    }
                    acc as f32 * s
                });
                for i in 0..tile.rows() {
                    let row = tile.row_mut(i);
                    mask_and_scale(row, row_lo + i, 0, mask, scale);
                    match int8_scores {
                        None => softmax_row(row),
                        Some(kind) => {
                            snap_logits_int8(row);
                            softmax_row_kind(row, kind);
                        }
                    }
                }
                let p = QuantizedMat::quantize(&tile);
                for i in 0..p.rows() {
                    for d in 0..dk {
                        let mut acc: i32 = 0;
                        for j in 0..seq_kv {
                            acc += i32::from(p.at(i, j)) * i32::from(v.at(j, d));
                        }
                        out.set(row_lo + i, d, acc as f32 * p.scale * v.scale);
                    }
                }
            }
            out
        })
        .collect()
}

/// `aᵀb` with eight `mul_add` lanes and the even/odd tree: the per-element
/// arithmetic of every f32 logits kernel.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc = ca[l].mul_add(cb[l], *acc);
        }
    }
    let mut tail = 0.0f32;
    let ra = a.chunks_exact(8).remainder();
    for (&x, &y) in ra.iter().zip(b.chunks_exact(8).remainder()) {
        tail = x.mul_add(y, tail);
    }
    let even = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let odd = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (even + odd) + tail
}

/// `out[r] += Σ_j w[r][j] · v[j]`, ascending in `j`, no skipping.
fn attend(w: &[f32], v: &Mat, v_lo: usize, out: &mut [f32]) {
    for (j, &wj) in w.iter().enumerate() {
        for (o, &x) in out.iter_mut().zip(v.row(v_lo + j)) {
            *o = wj.mul_add(x, *o);
        }
    }
}

/// The packed 16-bit walk as it was: every key column, and for the
/// division-free kinds every KV chunk, of every row. A row's arithmetic
/// does not depend on the tile it sits in, so this walks row by row.
fn half_reference(
    input: &MultiHeadInput,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    let (seq_q, seq_kv) = (input.seq_q, input.seq_kv);
    let scale = input.scale();
    let decoded = |m: &Mat| HalfMat::from_mat(m, precision.dtype()).to_mat();
    (0..input.groups())
        .map(|g| {
            let (q, k, v) = (
                decoded(&input.q[g]),
                decoded(&input.k[g]),
                decoded(&input.v[g]),
            );
            let mut out = Mat::zeros(seq_q, input.dk);
            let mut flash = vec![FlashDSoftmax::new(); seq_q];
            let mut loglut = vec![LogLutSoftmax::new(); seq_q];
            let chunk = if kind == SoftmaxKind::Exact {
                seq_kv
            } else {
                KV_CHUNK
            };
            for col_lo in (0..seq_kv).step_by(chunk) {
                let col_hi = (col_lo + chunk).min(seq_kv);
                for qi in 0..seq_q {
                    let mut row: Vec<f32> =
                        (col_lo..col_hi).map(|j| dot(q.row(qi), k.row(j))).collect();
                    mask_and_scale(&mut row, qi, col_lo, mask, scale);
                    let carry = match kind {
                        SoftmaxKind::Exact => {
                            softmax_row(&mut row);
                            1.0
                        }
                        SoftmaxKind::FlashD => flash[qi].absorb(&mut row),
                        SoftmaxKind::LogLut => loglut[qi].absorb(&mut row),
                    };
                    if carry != 1.0 {
                        for a in out.row_mut(qi) {
                            *a *= carry;
                        }
                    }
                    attend(&row, &v, col_lo, out.row_mut(qi));
                }
            }
            out
        })
        .collect()
}

const KINDS: [SoftmaxKind; 3] = [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The f32 walk (every kind, serial and parallel) ≡ the
    /// `matmul_transposed_rows` + softmax + `matmul_into` composition.
    #[test]
    fn f32_walks_are_bit_identical((input, rows, mask) in case()) {
        for kind in KINDS {
            let reference = bits(&f32_reference(&input, rows, mask, kind));
            let walk = flat_attention_with(&input, rows, mask, ComputePrecision::F32, kind);
            prop_assert_eq!(bits(&walk), reference.clone(), "{kind}");
            if kind == SoftmaxKind::Exact {
                prop_assert_eq!(bits(&flat_attention(&input, rows, mask)), reference.clone());
                let par = parallel_flat_attention(&input, rows, mask, 2);
                prop_assert_eq!(bits(&par), reference);
            }
        }
    }

    /// The int8 walk (fp32 scores, and int8 scores under every kind) ≡
    /// the scalar i32 loops it replaced.
    #[test]
    fn int8_walks_are_bit_identical((input, rows, mask) in case()) {
        let plain = quantized_flat_attention(&input, rows, mask);
        prop_assert_eq!(bits(&plain), bits(&int8_reference(&input, rows, mask, None)));
        for kind in KINDS {
            let walk = flat_attention_with(&input, rows, mask, ComputePrecision::Int8, kind);
            let reference = int8_reference(&input, rows, mask, Some(kind));
            prop_assert_eq!(bits(&walk), bits(&reference), "{kind}");
        }
    }

    /// The packed 16-bit walks, which skip the columns and KV chunks past
    /// a causal tile's diagonal ≡ the loops that visit all of them.
    #[test]
    fn half_walks_are_bit_identical((input, rows, mask) in case()) {
        for precision in [ComputePrecision::Bf16, ComputePrecision::F16] {
            for kind in KINDS {
                let walk = flat_attention_with(&input, rows, mask, precision, kind);
                let reference = half_reference(&input, mask, precision, kind);
                prop_assert_eq!(bits(&walk), bits(&reference), "{precision}/{kind}");
            }
        }
    }
}
