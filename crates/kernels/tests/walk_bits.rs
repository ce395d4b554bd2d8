//! Bit-identity of the FLAT walks against the loops they replaced.
//!
//! Each walk runs on register-blocked microkernels and stops causal tiles
//! at their diagonal; each reference below is the straightforward loop
//! nest with no skipping. Outputs must agree in every bit (`to_bits`), for
//! shapes that cross every blocking boundary: odd head dims, ragged row
//! tiles, the 512-column KV chunk, and cross-attention (`seq_q ≠ seq_kv`)
//! under both masks. The int8 walk is also run at the edges of f32's exact
//! integer range, where its sums of int8 products must stay exact.
//!
//! The streaming and decode kernels run one online-softmax row fold; their
//! references are verbatim copies of the per-kernel loops that fold
//! replaced. Decode is also fed its rows in groups, as a paged KV cache
//! yields them a block at a time, and must match the same references.

use flat_kernels::{
    decode_attention, decode_attention_with, flat_attention, flat_attention_with,
    quantized_flat_attention, softmax_row, softmax_row_kind, streaming_attention,
    streaming_attention_with, ComputePrecision, FlashDSoftmax, HalfMat, LogLutSoftmax, Mask, Mat,
    MultiHeadInput, QuantizedMat,
};
use flat_tensor::half::round_to;
use flat_tensor::SoftmaxKind;
use proptest::prelude::*;

/// The key-dimension chunk of the bf16/f16 division-free walks.
const KV_CHUNK: usize = 512;

/// A random head plus the walk parameters: either `seq_q` 1..80 and
/// `seq_kv` 1..600 (or `seq_q`), or a long-KV tier of `seq_q` 1..16 and
/// `seq_kv` 1025..1700 that carries across three or four KV chunks; `dk`
/// from the list, `rows_per_tile` 1..seq_q+3.
fn case() -> impl Strategy<Value = (MultiHeadInput, usize, Mask)> {
    let short = (
        1usize..80,
        1usize..600,
        prop::sample::select(vec![false, true]),
    )
        .prop_map(|(seq_q, seq_kv, square)| (seq_q, if square { seq_q } else { seq_kv }));
    let long = (1usize..16, 1025usize..1700);
    (
        prop_oneof![short, long],
        prop::sample::select(vec![1usize, 3, 8, 13, 16, 17, 64]),
        0usize..1 << 16,
        prop::sample::select(vec![Mask::None, Mask::Causal]),
        any::<u64>(),
    )
        .prop_map(|((seq_q, seq_kv), dk, r, mask, seed)| {
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

/// A small head for the scalar streaming and decode loops: `seq_q` 1..24,
/// `seq_kv` 1..70, odd and even `dk` (the engine's 32 among them),
/// `rows_per_tile` 1..seq_q+3 and a ragged `kv_tile` 1..seq_kv+5.
fn stream_case() -> impl Strategy<Value = (MultiHeadInput, usize, usize, Mask)> {
    (
        1usize..24,
        1usize..70,
        prop::sample::select(vec![1usize, 3, 5, 8, 13, 16, 17, 32]),
        0usize..1 << 16,
        0usize..1 << 16,
        prop::sample::select(vec![Mask::None, Mask::Causal]),
        any::<u64>(),
    )
        .prop_map(|(seq_q, seq_kv, dk, r, c, mask, seed)| {
            let input = MultiHeadInput::random(1, 1, seq_q, seq_kv, dk, seed);
            (input, 1 + r % (seq_q + 3), 1 + c % (seq_kv + 5), mask)
        })
}

/// Puts an infinity into the last key's value row: a query row that
/// cannot see that key (causal, earlier row) gives it weight zero and must
/// skip the row, or `0 · ∞` turns its output into NaN.
fn poison_last_value(input: &mut MultiHeadInput) {
    let last = input.seq_kv - 1;
    input.v[0].set(last, 0, f32::INFINITY);
}

/// Rounds a matrix through the storage grid of `precision`.
fn storage_snap(m: &Mat, precision: ComputePrecision) -> Mat {
    match precision {
        ComputePrecision::F32 => m.clone(),
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            HalfMat::from_mat(m, precision.dtype()).to_mat()
        }
        ComputePrecision::Int8 => QuantizedMat::quantize(m).dequantize(),
    }
}

/// The online-softmax state the streaming and decode loops ran on, as it
/// was: `absorb` returns the carry, `weight` recomputes each weight.
#[derive(Clone)]
struct OnlineSoftmax {
    max: f32,
    sum: f32,
}

impl OnlineSoftmax {
    fn new() -> Self {
        OnlineSoftmax {
            max: f32::NEG_INFINITY,
            sum: 0.0,
        }
    }

    fn absorb(&mut self, chunk: &[f32]) -> f32 {
        let chunk_max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let new_max = self.max.max(chunk_max);
        if new_max == f32::NEG_INFINITY {
            return 1.0;
        }
        let scale = if self.max == f32::NEG_INFINITY {
            1.0
        } else {
            (self.max - new_max).exp()
        };
        self.sum *= scale;
        self.max = new_max;
        for &x in chunk {
            self.sum += (x - self.max).exp();
        }
        scale
    }

    fn weight(&self, x: f32) -> f32 {
        (x - self.max).exp()
    }

    fn normalizer(&self) -> f32 {
        self.sum
    }
}

/// `streaming_attention` as it was.
fn streaming_reference(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    kv_tile: usize,
    mask: Mask,
) -> Vec<Mat> {
    let scale = input.scale();
    (0..input.groups())
        .map(|g| {
            let q = &input.q[g];
            let k = &input.k[g];
            let v = &input.v[g];
            let mut out = Mat::zeros(input.seq_q, input.dk);
            let mut row_lo = 0;
            while row_lo < input.seq_q {
                let row_hi = (row_lo + rows_per_tile).min(input.seq_q);
                let mut states = vec![OnlineSoftmax::new(); row_hi - row_lo];
                let mut acc = Mat::zeros(row_hi - row_lo, input.dk);
                let mut col_lo = 0;
                while col_lo < input.seq_kv {
                    let col_hi = (col_lo + kv_tile).min(input.seq_kv);
                    for (r, state) in states.iter_mut().enumerate() {
                        let qi = row_lo + r;
                        let qrow = q.row(qi);
                        let chunk: Vec<f32> = (col_lo..col_hi)
                            .map(|j| {
                                if mask.allows(qi, j) {
                                    dot(qrow, k.row(j)) * scale
                                } else {
                                    f32::NEG_INFINITY
                                }
                            })
                            .collect();
                        let rescale = state.absorb(&chunk);
                        let accrow = acc.row_mut(r);
                        for a in accrow.iter_mut() {
                            *a *= rescale;
                        }
                        for (off, &x) in chunk.iter().enumerate() {
                            let w = state.weight(x);
                            if w > 0.0 {
                                let vrow = v.row(col_lo + off);
                                for (a, &vv) in accrow.iter_mut().zip(vrow) {
                                    *a = w.mul_add(vv, *a);
                                }
                            }
                        }
                    }
                    col_lo = col_hi;
                }
                for (r, state) in states.iter().enumerate() {
                    let inv = 1.0 / state.normalizer();
                    for (o, &a) in out.row_mut(row_lo + r).iter_mut().zip(acc.row(r)) {
                        *o = a * inv;
                    }
                }
                row_lo = row_hi;
            }
            out
        })
        .collect()
}

/// `streaming_attention_with` as it was.
fn streaming_with_reference(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    kv_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    let snapped;
    let input = if precision == ComputePrecision::F32 {
        input
    } else {
        snapped = MultiHeadInput {
            batch: input.batch,
            heads: input.heads,
            seq_q: input.seq_q,
            seq_kv: input.seq_kv,
            dk: input.dk,
            q: input.q.iter().map(|m| storage_snap(m, precision)).collect(),
            k: input.k.iter().map(|m| storage_snap(m, precision)).collect(),
            v: input.v.iter().map(|m| storage_snap(m, precision)).collect(),
        };
        &snapped
    };
    if kind == SoftmaxKind::Exact {
        return streaming_reference(input, rows_per_tile, kv_tile, mask);
    }
    let scale = input.scale();
    (0..input.groups())
        .map(|g| {
            let q = &input.q[g];
            let k = &input.k[g];
            let v = &input.v[g];
            let mut out = Mat::zeros(input.seq_q, input.dk);
            let mut row_lo = 0;
            while row_lo < input.seq_q {
                let row_hi = (row_lo + rows_per_tile).min(input.seq_q);
                let nrows = row_hi - row_lo;
                let mut flash = vec![FlashDSoftmax::new(); nrows];
                let mut loglut = vec![LogLutSoftmax::new(); nrows];
                let mut col_lo = 0;
                while col_lo < input.seq_kv {
                    let col_hi = (col_lo + kv_tile).min(input.seq_kv);
                    for r in 0..nrows {
                        let qi = row_lo + r;
                        let qrow = q.row(qi);
                        let mut chunk: Vec<f32> = (col_lo..col_hi)
                            .map(|j| {
                                if mask.allows(qi, j) {
                                    dot(qrow, k.row(j)) * scale
                                } else {
                                    f32::NEG_INFINITY
                                }
                            })
                            .collect();
                        let carry = match kind {
                            SoftmaxKind::FlashD => flash[r].absorb(&mut chunk),
                            _ => loglut[r].absorb(&mut chunk),
                        };
                        let orow = out.row_mut(qi);
                        if carry != 1.0 {
                            for a in orow.iter_mut() {
                                *a *= carry;
                            }
                        }
                        for (off, &w) in chunk.iter().enumerate() {
                            if w != 0.0 {
                                let vrow = v.row(col_lo + off);
                                for (a, &vv) in orow.iter_mut().zip(vrow) {
                                    *a = w.mul_add(vv, *a);
                                }
                            }
                        }
                    }
                    col_lo = col_hi;
                }
                row_lo = row_hi;
            }
            out
        })
        .collect()
}

/// `decode_attention` as it was.
fn decode_reference<'a, I>(q: &[f32], kv: I, scale: f32) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    let mut state = OnlineSoftmax::new();
    let mut acc: Vec<f32> = Vec::new();
    let mut seen = false;
    for (k, v) in kv {
        assert_eq!(k.len(), q.len(), "key row length must match the query");
        if !seen {
            acc = vec![0.0f32; v.len()];
            seen = true;
        }
        let logit = dot(q, k) * scale;
        let rescale = state.absorb(&[logit]);
        if rescale != 1.0 {
            for a in &mut acc {
                *a *= rescale;
            }
        }
        let w = state.weight(logit);
        for (a, &vv) in acc.iter_mut().zip(v) {
            *a = w.mul_add(vv, *a);
        }
    }
    assert!(seen, "decode_attention needs at least one cached K/V row");
    let inv = 1.0 / state.normalizer();
    for a in &mut acc {
        *a *= inv;
    }
    acc
}

/// Rounds one row through the storage grid of `precision`.
fn snap_row(row: &[f32], precision: ComputePrecision) -> Vec<f32> {
    match precision {
        ComputePrecision::F32 => row.to_vec(),
        ComputePrecision::Bf16 | ComputePrecision::F16 => row
            .iter()
            .map(|&x| round_to(precision.dtype(), x))
            .collect(),
        ComputePrecision::Int8 => {
            let mut v = row.to_vec();
            snap_logits_int8(&mut v);
            v
        }
    }
}

/// `decode_attention_with` as it was.
fn decode_with_reference<'a, I>(
    q: &[f32],
    kv: I,
    scale: f32,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    if precision == ComputePrecision::F32 && kind == SoftmaxKind::Exact {
        return decode_reference(q, kv, scale);
    }
    let qs = snap_row(q, precision);
    let mut online = OnlineSoftmax::new();
    let mut flash = FlashDSoftmax::new();
    let mut loglut = LogLutSoftmax::new();
    let mut acc: Vec<f32> = Vec::new();
    let mut seen = false;
    for (k, v) in kv {
        assert_eq!(k.len(), q.len(), "key row length must match the query");
        let krow = snap_row(k, precision);
        let vrow = snap_row(v, precision);
        if !seen {
            acc = vec![0.0f32; vrow.len()];
            seen = true;
        }
        let logit = dot(&qs, &krow) * scale;
        let w = match kind {
            SoftmaxKind::Exact => {
                let rescale = online.absorb(&[logit]);
                if rescale != 1.0 {
                    for a in &mut acc {
                        *a *= rescale;
                    }
                }
                online.weight(logit)
            }
            family => {
                let mut chunk = [logit];
                let carry = if family == SoftmaxKind::FlashD {
                    flash.absorb(&mut chunk)
                } else {
                    loglut.absorb(&mut chunk)
                };
                if carry != 1.0 {
                    for a in &mut acc {
                        *a *= carry;
                    }
                }
                chunk[0]
            }
        };
        for (a, &vv) in acc.iter_mut().zip(&vrow) {
            *a = w.mul_add(vv, *a);
        }
    }
    assert!(seen, "decode_attention needs at least one cached K/V row");
    if kind == SoftmaxKind::Exact {
        let inv = 1.0 / online.normalizer();
        for a in &mut acc {
            *a *= inv;
        }
    }
    acc
}

/// A key row whose logit against `q`, after both are snapped to
/// `precision`, is exactly `−∞`: every lane's product is `−∞` or 0.
fn masked_key(q: &[f32], precision: ComputePrecision) -> Vec<f32> {
    snap_row(q, precision)
        .iter()
        .map(|&x| {
            if x > 0.0 {
                f32::NEG_INFINITY
            } else if x < 0.0 {
                f32::INFINITY
            } else {
                0.0
            }
        })
        .collect()
}

const KINDS: [SoftmaxKind; 3] = [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut];

/// The walks run a head's rows in bands of whole tiles, one or more per
/// pool lane. At `seq_q` 1000 the last tile (R 7 and 64) and the last
/// band (R 7) are ragged, and `seq_kv` 1100 crosses the 512-column KV
/// chunk: every precision × kind × mask ≡ the serial reference loops.
#[test]
fn banded_walks_are_bit_identical() {
    let input = MultiHeadInput::random(1, 1, 1000, 1100, 9, 0xBA4D);
    for mask in [Mask::None, Mask::Causal] {
        for rows in [7, 64] {
            let plain = quantized_flat_attention(&input, rows, mask);
            let reference = int8_reference(&input, rows, mask, None);
            assert_eq!(bits(&plain), bits(&reference), "int8 {mask:?} R {rows}");
            for &precision in ComputePrecision::all() {
                for kind in KINDS {
                    let walk = flat_attention_with(&input, rows, mask, precision, kind);
                    let reference = match precision {
                        ComputePrecision::F32 => f32_reference(&input, rows, mask, kind),
                        ComputePrecision::Int8 => int8_reference(&input, rows, mask, Some(kind)),
                        _ => half_reference(&input, mask, precision, kind),
                    };
                    let label = format!("{precision}/{kind} {mask:?} R {rows}");
                    assert_eq!(bits(&walk), bits(&reference), "{label}");
                }
            }
        }
    }
}

/// The int8 walk, fp32 scores and int8 scores under every kind, against
/// its reference at R 2 under both masks.
fn assert_int8_bits(input: &MultiHeadInput, label: &str) {
    for mask in [Mask::None, Mask::Causal] {
        let plain = quantized_flat_attention(input, 2, mask);
        let reference = int8_reference(input, 2, mask, None);
        assert_eq!(bits(&plain), bits(&reference), "{label} {mask:?}");
        for kind in KINDS {
            let walk = flat_attention_with(input, 2, mask, ComputePrecision::Int8, kind);
            let reference = int8_reference(input, 2, mask, Some(kind));
            assert_eq!(bits(&walk), bits(&reference), "{label} {kind} {mask:?}");
        }
    }
}

/// Constant K and V quantize every weight of a row and every value to the
/// level 127, so an unmasked row's P·V sum over 1,100 keys is
/// `1100 · 127² > 2²⁴`: past f32's exact integers, unless the walk sums
/// the keys in chunks whose sums stay exact.
#[test]
fn int8_pv_past_f32_exact_range_is_bit_identical() {
    let (seq_q, seq_kv, dk) = (3, 1100, 8);
    let mut input = MultiHeadInput::random(1, 1, seq_q, seq_kv, dk, 0x1100);
    input.k[0] = Mat::from_fn(seq_kv, dk, |_, _| 0.25);
    input.v[0] = Mat::from_fn(seq_kv, dk, |_, _| 1.0);
    assert_int8_bits(&input, "PV past 2^24");
}

/// At the largest `dk` the int8 walk takes, constant Q and key rows that
/// are each constant put every logit's integer sum at up to
/// `1040 · 127²`, just below `2²⁴`.
#[test]
fn int8_logits_at_the_dk_bound_are_bit_identical() {
    let (seq_q, seq_kv, dk) = (5, 20, 1040);
    let key_values = [1.0, -1.0, 0.5, -0.25];
    let mut input = MultiHeadInput::random(1, 1, seq_q, seq_kv, dk, 0x1040);
    input.q[0] = Mat::from_fn(seq_q, dk, |_, _| 1.0);
    input.k[0] = Mat::from_fn(seq_kv, dk, |j, _| key_values[j % key_values.len()]);
    assert_int8_bits(&input, "dk 1040");
}

/// Past `dk` 1,040 an int8 QKᵀ dot can leave f32's exact integers, so the
/// int8 walk refuses the shape rather than round.
#[test]
#[should_panic(expected = "dk <= 1040")]
fn int8_walk_rejects_dk_past_the_exact_range() {
    let input = MultiHeadInput::random(1, 1, 2, 2, 1041, 1);
    let _ = flat_attention_with(
        &input,
        1,
        Mask::None,
        ComputePrecision::Int8,
        SoftmaxKind::Exact,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The f32 walk (every kind) ≡ the
    /// `matmul_transposed_rows` + softmax + `matmul_into` composition.
    #[test]
    fn f32_walks_are_bit_identical((input, rows, mask) in case()) {
        for kind in KINDS {
            let reference = bits(&f32_reference(&input, rows, mask, kind));
            let walk = flat_attention_with(&input, rows, mask, ComputePrecision::F32, kind);
            prop_assert_eq!(bits(&walk), reference.clone(), "{kind}");
            if kind == SoftmaxKind::Exact {
                prop_assert_eq!(bits(&flat_attention(&input, rows, mask)), reference);
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

    /// The streaming fold, every precision and kind, ragged `kv_tile`,
    /// both masks, with and without a non-finite value behind the causal
    /// diagonal ≡ the two streaming loops it replaced.
    #[test]
    fn streaming_fold_is_bit_identical(
        (mut input, rows, kv_tile, mask) in stream_case(),
        poison in any::<bool>(),
    ) {
        if poison {
            poison_last_value(&mut input);
        }
        let plain = streaming_attention(&input, rows, kv_tile, mask);
        prop_assert_eq!(bits(&plain), bits(&streaming_reference(&input, rows, kv_tile, mask)));
        for &precision in ComputePrecision::all() {
            for kind in KINDS {
                let walk = streaming_attention_with(&input, rows, kv_tile, mask, precision, kind);
                let reference =
                    streaming_with_reference(&input, rows, kv_tile, mask, precision, kind);
                prop_assert_eq!(bits(&walk), bits(&reference), "{precision}/{kind}");
            }
        }
    }

    /// The decode fold, every precision and kind, at every context length
    /// up to `seq_kv` ≡ the two decode loops it replaced: fed one row at a
    /// time, fed the same rows in groups of `block` (the last one ragged),
    /// and fed a group run that starts with a row whose logit is `−∞`,
    /// which must drop out exactly.
    #[test]
    fn decode_fold_is_bit_identical(
        (input, _, _, _) in stream_case(),
        block in 1usize..=33,
    ) {
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        let (dk, scale) = (input.dk, input.scale());
        let row_bits = |row: Vec<f32>| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=input.seq_kv {
            let qrow = q.row((n - 1) % input.seq_q);
            let kv = || (0..n).map(|j| (k.row(j), v.row(j)));
            let (ks, vs) = (&k.as_slice()[..n * dk], &v.as_slice()[..n * dk]);
            let groups = || ks.chunks(block * dk).zip(vs.chunks(block * dk));
            let plain = decode_attention(qrow, kv(), scale);
            let reference = row_bits(decode_reference(qrow, kv(), scale));
            prop_assert_eq!(row_bits(plain), reference.clone());
            prop_assert_eq!(row_bits(decode_attention(qrow, groups(), scale)), reference);
            for &precision in ComputePrecision::all() {
                let mut masked_k = masked_key(qrow, precision);
                let mut masked_v = v.row(0).to_vec();
                masked_k.extend_from_slice(ks);
                masked_v.extend_from_slice(vs);
                let masked = || masked_k.chunks(block * dk).zip(masked_v.chunks(block * dk));
                for kind in KINDS {
                    let reference =
                        row_bits(decode_with_reference(qrow, kv(), scale, precision, kind));
                    let out = decode_attention_with(qrow, kv(), scale, precision, kind);
                    prop_assert_eq!(
                        row_bits(out), reference.clone(), "{}/{} at {} rows", precision, kind, n
                    );
                    let out = decode_attention_with(qrow, groups(), scale, precision, kind);
                    prop_assert_eq!(
                        row_bits(out), reference.clone(),
                        "{}/{} at {} rows in groups of {}", precision, kind, n, block
                    );
                    let out = decode_attention_with(qrow, masked(), scale, precision, kind);
                    prop_assert_eq!(
                        row_bits(out), reference,
                        "{}/{} at {} rows after a masked row, groups of {}",
                        precision, kind, n, block
                    );
                }
            }
        }
    }
}
