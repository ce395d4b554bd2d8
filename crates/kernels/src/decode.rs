//! Single-query decode-step attention over a growing KV set.
//!
//! Autoregressive serving attends one query row against the whole cached
//! prefix at every generated token. Materializing the prefix logits and
//! running the two-pass softmax would touch the row twice; folding the
//! cached K/V rows through a [`RowFold`] instead makes a decode step a
//! single `O(N·dk)` pass — the fold `streaming_attention` runs along the
//! key dimension, one logit at a time. The rows arrive in groups (a
//! `flat-serve` paged cache block per group): each group's logits are
//! computed together, then folded row by row, so the grouping never moves
//! a bit. At the engine's head width the exact kind takes a group's
//! weights in vector lanes when the group raises no running max, with an
//! `exp` that matches libm's `expf` bit for bit, so that never moves a bit
//! either. This is the kernel the `flat-serve` engine calls once per
//! scheduled decode token, with the K/V rows streamed straight out of its
//! paged cache blocks.

use crate::quantized::snap_logits_int8;
use crate::{ComputePrecision, RowFold};
use flat_tensor::half::round_to;
use flat_tensor::SoftmaxKind;

/// Attention output of one decode step: the query row `q` against every
/// cached `(key, value)` row the iterator yields, in order.
///
/// Each yielded pair is a group of `n ≥ 1` whole rows, row-major:
/// `n · q.len()` key floats and `n · dv` value floats (one row per pair
/// is a group of one). The output does not depend on the grouping, to
/// the bit. Causality is positional: the caller yields exactly the rows
/// the current token may attend to — for self-attention that includes
/// the token's own K/V row, so at step 1 (a single cached row) the output
/// equals that value row exactly.
///
/// # Panics
///
/// Panics if the query is empty, if no K/V row is yielded, if a key group
/// is not a whole, non-zero number of rows as wide as the query, or if a
/// value group does not hold one `dv`-wide row per key row.
///
/// # Example
///
/// ```
/// use flat_kernels::decode_attention;
///
/// // One cached row: softmax over a single logit is 1, output = value row.
/// let q = [0.3f32, -1.0];
/// let k = [0.5f32, 0.25];
/// let v = [2.0f32, -4.0];
/// let out = decode_attention(&q, [(&k[..], &v[..])], 1.0);
/// assert_eq!(out, vec![2.0, -4.0]);
///
/// // A block of two rows equals the same rows yielded one by one.
/// let (k2, v2) = ([0.5f32, 0.25, -1.0, 2.0], [2.0f32, -4.0, 1.0, 3.0]);
/// let blocked = decode_attention(&q, [(&k2[..], &v2[..])], 1.0);
/// let rows = k2.chunks(2).zip(v2.chunks(2));
/// assert_eq!(blocked, decode_attention(&q, rows, 1.0));
/// ```
#[must_use]
pub fn decode_attention<'a, I>(q: &[f32], kv: I, scale: f32) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    decode_attention_with(q, kv, scale, ComputePrecision::F32, SoftmaxKind::Exact)
}

/// Rounds `width`-wide rows through the storage grid of `precision` into
/// `out`, reusing its allocation. The int8 grid is each row's own, not the
/// per-matrix grid of the prefill kernels.
fn snap_into(rows: &[f32], width: usize, precision: ComputePrecision, out: &mut Vec<f32>) {
    out.clear();
    match precision {
        ComputePrecision::F32 => out.extend_from_slice(rows),
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            out.extend(rows.iter().map(|&x| round_to(precision.dtype(), x)));
        }
        ComputePrecision::Int8 => {
            out.extend_from_slice(rows);
            // `max(1)`: zero-width rows leave `out` empty.
            for row in out.chunks_mut(width.max(1)) {
                snap_logits_int8(row);
            }
        }
    }
}

/// The value row width a K/V group implies: `v.len()` over its key rows.
/// A malformed group (not whole key rows) is rejected by the fold.
fn value_width(q: &[f32], k: &[f32], v: &[f32]) -> usize {
    v.len() / (k.len() / q.len().max(1)).max(1)
}

/// One decode step with an explicit precision and softmax kind — the
/// kernel `flat-serve` calls when the engine is configured off the f32
/// reference.
///
/// `F32` reads the rows in place. Other precisions snap the query once and
/// each K/V group into two reused scratch buffers, row by row. The FLASH-D
/// and log-LUT kinds run the fold as `acc ← acc·carry + w̃·v`: the
/// accumulator is normalized after every cached row and the final divide
/// disappears (the single-element FLASH-D form is exactly the incremental
/// average `o ← o + μ(v − o)`).
///
/// # Panics
///
/// As [`decode_attention`].
#[must_use]
pub fn decode_attention_with<'a, I>(
    q: &[f32],
    kv: I,
    scale: f32,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    let snap = precision != ComputePrecision::F32;
    let (mut qs, mut ks, mut vs) = (Vec::new(), Vec::new(), Vec::new());
    let q = if snap {
        snap_into(q, q.len(), precision, &mut qs);
        &qs[..]
    } else {
        q
    };
    let mut fold = None;
    for (k, v) in kv {
        let (k, v) = if snap {
            snap_into(k, q.len(), precision, &mut ks);
            snap_into(v, value_width(q, k, v), precision, &mut vs);
            (&ks[..], &vs[..])
        } else {
            (k, v)
        };
        fold.get_or_insert_with(|| RowFold::new(kind, value_width(q, k, v)))
            .absorb_rows(q, k, v, scale);
    }
    fold.expect("decode_attention needs at least one cached K/V row")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_attention, Mask, MultiHeadInput};

    /// Decoding every position of a causal self-attention, one step at a
    /// time, reproduces the rows of the exact batched computation.
    #[test]
    fn steps_match_causal_naive_rows() {
        let input = MultiHeadInput::random(1, 1, 12, 12, 8, 17);
        let exact = naive_attention(&input, Mask::Causal);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for i in 0..12 {
            let kv = (0..=i).map(|j| (k.row(j), v.row(j)));
            let out = decode_attention(q.row(i), kv, input.scale());
            for (j, &o) in out.iter().enumerate() {
                assert!((o - exact[0].at(i, j)).abs() < 1e-5, "step {i}, col {j}");
            }
        }
    }

    #[test]
    fn first_step_returns_the_value_row() {
        let input = MultiHeadInput::random(1, 1, 1, 1, 6, 23);
        let out = decode_attention(
            input.q[0].row(0),
            [(input.k[0].row(0), input.v[0].row(0))],
            input.scale(),
        );
        for (o, &vv) in out.iter().zip(input.v[0].row(0)) {
            assert_eq!(*o, vv);
        }
    }

    #[test]
    #[should_panic(expected = "at least one cached K/V row")]
    fn empty_prefix_panics() {
        let _ = decode_attention(&[1.0, 2.0], std::iter::empty(), 1.0);
    }

    #[test]
    #[should_panic(expected = "whole rows as long as the query")]
    fn ragged_key_group_panics() {
        let _ = decode_attention(&[1.0, 2.0], [(&[1.0, 2.0, 3.0][..], &[0.0; 3][..])], 1.0);
    }

    #[test]
    #[should_panic(expected = "one row per key row")]
    fn value_group_must_match_its_key_rows() {
        let (k, v) = ([0.5f32; 4], [1.0f32; 4]);
        let _ = decode_attention(&[1.0, 2.0], [(&k[..], &v[..]), (&k[..], &v[..3])], 1.0);
    }

    #[test]
    fn f32_exact_with_variant_is_byte_identical() {
        let input = MultiHeadInput::random(1, 1, 8, 8, 4, 29);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for i in 0..8 {
            let reference = decode_attention(
                q.row(i),
                (0..=i).map(|j| (k.row(j), v.row(j))),
                input.scale(),
            );
            let with = decode_attention_with(
                q.row(i),
                (0..=i).map(|j| (k.row(j), v.row(j))),
                input.scale(),
                ComputePrecision::F32,
                SoftmaxKind::Exact,
            );
            assert_eq!(reference, with, "step {i}");
        }
    }

    #[test]
    fn family_kinds_track_causal_naive_rows() {
        let input = MultiHeadInput::random(1, 1, 10, 10, 8, 31);
        let exact = naive_attention(&input, Mask::Causal);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for kind in [SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            for i in 0..10 {
                let kv = (0..=i).map(|j| (k.row(j), v.row(j)));
                let out =
                    decode_attention_with(q.row(i), kv, input.scale(), ComputePrecision::F32, kind);
                for (j, &o) in out.iter().enumerate() {
                    let d = (o - exact[0].at(i, j)).abs();
                    assert!(d < 5e-3, "{kind} step {i}, col {j}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn step_one_returns_the_storage_rounded_value_row() {
        // The step-1 causal decode edge: softmax over one logit is exactly
        // 1 in every family member, so the output is the (storage-rounded)
        // value row.
        let input = MultiHeadInput::random(1, 1, 1, 1, 6, 37);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for &p in ComputePrecision::all() {
            for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                let out =
                    decode_attention_with(q.row(0), [(k.row(0), v.row(0))], input.scale(), p, kind);
                let mut snapped = Vec::new();
                snap_into(v.row(0), v.cols(), p, &mut snapped);
                for (o, &vv) in out.iter().zip(&snapped) {
                    assert!((o - vv).abs() < 1e-5, "{p}/{kind}: {o} vs {vv}");
                }
            }
        }
    }

    #[test]
    fn decode_bits_are_pinned_for_every_kind() {
        // FNV-1a over the output bits of every causal step of a 40-row
        // context fed in 16-row blocks, at the engine's head width (the
        // exact kind's lane fold) and beside it. The FLASH-D and log-LUT
        // folds run no lane code, and the exact fold's lanes must give
        // the one-logit steps' bits, so these stay the bits of the
        // scalar fold.
        let kinds = [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut];
        let mut got = Vec::new();
        for dk in [32, 24] {
            let input = MultiHeadInput::random(1, 1, 40, 40, dk, 41);
            let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
            for kind in kinds {
                let mut hash = 0xcbf2_9ce4_8422_2325_u64;
                for p in [ComputePrecision::F32, ComputePrecision::Bf16] {
                    for i in 0..40 {
                        let blocks = (0..=i).step_by(16).map(|b| {
                            let rows = b * dk..(b + 16).min(i + 1) * dk;
                            (&k.as_slice()[rows.clone()], &v.as_slice()[rows])
                        });
                        for x in decode_attention_with(q.row(i), blocks, input.scale(), p, kind) {
                            hash = (hash ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
                got.push(format!("{dk} {kind} {hash:#018x}"));
            }
        }
        // Recorded from the scalar fold that predates the lane fold.
        let want = [
            "32 exact 0x28aa7c408cb64107",
            "32 flash-d 0xf0007cb2979e5260",
            "32 log-lut 0xe116745abee8cfdb",
            "24 exact 0x7f01f8089d79438a",
            "24 flash-d 0x09cc667b7c364735",
            "24 log-lut 0x8af23a5801e4469b",
        ];
        assert_eq!(got, want);
    }
}
