//! Property tests over the mixed-precision kernel family: every
//! (storage precision × softmax kind) combination must track the f32
//! naive reference within a bound that decomposes into independent
//! storage and algorithm contributions.
//!
//! The grid covers the fused walk, the streaming walk at arbitrary
//! (row, kv) tile splits — the shard-boundary shape the distributed
//! runtime produces — and the single-row decode recurrence down to its
//! step-1 causal edge, where exactly one KV row exists and every family
//! member must hand back the value row with weight one.

use flat_kernels::{
    decode_attention, decode_attention_with, flat_attention_with, naive_attention,
    streaming_attention_with, ComputePrecision, Mask, Mat, MultiHeadInput,
};
use flat_tensor::SoftmaxKind;
use proptest::prelude::*;

/// Storage (precision) error and softmax-kind (algorithm) error are
/// independent contributions; the budget for a combination is their sum.
fn bound(p: ComputePrecision, kind: SoftmaxKind) -> f32 {
    let precision_bound = match p {
        ComputePrecision::F32 => 1e-4,
        ComputePrecision::Bf16 => 2e-2,
        ComputePrecision::F16 => 5e-3,
        ComputePrecision::Int8 => 0.12,
    };
    let kind_bound = match kind {
        SoftmaxKind::LogLut => 5e-3,
        _ => 2e-4,
    };
    precision_bound + kind_bound
}

/// The full 12-combination grid.
fn grid() -> impl Iterator<Item = (ComputePrecision, SoftmaxKind)> {
    ComputePrecision::all()
        .iter()
        .flat_map(|&p| SoftmaxKind::all().iter().map(move |&k| (p, k)))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize, usize, usize, u64)> {
    // (batch, heads, seq_q, seq_kv, dk, seed)
    (
        1usize..3,
        1usize..3,
        1usize..20,
        1usize..20,
        1usize..12,
        any::<u64>(),
    )
}

fn check_against(
    out: &[Mat],
    reference: &[Mat],
    p: ComputePrecision,
    kind: SoftmaxKind,
    what: &str,
) -> Result<(), TestCaseError> {
    let b = bound(p, kind);
    for (g, (o, e)) in out.iter().zip(reference).enumerate() {
        let d = o.max_abs_diff(e);
        prop_assert!(d < b, "{what} {p}/{kind} group {g}: diff {d} >= {b}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused walk: every grid member tracks naive f32 within its budget.
    #[test]
    fn fused_family_tracks_naive((b, h, nq, nkv, dk, seed) in dims(), rows in 1usize..24) {
        let input = MultiHeadInput::random(b, h, nq, nkv, dk, seed);
        let reference = naive_attention(&input, Mask::None);
        for (p, kind) in grid() {
            let out = flat_attention_with(&input, rows, Mask::None, p, kind);
            check_against(&out, &reference, p, kind, "fused")?;
        }
    }

    /// Same theorem under a causal mask — the masked −∞ columns must get
    /// exactly zero weight in every member, including across row tiles
    /// where early chunks are fully masked.
    #[test]
    fn fused_family_tracks_naive_causal((b, h, n, _unused, dk, seed) in dims(), rows in 1usize..24) {
        let input = MultiHeadInput::random(b, h, n, n, dk, seed);
        let reference = naive_attention(&input, Mask::Causal);
        for (p, kind) in grid() {
            let out = flat_attention_with(&input, rows, Mask::Causal, p, kind);
            check_against(&out, &reference, p, kind, "fused-causal")?;
        }
    }

    /// Streaming walk at arbitrary KV splits: the carry must telescope
    /// across every shard boundary, wherever the tile edge lands.
    #[test]
    fn streaming_family_carries_across_shard_boundaries(
        (b, h, nq, nkv, dk, seed) in dims(),
        rows in 1usize..12,
        kv_tile in 1usize..12,
    ) {
        let input = MultiHeadInput::random(b, h, nq, nkv, dk, seed);
        let reference = naive_attention(&input, Mask::None);
        for (p, kind) in grid() {
            let out = streaming_attention_with(&input, rows, kv_tile, Mask::None, p, kind);
            check_against(&out, &reference, p, kind, "streaming")?;
        }
    }

    /// Single-row decode against the exact f32 decode recurrence, with
    /// the KV prefix handed over row by row (the serve engine's shape).
    #[test]
    fn decode_family_tracks_exact(
        dk in 1usize..16,
        steps in 1usize..12,
        seed in any::<u64>(),
    ) {
        let kv = MultiHeadInput::random(1, 1, steps, steps, dk, seed);
        let q = kv.q[0].row(0);
        let scale = kv.scale();
        let rows = || (0..steps).map(|j| (kv.k[0].row(j), kv.v[0].row(j)));
        let exact = decode_attention(q, rows(), scale);
        for (p, kind) in grid() {
            let out = decode_attention_with(q, rows(), scale, p, kind);
            let b = bound(p, kind);
            for (i, (a, e)) in out.iter().zip(&exact).enumerate() {
                prop_assert!((a - e).abs() < b, "decode {p}/{kind} lane {i}: {a} vs {e}");
            }
        }
    }

    /// Step 1 of causal generation: exactly one KV row. Every member must
    /// return the value row itself — weight one, nothing to normalize —
    /// up to its storage rounding.
    #[test]
    fn step_one_causal_decode_is_the_value_row(dk in 1usize..16, seed in any::<u64>()) {
        let kv = MultiHeadInput::random(1, 1, 1, 1, dk, seed);
        let q = kv.q[0].row(0);
        let (k, v) = (kv.k[0].row(0), kv.v[0].row(0));
        for (p, kind) in grid() {
            let out = decode_attention_with(q, [(k, v)], scale_of(&kv), p, kind);
            let b = bound(p, kind);
            for (i, (a, e)) in out.iter().zip(v).enumerate() {
                prop_assert!((a - e).abs() < b, "step-1 {p}/{kind} lane {i}: {a} vs {e}");
            }
        }
    }
}

fn scale_of(input: &MultiHeadInput) -> f32 {
    input.scale()
}

/// Σ p·v over one row at 140,000 keys: every p requantizes to 127 and
/// every v to 127, so the sum is past `i32::MAX` and must not wrap.
#[test]
fn int8_pv_accumulation_does_not_wrap_past_131072_keys() {
    let (seq_kv, dk) = (140_000, 4);
    let input = MultiHeadInput {
        batch: 1,
        heads: 1,
        seq_q: 1,
        seq_kv,
        dk,
        q: vec![Mat::from_fn(1, dk, |_, _| 0.5)],
        k: vec![Mat::from_fn(seq_kv, dk, |_, _| 0.25)],
        v: vec![Mat::from_fn(seq_kv, dk, |_, _| 1.0)],
    };
    let exact = naive_attention(&input, Mask::None);
    for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD] {
        let q8 = flat_attention_with(&input, 1, Mask::None, ComputePrecision::Int8, kind);
        let d = q8[0].max_abs_diff(&exact[0]);
        assert!(d < 6e-2, "{kind}: deviation {d}");
    }
}
