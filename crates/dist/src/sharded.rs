//! The numeric witness for sequence-parallel sharding: partial attention
//! per KV shard plus a cross-chip online-softmax merge.
//!
//! The analytical model in [`crate::cost`] *prices* the sequence-parallel
//! all-reduce; this module proves the math it prices is sound. Each chip
//! holds a contiguous `seq_kv / p` slice of K/V and folds, per query row,
//! its shard through the kernels' [`RowFold`] — the very fold the
//! single-chip streaming and decode kernels run. The exact fold's partial
//! is the running max `m`, running sum `s`, and the un-normalized
//! `dk`-wide accumulator; [`RowFold::merge`] rescales every partial into
//! the global max's frame and sums:
//!
//! ```text
//! m  = max_i m_i
//! s  = Σ_i  s_i · exp(m_i − m)
//! o  = Σ_i acc_i · exp(m_i − m)  /  s
//! ```
//!
//! — the same rescale-and-accumulate step the fold performs within a
//! chip, lifted to chip granularity. The property tests pin
//! [`sequence_parallel_attention`] bit-identical to
//! [`flat_kernels::streaming_attention`] on one chip and numerically equal
//! to it for every shard count and shard-boundary split.

use flat_kernels::{streaming_attention, Mask, Mat, MultiHeadInput, RowFold};
use flat_tensor::SoftmaxKind;

/// Splits `seq_kv` into `chips` contiguous shards, ceiling-sized like
/// [`crate::Partition::SequenceParallel`]'s cost model: `[lo, hi)` pairs,
/// trailing shards possibly empty when chips outnumber rows.
#[must_use]
pub fn kv_shards(seq_kv: usize, chips: usize) -> Vec<(usize, usize)> {
    let p = chips.max(1);
    let size = seq_kv.div_ceil(p);
    (0..p)
        .map(|i| {
            let lo = (i * size).min(seq_kv);
            (lo, (lo + size).min(seq_kv))
        })
        .collect()
}

/// Full sequence-parallel attention: every chip folds its KV shard into
/// a partial per query row, the partials are all-reduced with
/// [`RowFold::merge`], and the merged fold normalizes into the final
/// output — numerically the same attention [`streaming_attention`]
/// computes on one chip.
///
/// No mask: splitting the KV side is a long-context *encoder* technique
/// (the paper's Table 1 setting); causal decode shards through
/// [`crate::Partition::KvShard`] instead.
#[must_use]
pub fn sequence_parallel_attention(input: &MultiHeadInput, chips: usize) -> Vec<Mat> {
    let shards = kv_shards(input.seq_kv, chips);
    (0..input.groups())
        .map(|g| {
            let mut out = Mat::zeros(input.seq_q, input.dk);
            for row in 0..input.seq_q {
                let mut merged = RowFold::new(SoftmaxKind::Exact, input.dk);
                for &(lo, hi) in &shards {
                    let mut partial = RowFold::new(SoftmaxKind::Exact, input.dk);
                    partial.absorb_keys(input, g, row, lo..hi, Mask::None);
                    merged.merge(&partial);
                }
                out.row_mut(row).copy_from_slice(&merged.finish());
            }
            out
        })
        .collect()
}

/// Head-parallel attention: groups (batch × head slices) are dealt
/// round-robin to chips, each chip runs the unmodified streaming kernel
/// on its groups, and the all-gather reassembles the outputs in group
/// order. Communication moves data but never touches values — the
/// identity the head-parallel cost model's zero-recompute assumption
/// rests on.
#[must_use]
pub fn head_parallel_attention(input: &MultiHeadInput, chips: usize) -> Vec<Mat> {
    let p = chips.max(1);
    let mut gathered: Vec<Option<Mat>> = (0..input.groups()).map(|_| None).collect();
    for chip in 0..p {
        // This chip's groups: every p-th, starting at its rank.
        for g in (chip..input.groups()).step_by(p) {
            let shard = MultiHeadInput {
                batch: 1,
                heads: 1,
                seq_q: input.seq_q,
                seq_kv: input.seq_kv,
                dk: input.dk,
                q: vec![input.q[g].clone()],
                k: vec![input.k[g].clone()],
                v: vec![input.v[g].clone()],
            };
            let mut out =
                streaming_attention(&shard, input.seq_q.max(1), input.seq_kv.max(1), Mask::None);
            if let Some(m) = out.pop() {
                gathered[g] = Some(m);
            }
        }
    }
    gathered
        .into_iter()
        .map(|m| m.unwrap_or_else(|| Mat::zeros(input.seq_q, input.dk)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_kernels::naive_attention;

    #[test]
    fn two_shards_match_streaming_reference() {
        let input = MultiHeadInput::random(2, 2, 24, 37, 8, 7);
        let reference = streaming_attention(&input, 8, 16, Mask::None);
        let sharded = sequence_parallel_attention(&input, 2);
        for (r, s) in reference.iter().zip(&sharded) {
            assert!(r.max_abs_diff(s) < 1e-5, "diff {}", r.max_abs_diff(s));
        }
    }

    #[test]
    fn more_chips_than_kv_rows_still_agree() {
        let input = MultiHeadInput::random(1, 1, 4, 3, 5, 11);
        let reference = naive_attention(&input, Mask::None);
        let sharded = sequence_parallel_attention(&input, 8);
        assert!(reference[0].max_abs_diff(&sharded[0]) < 1e-5);
        let shards = kv_shards(3, 8);
        assert_eq!(shards.len(), 8);
        assert!(
            shards[3..].iter().all(|&(lo, hi)| lo == hi),
            "trailing shards empty"
        );
    }

    #[test]
    fn head_parallel_is_a_pure_data_movement() {
        let input = MultiHeadInput::random(2, 3, 9, 9, 4, 13);
        let reference = streaming_attention(&input, 9, 9, Mask::None);
        for chips in [1, 2, 4, 16] {
            let sharded = head_parallel_attention(&input, chips);
            assert_eq!(sharded.len(), reference.len());
            for (r, s) in reference.iter().zip(&sharded) {
                assert!(r.max_abs_diff(s) < 1e-6, "chips {chips}");
            }
        }
    }
}
