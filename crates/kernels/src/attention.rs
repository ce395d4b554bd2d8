//! Multi-head attention inputs and the naive (baseline) execution.

use crate::{softmax_row, Mat};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Attention masking mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    /// Full (bidirectional) attention — BERT-style encoders.
    None,
    /// Causal mask: position `i` attends only to `j ≤ i` — decoder models
    /// like TransformerXL.
    Causal,
}

impl Mask {
    /// Whether query row `i` may attend to key column `j`.
    #[must_use]
    pub fn allows(self, i: usize, j: usize) -> bool {
        match self {
            Mask::None => true,
            Mask::Causal => j <= i,
        }
    }

    /// Key columns `0..n` that query rows `0..row_hi` may attend to, out of
    /// `seq_kv`: a causal tile stops at its diagonal, and every column at
    /// or past `n` is masked for all of its rows.
    pub(crate) fn live_cols(self, row_hi: usize, seq_kv: usize) -> usize {
        match self {
            Mask::None => seq_kv,
            Mask::Causal => row_hi.min(seq_kv),
        }
    }
}

/// The per-(batch, head) Q/K/V matrices of one attention layer.
///
/// `q[g]` is `[seq_q, dk]`, `k[g]` and `v[g]` are `[seq_kv, dk]`, with
/// `g` ranging over `batch × heads` groups. Cross-attention is just
/// `seq_q != seq_kv`.
///
/// # Example
///
/// ```
/// use flat_kernels::MultiHeadInput;
///
/// let input = MultiHeadInput::random(2, 4, 16, 16, 8, 42);
/// assert_eq!(input.groups(), 8);
/// assert_eq!(input.q[0].rows(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadInput {
    /// Batch size.
    pub batch: usize,
    /// Head count.
    pub heads: usize,
    /// Query sequence length.
    pub seq_q: usize,
    /// Key/value sequence length.
    pub seq_kv: usize,
    /// Per-head dimension.
    pub dk: usize,
    /// Query matrices, one per (batch, head) group.
    pub q: Vec<Mat>,
    /// Key matrices.
    pub k: Vec<Mat>,
    /// Value matrices.
    pub v: Vec<Mat>,
}

impl MultiHeadInput {
    /// Random inputs for testing, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn random(
        batch: usize,
        heads: usize,
        seq_q: usize,
        seq_kv: usize,
        dk: usize,
        seed: u64,
    ) -> Self {
        assert!(
            batch > 0 && heads > 0 && seq_q > 0 && seq_kv > 0 && dk > 0,
            "attention dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = batch * heads;
        let gen = |rows: usize, rng: &mut StdRng| {
            (0..groups)
                .map(|_| Mat::random(rows, dk, rng))
                .collect::<Vec<_>>()
        };
        let q = gen(seq_q, &mut rng);
        let k = gen(seq_kv, &mut rng);
        let v = gen(seq_kv, &mut rng);
        MultiHeadInput {
            batch,
            heads,
            seq_q,
            seq_kv,
            dk,
            q,
            k,
            v,
        }
    }

    /// Number of (batch, head) groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.batch * self.heads
    }

    /// The softmax scale `1/√dk`.
    #[must_use]
    pub fn scale(&self) -> f32 {
        1.0 / (self.dk as f32).sqrt()
    }

    /// Group `g`'s `[q, k, v]`.
    pub(crate) fn group(&self, g: usize) -> [&Mat; 3] {
        [&self.q[g], &self.k[g], &self.v[g]]
    }
}

/// The baseline execution: for each group, materialize the **entire**
/// `[seq_q, seq_kv]` logit matrix (this is the `O(N²)` tensor the paper is
/// about), softmax it row by row, then multiply by `V`.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 8, 8, 4, 7);
/// let out = naive_attention(&input, Mask::None);
/// assert_eq!(out.len(), 2);
/// assert_eq!((out[0].rows(), out[0].cols()), (8, 4));
/// ```
#[must_use]
pub fn naive_attention(input: &MultiHeadInput, mask: Mask) -> Vec<Mat> {
    let scale = input.scale();
    (0..input.groups())
        .map(|g| {
            let mut logits = input.q[g].matmul_transposed(&input.k[g]);
            for i in 0..logits.rows() {
                for (j, x) in logits.row_mut(i).iter_mut().enumerate() {
                    *x = if mask.allows(i, j) {
                        *x * scale
                    } else {
                        f32::NEG_INFINITY
                    };
                }
            }
            for i in 0..logits.rows() {
                softmax_row(logits.row_mut(i));
            }
            logits.matmul(&input.v[g])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_convex_combinations_of_values() {
        // With V = identity-ish rows, attention outputs stay within the
        // convex hull: here all V entries equal 1, so outputs must be 1.
        let mut input = MultiHeadInput::random(1, 1, 6, 6, 3, 9);
        input.v[0] = Mat::from_fn(6, 3, |_, _| 1.0);
        let out = naive_attention(&input, Mask::None);
        for i in 0..6 {
            for j in 0..3 {
                assert!((out[0].at(i, j) - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn causal_first_row_copies_first_value_row() {
        let input = MultiHeadInput::random(1, 1, 5, 5, 4, 11);
        let out = naive_attention(&input, Mask::Causal);
        // Row 0 can only attend to key 0: softmax over one element = 1.
        for j in 0..4 {
            assert!((out[0].at(0, j) - input.v[0].at(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_attention_shapes() {
        let input = MultiHeadInput::random(2, 2, 3, 10, 4, 13);
        let out = naive_attention(&input, Mask::None);
        assert_eq!(out.len(), 4);
        assert_eq!((out[0].rows(), out[0].cols()), (3, 4));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = naive_attention(&MultiHeadInput::random(1, 1, 4, 4, 2, 5), Mask::None);
        let b = naive_attention(&MultiHeadInput::random(1, 1, 4, 4, 2, 5), Mask::None);
        assert_eq!(a[0].max_abs_diff(&b[0]), 0.0);
    }
}
