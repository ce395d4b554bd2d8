//! Softmax variants: the two-pass reference and the online (streaming)
//! update used to tile along the key dimension.

/// Numerically stable two-pass softmax over one row, in place.
///
/// Pass 1 finds the max, pass 2 exponentiates and normalizes. This is the
/// computation the ATTACC SFU applies to each completed FLAT-tile row.
///
/// # Example
///
/// ```
/// use flat_kernels::softmax_row;
///
/// let mut row = [1.0f32, 2.0, 3.0];
/// softmax_row(&mut row);
/// let sum: f32 = row.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// assert!(row[2] > row[1] && row[1] > row[0]);
/// ```
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = lane_max(row);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Independent lanes of the laned row reductions. A walk that cuts a
/// row short of its masked tail cuts it at a multiple of `LANES`, so the
/// lanes see the same chunks.
pub(crate) const LANES: usize = 8;

/// Row maximum via `LANES` independent lanes so the reduction
/// vectorizes. `f32::max` is exactly associative and commutative (no NaNs
/// in logit rows), so this is bit-identical to the serial fold.
pub(crate) fn lane_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for chunk in row.chunks_exact(LANES) {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc = acc.max(x);
        }
    }
    let tail = row
        .chunks_exact(LANES)
        .remainder()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    lanes.iter().copied().fold(tail, f32::max)
}

/// Largest `|x|` over the finite entries of `row` (0 when there are
/// none), via `LANES` independent lanes. Like [`lane_max`], bit-identical
/// to the serial fold.
pub(crate) fn lane_abs_max(row: &[f32]) -> f32 {
    let finite_abs = |x: f32| if x.is_finite() { x.abs() } else { 0.0 };
    let mut lanes = [0.0f32; LANES];
    for chunk in row.chunks_exact(LANES) {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc = acc.max(finite_abs(x));
        }
    }
    let tail = row
        .chunks_exact(LANES)
        .remainder()
        .iter()
        .fold(0.0f32, |a, &x| a.max(finite_abs(x)));
    lanes.iter().copied().fold(tail, f32::max)
}

/// Row sum via `LANES` independent lanes so the reduction vectorizes.
/// Unlike `max`, FP addition is not associative, so this is *not*
/// bit-identical to a serial fold — callers tolerate the reordering.
pub(crate) fn lane_sum(row: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for chunk in row.chunks_exact(LANES) {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc += x;
        }
    }
    let tail: f32 = row.chunks_exact(LANES).remainder().iter().sum();
    lanes.iter().sum::<f32>() + tail
}

/// Running state of an *online* softmax over one row, processed in chunks.
///
/// This is the streaming rescaling trick (Milakov–Gimelshein, later the
/// heart of FlashAttention): chunks of the row arrive one at a time; the
/// state keeps the running max `m`, the running normalizer `s`, and the
/// running weighted output accumulator, rescaling them whenever a later
/// chunk raises the max. FLAT itself never needs this — its row-granularity
/// slices always hold complete rows — but it is the natural extension for
/// key-dimension tiling, so the kernels crate provides it and the tests
/// prove it equivalent.
///
/// # Example
///
/// ```
/// use flat_kernels::{softmax_row, OnlineSoftmax};
///
/// let row = [0.3f32, -1.0, 2.5, 0.0, 1.1, -0.4];
/// let mut reference = row;
/// softmax_row(&mut reference);
///
/// let mut online = OnlineSoftmax::new();
/// let mut weights = Vec::new();
/// for chunk in row.chunks(2) {
///     let mut chunk = chunk.to_vec();
///     let scale = online.absorb(&mut chunk);
///     for w in weights.iter_mut() { *w *= scale; }
///     weights.extend(chunk);
/// }
/// let norm = online.normalizer();
/// for (w, r) in weights.iter().zip(&reference) {
///     assert!((w / norm - r).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSoftmax {
    pub(crate) max: f32,
    pub(crate) sum: f32,
}

impl OnlineSoftmax {
    /// Fresh state: no elements absorbed yet.
    #[must_use]
    pub fn new() -> Self {
        OnlineSoftmax {
            max: f32::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Absorbs a chunk of logits, replacing each with its unnormalized
    /// weight `exp(x − max)` under the new running max (0 while every
    /// logit so far is masked), and returns the factor by which all
    /// *previously produced* weights (and weighted accumulators) must be
    /// rescaled: `exp(old_max − new_max)`, 1.0 when the max is unchanged.
    /// Same chunked contract as [`FlashDSoftmax::absorb`](crate::FlashDSoftmax::absorb),
    /// minus the normalization.
    #[inline]
    pub fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        let chunk_max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // A finite max the chunk does not raise: the carry is exp(0) = 1
        // exactly, so skip that exp. At ±∞ the carry is exp(∞ − ∞) = NaN
        // (or nothing is live yet), which the general path keeps.
        let scale = if chunk_max <= self.max && self.max.is_finite() {
            1.0
        } else {
            let new_max = self.max.max(chunk_max);
            if new_max == f32::NEG_INFINITY {
                chunk.fill(0.0);
                return 1.0;
            }
            let scale = if self.max == f32::NEG_INFINITY {
                1.0
            } else {
                (self.max - new_max).exp()
            };
            self.sum *= scale;
            self.max = new_max;
            scale
        };
        for x in chunk.iter_mut() {
            *x = (*x - self.max).exp();
            self.sum += *x;
        }
        scale
    }

    /// Current normalizer (sum of unnormalized weights absorbed so far).
    #[must_use]
    pub fn normalizer(&self) -> f32 {
        self.sum
    }

    /// Current running maximum.
    #[must_use]
    pub fn running_max(&self) -> f32 {
        self.max
    }
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        OnlineSoftmax::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut row = vec![5.0f32, -3.0, 0.2, 9.9, -7.7];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn handles_extreme_magnitudes() {
        let mut row = vec![1000.0f32, 999.0, -1000.0];
        softmax_row(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let mut row = vec![2.5f32; 8];
        softmax_row(&mut row);
        for &v in &row {
            assert!((v - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_is_noop() {
        let mut row: Vec<f32> = vec![];
        softmax_row(&mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn online_matches_two_pass_for_any_chunking() {
        let row: Vec<f32> = (0..17).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
        let mut reference = row.clone();
        softmax_row(&mut reference);
        for chunk_size in [1, 2, 3, 5, 17] {
            let mut st = OnlineSoftmax::new();
            let mut weights: Vec<f32> = Vec::new();
            for chunk in row.chunks(chunk_size) {
                let mut chunk = chunk.to_vec();
                let scale = st.absorb(&mut chunk);
                for w in &mut weights {
                    *w *= scale;
                }
                weights.extend(chunk);
            }
            for (w, r) in weights.iter().zip(&reference) {
                assert!((w / st.normalizer() - r).abs() < 1e-5, "chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn absorb_returns_rescale_factor_on_new_max() {
        let mut st = OnlineSoftmax::new();
        assert_eq!(st.absorb(&mut [0.0]), 1.0);
        let scale = st.absorb(&mut [2.0]);
        assert!((scale - (-2.0f32).exp()).abs() < 1e-7);
        // No rescale when max unchanged.
        assert_eq!(st.absorb(&mut [1.0]), 1.0);
        // Nothing live yet: every weight is 0 and there is nothing to rescale.
        let mut masked = [f32::NEG_INFINITY; 2];
        assert_eq!(OnlineSoftmax::new().absorb(&mut masked), 1.0);
        assert_eq!(masked, [0.0, 0.0]);
    }
}
