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
        self.absorb_with(chunk, f32::exp)
    }

    /// [`absorb`](Self::absorb) with every `exp` taken by `exp`.
    #[inline(always)]
    pub(crate) fn absorb_with(&mut self, chunk: &mut [f32], exp: impl Fn(f32) -> f32) -> f32 {
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
                exp(self.max - new_max)
            };
            self.sum *= scale;
            self.max = new_max;
            scale
        };
        for x in chunk.iter_mut() {
            *x = exp(*x - self.max);
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

/// `2^(i/32)` as f64 bits less `i << 47`, so adding `k << 47` for any `k`
/// with `k % 32 == i` scales the entry by `2^(k/32 − i/32)`: glibc's
/// `__exp2f_data.tab`.
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `32 / ln 2`, glibc's `InvLn2N` (`0x1.71547652b82fep+0 · 32`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2^52`: adding it rounds a double below 2^51 in magnitude to an
/// integer held in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// glibc's `poly_scaled`: `2^(r/32) ≈ ((C0·r + C1)·r + C2)·r + 1`.
const EXP2_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `0x1.62e42ep6 ≈ log(2^128)`: above it `expf` overflows to `+∞`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7218);
/// `−0x1.9fe368p6 ≈ log(2^-150)`: below it `expf` underflows to `+0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `exp(x)` with the same bits as the host libm's `expf` (glibc 2.36's
/// `__expf_fma`, the ifunc an FMA host selects) for every `f32` input,
/// written so a loop over lanes vectorizes: the table-driven `2^(k/32)`
/// scaling and cubic of glibc's `e_expf.c`, evaluated with the same
/// contractions, and the special cases as selects instead of branches.
/// `tests::lane_exp_matches_libm_everywhere` checks every input.
#[inline(always)]
pub(crate) fn exp_f32(x: f32) -> f32 {
    // x·32/ln2 = k + r, with k rounded to the nearest integer and
    // r in [−1/2, 1/2].
    let xd = f64::from(x);
    let kd = INV_LN2_N * xd + ROUND_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - ROUND_SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) · 2^(r/32).
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP2_POLY;
    let y = c0.mul_add(r, c1).mul_add(r * r, c2.mul_add(r, 1.0)) * s;
    if x > EXP_OVERFLOW {
        f32::INFINITY
    } else if x < EXP_UNDERFLOW {
        0.0
    } else if x.is_nan() {
        x + x
    } else {
        y as f32
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

    #[test]
    fn exp_table_is_two_to_the_i_over_32() {
        for (i, &entry) in (0u64..).zip(&EXP2_TABLE) {
            let want = (i as f64 / 32.0).exp2().to_bits().wrapping_sub(i << 47);
            assert_eq!(entry, want, "entry {i}");
        }
    }

    /// The `f32` patterns where [`exp_f32`] and libm `expf` differ, over
    /// `bits`.
    fn exp_mismatches(bits: impl Iterator<Item = u32>) -> Vec<u32> {
        bits.filter(|&b| {
            let x = f32::from_bits(b);
            exp_f32(x).to_bits() != x.exp().to_bits()
        })
        .collect()
    }

    #[test]
    fn lane_exp_matches_libm_on_a_strided_sweep() {
        // ~1M patterns (an odd stride reaches every low-bit class), the
        // edges of the special cases, and the two inputs whose bits move
        // when the reduction `r` is not one FMA.
        let sweep = (0..=u32::MAX).step_by(4093);
        let edges = [EXP_OVERFLOW, EXP_UNDERFLOW, 88.0, -88.0, 0.0, -0.0]
            .into_iter()
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .chain([
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::MAX,
                f32::MIN,
            ])
            .chain([32.564_632, -63.099_46])
            .map(f32::to_bits);
        assert_eq!(exp_mismatches(sweep.chain(edges)), Vec::<u32>::new());
    }

    /// All 2³² inputs. Run in release:
    /// `cargo test --release -p flat-kernels --lib -- --ignored lane_exp`.
    #[test]
    #[ignore = "exhaustive: ~40 s of one core in release"]
    fn lane_exp_matches_libm_everywhere() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
        let span = u32::MAX / threads + 1;
        let bad: Vec<u32> = std::thread::scope(|scope| {
            let parts: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * span;
                    let hi = lo.saturating_add(span - 1);
                    scope.spawn(move || exp_mismatches(lo..=hi))
                })
                .collect();
            parts.into_iter().flat_map(|p| p.join().unwrap()).collect()
        });
        assert_eq!(bad, Vec::<u32>::new());
    }
}
