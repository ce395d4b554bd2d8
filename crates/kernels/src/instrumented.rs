//! Instrumented fused execution: the FLAT walk of
//! [`flat_attention`](crate::flat_attention) with a counter attached, so
//! the cost model's traffic accounting is validated against the tiles the
//! real walk executes — not against a copy of it.

use crate::fused::flat_attention_group;
use crate::ComputePrecision::F32;
use crate::{Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind::Exact;

/// Memory-touch counters for one execution, in elements.
///
/// "DRAM" here means the backing store of the full Q/K/V/O tensors;
/// "slice" means the on-chip FLAT-tile holding the live logit rows.
///
/// # Example
///
/// ```
/// use flat_kernels::{instrumented_flat_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let (out, stats) = instrumented_flat_attention(&input, 8, Mask::None);
/// assert_eq!(out.len(), 2);
/// // Q is read exactly once per element.
/// assert_eq!(stats.q_reads, 2 * 32 * 8);
/// // The live slice never exceeds R x N.
/// assert_eq!(stats.peak_live_logits, 8 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Query elements read from backing store.
    pub q_reads: u64,
    /// Key elements read from backing store.
    pub k_reads: u64,
    /// Value elements read from backing store.
    pub v_reads: u64,
    /// Output elements written to backing store.
    pub o_writes: u64,
    /// Logit elements written into the live slice.
    pub logit_writes: u64,
    /// Logit elements read back out of the live slice (softmax + Attend).
    pub logit_reads: u64,
    /// Largest number of logit elements live at any instant.
    pub peak_live_logits: u64,
    /// Number of FLAT-tile iterations executed.
    pub iterations: u64,
}

impl ExecutionStats {
    /// Total backing-store (DRAM-like) traffic in elements.
    #[must_use]
    pub fn backing_store_elements(&self) -> u64 {
        self.q_reads + self.k_reads + self.v_reads + self.o_writes
    }

    /// Total scratchpad (live-slice) traffic in elements: every logit
    /// write into the FLAT tile plus every read back out of it.
    #[must_use]
    pub fn scratchpad_elements(&self) -> u64 {
        self.logit_writes + self.logit_reads
    }

    /// Counts one group's K and V staging: `seq_kv × dk` elements each,
    /// read once and reused across the group's tiles.
    pub(crate) fn stage_kv(&mut self, seq_kv: usize, dk: usize) {
        self.k_reads += (seq_kv * dk) as u64;
        self.v_reads += (seq_kv * dk) as u64;
    }

    /// Counts one executed FLAT tile: `rows` query rows against a
    /// `width`-column logit slice whose first `live` columns were computed
    /// (all of them unless a causal tile stopped at its diagonal).
    pub(crate) fn count_tile(&mut self, rows: usize, live: usize, width: usize, dk: usize) {
        let (rows, live, width, dk) = (rows as u64, live as u64, width as u64, dk as u64);
        self.iterations += 1;
        self.q_reads += rows * dk;
        self.peak_live_logits = self.peak_live_logits.max(rows * width);
        // Stage L writes the live logits; the SFU pass reads and rewrites
        // the whole slice (masked columns hold −∞); stage A reads the live
        // logits once more.
        self.logit_writes += rows * live + rows * width;
        self.logit_reads += rows * width + rows * live;
        self.o_writes += rows * dk;
    }

    /// The counts of two parts of one walk, such as two row bands: the
    /// counters add, and the peak live footprint is the larger one, since
    /// each band holds only its own tile.
    pub(crate) fn merge(self, o: ExecutionStats) -> ExecutionStats {
        ExecutionStats {
            q_reads: self.q_reads + o.q_reads,
            k_reads: self.k_reads + o.k_reads,
            v_reads: self.v_reads + o.v_reads,
            o_writes: self.o_writes + o.o_writes,
            logit_writes: self.logit_writes + o.logit_writes,
            logit_reads: self.logit_reads + o.logit_reads,
            peak_live_logits: self.peak_live_logits.max(o.peak_live_logits),
            iterations: self.iterations + o.iterations,
        }
    }
}

/// [`flat_attention`](crate::flat_attention) with touch counting. Returns
/// the identical output plus the [`ExecutionStats`] of the tiles the walk
/// executed.
///
/// K and V are modeled as staged: read from backing store once per
/// (batch, head) group and reused across that group's row iterations —
/// the `key`/`value` FLAT-tile behavior the cost model prices.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
#[must_use]
pub fn instrumented_flat_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
) -> (Vec<Mat>, ExecutionStats) {
    assert!(rows_per_tile > 0, "row tile must be positive");
    let (outs, stats): (Vec<_>, Vec<_>) = (0..input.groups())
        .map(|g| flat_attention_group(input, g, rows_per_tile, mask, F32, Exact, false))
        .unzip();
    let stats = stats.into_iter().reduce(ExecutionStats::merge);
    (outs, stats.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat_attention;

    #[test]
    fn output_matches_uninstrumented() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 5);
        let (inst, _) = instrumented_flat_attention(&input, 6, Mask::None);
        let plain = flat_attention(&input, 6, Mask::None);
        for (a, b) in inst.iter().zip(&plain) {
            assert_eq!(a.max_abs_diff(b), 0.0, "identical arithmetic path");
        }
    }

    #[test]
    fn compulsory_traffic_touched_exactly_once() {
        let input = MultiHeadInput::random(2, 3, 32, 40, 8, 7);
        let (_, s) = instrumented_flat_attention(&input, 8, Mask::None);
        let groups = 6u64;
        assert_eq!(s.q_reads, groups * 32 * 8);
        assert_eq!(s.k_reads, groups * 40 * 8);
        assert_eq!(s.v_reads, groups * 40 * 8);
        assert_eq!(s.o_writes, groups * 32 * 8);
    }

    #[test]
    fn peak_live_is_r_times_n() {
        let input = MultiHeadInput::random(1, 1, 64, 64, 4, 9);
        for r in [1usize, 4, 16, 64] {
            let (_, s) = instrumented_flat_attention(&input, r, Mask::None);
            assert_eq!(s.peak_live_logits, (r * 64) as u64, "R={r}");
        }
    }

    #[test]
    fn logit_tensor_fully_produced_and_consumed() {
        let input = MultiHeadInput::random(1, 2, 17, 23, 4, 11);
        let (_, s) = instrumented_flat_attention(&input, 5, Mask::None);
        let logits = 2 * 17 * 23u64;
        // Written by L, rewritten by softmax; read by softmax and by A.
        assert_eq!(s.logit_writes, 2 * logits);
        assert_eq!(s.logit_reads, 2 * logits);
    }

    #[test]
    fn iteration_count_matches_ceiling_division() {
        let input = MultiHeadInput::random(2, 2, 37, 37, 4, 13);
        let (_, s) = instrumented_flat_attention(&input, 8, Mask::None);
        assert_eq!(s.iterations, 4 * 37u64.div_ceil(8));
    }

    #[test]
    fn causal_tiles_stop_at_the_diagonal() {
        let input = MultiHeadInput::random(1, 2, 32, 32, 8, 15);
        let (_, full) = instrumented_flat_attention(&input, 8, Mask::None);
        let (_, causal) = instrumented_flat_attention(&input, 8, Mask::Causal);
        // Stage L and stage A touch only the live columns; the SFU still
        // sweeps the whole slice.
        assert!(causal.logit_writes < full.logit_writes);
        assert!(causal.logit_reads < full.logit_reads);
        // Per group, tile rows 0..8 see 8 live keys, 8..16 see 16, and so on.
        let live = 2 * [8u64, 16, 24, 32].iter().map(|c| 8 * c).sum::<u64>();
        let slice = 2 * 32 * 32u64;
        assert_eq!(causal.logit_writes, live + slice);
        assert_eq!(causal.logit_reads, slice + live);
        // The slice, the tile count and the compulsory traffic are the same.
        assert_eq!(causal.peak_live_logits, full.peak_live_logits);
        assert_eq!(causal.iterations, full.iterations);
        assert_eq!(
            causal.backing_store_elements(),
            full.backing_store_elements()
        );
    }

    #[test]
    fn banded_stats_equal_the_closed_form() {
        // 143 tiles of R 7, the last one 6 rows: several row bands on a
        // multi-lane pool, whose merged counts must be the per-tile sums.
        let (seq_q, seq_kv, dk, r) = (1000, 60, 4, 7);
        let input = MultiHeadInput::random(1, 1, seq_q, seq_kv, dk, 17);
        for mask in [Mask::None, Mask::Causal] {
            let (_, s) = instrumented_flat_attention(&input, r, mask);
            let live: usize = (0..seq_q)
                .step_by(r)
                .map(|lo| ((lo + r).min(seq_q) - lo) * mask.live_cols(lo + r, seq_kv))
                .sum();
            let [qo, kv, slice, live] =
                [seq_q * dk, seq_kv * dk, seq_q * seq_kv, live].map(|x| x as u64);
            let expected = ExecutionStats {
                q_reads: qo,
                k_reads: kv,
                v_reads: kv,
                o_writes: qo,
                logit_writes: live + slice,
                logit_reads: slice + live,
                peak_live_logits: (r * seq_kv) as u64,
                iterations: seq_q.div_ceil(r) as u64,
            };
            assert_eq!(s, expected, "{mask:?}");
        }
    }
}
