//! One query row's online-softmax fold: the loop streaming, decode and
//! sequence-parallel sharding all run.
//!
//! FLAT's row granularity keeps whole logit rows on chip (§4.2.1); the
//! key-dimension extension instead folds a row's logits chunk by chunk
//! through an online-softmax state, rescaling the `dk`-wide output
//! accumulator whenever a later chunk moves the state. [`RowFold`] is that
//! fold, once, for every [`SoftmaxKind`]: the exact online softmax keeps
//! the accumulator un-normalized (one divide at [`RowFold::finish`]), the
//! division-free family keeps it normalized after every chunk.

use crate::mat::dot;
use crate::softmax_family::{FlashDSoftmax, LogLutSoftmax};
use crate::{Mask, MultiHeadInput, OnlineSoftmax};
use flat_tensor::SoftmaxKind;
use std::ops::Range;

/// The chunked `absorb` the three softmax states share: each logit is
/// replaced by its weight, and the carry for earlier output is returned.
trait ChunkSoftmax {
    fn absorb(&mut self, chunk: &mut [f32]) -> f32;
}

impl ChunkSoftmax for OnlineSoftmax {
    #[inline]
    fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        OnlineSoftmax::absorb(self, chunk)
    }
}

impl ChunkSoftmax for FlashDSoftmax {
    #[inline]
    fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        FlashDSoftmax::absorb(self, chunk)
    }
}

impl ChunkSoftmax for LogLutSoftmax {
    #[inline]
    fn absorb(&mut self, chunk: &mut [f32]) -> f32 {
        LogLutSoftmax::absorb(self, chunk)
    }
}

/// One fold step under a concrete softmax state: `acc` is rescaled by the
/// carry, then each weight > 0 times its value row is added, ascending.
// Inlined so the one-logit steps of `fold_rows` keep the state in registers.
#[inline]
fn fold_chunk<'a, S: ChunkSoftmax>(
    s: &mut S,
    acc: &mut [f32],
    logits: &mut [f32],
    v_row: impl Fn(usize) -> &'a [f32],
) {
    let carry = s.absorb(logits);
    rescale_add(acc, carry, logits, v_row);
}

/// `acc` times `carry`, plus each weight > 0 times its value row
/// `v_row(j)`, ascending: the accumulator half of a fold step.
#[inline]
fn rescale_add<'a>(
    acc: &mut [f32],
    carry: f32,
    weights: &[f32],
    v_row: impl Fn(usize) -> &'a [f32],
) {
    if carry != 1.0 {
        for a in acc.iter_mut() {
            *a *= carry;
        }
    }
    for (j, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            for (a, &v) in acc.iter_mut().zip(v_row(j)) {
                *a = w.mul_add(v, *a);
            }
        }
    }
}

/// `logits[j]` against value row `j` of `v`, one one-logit step each.
fn fold_rows<S: ChunkSoftmax>(s: &mut S, acc: &mut [f32], logits: &mut [f32], v: &[f32]) {
    let dv = acc.len();
    for (j, w) in logits.iter_mut().enumerate() {
        let v_row = &v[j * dv..][..dv];
        fold_chunk(s, acc, std::slice::from_mut(w), |_| v_row);
    }
}

/// The value width [`fold_rows_exact`] is compiled for: the serving
/// engine's head width (`EngineConfig::for_platform` sets `dk` to 32).
const REGISTER_WIDTH: usize = 32;

/// Rows per step of [`fold_rows_exact`]: their weights and carries sit in
/// stack arrays.
const BLOCK_ROWS: usize = 16;

/// The scaled `q·k` logits of `k` folded against `v` by the exact kind,
/// [`BLOCK_ROWS`] rows a step: first the step's dots, then the
/// online-softmax recurrence over them (weights and carries into stack
/// arrays, so no `exp` waits on the accumulator), then each row's rescale
/// and FMA onto the fixed-width accumulator. The state never reads the
/// accumulator, so each element sees the operations of the one-logit steps
/// of `fold_rows` in the same order, and the bits are the same.
///
/// Returns `false`, touching nothing, unless `k` and `v` hold the same
/// non-zero number of whole rows.
// Out of line: inlined, it grows `absorb_rows` and slows the one-row
// groups of the per-row feed.
#[inline(never)]
fn fold_rows_exact(
    s: &mut OnlineSoftmax,
    acc: &mut [f32; REGISTER_WIDTH],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
) -> bool {
    // A division by the constant width, not by the row width.
    let n = v.len() / REGISTER_WIDTH;
    if n == 0 || v.len() != n * REGISTER_WIDTH || n.checked_mul(q.len()) != Some(k.len()) {
        return false;
    }
    let dq = q.len();
    let mut done = 0;
    while done < n {
        let m = (n - done).min(BLOCK_ROWS);
        let mut w = [0.0f32; BLOCK_ROWS];
        for (j, x) in w[..m].iter_mut().enumerate() {
            *x = dot(q, &k[(done + j) * dq..][..dq]) * scale;
        }
        let mut carry = [1.0f32; BLOCK_ROWS];
        for (x, c) in w[..m].iter_mut().zip(&mut carry) {
            *c = s.absorb(std::slice::from_mut(x));
        }
        for (j, (x, &c)) in w[..m].iter().zip(&carry).enumerate() {
            let row = done + j;
            rescale_add(acc, c, std::slice::from_ref(x), |_| {
                &v[row * REGISTER_WIDTH..][..REGISTER_WIDTH]
            });
        }
        done += m;
    }
    true
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RowSoftmax {
    Exact(OnlineSoftmax),
    FlashD(FlashDSoftmax),
    LogLut(LogLutSoftmax),
}

/// The running state of one query row: a softmax state of the selected
/// [`SoftmaxKind`] plus the `dk`-wide weighted-value accumulator.
///
/// Exact folds are also the partial state of a split KV range: two folds
/// over disjoint key ranges [`merge`](Self::merge) into the fold over
/// their union — the cross-chip reduction of sequence-parallel sharding.
///
/// # Example
///
/// ```
/// use flat_kernels::{decode_attention, RowFold};
/// use flat_tensor::SoftmaxKind;
///
/// let q = [1.0f32, 0.5];
/// let rows = [([0.2f32, 0.1], [1.0f32, 2.0]), ([0.4, -0.3], [3.0, -1.0])];
/// let mut fold = RowFold::new(SoftmaxKind::Exact, 2);
/// for (k, v) in &rows {
///     let mut logit = [q[0] * k[0] + q[1] * k[1]];
///     fold.absorb(&mut logit, |_| &v[..]);
/// }
/// let out = fold.finish();
/// let decoded = decode_attention(&q, rows.iter().map(|(k, v)| (&k[..], &v[..])), 1.0);
/// assert!(out.iter().zip(&decoded).all(|(a, b)| (a - b).abs() < 1e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RowFold {
    softmax: RowSoftmax,
    acc: Vec<f32>,
    /// Logit scratch of [`absorb_keys`](Self::absorb_keys) and
    /// `absorb_rows`, reused.
    chunk: Vec<f32>,
}

impl RowFold {
    /// A fresh fold of `kind` with a `dk`-wide zero accumulator.
    #[must_use]
    pub fn new(kind: SoftmaxKind, dk: usize) -> Self {
        let softmax = match kind {
            SoftmaxKind::Exact => RowSoftmax::Exact(OnlineSoftmax::new()),
            SoftmaxKind::FlashD => RowSoftmax::FlashD(FlashDSoftmax::new()),
            SoftmaxKind::LogLut => RowSoftmax::LogLut(LogLutSoftmax::new()),
        };
        RowFold {
            softmax,
            acc: vec![0.0; dk],
            chunk: Vec::new(),
        }
    }

    /// Folds one chunk of scaled, masked (`−∞`) logits: the accumulator is
    /// rescaled by the state's carry, then each non-zero weight times its
    /// value row `v_row(j)` is added, in ascending `j`. The logits are
    /// overwritten with their weights.
    // One carry per chunk: streaming's KV tiles and the shard walk. Decode
    // folds its rows one logit at a time through `absorb_rows` instead.
    #[inline]
    pub fn absorb<'a>(&mut self, logits: &mut [f32], v_row: impl Fn(usize) -> &'a [f32]) {
        match &mut self.softmax {
            RowSoftmax::Exact(s) => fold_chunk(s, &mut self.acc, logits, v_row),
            RowSoftmax::FlashD(s) => fold_chunk(s, &mut self.acc, logits, v_row),
            RowSoftmax::LogLut(s) => fold_chunk(s, &mut self.acc, logits, v_row),
        }
    }

    /// Folds a group of whole K/V rows — `k` holds `n` key rows as wide as
    /// `q`, `v` holds `n` value rows as wide as the accumulator — one
    /// logit at a time: the `n` scaled `q·k` dots go into the scratch,
    /// then each is its own one-logit [`absorb`](Self::absorb) step, so
    /// the bits equal `n` single-row calls. The kind is matched once per
    /// group, not once per row. The exact kind at the engine's value width
    /// runs [`fold_rows_exact`] instead, to the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `q` is empty, if `k` is not a non-zero whole number of
    /// key rows, or if `v` does not hold exactly one value row per key row.
    // Inlined into the caller's group loop, so groups of one row (the
    // per-row feed) pay no call per row.
    #[inline]
    pub(crate) fn absorb_rows(&mut self, q: &[f32], k: &[f32], v: &[f32], scale: f32) {
        assert!(
            !q.is_empty(),
            "decode_attention needs a non-empty query row"
        );
        let RowFold {
            softmax,
            acc,
            chunk: logits,
        } = self;
        if let (RowSoftmax::Exact(s), Ok(acc)) = (
            &mut *softmax,
            <&mut [f32; REGISTER_WIDTH]>::try_from(&mut acc[..]),
        ) {
            if fold_rows_exact(s, acc, q, k, v, scale) {
                return;
            }
        }
        logits.clear();
        // Split off one key row at a time: no division by the row width,
        // which a group of one row would pay per row.
        let mut keys = k;
        while let Some((row, rest)) = keys.split_at_checked(q.len()) {
            logits.push(dot(q, row) * scale);
            keys = rest;
        }
        assert!(
            keys.is_empty() && !logits.is_empty(),
            "a key group must be whole rows as long as the query"
        );
        assert_eq!(
            v.len(),
            logits.len() * acc.len(),
            "a value group must hold one row per key row"
        );
        match softmax {
            RowSoftmax::Exact(s) => fold_rows(s, acc, logits, v),
            RowSoftmax::FlashD(s) => fold_rows(s, acc, logits, v),
            RowSoftmax::LogLut(s) => fold_rows(s, acc, logits, v),
        }
    }

    /// Folds query row `qi` of group `g` against the key rows `cols`:
    /// each logit is the scaled `q·k` dot (`−∞` where `mask` hides it),
    /// then the chunk goes through [`absorb`](Self::absorb).
    pub fn absorb_keys(
        &mut self,
        input: &MultiHeadInput,
        g: usize,
        qi: usize,
        cols: Range<usize>,
        mask: Mask,
    ) {
        let (q, k, v) = (input.q[g].row(qi), &input.k[g], &input.v[g]);
        let scale = input.scale();
        let mut chunk = std::mem::take(&mut self.chunk);
        chunk.clear();
        chunk.extend(cols.clone().map(|j| {
            if mask.allows(qi, j) {
                dot(q, k.row(j)) * scale
            } else {
                f32::NEG_INFINITY
            }
        }));
        self.absorb(&mut chunk, |j| v.row(cols.start + j));
        self.chunk = chunk;
    }

    /// The un-normalized exact partial `(max, sum, acc)`: running max and
    /// sum of `exp(x − max)` over the absorbed logits, and the weighted
    /// value accumulator — the `dk + 2` floats a sequence-parallel
    /// all-reduce moves. `None` for the division-free kinds, whose
    /// accumulator is already normalized.
    #[must_use]
    pub fn partial(&self) -> Option<(f32, f32, &[f32])> {
        match self.softmax {
            RowSoftmax::Exact(s) => Some((s.max, s.sum, &self.acc)),
            _ => None,
        }
    }

    /// Merges `other`, a fold over a disjoint key range, into `self`:
    /// both partials are rescaled into the larger max's frame and summed.
    /// An empty fold is the identity, so empty shards drop out exactly.
    ///
    /// # Panics
    ///
    /// Panics unless both folds are [`SoftmaxKind::Exact`].
    pub fn merge(&mut self, other: &RowFold) {
        let (RowSoftmax::Exact(into), RowSoftmax::Exact(from)) =
            (&mut self.softmax, &other.softmax)
        else {
            panic!("only exact folds merge");
        };
        if from.sum == 0.0 {
            return;
        }
        if into.sum == 0.0 {
            *into = *from;
            self.acc.copy_from_slice(&other.acc);
            return;
        }
        let max = into.max.max(from.max);
        let (s_into, s_from) = ((into.max - max).exp(), (from.max - max).exp());
        into.sum = into.sum * s_into + from.sum * s_from;
        into.max = max;
        for (a, &b) in self.acc.iter_mut().zip(&other.acc) {
            *a = *a * s_into + b * s_from;
        }
    }

    /// The output row: the exact fold divides by its normalizer once; the
    /// division-free kinds are already normalized.
    #[must_use]
    pub fn finish(mut self) -> Vec<f32> {
        if let RowSoftmax::Exact(s) = self.softmax {
            let inv = 1.0 / s.sum;
            for a in &mut self.acc {
                *a *= inv;
            }
        }
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(input: &MultiHeadInput, cols: Range<usize>) -> RowFold {
        let mut fold = RowFold::new(SoftmaxKind::Exact, input.dk);
        fold.absorb_keys(input, 0, 0, cols, Mask::None);
        fold
    }

    #[test]
    fn merge_is_order_insensitive() {
        let input = MultiHeadInput::random(1, 1, 1, 30, 6, 3);
        let parts = [
            shard(&input, 0..10),
            shard(&input, 10..20),
            shard(&input, 20..30),
        ];
        let fold = |order: [usize; 3]| {
            let mut m = RowFold::new(SoftmaxKind::Exact, 6);
            for i in order {
                m.merge(&parts[i]);
            }
            m
        };
        let (a, b) = (fold([0, 1, 2]), fold([2, 0, 1]));
        let ((_, sa, acc_a), (_, sb, acc_b)) = (a.partial().unwrap(), b.partial().unwrap());
        assert!((sa - sb).abs() < 1e-4 * sa.abs());
        for (x, y) in acc_a.iter().zip(acc_b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_fold_is_the_merge_identity() {
        let input = MultiHeadInput::random(1, 1, 1, 10, 4, 5);
        let full = shard(&input, 0..10);
        let mut merged = RowFold::new(SoftmaxKind::Exact, 4);
        merged.merge(&shard(&input, 3..3));
        merged.merge(&full);
        merged.merge(&RowFold::new(SoftmaxKind::Exact, 4));
        assert_eq!(merged.partial(), full.partial());
    }

    #[test]
    fn only_the_exact_fold_has_a_partial() {
        assert!(RowFold::new(SoftmaxKind::FlashD, 3).partial().is_none());
        assert!(RowFold::new(SoftmaxKind::LogLut, 3).partial().is_none());
    }

    #[test]
    #[should_panic(expected = "only exact folds merge")]
    fn family_folds_do_not_merge() {
        let mut a = RowFold::new(SoftmaxKind::FlashD, 2);
        a.merge(&RowFold::new(SoftmaxKind::Exact, 2));
    }
}
