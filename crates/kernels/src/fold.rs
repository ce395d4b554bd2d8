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
//!
//! Decode at the serving engine's head width (32) folds the exact kind in
//! 16-row steps (`fold_rows_exact`): logits from an 8-row register block,
//! and, for a step that raises no running max, the weights as one lane
//! `exp` whose bits are the host libm's `expf`. Every bit equals the
//! one-logit steps of every other width.

use crate::mat::dot;
use crate::softmax::{exp_f32, LANES};
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

/// The value width [`fold_rows_exact`] is compiled for, and the query
/// width its register-blocked logits are: the serving engine's head width
/// (`EngineConfig::for_platform` sets `dk` to 32).
const REGISTER_WIDTH: usize = 32;

/// Rows per step of [`fold_rows_exact`]: their logits and weights sit in
/// stack arrays, and a step that raises no running max takes its weights
/// as one lane `exp`.
const BLOCK_ROWS: usize = 16;

/// Key rows of one register block of [`block_logits`].
const LOGIT_ROWS: usize = 8;

/// The scaled `q·k` logits of [`LOGIT_ROWS`] key rows (`k` holds that many
/// rows of [`REGISTER_WIDTH`]) into `out`, to the bits of `dot(q, k_row) *
/// scale`: each row's [`LANES`] partials take one full-width FMA per
/// `LANES` columns, then `dot`'s tree folds them, plus its empty tail's
/// `0.0`, across the rows at once.
#[inline(always)]
fn block_logits(q: &[f32; REGISTER_WIDTH], k: &[f32], scale: f32, out: &mut [f32]) {
    let mut part = [[0.0f32; LANES]; LOGIT_ROWS];
    for (c, qc) in q.chunks_exact(LANES).enumerate() {
        for (p, row) in part.iter_mut().zip(k.chunks_exact(REGISTER_WIDTH)) {
            let kc = &row[c * LANES..][..LANES];
            for (lane, acc) in p.iter_mut().enumerate() {
                *acc = qc[lane].mul_add(kc[lane], *acc);
            }
        }
    }
    // The partials go through memory. Without the barrier LLVM vectorizes
    // the whole block across rows from the logit stores back, so each
    // FMA reads a column of K: gathers, or a transpose of every K chunk
    // (both slower than `dot`). With it, the FMAs run along each row and
    // only the 8×8 partials are transposed. A hint only: no bit depends
    // on it.
    let part = std::hint::black_box(part);
    for (o, p) in out.iter_mut().zip(&part) {
        let even = (p[0] + p[4]) + (p[2] + p[6]);
        let odd = (p[1] + p[5]) + (p[3] + p[7]);
        *o = ((even + odd) + 0.0) * scale;
    }
}

/// The scaled `q·k` logits of the key rows in `k` into `out`, one per row,
/// to the bits of `dot(q, k_row) * scale`: whole [`LOGIT_ROWS`] blocks of
/// a [`REGISTER_WIDTH`]-wide query through [`block_logits`], the rest
/// through `dot`.
#[inline(always)]
fn logits_into(q: &[f32], k: &[f32], scale: f32, out: &mut [f32]) {
    let mut done = 0;
    if let Ok(q) = <&[f32; REGISTER_WIDTH]>::try_from(q) {
        let blocks = out.chunks_exact_mut(LOGIT_ROWS);
        let keys = k.chunks_exact(LOGIT_ROWS * REGISTER_WIDTH);
        for (o, k) in blocks.zip(keys) {
            block_logits(q, k, scale, o);
            done += LOGIT_ROWS;
        }
    }
    let rest = k[done * q.len()..].chunks_exact(q.len());
    for (o, row) in out[done..].iter_mut().zip(rest) {
        *o = dot(q, row) * scale;
    }
}

/// The scaled `q·k` logits of `k` folded against `v` by the exact kind,
/// [`BLOCK_ROWS`] rows a step, to the bits of the one-logit steps of
/// `fold_rows`.
///
/// A step first takes its logits ([`logits_into`]). When the state has a
/// finite max and no logit of the step exceeds it (the common case once a
/// context's early rows are in), every one-logit step would carry 1.0 and
/// weigh its row `exp(x − max)`: the step takes those weights as one lane
/// `exp`, then adds them to the sum and FMAs them onto the accumulator in
/// row order, as those steps do. Any other step (the first, a rising max,
/// a `NaN` or `+∞` logit) runs the one-logit recurrence over its logits
/// (weights and carries into stack arrays, so no `exp` waits on the
/// accumulator), then each row's rescale and FMA. Every `exp` is
/// [`exp_f32`], bit for bit the libm `expf` the other steps take.
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
    // Local copies, so the state and the accumulator stay in registers
    // across the rows instead of being stored after every FMA.
    let (mut st, mut a) = (*s, *acc);
    let rows = k
        .chunks(BLOCK_ROWS * dq)
        .zip(v.chunks(BLOCK_ROWS * REGISTER_WIDTH));
    for (k, v) in rows {
        let m = v.len() / REGISTER_WIDTH;
        // Rows past `m` stay −∞: they pass the test below, weigh 0, and
        // are never read.
        let mut w = [f32::NEG_INFINITY; BLOCK_ROWS];
        logits_into(q, k, scale, &mut w[..m]);
        let v_rows = v.chunks_exact(REGISTER_WIDTH);
        let max = st.max;
        // No short circuit, so the test is one vector compare.
        if max.is_finite() && w.iter().fold(true, |ok, &x| ok & (x <= max)) {
            for x in &mut w {
                *x = exp_f32(*x - max);
            }
            for (&x, v_row) in w.iter().zip(v_rows) {
                st.sum += x;
                if x > 0.0 {
                    for (a, &v) in a.iter_mut().zip(v_row) {
                        *a = x.mul_add(v, *a);
                    }
                }
            }
        } else {
            let mut carry = [1.0f32; BLOCK_ROWS];
            for (x, c) in w[..m].iter_mut().zip(&mut carry) {
                *c = st.absorb_with(std::slice::from_mut(x), exp_f32);
            }
            for ((x, &c), v_row) in w.iter().zip(&carry).zip(v_rows) {
                rescale_add(&mut a, c, std::slice::from_ref(x), |_| v_row);
            }
        }
    }
    (*s, *acc) = (st, a);
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

    /// Pseudo-random values in [−1, 1).
    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// The state and accumulator bits after folding `(k, v)` from
    /// `(s, acc)`: through [`fold_rows_exact`] when `lanes`, else through
    /// the generic one-logit steps (`dot` logits, libm `exp`).
    fn folded(
        lanes: bool,
        (mut s, mut acc): (OnlineSoftmax, [f32; REGISTER_WIDTH]),
        q: &[f32],
        k: &[f32],
        v: &[f32],
    ) -> Vec<u32> {
        let scale = 0.176_776_7;
        if lanes {
            assert!(fold_rows_exact(&mut s, &mut acc, q, k, v, scale));
        } else {
            let mut logits: Vec<f32> = k.chunks(q.len()).map(|r| dot(q, r) * scale).collect();
            fold_rows(&mut s, &mut acc, &mut logits, v);
        }
        [s.max, s.sum]
            .iter()
            .chain(&acc)
            .map(|x| x.to_bits())
            .collect()
    }

    /// Folds `n` rows of `k`/`v` as one group after a `lead`-row group,
    /// both ways, and asserts the same bits.
    fn assert_lane_fold_is_exact(q: &[f32], k: &[f32], v: &[f32], lead: usize, what: &str) {
        let (dq, dv) = (q.len(), REGISTER_WIDTH);
        let fresh = (OnlineSoftmax::new(), [0.0; REGISTER_WIDTH]);
        let start = if lead == 0 {
            fresh
        } else {
            let (mut s, mut acc) = fresh;
            let mut logits: Vec<f32> = k[..lead * dq].chunks(dq).map(|r| dot(q, r)).collect();
            fold_rows(&mut s, &mut acc, &mut logits, &v[..lead * dv]);
            (s, acc)
        };
        let (k, v) = (&k[lead * dq..], &v[lead * dv..]);
        assert_eq!(
            folded(true, start, q, k, v),
            folded(false, start, q, k, v),
            "{what}"
        );
    }

    #[test]
    fn lane_fold_matches_the_one_logit_steps() {
        // Every group size around the 8-row logit block and the 16-row
        // step, fresh (max −∞) and after a lead-in group, at the register
        // width and on the `dot` path beside it.
        for dq in [32, 31, 33, 64] {
            for n in 1..=33 {
                for lead in [0, 5] {
                    let rows = lead + n;
                    let (q, k, v) = (
                        noise(dq, 1),
                        noise(rows * dq, 2 + n as u64),
                        noise(rows * REGISTER_WIDTH, 3),
                    );
                    assert_lane_fold_is_exact(
                        &q,
                        &k,
                        &v,
                        lead,
                        &format!("dq {dq} n {n} lead {lead}"),
                    );
                }
            }
        }
    }

    #[test]
    fn lane_fold_matches_at_rising_maxima_underflow_and_non_finite_logits() {
        let dq = REGISTER_WIDTH;
        let q = noise(dq, 11);
        let base = |seed| (noise(48 * dq, seed), noise(48 * REGISTER_WIDTH, seed + 1));
        // A key row `c · q` puts that row's logit near `c · |q|² · scale`.
        let set = |k: &mut [f32], row: usize, c: f32| {
            for (x, &y) in k[row * dq..][..dq].iter_mut().zip(&q) {
                *x = c * y;
            }
        };
        for lead in [0, 16] {
            // The max rises at rows 0, 7 and 15 of the step.
            for row in [0, 7, 15] {
                let (mut k, v) = base(20 + row as u64);
                set(&mut k, lead + row, 3.0);
                assert_lane_fold_is_exact(&q, &k, &v, lead, &format!("rise at {row}"));
            }
        }
        // A huge early logit: later weights underflow to 0 and skip
        // their FMA, in the lane steps too.
        let (mut k, v) = base(40);
        set(&mut k, 2, 400.0);
        set(&mut k, 20, -400.0);
        assert_lane_fold_is_exact(&q, &k, &v, 16, "underflow");
        assert_lane_fold_is_exact(&q, &k, &v, 0, "underflow from the first step");
        // ±∞ and NaN logits.
        for (bad, what) in [
            (f32::INFINITY, "+inf"),
            (f32::NEG_INFINITY, "-inf"),
            (f32::NAN, "nan"),
        ] {
            for row in [3, 17, 30] {
                let (mut k, v) = base(50 + row as u64);
                k[row * dq] = bad * q[0].signum();
                assert_lane_fold_is_exact(&q, &k, &v, 0, &format!("{what} at {row}"));
                assert_lane_fold_is_exact(&q, &k, &v, 16, &format!("{what} at {row}, lead 16"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "only exact folds merge")]
    fn family_folds_do_not_merge() {
        let mut a = RowFold::new(SoftmaxKind::FlashD, 2);
        a.merge(&RowFold::new(SoftmaxKind::Exact, 2));
    }
}
