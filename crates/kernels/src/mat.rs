//! A dense row-major matrix with register-tiled, cache-blocked matrix
//! multiply kernels.
//!
//! The multiply routines share two microkernels:
//!
//! * `gemm` (`C += A·B`): `MR`-row register panels over `KC`-deep
//!   contraction blocks. The innermost loop walks one row of `B` once
//!   while feeding `MR` independent `f32::mul_add` streams — a shape the
//!   compiler auto-vectorizes, with hardware FMA under
//!   `-C target-cpu=native` (see `.cargo/config.toml`).
//! * `dot` (`aᵀb`): `LANES` independent partial sums folded by a short
//!   tree reduction, used where *both* operands are contiguous along the
//!   contraction (the `Q·Kᵀ` logit shape).
//!
//! Contraction order is ascending in both kernels, so `matmul` produces
//! the same per-element accumulation sequence as the textbook triple loop
//! (FMA rounding aside), and every caller of the same routine on the same
//! rows gets bit-identical results — the property the fused/instrumented/
//! parallel attention paths rely on.

use rand::Rng;
use std::fmt;

/// Register row-panel height: C rows accumulated simultaneously, each an
/// independent FMA stream in the inner loop.
const MR: usize = 4;

/// Contraction-dimension cache block: one `KC × n` panel of `B` is walked
/// per block, sized to stay resident while all row panels revisit it.
const KC: usize = 256;

/// Independent partial-sum lanes in `dot`: breaks the FMA dependence
/// chain so the reduction vectorizes.
const LANES: usize = 8;

/// Dense `rows × cols` matrix of `f32`, row-major.
///
/// The kernels crate is first a correctness witness for the FLAT tiling,
/// but its matrix core is written as a blocked microkernel (see the
/// module docs) so kernel-vs-kernel wall-clock comparisons measure the
/// dataflows, not interpreter overhead.
///
/// # Example
///
/// ```
/// use flat_kernels::Mat;
///
/// let a = Mat::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// let b = Mat::identity(3);
/// let c = a.matmul(&b);
/// assert_eq!(c.at(1, 2), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// An all-zeros matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled by `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// The identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// A matrix with entries drawn uniformly from `[-1, 1)`.
    #[must_use]
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self · other`, through the blocked `gemm` microkernel.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        gemm(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `self · other`, accumulated into rows `at_row..` of `out`
    /// (overwriting them). This is the Attend-stage write path: a FLAT
    /// tile's `S · V` lands directly in the output rows it owns, with no
    /// intermediate matrix or copy-back.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if the destination rows don't fit.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat, at_row: usize) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert_eq!(out.cols, other.cols, "output width must match");
        assert!(
            at_row + self.rows <= out.rows,
            "destination rows out of bounds"
        );
        let dst = &mut out.data[at_row * out.cols..(at_row + self.rows) * out.cols];
        dst.fill(0.0);
        gemm(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            dst,
        );
    }

    /// `self · otherᵀ` — the Logit operator's shape (`[m, k] × [n, k]ᵀ`).
    ///
    /// # Panics
    ///
    /// Panics when the two column counts differ.
    #[must_use]
    pub fn matmul_transposed(&self, other: &Mat) -> Mat {
        self.matmul_transposed_rows(0, self.rows, other)
    }

    /// `self[lo..hi] · otherᵀ` — one FLAT tile of logits, computed
    /// straight from the parent matrix's rows. The tile path uses this
    /// instead of `row_slice` + [`Self::matmul_transposed`]: no copy of
    /// the Q rows is ever made, and the result is bit-identical to the
    /// copying form because both run the same `dot` kernel on the same
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-bounds row range, or when the column
    /// counts differ.
    #[must_use]
    pub fn matmul_transposed_rows(&self, lo: usize, hi: usize, other: &Mat) -> Mat {
        assert!(lo < hi && hi <= self.rows, "bad row range {lo}..{hi}");
        assert_eq!(self.cols, other.cols, "contraction dimensions must agree");
        let (m, n, kdim) = (hi - lo, other.rows, self.cols);
        let a = &self.data[lo * kdim..hi * kdim];
        let mut out = Mat::zeros(m, n);
        let panels = m / MR;
        for p in 0..panels {
            let i = p * MR;
            let a0 = &a[i * kdim..(i + 1) * kdim];
            let a1 = &a[(i + 1) * kdim..(i + 2) * kdim];
            let a2 = &a[(i + 2) * kdim..(i + 3) * kdim];
            let a3 = &a[(i + 3) * kdim..(i + 4) * kdim];
            let crows = &mut out.data[i * n..(i + MR) * n];
            for j in 0..n {
                // One streamed K row feeds all MR query rows of the panel.
                let brow = &other.data[j * kdim..(j + 1) * kdim];
                crows[j] = dot(a0, brow);
                crows[n + j] = dot(a1, brow);
                crows[2 * n + j] = dot(a2, brow);
                crows[3 * n + j] = dot(a3, brow);
            }
        }
        for i in panels * MR..m {
            let arow = &a[i * kdim..(i + 1) * kdim];
            let crow = &mut out.data[i * n..(i + 1) * n];
            for (j, c) in crow.iter_mut().enumerate() {
                *c = dot(arow, &other.data[j * kdim..(j + 1) * kdim]);
            }
        }
        out
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self.at(j, i))
    }

    /// A copy of rows `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    #[must_use]
    pub fn row_slice(&self, lo: usize, hi: usize) -> Mat {
        assert!(lo < hi && hi <= self.rows, "bad row range {lo}..{hi}");
        Mat {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Largest absolute element-wise difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Raw data, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mat[{}x{}]", self.rows, self.cols)
    }
}

/// `C += A·B` with `A: [m, kdim]`, `B: [kdim, n]`, `C: [m, n]`, all
/// row-major. Register-tiled over `MR`-row panels of `C` and
/// cache-blocked over `KC`-deep slices of the contraction: each `B` panel
/// is streamed once per row-panel pass while `MR` accumulator rows stay
/// hot. Contraction order is ascending for every `(i, j)`, matching the
/// textbook loop nest.
fn gemm(a: &[f32], m: usize, kdim: usize, b: &[f32], n: usize, c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(c.len(), m * n);
    let panels = m / MR;
    let mut l_blk = 0;
    while l_blk < kdim {
        let l_end = (l_blk + KC).min(kdim);
        for p in 0..panels {
            let i = p * MR;
            let (half01, half23) = c[i * n..(i + MR) * n].split_at_mut(2 * n);
            let (c0, c1) = half01.split_at_mut(n);
            let (c2, c3) = half23.split_at_mut(n);
            for l in l_blk..l_end {
                let a0 = a[i * kdim + l];
                let a1 = a[(i + 1) * kdim + l];
                let a2 = a[(i + 2) * kdim + l];
                let a3 = a[(i + 3) * kdim + l];
                let brow = &b[l * n..(l + 1) * n];
                let rows = c0
                    .iter_mut()
                    .zip(c1.iter_mut())
                    .zip(c2.iter_mut().zip(c3.iter_mut()));
                for (((r0, r1), (r2, r3)), &bv) in rows.zip(brow) {
                    *r0 = a0.mul_add(bv, *r0);
                    *r1 = a1.mul_add(bv, *r1);
                    *r2 = a2.mul_add(bv, *r2);
                    *r3 = a3.mul_add(bv, *r3);
                }
            }
        }
        for i in panels * MR..m {
            let crow = &mut c[i * n..(i + 1) * n];
            for l in l_blk..l_end {
                let av = a[i * kdim + l];
                let brow = &b[l * n..(l + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv = av.mul_add(bv, *cv);
                }
            }
        }
        l_blk = l_end;
    }
}

/// Row-panel height of the wide logits microkernel: query rows advanced
/// together, each an independent `LANES`-wide FMA chain. Eight chains of
/// one 8-float vector each fit the 16-register 256-bit file with room for
/// the shared key vector — where `dot`'s single row is chain-starved and
/// anything wider spills.
const PMR: usize = 8;

/// Column-block width of the accumulating attend microkernel: output
/// columns held in registers across the whole contraction, so the hot
/// loop stores nothing.
const ANR: usize = 16;

/// `tile[r][j] = q[row_lo + r] · k[k_lo + j]` for `j < k_rows` — the
/// logit shape on a key chunk, register-blocked wider than [`dot`]: `PMR`
/// query rows stream each key row once, amortizing its loads eightfold.
/// Each element equals [`dot`] of its two rows, bit for bit.
pub(crate) fn wide_logits_into(
    q: &Mat,
    row_lo: usize,
    row_hi: usize,
    k: &Mat,
    k_lo: usize,
    k_rows: usize,
    tile: &mut Mat,
) {
    debug_assert_eq!(q.cols, k.cols, "contraction dimensions must agree");
    debug_assert!(row_lo < row_hi && row_hi <= q.rows);
    debug_assert!(k_lo + k_rows <= k.rows && k_rows <= tile.cols);
    let kd = q.cols;
    let kc = &k.data[k_lo * kd..(k_lo + k_rows) * kd];
    let nrows = row_hi - row_lo;
    let panels = nrows / PMR;
    for p in 0..panels {
        let r0 = row_lo + p * PMR;
        let rows: [&[f32]; PMR] =
            std::array::from_fn(|r| &q.data[(r0 + r) * kd..(r0 + r + 1) * kd]);
        for j in 0..k_rows {
            let b = &kc[j * kd..(j + 1) * kd];
            let mut acc = [[0.0f32; LANES]; PMR];
            let chunks = kd / LANES;
            for ci in 0..chunks {
                let o = ci * LANES;
                let bc = &b[o..o + LANES];
                for (r, row) in rows.iter().enumerate() {
                    let ac = &row[o..o + LANES];
                    for l in 0..LANES {
                        acc[r][l] = ac[l].mul_add(bc[l], acc[r][l]);
                    }
                }
            }
            let tail_lo = chunks * LANES;
            for (r, row) in rows.iter().enumerate() {
                let mut tail = 0.0f32;
                for l in tail_lo..kd {
                    tail = row[l].mul_add(b[l], tail);
                }
                // Same even/odd tree as `dot`.
                let a = &acc[r];
                let even = (a[0] + a[4]) + (a[2] + a[6]);
                let odd = (a[1] + a[5]) + (a[3] + a[7]);
                tile.set(p * PMR + r, j, even + odd + tail);
            }
        }
    }
    for r in panels * PMR..nrows {
        let qrow = &q.data[(row_lo + r) * kd..(row_lo + r + 1) * kd];
        for j in 0..k_rows {
            tile.set(r, j, dot(qrow, &kc[j * kd..(j + 1) * kd]));
        }
    }
}

/// `out[out_lo + r] += Σ_j w[r][j] · v[v_lo + j]` for `r < nrows`,
/// `j < width` — the Attend shape, accumulating (the online softmax
/// recurrences own the scaling of what is already in `out`). Unlike
/// `gemm`'s outer-product walk, the `MR × ANR` output block is held in
/// registers across the whole contraction: the hot loop reads one
/// value-row slice and four broadcast weights per step and stores nothing.
/// The contraction is ascending, as in `gemm`, so over zeroed rows the
/// result is `gemm`'s, bit for bit.
pub(crate) fn wide_attend_acc(
    w: &Mat,
    nrows: usize,
    width: usize,
    v: &Mat,
    v_lo: usize,
    out: &mut Mat,
    out_lo: usize,
) {
    debug_assert_eq!(v.cols, out.cols, "output width must match values");
    debug_assert!(width <= w.cols && v_lo + width <= v.rows);
    debug_assert!(out_lo + nrows <= out.rows);
    let n = out.cols;
    let wc = w.cols;
    let vc = &v.data[v_lo * n..(v_lo + width) * n];
    let c = &mut out.data[out_lo * n..(out_lo + nrows) * n];
    let panels = nrows / MR;
    let col_blocks = n / ANR;
    for p in 0..panels {
        let i = p * MR;
        for cb in 0..col_blocks {
            let c0 = cb * ANR;
            let mut acc = [[0.0f32; ANR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&c[(i + r) * n + c0..(i + r) * n + c0 + ANR]);
            }
            for l in 0..width {
                let a = [
                    w.data[i * wc + l],
                    w.data[(i + 1) * wc + l],
                    w.data[(i + 2) * wc + l],
                    w.data[(i + 3) * wc + l],
                ];
                let bv = &vc[l * n + c0..l * n + c0 + ANR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (av, &b) in accr.iter_mut().zip(bv) {
                        *av = a[r].mul_add(b, *av);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                c[(i + r) * n + c0..(i + r) * n + c0 + ANR].copy_from_slice(accr);
            }
        }
        // Column tail past the last full ANR block.
        for r in i..i + MR {
            let lo = col_blocks * ANR;
            for l in 0..width {
                let av = w.data[r * wc + l];
                let brow = &vc[l * n..(l + 1) * n];
                for jc in lo..n {
                    c[r * n + jc] = av.mul_add(brow[jc], c[r * n + jc]);
                }
            }
        }
    }
    // Row tail past the last full MR panel.
    for r in panels * MR..nrows {
        let crow = &mut c[r * n..(r + 1) * n];
        for l in 0..width {
            let av = w.data[r * wc + l];
            if av == 0.0 {
                continue;
            }
            let brow = &vc[l * n..(l + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = av.mul_add(bv, *cv);
            }
        }
    }
}

/// `aᵀb` over two equal-length contiguous slices: `LANES` independent
/// `mul_add` chains (so the loop vectorizes) folded by a fixed tree
/// reduction, plus a scalar tail for lengths not divisible by `LANES`.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for (lane, acc) in lanes.iter_mut().enumerate() {
            *acc = ca[lane].mul_add(cb[lane], *acc);
        }
    }
    let mut tail = 0.0f32;
    let ra = a.chunks_exact(LANES).remainder();
    let rb = b.chunks_exact(LANES).remainder();
    for (&x, &y) in ra.iter().zip(rb) {
        tail = x.mul_add(y, tail);
    }
    let even = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let odd = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (even + odd) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_against_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mat::random(4, 7, &mut rng);
        assert_eq!(a.matmul(&Mat::identity(7)).max_abs_diff(&a), 0.0);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mat::random(5, 8, &mut rng);
        let b = Mat::random(6, 8, &mut rng);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transposed(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-5);
    }

    #[test]
    fn row_slice_copies_rows() {
        let m = Mat::from_fn(4, 3, |i, j| (i * 10 + j) as f32);
        let s = m.row_slice(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.at(0, 0), 10.0);
        assert_eq!(s.at(1, 2), 22.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let _ = Mat::zeros(2, 3).matmul(&Mat::zeros(4, 2));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Mat::random(3, 9, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    /// Independent reference: the textbook triple loop, no blocking, no
    /// FMA.
    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        Mat::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|l| a.at(i, l) * b.at(l, j)).sum()
        })
    }

    #[test]
    fn blocked_matmul_matches_naive_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddling every blocking boundary: row panels (MR=4),
        // contraction blocks (KC=256), dot lanes (LANES=8).
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 4),
            (5, 9, 7),
            (13, 300, 6),
            (8, 257, 3),
        ] {
            let a = Mat::random(m, k, &mut rng);
            let b = Mat::random(k, n, &mut rng);
            let d = a.matmul(&b).max_abs_diff(&naive_matmul(&a, &b));
            assert!(d < 1e-4, "({m},{k},{n}): diff {d}");
        }
    }

    #[test]
    fn blocked_transposed_matches_naive_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(12);
        for (m, n, k) in [
            (1, 1, 1),
            (3, 2, 5),
            (4, 4, 8),
            (5, 7, 9),
            (6, 13, 300),
            (9, 2, 17),
        ] {
            let a = Mat::random(m, k, &mut rng);
            let b = Mat::random(n, k, &mut rng);
            let d = a
                .matmul_transposed(&b)
                .max_abs_diff(&naive_matmul(&a, &b.transpose()));
            assert!(d < 1e-4, "({m},{n},{k}): diff {d}");
        }
    }

    #[test]
    fn transposed_rows_bit_identical_to_row_slice_form() {
        let mut rng = StdRng::seed_from_u64(13);
        let q = Mat::random(23, 16, &mut rng);
        let k = Mat::random(19, 16, &mut rng);
        for (lo, hi) in [(0, 23), (0, 4), (5, 10), (20, 23)] {
            let no_copy = q.matmul_transposed_rows(lo, hi, &k);
            let copying = q.row_slice(lo, hi).matmul_transposed(&k);
            assert_eq!(no_copy.max_abs_diff(&copying), 0.0, "rows {lo}..{hi}");
        }
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(14);
        let s = Mat::random(5, 11, &mut rng);
        let v = Mat::random(11, 6, &mut rng);
        let expect = s.matmul(&v);
        let mut out = Mat::zeros(12, 6);
        s.matmul_into(&v, &mut out, 3);
        for i in 0..5 {
            assert_eq!(out.row(3 + i), expect.row(i));
        }
        // Rows outside the destination stay untouched.
        assert!(out.row(0).iter().all(|&x| x == 0.0));
        assert!(out.row(11).iter().all(|&x| x == 0.0));
    }
}
