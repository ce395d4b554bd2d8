//! Packed 16-bit matrices: the bf16/f16 storage grid.
//!
//! [`HalfMat`] stores elements as raw `u16` words (f16 or bf16), half the
//! bytes of [`Mat`]. The bf16/f16 kernels round their operands through it
//! and compute on the decoded f32 values, so their outputs carry exactly
//! the storage rounding of a 16-bit operand; the decode is a shift (bf16)
//! or a short bit-fixup (f16).

use crate::Mat;
use flat_tensor::half::{bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits};
use flat_tensor::{Bytes, DataType};

/// Dense `rows × cols` matrix packed at 16 bits per element.
///
/// # Example
///
/// ```
/// use flat_kernels::{HalfMat, Mat};
/// use flat_tensor::DataType;
///
/// let m = Mat::from_fn(4, 8, |i, j| (i + j) as f32 * 0.25);
/// let h = HalfMat::from_mat(&m, DataType::Bf16);
/// assert_eq!(h.size().as_u64() * 2, 4 * 8 * 4); // half the f32 bytes
/// assert!(h.to_mat().max_abs_diff(&m) < 1e-2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HalfMat {
    rows: usize,
    cols: usize,
    dtype: DataType,
    bits: Vec<u16>,
}

impl HalfMat {
    /// Packs an f32 matrix (round-to-nearest-even per element).
    ///
    /// # Panics
    ///
    /// Panics unless `dtype` is [`DataType::Fp16`] or [`DataType::Bf16`].
    #[must_use]
    pub fn from_mat(m: &Mat, dtype: DataType) -> Self {
        let bits = match dtype {
            DataType::Bf16 => m.as_slice().iter().map(|&x| f32_to_bf16_bits(x)).collect(),
            DataType::Fp16 => m.as_slice().iter().map(|&x| f32_to_f16_bits(x)).collect(),
            other => panic!("HalfMat holds 16-bit floats, not {other}"),
        };
        HalfMat {
            rows: m.rows(),
            cols: m.cols(),
            dtype,
            bits,
        }
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

    /// The storage precision (`Fp16` or `Bf16`).
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Packed storage footprint.
    #[must_use]
    pub fn size(&self) -> Bytes {
        Bytes::new(self.bits.len() as u64 * 2)
    }

    /// The packed words of row `i`.
    #[must_use]
    pub fn row_bits(&self, i: usize) -> &[u16] {
        &self.bits[i * self.cols..(i + 1) * self.cols]
    }

    /// Widens row `i` into `out` (the software widening load).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one row wide.
    pub fn decode_row_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "scratch must be one row wide");
        let src = self.row_bits(i);
        if self.dtype == DataType::Bf16 {
            for (o, &b) in out.iter_mut().zip(src) {
                *o = bf16_bits_to_f32(b);
            }
        } else {
            for (o, &b) in out.iter_mut().zip(src) {
                *o = f16_bits_to_f32(b);
            }
        }
    }

    /// Decodes the whole matrix back to f32 — the element values the
    /// bf16/f16 kernels actually compute with.
    #[must_use]
    pub fn to_mat(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            self.decode_row_into(i, out.row_mut(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "16-bit")]
    fn f32_storage_rejected() {
        let _ = HalfMat::from_mat(&Mat::zeros(2, 2), DataType::Fp32);
    }
}
