//! Tensor shapes, data types, footprints, and GEMM descriptors.
//!
//! `flat-tensor` is the lowest substrate of the FLAT reproduction stack. It
//! defines the vocabulary every other crate speaks:
//!
//! * [`DataType`] — numeric precision (the paper evaluates everything at
//!   16-bit, but the model is precision-parametric),
//! * [`Shape`] — a dense tensor extent,
//! * [`Bytes`] — a memory quantity with human-readable formatting,
//! * [`Gemm`] — a batched matrix-multiply descriptor, the canonical form of
//!   every operator in an attention layer (Q/K/V/L/A/O and the FFN FCs),
//! * [`OperationalIntensity`] — the FLOPs-per-byte figure of §2.2 of the
//!   paper that separates compute-bound from bandwidth-bound operators,
//! * [`half`] — software f16/bf16 conversions and rounding (the
//!   workspace is vendored-only, so no `half` crate; 16-bit storage for
//!   the kernels is `flat_kernels::HalfMat`),
//! * [`SoftmaxKind`] — which member of the softmax algorithm family a
//!   kernel uses (exact two-pass, FLASH-D division-free, H-FA log-domain),
//!   shared here so the hardware cost model can price it.
//!
//! # Example
//!
//! ```
//! use flat_tensor::{DataType, Gemm};
//!
//! // The Logit operator of one attention head: [N, dk] x [dk, N].
//! let logit = Gemm::new(64 * 16, 512, 64, 512); // B*H batches
//! assert_eq!(logit.macs(), 64 * 16 * 512 * 64 * 512);
//! let oi = logit.operational_intensity(DataType::Fp16);
//! assert!(oi.flops_per_byte() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod dtype;
mod gemm;
pub mod half;
mod shape;
mod softmax_kind;
mod util;

pub use bytes::Bytes;
pub use dtype::DataType;
pub use gemm::{Gemm, OperationalIntensity};
pub use shape::Shape;
pub use softmax_kind::SoftmaxKind;
pub use util::{ceil_div, round_up_to};
