//! Numerical reference kernels: the arithmetic witness that FLAT's tiling
//! is exact.
//!
//! The cost model in `flat-core` argues about cycles and bytes; this crate
//! argues about *values*. It implements
//!
//! * [`naive_attention`] — the baseline that materializes the full
//!   `O(N²)` logit tensor,
//! * [`flat_attention`] — the FLAT row-granularity fused execution
//!   (compute a `[R, N]` logit slice, softmax it, consume it, discard it),
//! * [`streaming_attention`] — key-dimension tiling with
//!   [`OnlineSoftmax`] rescaling, the extension FLAT's row-granularity
//!   constraint points at (and FlashAttention later built on),
//! * [`decode_attention`] — the autoregressive serving step: one query
//!   row folded against a growing KV set in a single online-softmax pass
//!   (`O(N)` per generated token), consumed by the `flat-serve` runtime,
//!
//! and proves, by unit and property tests, that all four agree to f32
//! rounding for every shape, tile size, and mask — including
//! cross-attention (`seq_q ≠ seq_kv`) and causal decoding.
//!
//! Streaming, decode and `flat-dist`'s sequence-parallel shards run one
//! online-softmax loop, [`RowFold`]: a per-row softmax state of any kind
//! plus the `dk`-wide accumulator, whose exact partials merge across KV
//! ranges. [`instrumented_flat_attention`] is the FLAT walk itself with
//! an [`ExecutionStats`] counter attached.
//!
//! On top of the f32 reference sits the **mixed-precision kernel family**:
//! every execution has a `_with` variant taking a [`ComputePrecision`]
//! (f32, bf16/f16 storage rounding via [`HalfMat`] ahead of the f32 walk,
//! or int8 with an int8 score matrix) and a
//! [`SoftmaxKind`](flat_tensor::SoftmaxKind) selecting the softmax
//! algorithm — exact two-pass, [`FlashDSoftmax`] (division folded into the
//! accumulation recurrence, no normalize pass), or [`LogLutSoftmax`]
//! (log2-domain adds + LUT, no `exp` and no divider).
//!
//! # Example
//!
//! ```
//! use flat_kernels::{flat_attention, naive_attention, Mask, MultiHeadInput};
//!
//! let input = MultiHeadInput::random(2, 4, 64, 64, 16, 1);
//! let naive = naive_attention(&input, Mask::None);
//! let fused = flat_attention(&input, 8, Mask::None); // R-Gran, R = 8
//! for (f, n) in fused.iter().zip(&naive) {
//!     assert!(f.max_abs_diff(n) < 1e-5);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod decode;
mod fold;
mod fused;
mod halfmat;
mod instrumented;
mod mat;
mod parallel;
mod precision;
mod quantized;
mod softmax;
mod softmax_family;
mod streaming;

pub(crate) use fused::exact_group;

pub use attention::{naive_attention, Mask, MultiHeadInput};
pub use decode::{decode_attention, decode_attention_with};
pub use fold::RowFold;
pub use fused::{flat_attention, flat_attention_with};
pub use halfmat::HalfMat;
pub use instrumented::{
    instrumented_flat_attention, instrumented_flat_attention_traced, ExecutionStats,
};
pub use mat::Mat;
pub use parallel::parallel_flat_attention;
pub use precision::{online_softmax_bf16, round_bf16, softmax_error, softmax_row_bf16};
pub use quantized::{quantized_flat_attention, quantized_flat_attention_with, QuantizedMat};
pub use softmax::{softmax_row, OnlineSoftmax};
pub use softmax_family::{
    exp2_lut, fast_exp, fast_exp2, log2_add_lut, softmax_row_kind, ComputePrecision, FlashDSoftmax,
    LogLutSoftmax,
};
pub use streaming::{streaming_attention, streaming_attention_with};
