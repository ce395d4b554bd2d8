//! `attn-prefill`: one attention head through the four FLAT kernel walks.
//! All time is in flat-kernels; no serving or search code runs.

use crate::harness::{Fnv, Size, Tracer, Workload};
use flat::kernels::{
    flat_attention_with, naive_attention, softmax_row_kind, ComputePrecision, HalfMat, Mask, Mat,
    MultiHeadInput, QuantizedMat,
};
use flat::tensor::SoftmaxKind;
use std::hint::black_box;

/// Distinct inputs; op `i` runs input `i mod 8`.
const INPUTS: usize = 8;

/// One kernel call of the op, with its metric names and the largest
/// error against the naive f32 reference it may show (about twice what
/// the kernels showed at seq 1024 when the benchmark was written).
struct Variant {
    ms: &'static str,
    gflops: &'static str,
    err: &'static str,
    precision: ComputePrecision,
    kind: SoftmaxKind,
    mask: Mask,
    bound: f64,
}

const VARIANTS: [Variant; 4] = [
    Variant {
        ms: "kernels.f32_exact.ms",
        gflops: "kernels.f32_exact.gflop_per_s",
        err: "kernels.f32_exact.max_rel_error",
        precision: ComputePrecision::F32,
        kind: SoftmaxKind::Exact,
        mask: Mask::None,
        bound: 1e-5,
    },
    Variant {
        ms: "kernels.bf16_flash_d.ms",
        gflops: "kernels.bf16_flash_d.gflop_per_s",
        err: "kernels.bf16_flash_d.max_rel_error",
        precision: ComputePrecision::Bf16,
        kind: SoftmaxKind::FlashD,
        mask: Mask::Causal,
        bound: 1e-2,
    },
    Variant {
        ms: "kernels.f16_flash_d.ms",
        gflops: "kernels.f16_flash_d.gflop_per_s",
        err: "kernels.f16_flash_d.max_rel_error",
        precision: ComputePrecision::F16,
        kind: SoftmaxKind::FlashD,
        mask: Mask::None,
        bound: 1e-3,
    },
    Variant {
        ms: "kernels.int8_flash_d.ms",
        gflops: "kernels.int8_flash_d.gflop_per_s",
        err: "kernels.int8_flash_d.max_rel_error",
        precision: ComputePrecision::Int8,
        kind: SoftmaxKind::FlashD,
        mask: Mask::Causal,
        bound: 6e-2,
    },
];

/// The replayed single-head decomposition, in walk order.
const DECOMPOSITION: [&str; 4] = [
    "kernels.qk_ms",
    "kernels.softmax_ms",
    "kernels.pv_ms",
    "kernels.pack_ms",
];

pub struct AttnPrefill {
    inputs: Vec<MultiHeadInput>,
    /// Naive f32 outputs per input: `[no mask, causal]`.
    refs: Vec<[Vec<Mat>; 2]>,
    rows_per_tile: usize,
}

/// (q, k) pairs a mask lets through: the work an exact kernel must do.
pub fn unmasked_pairs(seq_q: usize, seq_kv: usize, mask: Mask) -> u64 {
    match mask {
        Mask::None => (seq_q * seq_kv) as u64,
        Mask::Causal => (0..seq_q).map(|i| (i + 1).min(seq_kv) as u64).sum(),
    }
}

/// FLOPs of one head: 2·dk for QKᵀ and 2·dk for PV per unmasked pair.
pub fn attention_flops(seq_q: usize, seq_kv: usize, dk: usize, mask: Mask) -> f64 {
    4.0 * dk as f64 * unmasked_pairs(seq_q, seq_kv, mask) as f64
}

/// `max |t − r| / max |r|` over every element of every head.
fn max_rel_error(test: &[Mat], reference: &[Mat]) -> f64 {
    let (mut diff, mut peak) = (0f64, 0f64);
    for (t, r) in test.iter().zip(reference) {
        for (tv, rv) in t.as_slice().iter().zip(r.as_slice()) {
            diff = diff.max(f64::from(tv - rv).abs());
            peak = peak.max(f64::from(*rv).abs());
        }
    }
    if peak == 0.0 {
        diff
    } else {
        diff / peak
    }
}

fn mask_index(mask: Mask) -> usize {
    usize::from(mask == Mask::Causal)
}

impl Workload for AttnPrefill {
    type Out = Vec<Vec<Mat>>;
    const NAME: &'static str = "attn-prefill";
    const TRACE_OPS: usize = 48;

    fn layers() -> Vec<(&'static str, &'static str)> {
        let mut layers = Vec::new();
        for v in &VARIANTS {
            layers.extend([(v.ms, "ms"), (v.gflops, "GFLOP/s"), (v.err, "ratio")]);
        }
        layers.extend(DECOMPOSITION.map(|name| (name, "ms")));
        layers
    }

    fn setup(seed: u64, size: Size) -> Self {
        let (seq, dk, rows_per_tile) = match size {
            Size::Full => (1024, 64, 64),
            Size::Smoke => (64, 16, 16),
        };
        let inputs: Vec<MultiHeadInput> = (0..INPUTS as u64)
            .map(|i| MultiHeadInput::random(1, 1, seq, seq, dk, seed.wrapping_add(i)))
            .collect();
        let refs = inputs
            .iter()
            .map(|inp| {
                [
                    naive_attention(inp, Mask::None),
                    naive_attention(inp, Mask::Causal),
                ]
            })
            .collect();
        AttnPrefill {
            inputs,
            refs,
            rows_per_tile,
        }
    }

    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn run(&self, input: usize, tr: &mut Tracer) -> Result<Self::Out, String> {
        let inp = &self.inputs[input];
        Ok(VARIANTS
            .iter()
            .map(|v| {
                tr.span(v.ms, |_| {
                    flat_attention_with(inp, self.rows_per_tile, v.mask, v.precision, v.kind)
                })
            })
            .collect())
    }

    fn check(&self, input: usize, out: &Self::Out, tr: &mut Tracer) -> Result<u64, String> {
        let mut h = Fnv::new();
        for (v, got) in VARIANTS.iter().zip(out) {
            let err = max_rel_error(got, &self.refs[input][mask_index(v.mask)]);
            tr.add(v.err, err);
            if err.is_nan() || err > v.bound {
                return Err(format!("{}: {err:e} above the bound {:e}", v.err, v.bound));
            }
            for m in got {
                for x in m.as_slice() {
                    h.bytes(&x.to_bits().to_le_bytes());
                }
            }
        }
        Ok(h.finish())
    }

    /// The single-head decomposition from public pieces, tile by tile like
    /// the FLAT walk: QKᵀ row tiles, a row softmax, PV, and packing Q/K/V
    /// to bf16 and int8.
    fn replay(&self, tr: &mut Tracer) {
        for inp in &self.inputs[..2] {
            let (q, k, v) = (&inp.q[0], &inp.k[0], &inp.v[0]);
            let tile = self.rows_per_tile;
            let mut tiles: Vec<Mat> = tr.span("kernels.qk_ms", |_| {
                (0..inp.seq_q)
                    .step_by(tile)
                    .map(|lo| q.matmul_transposed_rows(lo, (lo + tile).min(inp.seq_q), k))
                    .collect()
            });
            tr.span("kernels.softmax_ms", |_| {
                for t in &mut tiles {
                    for r in 0..t.rows() {
                        softmax_row_kind(t.row_mut(r), SoftmaxKind::Exact);
                    }
                }
            });
            let out: Vec<Mat> = tr.span("kernels.pv_ms", |_| {
                tiles.iter().map(|t| t.matmul(v)).collect()
            });
            black_box(out);
            tr.span("kernels.pack_ms", |_| {
                for m in [q, k, v] {
                    black_box(HalfMat::from_mat(m, ComputePrecision::Bf16.dtype()));
                    black_box(QuantizedMat::quantize(m));
                }
            });
        }
    }

    fn layer_values(&self, tr: &Tracer) -> Vec<f64> {
        let inp = &self.inputs[0];
        let mut values = Vec::new();
        for v in &VARIANTS {
            let ms = tr.mean(v.ms);
            let flops = attention_flops(inp.seq_q, inp.seq_kv, inp.dk, v.mask);
            values.extend([ms, flops / (ms * 1e6), tr.max(v.err)]);
        }
        values.extend(DECOMPOSITION.map(|name| tr.mean(name)));
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmasked_pairs_match_the_mask() {
        for (q, kv) in [(1, 1), (5, 5), (7, 3), (3, 9)] {
            for mask in [Mask::None, Mask::Causal] {
                let brute = (0..q)
                    .flat_map(|i| (0..kv).map(move |j| (i, j)))
                    .filter(|&(i, j)| mask.allows(i, j))
                    .count() as u64;
                assert_eq!(unmasked_pairs(q, kv, mask), brute, "{q}x{kv} {mask:?}");
            }
        }
    }

    #[test]
    fn causal_flops_are_just_over_half() {
        let full = attention_flops(1024, 1024, 64, Mask::None);
        assert_eq!(full, 4.0 * 64.0 * 1024.0 * 1024.0);
        let causal = attention_flops(1024, 1024, 64, Mask::Causal);
        assert_eq!(causal, 4.0 * 64.0 * (1024.0 * 1025.0 / 2.0));
    }
}
