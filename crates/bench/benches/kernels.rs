//! Criterion benchmarks of the numerical kernels: naive vs FLAT-fused vs
//! streaming attention. The fused kernel's win on a CPU is cache locality
//! (the [R, N] slice stays hot), mirroring the scratchpad story.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flat_kernels::{
    flat_attention, flat_attention_with, naive_attention, streaming_attention, ComputePrecision,
    Mask, MultiHeadInput,
};
use flat_tensor::SoftmaxKind;
use std::hint::black_box;

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention");
    for seq in [128usize, 512] {
        let input = MultiHeadInput::random(1, 4, seq, seq, 64, 42);
        let flops = (2 * 2 * 4 * seq * seq * 64) as u64;
        group.throughput(Throughput::Elements(flops));
        group.bench_with_input(BenchmarkId::new("naive", seq), &input, |b, inp| {
            b.iter(|| black_box(naive_attention(inp, Mask::None)));
        });
        group.bench_with_input(BenchmarkId::new("flat-R16", seq), &input, |b, inp| {
            b.iter(|| black_box(flat_attention(inp, 16, Mask::None)));
        });
        group.bench_with_input(
            BenchmarkId::new("streaming-16x64", seq),
            &input,
            |b, inp| {
                b.iter(|| black_box(streaming_attention(inp, 16, 64, Mask::None)));
            },
        );
    }
    group.finish();
}

/// The mixed-precision kernel family: packed 16-bit / int8 storage with
/// the exp/div-free softmax variants, against the f32 exact reference.
fn bench_precision(c: &mut Criterion) {
    let mut group = c.benchmark_group("precision");
    for seq in [128usize, 512] {
        let input = MultiHeadInput::random(1, 4, seq, seq, 64, 42);
        let flops = (2 * 2 * 4 * seq * seq * 64) as u64;
        group.throughput(Throughput::Elements(flops));
        for (label, precision, kind) in [
            ("f32-exact", ComputePrecision::F32, SoftmaxKind::Exact),
            ("bf16-flash-d", ComputePrecision::Bf16, SoftmaxKind::FlashD),
            ("bf16-log-lut", ComputePrecision::Bf16, SoftmaxKind::LogLut),
            ("f16-flash-d", ComputePrecision::F16, SoftmaxKind::FlashD),
            ("int8-flash-d", ComputePrecision::Int8, SoftmaxKind::FlashD),
        ] {
            group.bench_with_input(BenchmarkId::new(label, seq), &input, |b, inp| {
                b.iter(|| black_box(flat_attention_with(inp, 16, Mask::None, precision, kind)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_attention, bench_precision);
criterion_main!(benches);
