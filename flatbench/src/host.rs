//! Host peak probes and the process's memory high-water mark.

use crate::harness::Size;
use std::hint::black_box;
use std::time::Instant;

/// Independent accumulator lanes of the FMA probe: enough vector
/// registers of chains to cover the FMA latency on both issue ports.
const FMA_LANES: usize = 128;
const PROBE_REPEATS: usize = 5;

/// Single-core f32 FMA throughput in GFLOP/s (best of five), from a loop
/// of independent `mul_add` chains the compiler vectorizes — the ceiling
/// the single-threaded kernels are measured against.
pub fn fma_gflop_per_s(size: Size) -> f64 {
    let iters: u64 = match size {
        Size::Full => 10_000_000,
        Size::Smoke => 2_000,
    };
    let (a, b) = (black_box(0.999_999_f32), black_box(1e-7_f32));
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let mut acc = [1.0_f32; FMA_LANES];
        let start = Instant::now();
        for _ in 0..iters {
            for x in &mut acc {
                *x = x.mul_add(a, b);
            }
        }
        black_box(&acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    2.0 * FMA_LANES as f64 * iters as f64 / best / 1e9
}

/// Streaming bandwidth in GB/s (best of five): `dst = k·src` over two
/// 32 MiB arrays, counting the bytes read plus the bytes written.
pub fn stream_gb_per_s(size: Size) -> f64 {
    let n = match size {
        Size::Full => 8 << 20,
        Size::Smoke => 1 << 12,
    };
    let src = vec![1.5_f32; n];
    let mut dst = vec![0.0_f32; n];
    let k = black_box(0.5_f32);
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = s * k;
        }
        black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * 4 * n) as f64 / best / 1e9
}

/// `VmHWM` of this process in MiB, from `/proc/self/status` (`None`
/// where that interface is missing).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_rates() {
        assert!(fma_gflop_per_s(Size::Smoke) > 0.0);
        assert!(stream_gb_per_s(Size::Smoke) > 0.0);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }
}
