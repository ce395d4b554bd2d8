//! `perf_gate` — the same-run wall-clock ratio gate.
//!
//! Times the FLAT kernel walks against the naive logit round trip on one
//! fixed grid (batch 1, 4 heads, seq 4096, dk 64, R 64, no mask), and the
//! paged decode path against recomputing the prefix every step. Then it
//! checks four ratios of those timings against constant floors. Both sides
//! of a ratio are timed in the same run, interleaved round by round, and
//! the ratio is the median of the per-round ratios, so host drift hits
//! both sides. Every prefill ratio has naive f32 as its denominator, the
//! one baseline nobody optimizes.
//!
//! The floors were calibrated on one host class only, a shared 2-vCPU
//! Intel Xeon guest (EXPERIMENTS.md "Performance" lists the runs). The
//! ratios move between host classes, so on any other host a miss means
//! "calibrate there" before it means "the code got slower".
//!
//! ```text
//! cargo run --release -p flat-bench --bin perf_gate
//! ```
//!
//! It takes no flags. It prints each row's min ms (the precision rows
//! with their `max_rel_error` against naive f32), then each ratio with its
//! floor, and exits 1 if any ratio is below its floor. Each miss is one
//! line naming the ratio, the measured value, the floor, the pool's lane
//! count and the kernel entry points of both sides.

use flat_kernels::{
    decode_attention, flat_attention_with, naive_attention, ComputePrecision, Mask, Mat,
    MultiHeadInput,
};
use flat_serve::{BlockTable, KvPool};
use flat_tensor::SoftmaxKind;
use std::hint::black_box;
use std::time::Instant;

/// How many times faster one timed row runs than another, in one run.
struct Ratio {
    name: &'static str,
    /// The kernel entry points the numerator (the faster row) and the
    /// denominator (its baseline) run. A miss names both: either side
    /// may be the layer that moved.
    numerator: &'static str,
    denominator: &'static str,
    /// The floor with one pool lane, then with two or more. The FLAT
    /// walks band over the pool and naive attention does not, so the
    /// ratios against naive depend on the lane count; the decode pair
    /// uses no pool and has one floor for both.
    floors: [f64; 2],
}

const NAIVE: &str = "naive_attention";

/// The gated ratios, in the order [`main`] measures them. Each floor is
/// the median of that ratio's ten calibration runs of its lane class
/// (all twenty for the decode pair) less three standard deviations of
/// those runs, rounded down, so each margin comes from the ratio's own
/// spread; EXPERIMENTS.md ("Performance") lists the runs.
const RATIOS: [Ratio; 4] = [
    Ratio {
        name: "f32_exact/naive",
        numerator: "flat_attention_with(F32, Exact) -> fused::flat_attention_group",
        denominator: NAIVE,
        floors: [1.54, 2.39],
    },
    Ratio {
        name: "bf16_flash_d/naive",
        numerator: "flat_attention_with(Bf16, FlashD) -> fused::flat_attention_group",
        denominator: NAIVE,
        floors: [1.73, 2.39],
    },
    Ratio {
        name: "int8_flash_d/naive",
        numerator: "flat_attention_with(Int8, FlashD) -> quantized::quantized_group",
        denominator: NAIVE,
        floors: [1.14, 1.73],
    },
    Ratio {
        name: "decode_paged/recompute",
        numerator: "decode_attention -> RowFold::absorb_rows",
        denominator: "naive_attention(Causal) per token",
        floors: [173.0; 2],
    },
];

/// The floor `ratio` must reach on a pool of `lanes` lanes.
fn floor(ratio: &Ratio, lanes: usize) -> f64 {
    ratio.floors[usize::from(lanes >= 2)]
}

/// The gate's decision: one line per ratio below its floor, none when
/// every ratio reaches it. `measured` is in [`RATIOS`] order.
fn misses(measured: [f64; 4], lanes: usize) -> Vec<String> {
    RATIOS
        .iter()
        .zip(measured)
        .filter(|&(ratio, value)| value < floor(ratio, lanes))
        .map(|(ratio, value)| {
            format!(
                "MISS {}: {value:.3}x < floor {:.3}x at {lanes} lane(s); \
                 numerator runs {}; denominator runs {}",
                ratio.name,
                floor(ratio, lanes),
                ratio.numerator,
                ratio.denominator
            )
        })
        .collect()
}

/// Normalized max-abs deviation of `test` from `reference`:
/// `max |t - r| / max |r|` over every element of every head.
fn max_rel_error(test: &[Mat], reference: &[Mat]) -> f64 {
    let mut max_diff = 0f64;
    let mut max_ref = 0f64;
    for (t, r) in test.iter().zip(reference) {
        for i in 0..r.rows() {
            for (tv, rv) in t.row(i).iter().zip(r.row(i)) {
                max_diff = max_diff.max(f64::from(tv - rv).abs());
                max_ref = max_ref.max(f64::from(*rv).abs());
            }
        }
    }
    if max_ref == 0.0 {
        0.0
    } else {
        max_diff / max_ref
    }
}

/// The wall ms of each row in each of `rounds` rounds, as `ms[row][round]`.
/// A round runs every row once, in order, so the rows interleave
/// (A, B, A, B, ...).
fn interleaved_ms<T>(rounds: usize, rows: &[&dyn Fn() -> T]) -> Vec<Vec<f64>> {
    let mut ms = vec![Vec::with_capacity(rounds); rows.len()];
    for _ in 0..rounds {
        for (times, row) in ms.iter_mut().zip(rows) {
            let start = Instant::now();
            black_box(row());
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    ms
}

/// How many times faster `fast` ran than `slow`: the median over rounds
/// of each round's `slow / fast`, so a slow spell of the host that hits
/// both sides of one round cancels, and a spell that hits one side of a
/// few rounds is outvoted.
fn speedup(slow: &[f64], fast: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = slow.iter().zip(fast).map(|(s, f)| s / f).collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Prints each row's min ms, with its `max_rel_error` when it has one.
fn print_rows(names: &[&str], ms: &[Vec<f64>], errors: &[Option<f64>]) {
    for ((name, times), error) in names.iter().zip(ms).zip(errors) {
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        match error {
            Some(e) => println!("  {name:<26} min {min:>9.3} ms   max_rel_error {e:.3e}"),
            None => println!("  {name:<26} min {min:>9.3} ms"),
        }
    }
}

/// The prefill rows' wall ms per round: naive f32, then the FLAT walks
/// f32 exact, bf16 FLASH-D, int8 FLASH-D, f16 FLASH-D and bf16 log-LUT.
/// Computing each walk's error first warms every row.
fn prefill_ms() -> Vec<Vec<f64>> {
    use ComputePrecision::{Bf16, Int8, F16, F32};
    use SoftmaxKind::{Exact, FlashD, LogLut};
    let (batch, heads, seq, dk, tile) = (1, 4, 4096, 64, 64);
    println!(
        "prefill: batch={batch} heads={heads} seq={seq} dk={dk} rows_per_tile={tile} mask=none"
    );
    let input = &MultiHeadInput::random(batch, heads, seq, seq, dk, 0xF1A7);
    let naive = || naive_attention(input, Mask::None);
    let reference = naive();
    let walks = [
        ("flat_f32_exact", F32, Exact),
        ("flat_bf16_flash_d", Bf16, FlashD),
        ("flat_int8_flash_d", Int8, FlashD),
        ("flat_f16_flash_d", F16, FlashD),
        ("flat_bf16_log_lut", Bf16, LogLut),
    ]
    .map(|(name, precision, kind)| {
        let walk = move || flat_attention_with(input, tile, Mask::None, precision, kind);
        (name, walk)
    });
    let mut names = vec!["naive_f32"];
    let mut errors = vec![None];
    let mut rows: Vec<&dyn Fn() -> Vec<Mat>> = vec![&naive];
    for (name, walk) in &walks {
        names.push(name);
        errors.push(Some(max_rel_error(&walk(), &reference)));
        rows.push(walk);
    }
    let ms = interleaved_ms(10, &rows);
    print_rows(&names, &ms, &errors);
    ms
}

/// The serving decode pair's wall ms per round: generating `steps` tokens on top of
/// a cached prefix by recomputing the whole prefix's causal attention
/// every step (`O(L²)` per token), then by appending one row to a paged
/// KV cache and folding it online (`O(L)` per token), as the engine does.
fn decode_ms() -> Vec<Vec<f64>> {
    let (ctx0, steps, dk) = (256, 64, 64);
    println!("decode: context={ctx0} steps={steps} dk={dk} f32");
    let total = ctx0 + steps;
    let input = MultiHeadInput::random(1, 1, total, total, dk, 0x5E17E);
    let scale = input.scale();
    let recompute = || {
        let mut last = Vec::new();
        for step in 0..steps {
            let len = ctx0 + step + 1;
            let mut prefix = MultiHeadInput::random(1, 1, 1, 1, dk, 0);
            prefix.seq_q = len;
            prefix.seq_kv = len;
            prefix.q[0] = input.q[0].row_slice(0, len);
            prefix.k[0] = input.k[0].row_slice(0, len);
            prefix.v[0] = input.v[0].row_slice(0, len);
            let out = naive_attention(&prefix, Mask::Causal);
            last = out[0].row(len - 1).to_vec();
        }
        last
    };
    let paged = || {
        let mut pool = KvPool::new(total.div_ceil(16), 16, dk);
        let mut table = BlockTable::new();
        for j in 0..ctx0 {
            assert!(pool.try_append(&mut table, input.k[0].row(j), input.v[0].row(j)));
        }
        let mut last = Vec::new();
        for step in 0..steps {
            let j = ctx0 + step;
            assert!(pool.try_append(&mut table, input.k[0].row(j), input.v[0].row(j)));
            last = decode_attention(input.q[0].row(j), pool.blocks(&table), scale);
        }
        last
    };
    let ms = interleaved_ms(20, &[&recompute, &paged]);
    print_rows(
        &["decode_recompute_naive", "decode_attention_paged"],
        &ms,
        &[None, None],
    );
    ms
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("perf_gate takes no flags");
        std::process::exit(2);
    }
    let lanes = rayon::current_num_threads();
    let prefill = prefill_ms();
    let decode = decode_ms();
    let measured = [
        speedup(&prefill[0], &prefill[1]),
        speedup(&prefill[0], &prefill[2]),
        speedup(&prefill[0], &prefill[3]),
        speedup(&decode[0], &decode[1]),
    ];
    println!("ratios at {lanes} lane(s):");
    for (ratio, value) in RATIOS.iter().zip(measured) {
        println!(
            "  {:<26} {value:>9.3}x   floor {:>7.3}x",
            ratio.name,
            floor(ratio, lanes)
        );
    }
    let misses = misses(measured, lanes);
    for miss in &misses {
        println!("{miss}");
    }
    if !misses.is_empty() {
        std::process::exit(1);
    }
    println!("perf_gate: pass");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ratio exactly at its floor for `lanes`.
    fn at_floor(lanes: usize) -> [f64; 4] {
        RATIOS.each_ref().map(|r| floor(r, lanes))
    }

    #[test]
    fn a_ratio_below_its_floor_fails_naming_ratio_and_entry_points() {
        for lanes in [1, 2, 8] {
            let mut measured = at_floor(lanes);
            measured[0] *= 0.99;
            let misses = misses(measured, lanes);
            assert_eq!(misses.len(), 1, "{misses:?}");
            assert!(misses[0].contains(RATIOS[0].name), "{}", misses[0]);
            assert!(misses[0].contains(RATIOS[0].numerator), "{}", misses[0]);
            assert!(misses[0].contains(RATIOS[0].denominator), "{}", misses[0]);
            assert!(
                misses[0].contains(&format!("{lanes} lane(s)")),
                "{}",
                misses[0]
            );
        }
    }

    #[test]
    fn every_ratio_exactly_at_its_floor_passes() {
        for lanes in [1, 2, 8] {
            assert!(misses(at_floor(lanes), lanes).is_empty());
        }
    }

    #[test]
    fn only_the_floors_against_naive_depend_on_the_lane_count() {
        for ratio in &RATIOS {
            let against_naive = ratio.name.ends_with("/naive");
            assert_eq!(against_naive, ratio.denominator == NAIVE, "{}", ratio.name);
            assert_eq!(
                against_naive,
                floor(ratio, 1) != floor(ratio, 2),
                "{}",
                ratio.name
            );
            assert_eq!(floor(ratio, 2), floor(ratio, 16), "{}", ratio.name);
        }
    }
}
