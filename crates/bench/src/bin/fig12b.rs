//! Figure 12(b): the off-chip bandwidth each accelerator class needs to
//! reach 0.95 utilization on the most bandwidth-intensive L-A operator
//! (XLM on the cloud platform), across sequence lengths.
//!
//! Run: `cargo run --release -p flat-bench --bin fig12b -- [--quick]
//!       [--target-milli 950]`

use flat_bench::{args::Args, model, platform, row, seq_label, BATCH};
use flat_dse::{required_offchip_bw, AccelClass};

fn main() {
    let args = Args::parse();
    let target = args.get_u64("target-milli", 950) as f64 / 1000.0;
    let accel = platform("cloud");
    let model = model("xlm");
    let seqs: Vec<u64> = if args.flag("quick") {
        vec![2048, 16_384, 131_072]
    } else {
        vec![
            2048, 4096, 8192, 16_384, 32_768, 65_536, 131_072, 262_144, 524_288,
        ]
    };
    let classes = [
        AccelClass::FlexAccelM,
        AccelClass::FlexAccel,
        AccelClass::AttAcc,
    ];

    println!(
        "# Figure 12(b) — off-chip BW (GB/s) for L-A Util >= {target} (XLM, cloud, 32 MiB SG)"
    );
    row([
        "seq",
        "FlexAccel-M",
        "FlexAccel",
        "ATTACC",
        "reduction_vs_FlexM",
        "reduction_vs_Flex",
    ]
    .map(String::from));
    let mut reductions = (Vec::new(), Vec::new());
    for seq in seqs {
        let bws: Vec<Option<f64>> = classes
            .iter()
            .map(|&c| required_offchip_bw(&accel, &model.block(BATCH, seq), c.space(), target))
            .collect();
        let fmt =
            |b: &Option<f64>| b.map_or("unreachable".to_owned(), |v| format!("{:.1}", v / 1e9));
        let red = |a: &Option<f64>, b: &Option<f64>| match (a, b) {
            (Some(x), Some(y)) => Some(1.0 - y / x),
            _ => None,
        };
        let r_m = red(&bws[0], &bws[2]);
        let r_f = red(&bws[1], &bws[2]);
        if let Some(r) = r_m {
            reductions.0.push(r);
        }
        if let Some(r) = r_f {
            reductions.1.push(r);
        }
        row([
            seq_label(seq),
            fmt(&bws[0]),
            fmt(&bws[1]),
            fmt(&bws[2]),
            r_m.map_or("-".into(), |r| format!("{:.0}%", r * 100.0)),
            r_f.map_or("-".into(), |r| format!("{:.0}%", r * 100.0)),
        ]);
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "# average reduction: {:.0}% vs FlexAccel-M, {:.0}% vs FlexAccel (paper: 88%, 82%)",
        avg(&reductions.0) * 100.0,
        avg(&reductions.1) * 100.0
    );
}
