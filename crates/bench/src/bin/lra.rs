//! Long Range Arena (cited by the paper as *the* long-sequence benchmark
//! \[71\]): for each LRA task's sequence length, the best sequential and
//! FLAT dataflows on the edge part — which tasks a small accelerator can
//! actually serve.
//!
//! Run: `cargo run --release -p flat-bench --bin lra -- [--platform edge] [--model bert]`

use flat_bench::{args::Args, model, platform, row, seq_label, BATCH};
use flat_dse::{Dse, Objective, SpaceKind};
use flat_workloads::LraTask;

fn main() {
    let args = Args::parse();
    let accel = platform(&args.get("platform", "edge"));
    let m = model(&args.get("model", "bert"));

    println!("# Long Range Arena task lengths — {m} on {accel}, B={BATCH}");
    row([
        "task",
        "N",
        "Base-opt util",
        "FLAT-opt util",
        "speedup",
        "ms/batch (FLAT)",
    ]
    .map(String::from));
    for task in LraTask::all() {
        let seq = task.sequence_length();
        let block = m.block(BATCH, seq);
        let dse = Dse::new(&accel, &block);
        let base = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
        let flat = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
        row([
            task.to_string(),
            seq_label(seq),
            format!("{:.3}", base.report.util()),
            format!("{:.3}", flat.report.util()),
            format!("{:.2}x", base.report.cycles / flat.report.cycles),
            format!("{:.2}", accel.cycles_to_seconds(flat.report.cycles) * 1e3),
        ]);
    }
    println!();
    println!("# Path-X (16K) is the task most efficient-transformer entrants cannot run;");
    println!("# with FLAT, exact attention at 16K stays viable on a 512 KiB-buffer part.");
}
