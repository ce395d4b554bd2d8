//! Figure 10: the FLAT design space — utilization vs live memory
//! footprint for every point the DSE enumerates, plus the Pareto
//! frontier (the "top-left corner" the paper's objectives chase).
//!
//! Run: `cargo run --release -p flat-bench --bin fig10_space --
//!       [--platform edge] [--model bert] [--seq 512]`

use flat_bench::{args::Args, model, platform, row, BATCH};
use flat_dse::{pareto_frontier, Dse, SpaceKind};

fn main() {
    let args = Args::parse();
    let accel = platform(&args.get("platform", "edge"));
    let model = model(&args.get("model", "bert"));
    let seq = args.get_u64("seq", 512);
    let block = model.block(BATCH, seq);
    let dse = Dse::new(&accel, &block);

    let points = dse.explore_la(SpaceKind::Full);
    let frontier = pareto_frontier(&points);

    println!("# Figure 10 — FLAT design space: {model} N={seq} on {accel}");
    println!(
        "# {} design points, {} on the Pareto frontier",
        points.len(),
        frontier.len()
    );
    row(["kind", "dataflow", "footprint_bytes", "util", "pareto"].map(String::from));
    for p in &points {
        let on_frontier = frontier.iter().any(|f| {
            f.report.footprint == p.report.footprint
                && (f.report.util() - p.report.util()).abs() < 1e-12
        });
        let kind = if p.la.is_fused() {
            "fused"
        } else {
            "sequential"
        };
        row([
            kind.to_owned(),
            p.la.label(),
            p.report.footprint.as_u64().to_string(),
            format!("{:.4}", p.report.util()),
            if on_frontier {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
}
