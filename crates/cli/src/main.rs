//! `flat` — command-line interface to the FLAT reproduction stack.
//!
//! ```text
//! flat info
//! flat cost  --platform edge --model bert --seq 4096 --dataflow flat-r64 [--scope la|block|model] [--json]
//! flat dse   --platform cloud --model xlm --seq 16384 [--space base|base-m|fused|full] [--objective max-util] [--json]
//! flat trace --platform edge --model bert --seq 512 --dataflow flat-r64 [--width 48]
//!            [--no-double-buffer] [--serial-softmax] [--softmax KIND]
//! flat loopnest --dataflow flat-r64 [--seq N]
//! flat sim   --platform edge --model bert --seq 512 --dataflow flat-r64 [--trace-json FILE]
//! flat bw    --platform cloud --model xlm --seq 8192 [--target-milli 950]
//! flat serve --platform cloud --model bert --requests 256 --arrival-rate 64 [--slo-ms MS] [--chaos SEED]
//!            [--trace FILE] [--metrics FILE] [--json]
//! flat fleet --platform cloud --model bert --requests 512 [--chips N] [--scale MS:CHIPS,...]
//!            [--kv-mib N] [--max-batch N] [--precision P] [--softmax KIND] [--window-ms MS]
//!            [--no-dedup] [--chaos SEED] [--json]   # sustained multi-tenant fleet load
//!                                                   # (serve's engine flags, dedup on)
//! flat dist  --platform cloud --model bert --seq 65536 [--chips 1,2,4,8] [--topology all] [--partition head] [--json]
//!            [--requests N --trace FILE]   # serve on the cluster (takes serve's flags)
//! flat insight attr TRACE.json [--json] [--metrics FILE]   # critical-path attribution
//! flat insight diff A.json B.json [--json]                 # differential run analysis
//! flat run   --config experiments.json [--out results.json]
//! ```
//!
//! Common overrides: `--batch N`, `--sg-kib N`, `--offchip-gbps N`,
//! `--accel-json FILE` (load a serialized [`flat_arch::Accelerator`]).
//! A shape past 2^60 MACs over all of the model's blocks is rejected, so
//! the cost model's `u64` counts never overflow.

mod commands;
mod parse;

use flat_bench::args::Args;

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    };
    // Keep the raw tail too: `Args` drops positional operands, which
    // `flat insight` uses for its mode and input files.
    let raw: Vec<String> = argv.collect();
    let args = Args::parse_from(raw.iter().cloned());
    let result = match command.as_str() {
        "info" => commands::info(),
        "cost" => commands::cost(&args),
        "dse" => commands::dse(&args),
        "trace" => commands::trace(&args),
        "loopnest" => commands::loopnest(&args),
        "sim" => commands::sim(&args),
        "bw" => commands::bw(&args),
        "serve" => commands::serve(&args),
        "fleet" => commands::fleet(&args),
        "dist" => commands::dist(&args),
        "insight" => commands::insight(&raw, &args),
        "run" => commands::run(&args),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => {
            eprintln!("unknown command {other:?}\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
