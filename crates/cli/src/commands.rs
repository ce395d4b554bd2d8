//! The CLI subcommands.

use crate::parse;
use flat_bench::args::Args;
use flat_core::{CostModel, CostReport, LaExecution};
use flat_dist::{
    best_joint, scaling_knee, series, CollectiveAlgo, Link, Partition, Sweep, Topology,
};
use flat_dse::{Dse, SpaceKind};
use flat_serve::{serve_dist_elastic, DistServeConfig, EngineConfig, ScalePlan};
use flat_telemetry::{NoopSink, TraceSink};
use flat_workloads::{Model, Scope};
use serde_json::json;

/// Top-level usage text.
pub const USAGE: &str = "\
flat — FLAT dataflow cost model, DSE, tracer, and serving runtime

USAGE:
  flat info
  flat cost  --platform edge --model bert --seq 4096 --dataflow flat-r64 [--scope la|block|model] [--json]
  flat dse   --platform cloud --model xlm --seq 16384 [--space base|base-m|fused|full|precision|collective]
             [--objective max-util|min-energy|min-edp|min-footprint|util-per-footprint]
             [--trace FILE] [--json]   # --space precision sweeps width x softmax family;
                                       # --space collective co-optimizes partition x topology
                                       # x collective algorithm x overlap on a cluster
  flat trace --platform edge --model bert --seq 512 --dataflow flat-r64 [--width 48]
             [--no-double-buffer] [--serial-softmax] [--softmax KIND]
                                       # Gantt of the lane demands; [bound] is
                                       # each phase's busiest lane
  flat loopnest --dataflow flat-r64 [--seq N]   # Figure 4-style loop nest
  flat sim   --platform edge --model bert --seq 512 --dataflow flat-r64 [--trace-json FILE]
             [--engine analytical|event|both] [--tolerance 0.05] [--buffers N]
             [--sweep] [--json]   # --engine both cross-validates the cost model
  flat bw    --platform cloud --model xlm --seq 8192 [--target-milli 950]
  flat serve --platform cloud --model bert --requests 256 --arrival-rate 64 [--seed N]
             [--task short-nlp|image-generation|summarization|language-modeling|music-processing]
             [--prompt N] [--output N] [--block-tokens 16] [--kv-mib N] [--chunk 512]
             [--max-batch 64] [--slo-ms MS] [--chaos SEED] [--dedup] [--window-ms MS]
             [--precision fp32|bf16|fp16|int8] [--softmax exact|flash-d|log-lut]
             [--trace FILE] [--metrics FILE] [--json]
  flat fleet --platform cloud --model bert --requests 512 [--seed N]
             [--rate 200] [--amplitude 0.6] [--period-s 60] [--chips N]
             [--topology ring|mesh|torus|fc|tree] [--scale MS:CHIPS,MS:CHIPS]
             [--block-tokens 16] [--kv-mib N] [--chunk 512] [--max-batch 64]
             [--chaos SEED] [--no-dedup] [--window-ms 1000]
             [--precision fp32|bf16|fp16|int8] [--softmax exact|flash-d|log-lut]
             [--trace FILE] [--json]   # sustained multi-tenant load with diurnal
                                       # arrivals, prefix dedup, elastic resizes;
                                       # the engine flags are flat serve's
  flat dist  --platform cloud --model bert --seq 65536 [--chips 1,2,4,8] [--sweep]
             [--topology ring|mesh|torus|fc|tree|all] [--partition head|seq|kv|all]
             [--algo ring|hd|bucket|all] [--overlap] [--link-gbps N] [--link-us N]
             [--seed N] [--json]
             [--requests N --trace FILE ...]   # serve a request stream on the cluster instead,
                                               # with every engine flag flat serve takes
  flat insight attr TRACE.json [--json] [--metrics FILE]
             # critical-path attribution: decompose per-request latency into
             # queued/prefill/recompute/decode/collective-exposed/other phases
  flat insight diff A.json B.json [--json]
             # align two traced runs by request id, attribute the latency
             # delta to phases and drop-reason shifts
  flat run   --config experiments.json [--out results.json]

COMMON OPTIONS:
  --trace FILE        write a Chrome/Perfetto trace (serve, dist --requests, fleet, dse);
                      open the file in https://ui.perfetto.dev
  --metrics FILE      write Prometheus text metrics (serve)
  --batch N           batch size (default 64); a --batch/--seq/model shape past
                      2^60 MACs over the model's blocks is rejected
  --sg-kib N          override on-chip scratchpad capacity
  --offchip-gbps N    override off-chip bandwidth
  --accel-json FILE   load a serialized accelerator instead of a preset
  --model-json FILE   load a HuggingFace-style model config instead of a zoo name
  --no-double-buffer  charge every tile switch and serialize transfers
  --serial-softmax    the paper's stricter baseline softmax phase
  --softmax KIND      softmax family the SFU prices/runs: exact (default),
                      flash-d (division folded into the recurrence), or
                      log-lut (exp/div-free log2-domain; cost, trace, serve)
  --precision P       numeric-plane storage width for serve, dist --requests
                      and fleet: fp32 (default), bf16, fp16, or int8";

/// The streaming sink behind `--trace FILE`.
type FileSink = flat_telemetry::JsonStreamSink<std::io::BufWriter<std::fs::File>>;

/// Opens the `--trace FILE` sink when the flag is present.
fn open_trace(args: &Args) -> Result<Option<(String, FileSink)>, String> {
    let path = args.get("trace", "");
    if path.is_empty() {
        return Ok(None);
    }
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let sink = flat_telemetry::JsonStreamSink::new(std::io::BufWriter::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(Some((path, sink)))
}

/// Closes a `--trace` sink and tells the user where the trace went.
fn close_trace(path: &str, sink: FileSink) -> Result<(), String> {
    sink.finish().map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote Chrome trace to {path} (open in https://ui.perfetto.dev)");
    Ok(())
}

/// Runs `run` against the `--trace FILE` sink when the flag is present
/// (a no-op sink otherwise), closing the file after a successful run.
fn traced<T>(
    args: &Args,
    run: impl FnOnce(&mut dyn TraceSink) -> Result<T, flat_serve::ServeError>,
) -> Result<T, String> {
    let Some((path, mut sink)) = open_trace(args)? else {
        return run(&mut NoopSink).map_err(|e| e.to_string());
    };
    let out = run(&mut sink).map_err(|e| e.to_string())?;
    close_trace(&path, sink)?;
    Ok(out)
}

/// `flat run` — execute a JSON experiment config: a list of jobs, each
/// either a fixed-dataflow pricing or a DSE, producing a JSON result
/// array (the Timeloop-style batch workflow).
///
/// Config shape:
/// ```json
/// { "jobs": [
///   { "platform": "edge", "model": "bert", "seq": 4096, "dataflow": "flat-r64" },
///   { "platform": "cloud", "model": "xlm", "seq": 16384, "space": "full", "objective": "max-util" }
/// ] }
/// ```
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.get("config", "");
    if path.is_empty() {
        return Err("--config FILE is required".to_owned());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let config: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let jobs = config
        .get("jobs")
        .and_then(|j| j.as_array())
        .ok_or_else(|| "config must contain a \"jobs\" array".to_owned())?;

    let mut results = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        // A key that is present must have the right type: a wrong one is
        // an error, not a silent default.
        let wrong = |key: &str, kind: &str, v: &serde_json::Value| {
            let v = serde_json::to_string(v).unwrap_or_default();
            format!("job {idx}: \"{key}\" expects {kind}, got {v}")
        };
        let get = |key: &str, default: &str| -> Result<String, String> {
            job.get(key).map_or(Ok(default.to_owned()), |v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| wrong(key, "a string", v))
            })
        };
        let get_u64 = |key: &str| -> Result<Option<u64>, String> {
            job.get(key).map_or(Ok(None), |v| {
                v.as_u64()
                    .map(Some)
                    .ok_or_else(|| wrong(key, "a non-negative integer", v))
            })
        };
        // Rebuild an Args so the job shares the CLI's resolution logic.
        let mut argv = vec![
            "--platform".to_owned(),
            get("platform", "edge")?,
            "--model".to_owned(),
            get("model", "bert")?,
            "--seq".to_owned(),
            get_u64("seq")?.unwrap_or(4096).to_string(),
            "--batch".to_owned(),
            get_u64("batch")?.unwrap_or(64).to_string(),
        ];
        if let Some(sg) = get_u64("sg_kib")? {
            argv.extend(["--sg-kib".to_owned(), sg.to_string()]);
        }
        let job_args = Args::parse_from(argv);
        let setup = parse::setup(&job_args).map_err(|e| format!("job {idx}: {e}"))?;

        let mut value = if job.get("space").is_some() || job.get("objective").is_some() {
            let label = get("space", "full")?;
            let parse::Space::Search(space) =
                parse::space(&label).map_err(|e| format!("job {idx}: {e}"))?
            else {
                return Err(format!(
                    "job {idx}: space {label:?} is a `flat dse` sweep, not a search space \
                     (base|base-m|fused|full)"
                ));
            };
            let obj_args = Args::parse_from(vec![
                "--objective".to_owned(),
                get("objective", "max-util")?,
            ]);
            let objective = parse::objective(&obj_args).map_err(|e| format!("job {idx}: {e}"))?;
            let best = Dse::new(&setup.accel, &setup.block).best_la(space, objective);
            report_json(&best.report, &best.la.label(), Scope::LogitAttend)
        } else {
            let df = parse::dataflow(&get("dataflow", "flat-r64")?)
                .map_err(|e| format!("job {idx}: {e}"))?;
            let report =
                CostModel::new(&setup.accel).scope_cost(&setup.block, &df, Scope::LogitAttend);
            report_json(&report, &df.label(), Scope::LogitAttend)
        };
        value["job"] = json!(idx);
        value["platform"] = json!(setup.accel.name);
        value["model"] = json!(setup.model.to_string());
        value["seq"] = json!(setup.seq);
        results.push(value);
    }

    let out = serde_json::to_string_pretty(&serde_json::Value::Array(results))
        .expect("results serialize");
    let out_path = args.get("out", "");
    if out_path.is_empty() {
        println!("{out}");
    } else {
        std::fs::write(&out_path, out).map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
    }
    Ok(())
}

/// `flat info` — list the available building blocks.
pub fn info() -> Result<(), String> {
    println!(
        "platforms: edge (32x32 PEs, 512 KiB, 50 GB/s), cloud (256x256 PEs, 32 MiB, 400 GB/s)"
    );
    println!("models:");
    for m in Model::suite() {
        println!(
            "  {:10} blocks={} D={} H={} ffn={}",
            m.to_string(),
            m.blocks(),
            m.hidden(),
            m.heads(),
            m.ffn_hidden()
        );
    }
    println!("dataflows: base, base-m, base-b, base-h, flat-m, flat-b, flat-h, flat-rN");
    println!("objectives: max-util, min-energy, min-edp, min-footprint, util-per-footprint");
    Ok(())
}

fn report_json(report: &CostReport, label: &str, scope: Scope) -> serde_json::Value {
    json!({
        "dataflow": label,
        "scope": scope.to_string(),
        "cycles": report.cycles,
        "ideal_cycles": report.ideal_cycles,
        "util": report.util(),
        "offchip_bytes": report.traffic.offchip.as_u64(),
        "onchip_bytes": report.traffic.onchip.as_u64(),
        "footprint_bytes": report.footprint.as_u64(),
        "energy_pj": report.energy.total_pj(),
        "energy": json!({
            "compute_pj": report.energy.compute_pj,
            "sl_pj": report.energy.sl_pj,
            "sg_pj": report.energy.sg_pj,
            "dram_pj": report.energy.dram_pj,
            "sfu_pj": report.energy.sfu_pj,
        }),
    })
}

/// `flat cost` — price one dataflow.
pub fn cost(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let df = parse::dataflow(&args.get("dataflow", "flat-r64"))?;
    let scope = parse::scope(args)?;
    let cm = CostModel::with_options(&setup.accel, parse::model_options(args)?);
    let mut report = cm.scope_cost(&setup.block, &df, scope);
    if scope == Scope::Model {
        report = report.repeat(setup.model.blocks());
    }
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report_json(&report, &df.label(), scope))
                .expect("report serializes")
        );
    } else {
        println!("accelerator: {}", setup.accel);
        println!(
            "workload:    {} (B={}, N={})",
            setup.model, setup.batch, setup.seq
        );
        println!("dataflow:    {} at {} scope", df.label(), scope);
        println!();
        println!(
            "cycles:      {:.4e} ({:.3} ms at {:.1} GHz)",
            report.cycles,
            setup.accel.cycles_to_seconds(report.cycles) * 1e3,
            setup.accel.clock_hz / 1e9
        );
        println!("utilization: {:.4}", report.util());
        println!("off-chip:    {}", report.traffic.offchip);
        println!("on-chip:     {}", report.traffic.onchip);
        println!("footprint:   {}", report.footprint);
        println!("energy:      {}", report.energy);
    }
    Ok(())
}

/// `flat dse` — search a design space.
pub fn dse(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let objective = parse::objective(args)?;
    let space = match parse::space(&args.get("space", "full"))? {
        parse::Space::Search(space) => space,
        parse::Space::Precision => return dse_precision(&setup, args, objective),
        parse::Space::Collective => return dse_collective(&setup, args),
    };
    let dse = Dse::new(&setup.accel, &setup.block);
    let best = match open_trace(args)? {
        None => dse.best_la(space, objective),
        Some((path, mut sink)) => {
            let best = dse.best_la_traced(space, objective, &mut sink);
            close_trace(&path, sink)?;
            best
        }
    };
    let (others, _) = dse.best_others(objective);
    if args.flag("json") {
        let mut v = report_json(&best.report, &best.la.label(), Scope::LogitAttend);
        v["objective"] = json!(objective.to_string());
        v["others_dataflow"] = json!(others.to_string());
        println!("{}", serde_json::to_string_pretty(&v).expect("serializes"));
    } else {
        println!("accelerator: {}", setup.accel);
        println!(
            "workload:    {} (B={}, N={})",
            setup.model, setup.batch, setup.seq
        );
        println!("objective:   {objective}");
        println!();
        println!("best L-A dataflow:   {}", best.la.label());
        println!(
            "  util {:.4}, off-chip {}, footprint {}",
            best.report.util(),
            best.report.traffic.offchip,
            best.report.footprint
        );
        println!("best non-fused ops:  {others}");
    }
    Ok(())
}

/// `flat dse --space precision` — sweep storage width × softmax family,
/// re-searching the best dataflow inside each pairing, and report the
/// cycles-vs-energy Pareto frontier.
fn dse_precision(
    setup: &parse::Setup,
    args: &Args,
    objective: flat_dse::Objective,
) -> Result<(), String> {
    let dse = Dse::new(&setup.accel, &setup.block);
    let points = dse.explore_precision(SpaceKind::Full, objective);
    let front = flat_dse::precision_pareto(&points);
    let on_front = |p: &flat_dse::PrecisionPoint| front.iter().any(|f| f.choice == p.choice);
    if args.flag("json") {
        let arr: Vec<serde_json::Value> = points
            .iter()
            .map(|p| {
                json!({
                    "choice": p.choice.label(),
                    "dtype": p.choice.dtype.to_string(),
                    "softmax": p.choice.softmax.to_string(),
                    "dataflow": p.la.label(),
                    "cycles": p.report.cycles,
                    "energy_pj": p.report.energy.total_pj(),
                    "util": p.report.util(),
                    "pareto": on_front(p),
                })
            })
            .collect();
        let v = json!({ "objective": objective.to_string(), "points": arr });
        println!("{}", serde_json::to_string_pretty(&v).expect("serializes"));
    } else {
        println!("accelerator: {}", setup.accel);
        println!(
            "workload:    {} (B={}, N={})",
            setup.model, setup.batch, setup.seq
        );
        println!("objective:   {objective} (per precision, best dataflow)");
        println!();
        println!(
            "{:16} {:14} {:>12} {:>14} {:>8}  pareto",
            "precision", "dataflow", "cycles", "energy (pJ)", "util"
        );
        for p in &points {
            println!(
                "{:16} {:14} {:>12.4e} {:>14.4e} {:>8.4}  {}",
                p.choice.label(),
                p.la.label(),
                p.report.cycles,
                p.report.energy.total_pj(),
                p.report.util(),
                if on_front(p) { "*" } else { "" }
            );
        }
    }
    Ok(())
}

/// `flat dse --space collective` — the joint cluster search: every
/// (partition × topology × collective algorithm) pairing priced at each
/// chip count, under both serial and overlapped tick pricing, reporting
/// the winner per cluster size and each pairing's scaling knee.
fn dse_collective(setup: &parse::Setup, args: &Args) -> Result<(), String> {
    let chips = chips_arg(args)?;
    let topologies = topologies_arg(args)?;
    let partitions = partitions_arg(args, "all")?;
    let algos = algos_arg(args, "all")?;
    let link = link_arg(args, &setup.accel.name)?;
    let cfg = setup.model.config(setup.batch, setup.seq);
    let base = Sweep::new(setup.accel.clone(), link).with_algos(algos.clone());
    let serial = base.clone().run(&cfg, &chips, &topologies, &partitions);
    let overlapped = base
        .with_overlap(true)
        .run(&cfg, &chips, &topologies, &partitions);

    if args.flag("json") {
        let winners: Vec<serde_json::Value> = chips
            .iter()
            .filter_map(|&p| best_joint(&overlapped, p).map(|w| (p, w)))
            .map(|(p, w)| {
                json!({
                    "chips": p,
                    "topology": w.topology.to_string(),
                    "algo": w.algo.to_string(),
                    "partition": w.partition.to_string(),
                    "total_ms": w.total_ms,
                    "speedup": w.speedup,
                    "serial_total_ms": best_joint(&serial, p).map(|s| s.total_ms),
                })
            })
            .collect();
        let knees: Vec<serde_json::Value> = topologies
            .iter()
            .flat_map(|&t| algos.iter().map(move |&a| (t, a)))
            .flat_map(|(t, a)| partitions.iter().map(move |&p| (t, a, p)))
            .map(|(t, a, p)| {
                json!({
                    "topology": t.to_string(),
                    "algo": a.to_string(),
                    "partition": p.to_string(),
                    "knee_chips": scaling_knee(&series(&overlapped, t, a, p)),
                })
            })
            .collect();
        let v = json!({
            "platform": setup.accel.name,
            "model": setup.model.to_string(),
            "batch": setup.batch,
            "seq": setup.seq,
            "link_gbps": link.bytes_per_s / 1e9,
            "link_us": link.latency_s * 1e6,
            "winners": winners,
            "knees": knees,
            "points": overlapped,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&v).expect("collective search serializes")
        );
        return Ok(());
    }

    println!("accelerator: {}", setup.accel);
    println!(
        "workload:    {} (B={}, N={})",
        setup.model, setup.batch, setup.seq
    );
    println!("link:        {link}");
    println!();
    println!("best joint (partition × topology × algo), overlapped pricing:");
    println!(
        "  {:>5}  {:<16} {:<8} {:<6} {:>11} {:>8}  vs serial",
        "chips", "topology", "algo", "part", "total ms", "speedup"
    );
    for &p in &chips {
        let (Some(w), Some(s)) = (best_joint(&overlapped, p), best_joint(&serial, p)) else {
            continue;
        };
        println!(
            "  {:>5}  {:<16} {:<8} {:<6} {:>11.3} {:>7.2}x  {:>8.3} ms",
            p,
            w.topology.to_string(),
            w.algo.to_string(),
            w.partition.to_string(),
            w.total_ms,
            w.speedup,
            s.total_ms
        );
    }
    println!();
    println!("scaling knee per (topology × algo × partition), overlapped:");
    for &t in &topologies {
        for &a in &algos {
            for &p in &partitions {
                let knee = scaling_knee(&series(&overlapped, t, a, p));
                match knee {
                    Some(k) => println!("  {t} [{a}] × {p}: {k} chips"),
                    None => println!("  {t} [{a}] × {p}: (no points)"),
                }
            }
        }
    }
    Ok(())
}

/// `flat loopnest` — print the Figure 4-style loop nest of a dataflow.
pub fn loopnest(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let df = parse::dataflow(&args.get("dataflow", "flat-r64"))?;
    println!(
        "# {} — {} (B={}, N={})\n",
        df.label(),
        setup.model,
        setup.batch,
        setup.seq
    );
    print!("{}", flat_core::loop_nest(&df, setup.block.config()));
    Ok(())
}

/// Widest Gantt chart `flat trace` renders, in columns.
const MAX_TRACE_WIDTH: u64 = 1000;

/// `flat trace` — print the execution timeline.
pub fn trace(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let df = parse::dataflow(&args.get("dataflow", "flat-r64"))?;
    let width = parse::u64_arg(args, "width", 48)?;
    if width > MAX_TRACE_WIDTH {
        return Err(format!(
            "--width {width} is past the {MAX_TRACE_WIDTH}-column limit"
        ));
    }
    let cm = CostModel::with_options(&setup.accel, parse::model_options(args)?);
    let schedule = cm.la_schedule(&setup.block, &df);
    println!(
        "# {} on {} — {} (B={}, N={})",
        df.label(),
        setup.accel.name,
        setup.model,
        setup.batch,
        setup.seq
    );
    println!(
        "# makespan {:.4e} cycles, util {:.3}\n",
        schedule.makespan(),
        schedule.total.util()
    );
    print!("{}", schedule.render(width as usize));
    Ok(())
}

/// `flat sim` — price a dataflow with the closed form, the event
/// backend, or both.
///
/// `--engine analytical` (default) prints the closed form's cycles,
/// utilization and per-lane busy cycles; `--engine event` runs the
/// `flat-desim` discrete-event backend; `--engine both` runs the
/// closed-form pricing against the event backend and reports their
/// relative divergence (add `--sweep` for the seq-len × dataflow
/// validation grid).
pub fn sim(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let df = parse::dataflow(&args.get("dataflow", "flat-r64"))?;
    let engine = parse::SimBackend::parse(&args.get("engine", "analytical"))?;
    let tolerance = parse::opt_f64_arg(args, "tolerance")?.unwrap_or(0.05);
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(format!(
            "--tolerance expects a fraction in [0, 1], got {tolerance}"
        ));
    }
    let buffers = parse::u64_arg(args, "buffers", 2)?;
    if !(1..=64).contains(&buffers) {
        return Err(format!(
            "--buffers expects 1..=64 staging slots, got {buffers}"
        ));
    }
    if args.flag("sweep") && engine != parse::SimBackend::Both {
        return Err("--sweep requires --engine both".to_owned());
    }
    let trace_path = args.get("trace-json", "");
    match engine {
        parse::SimBackend::Analytical if !trace_path.is_empty() => Err(
            "--trace-json requires --engine event or both (the closed form has no timeline)"
                .to_owned(),
        ),
        parse::SimBackend::Analytical => sim_analytical(args, &setup, &df),
        parse::SimBackend::Event => sim_event(args, &setup, &df, buffers as u32, &trace_path),
        parse::SimBackend::Both => {
            sim_both(args, &setup, &df, buffers as u32, tolerance, &trace_path)
        }
    }
}

/// The workload and dataflow lines every `flat sim` report opens with.
fn print_sim_header(setup: &parse::Setup, df: &flat_core::BlockDataflow) {
    println!(
        "workload:    {} (B={}, N={}) on {}",
        setup.model, setup.batch, setup.seq, setup.accel.name
    );
    println!("dataflow:    {}", df.label());
    println!();
}

/// The `lanes` array of `flat sim --json`: one `(name, busy cycles,
/// occupancy)` entry per hardware lane, the same shape for every engine.
fn lanes_json<'a>(lanes: impl Iterator<Item = (&'a str, f64, f64)>) -> Vec<serde_json::Value> {
    lanes
        .map(|(name, busy, occupancy)| {
            json!({
                "name": name,
                "busy_cycles": busy,
                "occupancy": occupancy,
            })
        })
        .collect()
}

/// The human-readable counterpart of [`lanes_json`].
fn print_lanes<'a>(lanes: impl Iterator<Item = (&'a str, f64, f64)>) {
    for (name, busy, occupancy) in lanes {
        println!(
            "  {name:5} busy {busy:.3e} cycles ({:.1}% of makespan)",
            occupancy * 100.0
        );
    }
}

/// `flat sim --engine analytical` — the closed form alone, with the
/// per-lane busy cycles its fold takes the `max` (or sum) of.
fn sim_analytical(
    args: &Args,
    setup: &parse::Setup,
    df: &flat_core::BlockDataflow,
) -> Result<(), String> {
    let cm = CostModel::with_options(&setup.accel, parse::model_options(args)?);
    let cost = cm.la_cost(&setup.block, &df.la);
    let busy = match &df.la {
        LaExecution::Fused(fused) => cm.fused_lane_demands(&setup.block, fused).lane_busy(),
        LaExecution::Sequential { logit, attend } => cm
            .sequential_lane_demands(&setup.block, logit, attend)
            .lane_busy(),
    };
    let lanes = || busy.iter().map(|&(name, b)| (name, b, b / cost.cycles));
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "command": "sim",
                "engine": "analytical",
                "dataflow": df.label(),
                "seq": setup.seq,
                "analytical_cycles": cost.cycles,
                "util": cost.util(),
                "lanes": lanes_json(lanes()),
            }))
            .expect("report serializes")
        );
        return Ok(());
    }
    print_sim_header(setup, df);
    println!(
        "analytical:  {:.4e} cycles (util {:.3})",
        cost.cycles,
        cost.util()
    );
    println!();
    print_lanes(lanes());
    Ok(())
}

/// Event-backend options shared by `--engine event` and `--engine both`.
fn event_options(
    args: &Args,
    buffers: u32,
    trace_path: &str,
) -> Result<flat_desim::EventOptions, String> {
    Ok(flat_desim::EventOptions {
        model: parse::model_options(args)?,
        buffers,
        record_trace: !trace_path.is_empty(),
        ..flat_desim::EventOptions::default()
    })
}

/// `flat sim --engine event` — the discrete-event backend alone.
fn sim_event(
    args: &Args,
    setup: &parse::Setup,
    df: &flat_core::BlockDataflow,
    buffers: u32,
    trace_path: &str,
) -> Result<(), String> {
    let opts = event_options(args, buffers, trace_path)?;
    let report = flat_desim::simulate_la_event(&setup.accel, &setup.block, &df.la, opts)
        .map_err(|e| e.to_string())?;
    if !trace_path.is_empty() {
        std::fs::write(trace_path, report.to_chrome_trace())
            .map_err(|e| format!("{trace_path}: {e}"))?;
        eprintln!("wrote Chrome trace to {trace_path} (open in https://ui.perfetto.dev)");
    }
    let lanes = || {
        report
            .lanes
            .iter()
            .map(|l| (l.name.as_str(), l.busy_cycles, l.occupancy))
    };
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "command": "sim",
                "engine": "event",
                "dataflow": df.label(),
                "seq": setup.seq,
                "event_cycles": report.cycles,
                "simulated_iterations": report.simulated_iterations,
                "total_iterations": report.total_iterations,
                "extrapolated": report.extrapolated,
                "buffers": json!({
                    "capacity": report.buffers.capacity,
                    "mean_in_flight": report.buffers.mean_in_flight,
                    "peak_in_flight": report.buffers.peak_in_flight,
                }),
                "lanes": lanes_json(lanes()),
            }))
            .expect("report serializes")
        );
        return Ok(());
    }
    print_sim_header(setup, df);
    println!(
        "event:       {:.4e} cycles ({} of {} iterations simulated{})",
        report.cycles,
        report.simulated_iterations,
        report.total_iterations,
        if report.extrapolated {
            ", extrapolated"
        } else {
            ""
        }
    );
    println!(
        "buffers:     {} slots, mean {:.2} in flight, peak {}",
        report.buffers.capacity, report.buffers.mean_in_flight, report.buffers.peak_in_flight
    );
    println!();
    print_lanes(lanes());
    Ok(())
}

/// `flat sim --engine both` — the agreement harness: analytical pricing
/// vs the event backend, per-configuration relative divergence.
fn sim_both(
    args: &Args,
    setup: &parse::Setup,
    df: &flat_core::BlockDataflow,
    buffers: u32,
    tolerance: f64,
    trace_path: &str,
) -> Result<(), String> {
    let opts = event_options(args, buffers, trace_path)?;
    let (agreement, report) =
        flat_desim::agreement_with_report(&setup.accel, &setup.block, &df.la, opts)
            .map_err(|e| e.to_string())?;
    let sweep = if args.flag("sweep") {
        // Only the run `--trace-json` writes records a trace.
        let untraced = flat_desim::EventOptions {
            record_trace: false,
            ..opts
        };
        flat_desim::agreement_sweep(&setup.accel, &[512, 1024, 4096], untraced)
            .map_err(|e| e.to_string())?
    } else {
        Vec::new()
    };
    if !trace_path.is_empty() {
        std::fs::write(trace_path, report.to_chrome_trace())
            .map_err(|e| format!("{trace_path}: {e}"))?;
        eprintln!("wrote Chrome trace to {trace_path} (open in https://ui.perfetto.dev)");
    }
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "command": "sim",
                "engine": "both",
                "dataflow": df.label(),
                "seq": setup.seq,
                "tolerance": tolerance,
                "analytical_cycles": agreement.analytical_cycles,
                "event_cycles": agreement.event_cycles,
                "divergence": agreement.divergence,
                "within_tolerance": agreement.within(tolerance),
                "sweep": sweep.iter().map(|r| json!({
                    "dataflow": r.dataflow,
                    "seq": r.seq_len,
                    "analytical_cycles": r.agreement.analytical_cycles,
                    "event_cycles": r.agreement.event_cycles,
                    "divergence": r.agreement.divergence,
                    "within_tolerance": r.agreement.within(tolerance),
                })).collect::<Vec<_>>(),
            }))
            .expect("report serializes")
        );
        return Ok(());
    }
    print_sim_header(setup, df);
    println!("analytical:  {:.4e} cycles", agreement.analytical_cycles);
    println!("event:       {:.4e} cycles", agreement.event_cycles);
    println!(
        "divergence:  {:+.3}% ({} tolerance {:.1}%)",
        agreement.divergence * 100.0,
        if agreement.within(tolerance) {
            "within"
        } else {
            "EXCEEDS"
        },
        tolerance * 100.0
    );
    if !sweep.is_empty() {
        println!();
        println!(
            "{:<10} {:>6} {:>14} {:>14} {:>10}",
            "dataflow", "seq", "analytical", "event", "diverge"
        );
        for r in &sweep {
            println!(
                "{:<10} {:>6} {:>14.4e} {:>14.4e} {:>+9.3}%{}",
                r.dataflow,
                r.seq_len,
                r.agreement.analytical_cycles,
                r.agreement.event_cycles,
                r.agreement.divergence * 100.0,
                if r.agreement.within(tolerance) {
                    ""
                } else {
                    "  <-- exceeds"
                }
            );
        }
    }
    Ok(())
}

/// `flat serve` — run a synthetic serving workload through the
/// continuous-batching engine and report TTFT/TPOT/throughput metrics.
///
/// Every flag is validated up front: a malformed value (bad `--seed`,
/// unknown `--task`, non-numeric knob) comes back as a one-line
/// diagnostic for `main` to print before exiting nonzero — never a panic
/// unwinding through the CLI.
pub fn serve(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let requests = parse::u64_arg(args, "requests", 256)? as usize;
    let seed = parse::u64_arg(args, "seed", 0xF1A7)?;
    let (spec, mut workload) = parse::workload(args, requests, seed)?;
    let base = EngineConfig::for_platform(&setup.accel, &setup.model, seed);
    let (cfg, faults) = parse::engine(args, base, &mut workload)?;
    let one_chip = DistServeConfig::new(1, Topology::FullyConnected);
    let metrics = traced(args, |sink| {
        serve_dist_elastic(
            &setup.accel,
            &setup.model,
            &workload,
            &cfg,
            &one_chip,
            &ScalePlan::default(),
            faults,
            sink,
        )
    })?
    .serve;
    let metrics_path = args.get("metrics", "");
    if !metrics_path.is_empty() {
        std::fs::write(&metrics_path, metrics.registry().prometheus())
            .map_err(|e| format!("{metrics_path}: {e}"))?;
        eprintln!("wrote Prometheus metrics to {metrics_path}");
    }
    if args.flag("json") {
        println!("{}", metrics.to_json());
    } else {
        println!("accelerator: {}", setup.accel);
        println!(
            "model:       {} (serving, KV {} B/token)",
            setup.model, metrics.kv.bytes_per_token
        );
        println!(
            "workload:    {requests} requests, {} req/s, task {}, prompt≈{}, output≈{}",
            spec.arrival_rate_per_s,
            args.get("task", "short-nlp"),
            spec.prompt_mean,
            spec.output_mean
        );
        println!();
        println!(
            "finished:    {}/{} requests in {:.1} ms ({} ticks, {} preemptions)",
            metrics.finished,
            metrics.requests,
            metrics.makespan_ms,
            metrics.ticks,
            metrics.preemptions
        );
        if metrics.dropped > 0 {
            println!(
                "dropped:     {} requests ({} infeasible, {} past-deadline, {} corrupt)",
                metrics.dropped,
                metrics.drops.infeasible,
                metrics.drops.deadline,
                metrics.drops.corrupt
            );
        }
        println!(
            "tokens:      {} prefill + {} decode, {:.1} decode tok/s ({:.1} goodput tok/s)",
            metrics.prefill_tokens,
            metrics.decode_tokens,
            metrics.decode_tokens_per_s,
            metrics.goodput_tokens_per_s
        );
        let p = |name: &str, x: &flat_serve::Percentiles| {
            println!(
                "{name}:        p50 {:8.2} ms   p95 {:8.2} ms   p99 {:8.2} ms   max {:8.2} ms",
                x.p50_ms, x.p95_ms, x.p99_ms, x.max_ms
            );
        };
        p("TTFT", &metrics.ttft);
        p("TPOT", &metrics.tpot);
        p("E2E ", &metrics.e2e);
        println!(
            "KV pool:     {} blocks × {} tokens, peak {:.1}% mean {:.1}% occupancy",
            metrics.kv.total_blocks,
            metrics.kv.block_tokens,
            metrics.kv.peak_occupancy * 100.0,
            metrics.kv.mean_occupancy * 100.0
        );
    }
    Ok(())
}

/// Parses the `--scale MS:CHIPS[,MS:CHIPS...]` elastic plan.
fn scale_arg(args: &Args) -> Result<Vec<(f64, usize)>, String> {
    let raw = args.get("scale", "");
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|pair| {
            let (ms, chips) = pair
                .split_once(':')
                .ok_or_else(|| format!("--scale expects MS:CHIPS pairs, got {pair:?}"))?;
            let at_ms: f64 = ms
                .trim()
                .parse()
                .map_err(|_| format!("--scale time must be a number, got {ms:?}"))?;
            let chips: usize = chips
                .trim()
                .parse()
                .map_err(|_| format!("--scale chips must be a positive integer, got {chips:?}"))?;
            Ok((at_ms, chips))
        })
        .collect()
}

/// `flat fleet` — the sustained-load fleet harness: the default
/// three-tenant mix (interactive with an SLO and a shared prompt
/// prefix, batch, background) on a diurnal arrival curve, served on an
/// optionally elastic cluster with windowed trajectory sampling.
///
/// The engine flags are `flat serve`'s, with two defaults of its own:
/// prefix dedup on and 1,000 ms trajectory windows.
///
/// Deterministic for a fixed flag set: `--seed S --json` twice is
/// byte-identical, chaos included — CI holds a smoke to this.
pub fn fleet(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let requests = parse::u64_arg(args, "requests", 512)? as usize;
    let seed = parse::u64_arg(args, "seed", 0xF1A7)?;
    let mut spec = flat_fleet::FleetSpec::sustained(requests);
    if let Some(rate) = parse::opt_f64_arg(args, "rate")? {
        spec.curve.base_rate_per_s = rate;
    }
    if let Some(amp) = parse::opt_f64_arg(args, "amplitude")? {
        spec.curve.amplitude = amp;
    }
    if let Some(period_s) = parse::opt_f64_arg(args, "period-s")? {
        spec.curve.period_ms = period_s * 1e3;
    }
    let topology = Topology::by_name(&args.get("topology", "ring"))?;
    let dist = DistServeConfig::new(parse::u64_arg(args, "chips", 1)? as usize, topology);
    let plan = ScalePlan::new(&scale_arg(args)?);
    let mut workload = spec.generate(seed).map_err(|e| e.to_string())?;
    let mut base = EngineConfig::for_platform(&setup.accel, &setup.model, seed);
    base.dedup = true;
    base.window_ms = Some(1_000.0);
    let (cfg, faults) = parse::engine(args, base, &mut workload)?;
    let served = traced(args, |sink| {
        serve_dist_elastic(
            &setup.accel,
            &setup.model,
            &workload,
            &cfg,
            &dist,
            &plan,
            faults,
            sink,
        )
    })?;
    let m = flat_fleet::FleetMetrics::new(&workload, &cfg, served);
    if args.flag("json") {
        println!("{}", m.to_json());
        return Ok(());
    }
    let s = &m.dist.serve;
    println!("accelerator: {}", setup.accel);
    println!(
        "fleet:       {} requests over {} tenants, base {} req/s ±{:.0}% on a {:.0} s day",
        m.offered,
        spec.tenants.len(),
        spec.curve.base_rate_per_s,
        spec.curve.amplitude * 100.0,
        spec.curve.period_ms / 1e3
    );
    println!(
        "cluster:     {} -> {} chips ({}), dedup {}, {} resizes",
        m.dist.chips,
        m.dist.chips_final,
        m.dist.topology,
        if m.dedup { "on" } else { "off" },
        m.dist.scale_events.len()
    );
    println!();
    println!(
        "finished:    {}/{} in {:.1} ms ({:.4} virtual hours), {} dropped ({} infeasible, {} deadline, {} corrupt)",
        s.finished,
        s.requests,
        s.makespan_ms,
        m.virtual_hours,
        s.dropped,
        s.drops.infeasible,
        s.drops.deadline,
        s.drops.corrupt
    );
    println!(
        "tokens:      {:.1} decode tok/s, {:.1} goodput tok/s; KV dedup hits {}, peak {} physical / {} logical blocks",
        s.decode_tokens_per_s,
        s.goodput_tokens_per_s,
        s.kv.dedup_hits,
        (s.kv.peak_occupancy * s.kv.total_blocks as f64).round() as u64,
        s.kv.peak_logical_blocks
    );
    println!();
    println!(
        "  {:>6} {:>8} {:>8} {:>7} {:>9} {:>14} {:>9}",
        "tenant", "offered", "finished", "dropped", "goodtok", "slo_attainment", "kv_share"
    );
    for t in &s.tenants {
        println!(
            "  {:>6} {:>8} {:>8} {:>7} {:>9} {:>14.3} {:>8.1}%",
            t.tenant,
            t.requests,
            t.finished,
            t.dropped,
            t.good_tokens,
            t.slo_attainment,
            t.kv_share * 100.0
        );
    }
    if !m.dist.scale_events.is_empty() {
        println!();
        for ev in &m.dist.scale_events {
            println!(
                "  scale @{:.1} ms: {} -> {} chips, {} blocks ({:.1} KiB) re-striped in {:.3} ms, {} preempted",
                ev.applied_ms,
                ev.from_chips,
                ev.to_chips,
                ev.migrated_blocks,
                ev.migrated_bytes / 1024.0,
                ev.migration_ms,
                ev.preempted
            );
        }
    }
    println!();
    println!(
        "trajectory:  {} windows of {:.0} ms (goodput first/peak/last {:.1}/{:.1}/{:.1} tok/s)",
        s.windows.len(),
        cfg.window_ms.unwrap_or_default(),
        s.windows.first().map_or(0.0, |w| w.goodput_tokens_per_s),
        s.windows
            .iter()
            .map(|w| w.goodput_tokens_per_s)
            .fold(0.0f64, f64::max),
        s.windows.last().map_or(0.0, |w| w.goodput_tokens_per_s)
    );
    if !args.flag("no-insight") && !m.findings.is_empty() {
        println!();
        println!(
            "insight:     {} finding(s), top {}:",
            m.findings.len(),
            m.findings.len().min(3)
        );
        for f in m.findings.iter().take(3) {
            println!(
                "  [{}] {} @{:.1}..{:.1} ms ({} windows): {}",
                f.severity, f.kind, f.start_ms, f.end_ms, f.windows, f.detail
            );
        }
    }
    Ok(())
}

/// Positional operands of the `insight` subcommand: the raw argv tail
/// minus `--key value` / `--flag` tokens, mirroring
/// [`Args::parse_from`]'s consumption rule (a `--key` eats the next
/// token iff that token does not itself start with `--`).
fn positionals(raw: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if raw[i].starts_with("--") {
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                i += 2;
            } else {
                i += 1;
            }
        } else {
            out.push(raw[i].as_str());
            i += 1;
        }
    }
    out
}

/// Reads and attributes one Chrome trace document.
fn load_attribution(path: &str) -> Result<flat_insight::Attribution, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    flat_insight::Attribution::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one phase row of the attribution table.
fn phase_row(name: &str, stat: &flat_insight::PhaseStat, e2e_total: f64) {
    let share = if e2e_total > 0.0 {
        100.0 * stat.total_ms / e2e_total
    } else {
        0.0
    };
    println!(
        "  {:<18} {:>12.3} {:>7.1}% {:>10.3} {:>10.3} {:>10.3}",
        name, stat.total_ms, share, stat.dist.p50_ms, stat.dist.p95_ms, stat.dist.p99_ms
    );
}

/// `flat insight attr` — critical-path attribution of one traced run.
fn insight_attr(path: &str, args: &Args) -> Result<(), String> {
    let a = load_attribution(path)?;
    let metrics_path = args.get("metrics", "");
    if !metrics_path.is_empty() {
        std::fs::write(&metrics_path, a.registry().prometheus())
            .map_err(|e| format!("{metrics_path}: {e}"))?;
        eprintln!("wrote Prometheus metrics to {metrics_path}");
    }
    if args.flag("json") {
        println!("{}", a.to_json());
        return Ok(());
    }
    println!(
        "requests:    {} ({} finished, {} dropped), makespan {:.1} ms, {} preemptions",
        a.requests, a.finished, a.dropped, a.makespan_ms, a.preemptions
    );
    for d in &a.drop_reasons {
        println!("  dropped {:>5}: {}", d.count, d.reason);
    }
    println!();
    println!(
        "  {:<18} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "phase", "total_ms", "share", "p50_ms", "p95_ms", "p99_ms"
    );
    let e2e_total = a.phases.e2e.total_ms;
    for (name, stat) in [
        ("queued", &a.phases.queued),
        ("prefill", &a.phases.prefill),
        ("recompute", &a.phases.recompute),
        ("decode", &a.phases.decode),
        ("collective_exposed", &a.phases.collective_exposed),
        ("other", &a.phases.other),
        ("e2e", &a.phases.e2e),
    ] {
        phase_row(name, stat, e2e_total);
    }
    if a.tenants.len() > 1 {
        println!();
        for t in &a.tenants {
            println!(
                "  tenant {}: {} finished, e2e p50/p95 {:.3}/{:.3} ms, queued p95 {:.3} ms, exposed p95 {:.3} ms",
                t.tenant,
                t.finished,
                t.breakdown.e2e.dist.p50_ms,
                t.breakdown.e2e.dist.p95_ms,
                t.breakdown.queued.dist.p95_ms,
                t.breakdown.collective_exposed.dist.p95_ms
            );
        }
    }
    Ok(())
}

/// `flat insight diff` — differential analysis of two traced runs.
fn insight_diff(path_a: &str, path_b: &str, args: &Args) -> Result<(), String> {
    let a = load_attribution(path_a)?;
    let b = load_attribution(path_b)?;
    let d = flat_insight::DiffReport::of(&a, &b);
    if args.flag("json") {
        println!("{}", d.to_json());
        return Ok(());
    }
    println!(
        "matched:     {} requests (A {} finished / B {} finished, A only {}, B only {})",
        d.matched, d.a_finished, d.b_finished, d.only_in_a, d.only_in_b
    );
    println!(
        "makespan:    A {:.1} ms -> B {:.1} ms; total e2e delta {:+.3} ms, dominant phase: {}",
        d.a_makespan_ms, d.b_makespan_ms, d.e2e_delta_ms, d.dominant_phase
    );
    println!();
    println!(
        "  {:<18} {:>12} {:>12} {:>12}",
        "phase", "A_ms", "B_ms", "delta_ms"
    );
    for p in &d.phase_deltas {
        println!(
            "  {:<18} {:>12.3} {:>12.3} {:>+12.3}",
            p.phase, p.a_ms, p.b_ms, p.delta_ms
        );
    }
    if !d.drop_shifts.is_empty() {
        println!();
        for s in &d.drop_shifts {
            println!("  drops[{}]: {} -> {}", s.reason, s.a, s.b);
        }
    }
    if !d.top_request_deltas.is_empty() && !d.zero_delta {
        println!();
        for r in &d.top_request_deltas {
            println!(
                "  request {:>5}: {:.3} -> {:.3} ms ({:+.3}, dominated by {})",
                r.id, r.a_e2e_ms, r.b_e2e_ms, r.delta_ms, r.dominant_phase
            );
        }
    }
    println!();
    println!(
        "verdict:     {}",
        if d.zero_delta {
            "runs are attribution-identical (zero delta)"
        } else {
            "runs differ"
        }
    );
    Ok(())
}

/// `flat insight` — trace attribution and differential run analysis.
/// `raw` is the argv tail including positional operands (mode and input
/// files), which [`Args`] does not keep.
pub fn insight(raw: &[String], args: &Args) -> Result<(), String> {
    let pos = positionals(raw);
    match pos.as_slice() {
        ["attr", path] => insight_attr(path, args),
        ["diff", a, b] => insight_diff(a, b, args),
        _ => Err(
            "usage: flat insight attr TRACE.json | flat insight diff A.json B.json  (note: \
             positional operands must come before --flags so they are not read as flag values)"
                .to_owned(),
        ),
    }
}

/// Parses the `--chips` comma list.
fn chips_arg(args: &Args) -> Result<Vec<usize>, String> {
    let raw = args.get("chips", "1,2,4,8");
    let chips: Vec<usize> = raw
        .split(',')
        .map(|s| s.trim().parse::<usize>().map_err(|_| ()))
        .collect::<Result<_, _>>()
        .map_err(|()| format!("--chips expects a comma list of positive integers, got {raw:?}"))?;
    if chips.is_empty() || chips.contains(&0) {
        return Err(format!("--chips entries must be positive, got {raw:?}"));
    }
    Ok(chips)
}

/// Parses `--topology` (a name, a comma list, or `all`).
fn topologies_arg(args: &Args) -> Result<Vec<Topology>, String> {
    let raw = args.get("topology", "all");
    if raw == "all" {
        return Ok(Topology::all().to_vec());
    }
    raw.split(',')
        .map(|s| Topology::by_name(s.trim()))
        .collect()
}

/// Parses `--algo` (a name, a comma list, or `all`).
fn algos_arg(args: &Args, default: &str) -> Result<Vec<CollectiveAlgo>, String> {
    let raw = args.get("algo", default);
    if raw == "all" {
        return Ok(CollectiveAlgo::all().to_vec());
    }
    raw.split(',')
        .map(|s| CollectiveAlgo::by_name(s.trim()))
        .collect()
}

/// Parses `--partition` (a name, a comma list, or `all`).
fn partitions_arg(args: &Args, default: &str) -> Result<Vec<Partition>, String> {
    let raw = args.get("partition", default);
    if raw == "all" {
        return Ok(Partition::all().to_vec());
    }
    raw.split(',')
        .map(|s| Partition::by_name(s.trim()))
        .collect()
}

/// Resolves the inter-chip link: the class matching the platform preset,
/// with `--link-gbps` / `--link-us` overrides.
fn link_arg(args: &Args, platform: &str) -> Result<Link, String> {
    let mut link = if platform == "edge" {
        Link::edge()
    } else {
        Link::cloud()
    };
    if let Some(gbps) = parse::opt_f64_arg(args, "link-gbps")? {
        if gbps <= 0.0 {
            return Err("--link-gbps must be positive".to_owned());
        }
        link.bytes_per_s = gbps * 1e9;
    }
    if let Some(us) = parse::opt_f64_arg(args, "link-us")? {
        if us < 0.0 {
            return Err("--link-us must be non-negative".to_owned());
        }
        link.latency_s = us * 1e-6;
    }
    Ok(link)
}

/// `flat dist` — the multi-accelerator execution model.
///
/// Default mode sweeps chip count × topology × partition over one
/// attention layer, re-searching the per-shard dataflow with `flat-dse`
/// at every cluster size, and reports each series' scaling knee. With
/// `--requests N` it instead serves a synthetic request stream on the
/// cluster through the `flat-serve` engine (one run per chip count).
///
/// Output is deterministic for a fixed flag set: the sweep is analytic
/// and the serving engine is seeded, so `--seed S --json` twice is
/// byte-identical.
pub fn dist(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let chips = chips_arg(args)?;
    let topologies = topologies_arg(args)?;
    let link = link_arg(args, &setup.accel.name)?;
    let seed = parse::u64_arg(args, "seed", 0xF1A7)?;
    if let Some(requests) = parse::opt_u64_arg(args, "requests")? {
        let partitions = partitions_arg(args, "kv")?;
        return dist_serve(
            args,
            &setup,
            requests as usize,
            &chips,
            &topologies,
            &partitions,
            link,
            seed,
        );
    }
    if !args.get("trace", "").is_empty() {
        return Err("--trace applies to serving mode: add --requests N".to_owned());
    }
    let partitions = partitions_arg(args, "head")?;
    let algos = algos_arg(args, "ring")?;
    let overlap = args.flag("overlap");
    // `--sweep` is the documented name for this default mode; accept it
    // so scripts can spell the intent out.
    let _ = args.flag("sweep");
    let cfg = setup.model.config(setup.batch, setup.seq);
    let sweep = Sweep::new(setup.accel.clone(), link)
        .with_algos(algos.clone())
        .with_overlap(overlap);
    let points = sweep.run(&cfg, &chips, &topologies, &partitions);

    if args.flag("json") {
        let knees: Vec<serde_json::Value> = topologies
            .iter()
            .flat_map(|&t| algos.iter().map(move |&a| (t, a)))
            .flat_map(|(t, a)| partitions.iter().map(move |&p| (t, a, p)))
            .map(|(t, a, p)| {
                json!({
                    "topology": t.to_string(),
                    "algo": a.to_string(),
                    "partition": p.to_string(),
                    "knee_chips": scaling_knee(&series(&points, t, a, p)),
                })
            })
            .collect();
        let v = json!({
            "platform": setup.accel.name,
            "model": setup.model.to_string(),
            "batch": setup.batch,
            "seq": setup.seq,
            "seed": seed,
            "link_gbps": link.bytes_per_s / 1e9,
            "link_us": link.latency_s * 1e6,
            "overlap": overlap,
            "points": points,
            "knees": knees,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&v).expect("sweep serializes")
        );
        return Ok(());
    }

    println!("accelerator: {}", setup.accel);
    println!(
        "workload:    {} (B={}, N={})",
        setup.model, setup.batch, setup.seq
    );
    println!("link:        {link}");
    println!(
        "pricing:     {}",
        if overlap {
            "overlapped (tick = max(compute, collective))"
        } else {
            "serial (tick = compute + collective)"
        }
    );
    for &t in &topologies {
        for &a in &algos {
            for &p in &partitions {
                let s = series(&points, t, a, p);
                let knee = scaling_knee(&s);
                println!();
                match knee {
                    Some(k) => println!("{t} [{a}] × {p} (knee at {k} chips):"),
                    None => println!("{t} [{a}] × {p}:"),
                }
                println!(
                    "  {:>5}  {:<10} {:>11} {:>11} {:>11} {:>11} {:>8}  fabric%",
                    "chips",
                    "dataflow",
                    "compute ms",
                    "fabric ms",
                    "exposed ms",
                    "total ms",
                    "speedup"
                );
                for pt in &s {
                    println!(
                        "  {:>5}  {:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>7.2}x  {:>6.1}%",
                        pt.chips,
                        pt.dataflow,
                        pt.compute_ms,
                        pt.collective_ms,
                        pt.exposed_ms,
                        pt.total_ms,
                        pt.speedup,
                        pt.fabric_fraction * 100.0
                    );
                }
            }
        }
    }
    Ok(())
}

/// The `--requests` branch of `flat dist`: run the serving engine on
/// clusters of each requested size.
#[allow(clippy::too_many_arguments)]
fn dist_serve(
    args: &Args,
    setup: &parse::Setup,
    requests: usize,
    chips: &[usize],
    topologies: &[Topology],
    partitions: &[Partition],
    link: Link,
    seed: u64,
) -> Result<(), String> {
    let &topology = topologies
        .first()
        .ok_or("--topology must name one topology")?;
    let &partition = partitions
        .first()
        .ok_or("--partition must name one partition")?;
    if topologies.len() > 1 || partitions.len() > 1 {
        return Err(
            "serving mode takes a single --topology and --partition (not a list/all)".to_owned(),
        );
    }
    let algos = algos_arg(args, "ring")?;
    let &algo = algos.first().ok_or("--algo must name one algorithm")?;
    if algos.len() > 1 {
        return Err("serving mode takes a single --algo (not a list/all)".to_owned());
    }
    let overlap = args.flag("overlap");
    if !args.get("trace", "").is_empty() && chips.len() > 1 {
        return Err("--trace records one cluster: pass a single --chips value".to_owned());
    }
    let (spec, mut workload) = parse::workload(args, requests, seed)?;
    let base = EngineConfig::for_platform(&setup.accel, &setup.model, seed);
    let (cfg, faults) = parse::engine(args, base, &mut workload)?;
    let fixed_size = ScalePlan::default();
    let runs = traced(args, |sink| {
        chips
            .iter()
            .map(|&p| {
                let dcfg = DistServeConfig {
                    chips: p,
                    topology,
                    link,
                    partition,
                    algo,
                    overlap,
                };
                serve_dist_elastic(
                    &setup.accel,
                    &setup.model,
                    &workload,
                    &cfg,
                    &dcfg,
                    &fixed_size,
                    faults,
                    &mut *sink,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    })?;

    if args.flag("json") {
        let v = json!({
            "platform": setup.accel.name,
            "model": setup.model.to_string(),
            "seed": seed,
            "topology": topology.to_string(),
            "partition": partition.to_string(),
            "algo": algo.to_string(),
            "overlap": overlap,
            "runs": runs,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&v).expect("serve runs serialize")
        );
    } else {
        println!("accelerator: {}", setup.accel);
        println!(
            "cluster:     {topology} [{algo}{}] × {partition}, link {link}, {requests} requests at {} req/s",
            if overlap { ", overlapped" } else { "" },
            spec.arrival_rate_per_s
        );
        println!();
        for m in &runs {
            println!(
                "{:>3} chips: {}/{} finished in {:>9.1} ms, {:>8.1} tok/s, fabric {:>8.1} ms exposed {:>8.1} ms ({:>4.1}%), peak shard KV {:.1}%",
                m.chips,
                m.serve.finished,
                m.serve.requests,
                m.serve.makespan_ms,
                m.serve.decode_tokens_per_s,
                m.fabric_busy_ms,
                m.fabric_exposed_ms,
                m.fabric_fraction * 100.0,
                m.per_shard_kv_peak_occupancy.iter().copied().fold(0.0f64, f64::max) * 100.0
            );
        }
    }
    Ok(())
}

/// `flat bw` — minimum off-chip bandwidth for a target L-A utilization.
pub fn bw(args: &Args) -> Result<(), String> {
    let setup = parse::setup(args)?;
    let target = parse::u64_arg(args, "target-milli", 950)? as f64 / 1000.0;
    for (name, space) in [
        ("Base-opt", SpaceKind::Sequential),
        ("FLAT-opt", SpaceKind::Full),
    ] {
        match flat_dse::required_offchip_bw(&setup.accel, &setup.block, space, target) {
            Some(bw) => println!("{name:9} needs {:.1} GB/s for util >= {target}", bw / 1e9),
            None => println!("{name:9} cannot reach util {target} at any bandwidth"),
        }
    }
    Ok(())
}
