//! `flatbench` — one closed-loop benchmark over the FLAT kernels, the
//! serving engine that runs them, and the dataflow search that picks
//! them, each on a workload where that layer dominates.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path flatbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--trace-dir DIR] [--json FILE]
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer split and writes a Chrome
//! trace. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod attn;
mod dse;
mod harness;
mod host;
mod serving;

use flat::telemetry::{chrome_trace_json, Event};
use harness::{
    band_mean, closed_loop, cold_setup, median, op0_repeats, warm_up, LoopStats, Metric, Size,
    Tally, Tracer, Workload, DIGEST_OPS, MIN_TIMED_OPS, TAIL,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["attn-prefill", "serve-longctx", "fleet-churn", "dse-sweep"];
const DEFAULT_SEED: u64 = 0xF1A7;
/// Equal to `run_seconds` in BENCHMARK.json, whose runner passes it as
/// `--seconds` on every run.
const DEFAULT_SECONDS: f64 = 25.0;
/// Fresh processes, each timing one cold set-up round; `setup_s` is
/// their median.
const SETUP_PROCESSES: usize = 7;

/// Evaluates `$body` with the type alias `$w` naming the workload whose
/// `--workload` spelling is `$name`.
macro_rules! with_workload {
    ($name:expr, $w:ident => $body:expr) => {
        match $name {
            "attn-prefill" => {
                type $w = attn::AttnPrefill;
                $body
            }
            "serve-longctx" => {
                type $w = serving::ServeLongctx;
                $body
            }
            "fleet-churn" => {
                type $w = serving::FleetChurn;
                $body
            }
            "dse-sweep" => {
                type $w = dse::DseSweep;
                $body
            }
            other => unreachable!("workload {other:?}: names are checked when parsed"),
        }
    };
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    json: Option<PathBuf>,
    /// Time one cold set-up round and exit: how a run measures `setup_s`
    /// in fresh processes of its own.
    cold_setup: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: PathBuf::from("target/flatbench"),
        json: None,
        cold_setup: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--cold-setup" {
            args.cold_setup = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (expected all|{})",
                        WORKLOADS.join("|")
                    ));
                }
                args.workload = value.clone();
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects a non-negative integer, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds expects a non-negative number, got {value:?}")
                    })?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                };
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            "--json" => args.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.cold_setup && args.workload == "all" {
        return Err("--cold-setup needs one --workload".to_owned());
    }
    Ok(args)
}

/// What one workload's run reports.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
    /// Hash of the modeled outputs of the first [`DIGEST_OPS`] ops.
    digest: u64,
    /// Host-clock spans of a traced run.
    events: Vec<Event>,
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Report {
    if trace {
        traced(name, seed, size)
    } else {
        with_workload!(name, W => untraced::<W>(seed, seconds, size))
    }
}

/// `setup_s`: the median over [`SETUP_PROCESSES`] fresh processes of one
/// cold set-up round each. The smoke test cannot start the benchmark's
/// own binary, so at [`Size::Smoke`] one round runs in this process.
fn setup_s<W: Workload>(seed: u64, size: Size, tally: &mut Tally) -> f64 {
    if size == Size::Smoke {
        return cold_setup::<W>(seed, size, tally);
    }
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut times = Vec::new();
    for _ in 0..SETUP_PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", W::NAME, "--seed", &seed.to_string()])
            .arg("--cold-setup")
            .stderr(Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let round = stdout.lines().last().and_then(|l| {
            let mut fields = l.strip_prefix("cold_setup ")?.split(' ');
            let secs: f64 = fields.next()?.parse().ok()?;
            let failed: u64 = fields.next()?.parse().ok()?;
            Some((secs, failed))
        });
        tally.attempted += 1;
        match round.filter(|_| out.status.success()) {
            Some((secs, failed)) => {
                times.push(secs);
                tally.failed += failed;
            }
            None => {
                eprintln!(
                    "{}: a cold set-up process exited with {}",
                    W::NAME,
                    out.status
                );
                tally.failed += 1;
            }
        }
    }
    if times.is_empty() {
        f64::NAN
    } else {
        median(&times)
    }
}

/// The end-to-end run: cold set-up rounds in fresh processes, the
/// warm-up, then the timed closed loop with tracing off.
fn untraced<W: Workload>(seed: u64, seconds: f64, size: Size) -> Report {
    let mut tally = Tally::default();
    let setup_s = setup_s::<W>(seed, size, &mut tally);
    let w = warm_up::<W>(seed, size, &mut tally);
    let lp = closed_loop(&w, seconds, MIN_TIMED_OPS, &mut Tracer::off(), &mut tally);
    let deterministic = op0_repeats(&w, &lp, &mut tally);
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "op_tail_ms",
            unit: "ms",
            value: band_mean(&lp.lat_ms, TAIL).expect("the loop times enough ops for the band"),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: host::peak_rss_mib().expect("VmHWM is read from /proc/self/status"),
        },
    ];
    println!(
        "{}: {} timed ops in {:.3} s, op 0 repeats: {deterministic}",
        W::NAME,
        lp.lat_ms.len(),
        lp.wall_s
    );
    Report {
        correct: tally.failed == 0 && deterministic,
        tally,
        metrics,
        digest: lp.digest,
        events: Vec::new(),
    }
}

/// One workload's share of a traced run.
struct Part {
    metrics: Vec<Metric>,
    events: Vec<Event>,
    plain: LoopStats,
    traced: LoopStats,
    /// Op 0 repeated bit for bit, and the untraced and traced loops agree
    /// on the `sim_digest`.
    deterministic: bool,
}

/// The warm-up, then the same `ops` ops untraced and traced, then the
/// layer replays; spans land on process lane `pid` of the trace.
fn part<W: Workload>(
    seed: u64,
    size: Size,
    ops: usize,
    epoch: Instant,
    pid: u32,
    tally: &mut Tally,
) -> Part {
    let w = warm_up::<W>(seed, size, tally);
    let plain = closed_loop(&w, 0.0, ops, &mut Tracer::off(), tally);
    let label = if pid == 0 {
        W::NAME.to_owned()
    } else {
        format!("{} (sample)", W::NAME)
    };
    let mut tr = Tracer::on(epoch, pid, &label);
    let traced = closed_loop(&w, 0.0, ops, &mut tr, tally);
    w.replay(&mut tr);
    let metrics = W::layers()
        .into_iter()
        .zip(w.layer_values(&tr))
        .map(|((name, unit), value)| Metric { name, unit, value })
        .collect();
    let deterministic = op0_repeats(&w, &traced, tally) && plain.digest == traced.digest;
    Part {
        metrics,
        events: tr.into_events(),
        plain,
        traced,
        deterministic,
    }
}

/// Whether `W` reports a per-layer metric missing from `have`.
fn adds_layers<W: Workload>(have: &[Metric]) -> bool {
    W::layers()
        .iter()
        .any(|(name, _)| !have.iter().any(|m| m.name == *name))
}

/// The per-layer run: host peak probes, then the named workload's part
/// at its fixed traced op count (so that counts repeat for a seed).
/// A traced result carries every per-layer metric, so the layers this
/// workload never calls come from a short part of each workload that
/// owns them, on a process lane of its own.
fn traced(name: &str, seed: u64, size: Size) -> Report {
    let epoch = Instant::now();
    let fma = host::fma_gflop_per_s(size);
    let stream = host::stream_gb_per_s(size);
    let mut tally = Tally::default();
    let own = with_workload!(name, W => {
        let ops = match size {
            Size::Full => W::TRACE_OPS,
            Size::Smoke => DIGEST_OPS,
        };
        part::<W>(seed, size, ops, epoch, 0, &mut tally)
    });
    let mut correct = own.deterministic;
    let mut metrics = own.metrics;
    let mut events = own.events;
    for (pid, other) in (1..).zip(WORKLOADS.into_iter().filter(|w| *w != name)) {
        let sample = with_workload!(other, W => adds_layers::<W>(&metrics)
            .then(|| part::<W>(seed, size, DIGEST_OPS, epoch, pid, &mut tally)));
        let Some(sample) = sample else { continue };
        correct &= sample.deterministic;
        for m in sample.metrics {
            if !metrics.iter().any(|have| have.name == m.name) {
                metrics.push(m);
            }
        }
        events.extend(sample.events);
    }
    let f32_gflops = metrics
        .iter()
        .find(|m| m.name == "kernels.f32_exact.gflop_per_s")
        .map_or(f64::NAN, |m| m.value);
    let (plain, traced) = (own.plain.ops_per_s(), own.traced.ops_per_s());
    metrics.extend([
        Metric {
            name: "host.fma_gflop_per_s",
            unit: "GFLOP/s",
            value: fma,
        },
        Metric {
            name: "host.stream_gb_per_s",
            unit: "GB/s",
            value: stream,
        },
        Metric {
            name: "kernels.f32_exact.pct_fma_peak",
            unit: "%",
            value: 100.0 * f32_gflops / fma,
        },
        Metric {
            name: "trace.overhead_pct",
            unit: "%",
            value: 100.0 * (plain - traced) / plain,
        },
    ]);
    println!(
        "{name}: {} ops untraced then traced, sim_digest untraced {:016x} traced {:016x}",
        own.traced.lat_ms.len(),
        own.plain.digest,
        own.traced.digest
    );
    Report {
        correct: correct && tally.failed == 0,
        tally,
        metrics,
        digest: own.traced.digest,
        events,
    }
}

/// A metric as the result line carries it: (name, unit, value).
type Named = (String, String, f64);

/// The per-metric and tally lines of a run, which `--workload all` also
/// reads back from each child.
fn report_lines(correct: bool, tally: Tally, metrics: &[Named]) -> String {
    let mut out = String::new();
    for (name, unit, value) in metrics {
        out += &format!("metric {name:<36} {value} {unit}\n");
    }
    out += &format!(
        "tally correct={correct} attempted={} failed={}\n",
        tally.attempted, tally.failed
    );
    out
}

/// Reads [`report_lines`] back out of a child's standard output; `None`
/// without a tally line.
fn parse_report(stdout: &str) -> Option<(bool, Tally, Vec<Named>)> {
    let mut metrics = Vec::new();
    let mut result = None;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => {
                metrics.push((name.to_string(), unit.to_string(), value.parse().ok()?));
            }
            ["tally", correct, attempted, failed] => {
                let field = |f: &str, key: &str| f.strip_prefix(key).map(str::to_owned);
                result = Some((
                    field(correct, "correct=")? == "true",
                    Tally {
                        attempted: field(attempted, "attempted=")?.parse().ok()?,
                        failed: field(failed, "failed=")?.parse().ok()?,
                    },
                ));
            }
            _ => {}
        }
    }
    result.map(|(correct, tally)| (correct, tally, metrics))
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// as `{"value", "unit"}` with all its digits (`null` if not finite).
/// Names and units are the benchmark's own and need no escaping.
fn result_json(correct: bool, tally: Tally, metrics: &[Named]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_owned()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        entries.join(",")
    )
}

fn run_one(args: &Args) -> (bool, Tally, Vec<Named>) {
    println!(
        "flatbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let r = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    );
    let mut correct = r.correct && r.metrics.iter().all(|m| m.value.is_finite());
    println!("sim_digest {} {:016x}", args.workload, r.digest);
    if args.trace {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.trace_dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(&r.events)));
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the trace to {}: {e}", path.display());
                correct = false;
            }
        }
    }
    let metrics: Vec<Named> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.value))
        .collect();
    print!("{}", report_lines(correct, r.tally, &metrics));
    (correct, r.tally, metrics)
}

/// Runs every workload in a child process of its own, so each reports
/// its own memory high-water mark; metric names gain the workload as a
/// prefix.
fn run_all(args: &Args) -> (bool, Tally, Vec<Named>) {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut correct, mut tally, mut metrics) = (true, Tally::default(), Vec::new());
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }, "--trace-dir"])
            .arg(&args.trace_dir)
            .stderr(Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let Some((ok, t, ms)) = parse_report(&stdout).filter(|_| out.status.success()) else {
            eprintln!("{w}: the child exited with {} and no result", out.status);
            correct = false;
            continue;
        };
        correct &= ok;
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        metrics.extend(
            ms.into_iter()
                .map(|(name, unit, value)| (format!("{w}.{name}"), unit, value)),
        );
    }
    (correct, tally, metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cold_setup {
        let mut tally = Tally::default();
        let secs = with_workload!(args.workload.as_str(), W => {
            cold_setup::<W>(args.seed, Size::Full, &mut tally)
        });
        println!("cold_setup {secs} {}", tally.failed);
        return ExitCode::SUCCESS;
    }
    let (correct, tally, metrics) = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    let line = result_json(correct, tally, &metrics);
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Value) -> BTreeSet<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("a string").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Every workload's op runs clean on shrunken inputs, untraced and
    /// traced, and reports exactly the metrics (and units) BENCHMARK.json
    /// declares.
    #[test]
    fn smoke_every_workload_reports_the_declared_metrics() {
        let spec = declared();
        let workloads: Vec<String> = spec["workloads"]
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| w["name"].as_str().expect("a name").to_owned())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = names_and_units(&spec["end_to_end"]);
        let layers = names_and_units(&spec["per_layer"]);
        for w in WORKLOADS {
            for (trace, want) in [(false, &e2e), (true, &layers)] {
                let r = run(w, 7, 0.0, trace, Size::Smoke);
                assert_eq!(r.tally.failed, 0, "{w} trace={trace}");
                assert!(r.correct, "{w} trace={trace}");
                let got: BTreeSet<(String, String)> = r
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                    .collect();
                assert_eq!(&got, want, "{w} trace={trace}");
                assert!(
                    r.metrics.iter().all(|m| m.value.is_finite()),
                    "{w} trace={trace}"
                );
            }
        }
    }

    fn sample_metrics() -> Vec<Named> {
        vec![
            ("ops_per_s".into(), "op/s".into(), 6.123_456_789_012_345),
            ("setup_s".into(), "s".into(), 1e-7),
            (
                "serve.sim.goodput_tok_s".into(),
                "modeled_tok/s".into(),
                3.0,
            ),
        ]
    }

    /// The hand-written result line is JSON with exactly the four keys,
    /// and every value keeps all its digits.
    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let tally = Tally {
            attempted: 12,
            failed: 1,
        };
        let mut metrics = sample_metrics();
        metrics.push(("peak_rss_mib".into(), "MiB".into(), f64::NAN));
        let v: Value = serde_json::from_str(&result_json(false, tally, &metrics))
            .expect("the result line is JSON");
        let keys: Vec<&String> = v.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], Value::Bool(false));
        assert_eq!(
            (v["attempted"].as_u64(), v["failed"].as_u64()),
            (Some(12), Some(1))
        );
        for (name, unit, value) in &metrics[..3] {
            assert_eq!(v["metrics"][name]["value"].as_f64(), Some(*value), "{name}");
            assert_eq!(v["metrics"][name]["unit"].as_str(), Some(unit.as_str()));
        }
        assert_eq!(v["metrics"]["peak_rss_mib"]["value"], Value::Null);
    }

    /// `--workload all` reads back exactly what a child printed.
    #[test]
    fn report_lines_read_back() {
        let tally = Tally {
            attempted: 40,
            failed: 0,
        };
        let text = format!(
            "noise line\n{}",
            report_lines(true, tally, &sample_metrics())
        );
        let (correct, t, metrics) = parse_report(&text).expect("a tally line");
        assert!(correct);
        assert_eq!((t.attempted, t.failed), (40, 0));
        assert_eq!(metrics, sample_metrics());
        assert!(parse_report("metric a 1 s\n").is_none());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload dse-sweep --seed 3 --seconds 1.5 --trace 1",
        ))
        .expect("valid flags");
        assert_eq!(
            (
                a.workload.as_str(),
                a.seed,
                a.seconds,
                a.trace,
                a.cold_setup
            ),
            ("dse-sweep", 3, 1.5, true, false)
        );
        let c = parse_args(&argv("--workload fleet-churn --cold-setup --seed 2")).expect("valid");
        assert!(c.cold_setup && c.seed == 2);
        assert!(parse_args(&argv("--cold-setup")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
    }
}
