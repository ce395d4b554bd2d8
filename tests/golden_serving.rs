//! Golden serving corpus: fixed-seed runs of every serving entry point,
//! byte-diffed against committed output.
//!
//! Each case runs traced into a [`MemorySink`] and pins two files under
//! `tests/golden/serving/`: `<case>.json` (the metrics document) and
//! `<case>.trace` (the FNV-1a hash and event count of the exported
//! Chrome trace). It also pins `tests/golden/insight/<case>.attr`: the
//! FNV-1a hashes of the attribution JSON read back from the exported
//! document (what `flat insight attr --json` prints) and of the one
//! taken from the in-process events. Set `FLAT_BLESS=1` to rewrite them
//! after an intentional change.

use flat::arch::Accelerator;
use flat::dist::{CollectiveAlgo, Topology};
use flat::fleet::{FleetMetrics, FleetSpec};
use flat::insight::{Attribution, DiffReport};
use flat::serve::{
    serve, serve_dist_elastic, ComputePrecision, DistServeConfig, DistServeMetrics, EngineConfig,
    FaultPlan, RequestSpec, ScalePlan, WorkloadSpec,
};
use flat::telemetry::{MemorySink, NoopSink, TraceSink};
use flat::tensor::{Bytes, SoftmaxKind};
use flat::workloads::{Model, Task};
use std::path::{Path, PathBuf};

fn golden_dir(kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(kind)
}

/// 64-bit FNV-1a over the trace document.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares (or, under `FLAT_BLESS=1`, rewrites) one pinned file.
fn pin(path: &Path, text: &str) {
    if std::env::var_os("FLAT_BLESS").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, text).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with FLAT_BLESS=1)", path.display()));
    assert!(text == want, "output drifted from {}", path.display());
}

/// Pins one case's metrics, trace and attribution files, after checking
/// that every process lane carrying an event is named.
fn check(case: &str, json: &str, sink: &MemorySink) {
    let named: Vec<u32> = sink
        .events
        .iter()
        .filter(|e| e.name == "process_name")
        .map(|e| e.pid)
        .collect();
    for ev in &sink.events {
        assert!(named.contains(&ev.pid), "{case}: pid {} is unnamed", ev.pid);
    }
    let doc = sink.to_chrome_trace();
    let trace = format!(
        "fnv1a64 {:016x}\nevents {}\n",
        fnv1a(&doc),
        sink.events.len()
    );
    let parsed = Attribution::parse(&doc).expect("the exported trace parses");
    let attr = format!(
        "parse fnv1a64 {:016x}\nof fnv1a64 {:016x}\n",
        fnv1a(&parsed.to_json()),
        fnv1a(&Attribution::of(&sink.events).to_json())
    );
    let serving = golden_dir("serving");
    pin(&serving.join(format!("{case}.json")), &format!("{json}\n"));
    pin(&serving.join(format!("{case}.trace")), &trace);
    pin(&golden_dir("insight").join(format!("{case}.attr")), &attr);
}

fn bert() -> Model {
    Model::by_name("bert").expect("bert is in the zoo")
}

fn workload(requests: usize, seed: u64, slo_ms: Option<f64>) -> Vec<RequestSpec> {
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, requests, 400.0);
    spec.prompt_mean = 40;
    spec.output_mean = 6;
    spec.slo_ms = slo_ms;
    spec.generate(seed).expect("spec is valid")
}

fn config(accel: &Accelerator, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::for_platform(accel, &bert(), seed);
    cfg.kv_budget = Bytes::from_mib(8);
    cfg.max_batch = 6;
    cfg
}

/// Single-chip serving: a 1-chip cluster with no resizes.
fn one_chip(
    wl: &[RequestSpec],
    cfg: &EngineConfig,
    faults: Option<FaultPlan>,
    sink: &mut dyn TraceSink,
) -> DistServeMetrics {
    let one = DistServeConfig::new(1, Topology::FullyConnected);
    let plan = ScalePlan::default();
    serve_dist_elastic(
        &Accelerator::edge(),
        &bert(),
        wl,
        cfg,
        &one,
        &plan,
        faults,
        sink,
    )
    .expect("run terminates")
}

/// One single-chip case: the traced run is pinned, and the untraced
/// run (through `serve` when there are no faults) must produce the
/// same metrics.
fn serve_case(case: &str, wl: &[RequestSpec], cfg: &EngineConfig, faults: Option<FaultPlan>) {
    let mut sink = MemorySink::new();
    let traced = one_chip(wl, cfg, faults, &mut sink).serve;
    let plain = match faults {
        None => serve(&Accelerator::edge(), &bert(), wl, cfg).expect("run terminates"),
        Some(_) => one_chip(wl, cfg, faults, &mut NoopSink).serve,
    };
    assert_eq!(
        traced.to_json(),
        plain.to_json(),
        "{case}: tracing perturbed the run"
    );
    check(case, &traced.to_json(), &sink);
}

#[test]
fn serve_plain() {
    let accel = Accelerator::edge();
    serve_case(
        "serve_plain",
        &workload(16, 11, None),
        &config(&accel, 11),
        None,
    );
}

#[test]
fn serve_chaos() {
    let accel = Accelerator::edge();
    let plan = FaultPlan::chaos(11);
    let mut wl = workload(24, 11, Some(50.0));
    plan.corrupt_workload(&mut wl);
    serve_case("serve_chaos", &wl, &config(&accel, 11), Some(plan));
}

#[test]
fn serve_dedup_window() {
    let accel = Accelerator::edge();
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 16, 400.0);
    spec.prompt_mean = 48;
    spec.output_mean = 6;
    spec.prefix_template = Some(7);
    spec.prefix_tokens = 32;
    let wl = spec.generate(5).expect("spec is valid");
    let mut cfg = config(&accel, 5);
    cfg.dedup = true;
    cfg.window_ms = Some(5.0);
    serve_case("serve_dedup_window", &wl, &cfg, None);
}

#[test]
fn serve_bf16_flash_d() {
    let accel = Accelerator::edge();
    let mut cfg = config(&accel, 3);
    cfg.precision = ComputePrecision::Bf16;
    cfg.softmax = SoftmaxKind::FlashD;
    serve_case("serve_bf16_flash_d", &workload(16, 3, None), &cfg, None);
}

/// A 3 MiB pool under a 36-token prefill chunk: the chunk ends groups
/// off the block grid, so a prefilling request is evicted partway through
/// a group of embedded prefill rows, and decoding requests are evicted
/// after the tick's decode rows were embedded for them.
#[test]
fn serve_tight_pool_mid_batch_preemption() {
    let accel = Accelerator::edge();
    let mut cfg = config(&accel, 19);
    cfg.prefill_chunk = 36;
    cfg.kv_budget = Bytes::from_mib(3);
    serve_case("serve_tight_pool", &workload(24, 19, None), &cfg, None);
}

/// Runs, pins and returns one cluster case's exported trace document.
fn dist_case(
    case: &str,
    dist: &DistServeConfig,
    plan: &ScalePlan,
    faults: Option<FaultPlan>,
) -> String {
    let accel = Accelerator::edge();
    let model = bert();
    let mut wl = workload(24, 13, None);
    if let Some(p) = &faults {
        p.corrupt_workload(&mut wl);
    }
    let mut sink = MemorySink::new();
    let m = serve_dist_elastic(
        &accel,
        &model,
        &wl,
        &config(&accel, 13),
        dist,
        plan,
        faults,
        &mut sink,
    )
    .expect("run terminates");
    check(case, &m.to_json(), &sink);
    sink.to_chrome_trace()
}

/// Also pins the differential report of the 1-chip run against the
/// 4-chip one, as `flat insight diff --json` prints it.
#[test]
fn dist_ring_kv_shard_1_2_4_chips() {
    let docs: Vec<String> = [1, 2, 4]
        .into_iter()
        .map(|chips| {
            dist_case(
                &format!("dist_ring_{chips}chip"),
                &DistServeConfig::new(chips, Topology::Ring),
                &ScalePlan::default(),
                None,
            )
        })
        .collect();
    let attr = |doc: &str| Attribution::parse(doc).expect("the exported trace parses");
    let diff = DiffReport::of(&attr(&docs[0]), &attr(&docs[2]));
    pin(
        &golden_dir("insight").join("dist_ring_1chip_vs_4chip.diff"),
        &format!("{}\n", diff.to_json()),
    );
}

#[test]
fn dist_hd_overlap() {
    let mut dist = DistServeConfig::new(4, Topology::Torus2d);
    dist.algo = CollectiveAlgo::HalvingDoubling;
    dist.overlap = true;
    dist_case("dist_hd_overlap", &dist, &ScalePlan::default(), None);
}

#[test]
fn dist_elastic_with_faults() {
    dist_case(
        "dist_elastic_chaos",
        &DistServeConfig::new(2, Topology::Ring),
        &ScalePlan::new(&[(2.0, 4), (30.0, 1)]),
        Some(FaultPlan::chaos(17)),
    );
}

#[test]
fn fleet_chaos_with_resizes() {
    let accel = Accelerator::edge();
    let model = bert();
    let mut spec = FleetSpec::sustained(48);
    spec.curve.base_rate_per_s = 800.0;
    spec.curve.period_ms = 200.0;
    for t in &mut spec.tenants {
        t.prompt_mean = t.prompt_mean.min(48);
        t.output_mean = t.output_mean.min(6);
    }
    let mut workload = spec.generate(7).expect("fleet spec is valid");
    let faults = FaultPlan::chaos(11);
    faults.corrupt_workload(&mut workload);
    let mut cfg = EngineConfig::for_platform(&accel, &model, 7);
    cfg.dedup = true;
    cfg.window_ms = Some(10.0);
    let run = |sink: &mut dyn TraceSink| {
        let dist = serve_dist_elastic(
            &accel,
            &model,
            &workload,
            &cfg,
            &DistServeConfig::new(2, Topology::Ring),
            &ScalePlan::new(&[(5.0, 4), (40.0, 2)]),
            Some(faults),
            sink,
        )
        .expect("run terminates");
        FleetMetrics::new(&workload, &cfg, dist)
    };
    let mut sink = MemorySink::new();
    let m = run(&mut sink);
    let plain = run(&mut NoopSink);
    assert_eq!(
        m.to_json(),
        plain.to_json(),
        "tracing perturbed the fleet run"
    );
    check("fleet_chaos_resize", &m.to_json(), &sink);
}
