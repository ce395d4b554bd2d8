//! The modeled `fleet` and `validation` groups of the benchmark snapshot
//! are pinned: recomputed here, they must reproduce the numbers committed
//! in `BENCH_PR9.json` exactly. They are deterministic model outputs, not
//! wall times, so any drift is a behaviour change: a prefix-dedup
//! capacity pair (dedup hits and peak KV blocks), an elastic fleet run
//! (makespan, migrated KV and the goodput trajectory per window) and the
//! event backend's divergence from the closed-form cost model.

use flat::arch::Accelerator;
use flat::core::{FusedDataflow, Granularity, LaExecution};
use flat::desim::{agreement, EventOptions};
use flat::dist::Topology;
use flat::fleet::{FleetMetrics, FleetSpec};
use flat::serve::{
    serve, serve_dist_elastic, DistServeConfig, EngineConfig, ScalePlan, WorkloadSpec,
};
use flat::telemetry::NoopSink;
use flat::workloads::{Model, Task};

/// One committed snapshot entry of `group`: `(mean_ms, max_rel_error,
/// config)`.
fn pr9_entry(group: &str, name: &str) -> (f64, Option<f64>, String) {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_PR9.json"))
        .expect("BENCH_PR9.json is committed at the repo root");
    let v: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses");
    let e = v["entries"]
        .as_array()
        .expect("snapshot has entries")
        .iter()
        .find(|e| e["group"].as_str() == Some(group) && e["name"].as_str() == Some(name))
        .unwrap_or_else(|| panic!("BENCH_PR9.json has {group}/{name}"));
    (
        e["mean_ms"].as_f64().expect("entry mean_ms"),
        e["max_rel_error"].as_f64(),
        e["config"].as_str().expect("entry config").to_owned(),
    )
}

fn bert() -> Model {
    Model::by_name("bert").expect("bert is in the zoo")
}

/// 32 cloud/bert requests sharing a 96-token prefix, served with dedup
/// off and on: peak physical blocks, dedup hits and peak logical blocks.
#[test]
fn prefix_dedup_capacity_pair_reproduces_the_snapshot() {
    let (accel, model) = (Accelerator::cloud(), bert());
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 32, 4000.0);
    spec.prompt_mean = 112;
    spec.output_mean = 8;
    spec.prefix_template = Some(0xF1EE7);
    spec.prefix_tokens = 96;
    let workload = spec.generate(0xF1A7).expect("workload is valid");
    for (name, dedup) in [
        ("kv_peak_blocks_dedup_off", false),
        ("kv_peak_blocks_dedup_on", true),
    ] {
        let mut cfg = EngineConfig::for_platform(&accel, &model, 0xF1A7);
        cfg.dedup = dedup;
        let m = serve(&accel, &model, &workload, &cfg).expect("workload serves");
        let (blocks, _, config) = pr9_entry("fleet", name);
        assert_eq!(
            m.kv.peak_occupancy * m.kv.total_blocks as f64,
            blocks,
            "{name}"
        );
        let counts = format!(
            "dedup_hits={} peak_logical={}",
            m.kv.dedup_hits, m.kv.peak_logical_blocks
        );
        assert!(config.ends_with(&counts), "{name}: {counts} vs {config}");
    }
}

/// 512 requests of three tenants on a diurnal curve, on a cluster that
/// grows from 2 to 4 chips and shrinks back: the makespan, the migrated
/// KV bytes and every window's goodput and chip count.
#[test]
fn elastic_fleet_run_reproduces_the_snapshot() {
    let mut spec = FleetSpec::sustained(512);
    spec.curve.base_rate_per_s = 800.0;
    spec.curve.period_ms = 200.0;
    let (accel, model) = (Accelerator::cloud(), bert());
    let workload = spec.generate(0xF1A7).expect("fleet spec is valid");
    let mut cfg = EngineConfig::for_platform(&accel, &model, 0xF1A7);
    cfg.dedup = true;
    cfg.window_ms = Some(10.0);
    let dist = serve_dist_elastic(
        &accel,
        &model,
        &workload,
        &cfg,
        &DistServeConfig::new(2, Topology::Ring),
        &ScalePlan::new(&[(20.0, 4), (120.0, 2)]),
        None,
        &mut NoopSink,
    )
    .expect("fleet serves");
    let m = FleetMetrics::new(&workload, &cfg, dist);
    let (makespan, _, config) = pr9_entry("fleet", "elastic_goodput_makespan");
    assert_eq!(m.dist.serve.makespan_ms, makespan);
    let windows: Vec<String> = m
        .dist
        .serve
        .windows
        .iter()
        .map(|w| {
            format!(
                "({:.0}ms,{:.0}tok/s,{}ch)",
                w.end_ms, w.goodput_tokens_per_s, w.chips
            )
        })
        .collect();
    let tail = format!(
        "migrated_bytes={:.0} goodput_windows=[{}]",
        m.dist.kv_migrated_bytes,
        windows.join(",")
    );
    assert!(config.ends_with(&tail), "{tail} vs {config}");
}

/// The event backend against the closed form on edge/bert at seq 4096
/// under FLAT-R64: within 3e-5 with double buffering, 95% off with one
/// staging buffer. Both relative divergences, to the bit.
#[test]
fn event_backend_divergence_reproduces_the_snapshot() {
    let accel = Accelerator::edge();
    let block = bert().block(64, 4096);
    let la = LaExecution::Fused(FusedDataflow::new(Granularity::Row(64)));
    for (name, buffers) in [("event_backend", 2u32), ("event_backend_contended", 1)] {
        let opts = EventOptions {
            buffers,
            ..Default::default()
        };
        let a = agreement(&accel, &block, &la, opts).expect("wiring is sound");
        let (_, divergence, _) = pr9_entry("validation", name);
        assert_eq!(Some(a.divergence.abs()), divergence, "{name}");
    }
}
