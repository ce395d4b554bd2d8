//! Trace contract suite: the serving engine's telemetry output.
//!
//! Three properties are pinned here, matching the guarantees the
//! `flat-telemetry` layer advertises:
//!
//! * **schema shape** — every exported event carries `ph`/`ts`/`pid`/
//!   `tid`, and every `B` on a lane is closed by a matching `E`, so the
//!   trace loads in Perfetto with no dangling spans;
//! * **determinism** — for a fixed seed the trace document is
//!   byte-identical across runs, chaos or not, because every timestamp
//!   comes from the engine's virtual clock;
//! * **zero overhead when off** — serving through a [`NoopSink`]
//!   produces metrics JSON byte-identical to a traced run.

use flat_arch::Accelerator;
use flat_dist::{Link, Topology};
use flat_serve::{
    serve, serve_dist_elastic, DistServeConfig, DistServeMetrics, EngineConfig, FaultPlan,
    RequestSpec, ScalePlan, WorkloadSpec,
};
use flat_telemetry::{EventPhase, MemorySink, NoopSink, TraceSink};
use flat_tensor::Bytes;
use flat_workloads::{Model, Task};
use std::collections::HashMap;

fn workload(requests: usize, seed: u64) -> Vec<RequestSpec> {
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, requests, 400.0);
    spec.prompt_mean = 40; // scaled down so the suite stays fast
    spec.output_mean = 6;
    spec.generate(seed).expect("spec is valid")
}

fn config(accel: &Accelerator, model: &Model, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::for_platform(accel, model, seed);
    cfg.kv_budget = Bytes::from_mib(8);
    cfg.max_batch = 6;
    cfg
}

/// A fixed-size cluster run; `DistServeConfig::new(1, ..)` is
/// single-chip serving.
fn run(
    wl: &[RequestSpec],
    cfg: &EngineConfig,
    dist: &DistServeConfig,
    faults: Option<FaultPlan>,
    sink: &mut dyn TraceSink,
) -> DistServeMetrics {
    let model = Model::by_name("bert").expect("bert exists");
    let plan = ScalePlan::default();
    serve_dist_elastic(
        &Accelerator::edge(),
        &model,
        wl,
        cfg,
        dist,
        &plan,
        faults,
        sink,
    )
    .expect("engine terminates")
}

fn one_chip() -> DistServeConfig {
    DistServeConfig::new(1, Topology::FullyConnected)
}

/// Every event has the required Chrome trace-event fields, and spans
/// balance per `(pid, tid)` lane.
#[test]
fn trace_schema_is_well_formed_and_spans_balance() {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    let wl = workload(24, 11);
    let cfg = config(&accel, &model, 11);
    let mut sink = MemorySink::new();
    let metrics = run(&wl, &cfg, &one_chip(), None, &mut sink).serve;
    assert!(metrics.finished > 0, "some requests must finish");
    assert!(!sink.events.is_empty(), "tracing must record events");

    let mut depth: HashMap<(u32, u64), i64> = HashMap::new();
    for ev in &sink.events {
        let json = ev.to_json();
        for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(!ev.cat.is_empty(), "every event carries a category");
        match ev.ph {
            EventPhase::Begin => *depth.entry((ev.pid, ev.tid)).or_default() += 1,
            EventPhase::End => *depth.entry((ev.pid, ev.tid)).or_default() -= 1,
            _ => {}
        }
    }
    for (lane, d) in &depth {
        assert_eq!(*d, 0, "unbalanced B/E on lane {lane:?}");
    }

    // Per-request lifecycle: one "request" span opens and closes per
    // offered request (tid = 1 + id), and each is queued at least once.
    let begins = sink
        .events
        .iter()
        .filter(|e| e.ph == EventPhase::Begin && e.name == "request")
        .count();
    assert_eq!(begins, wl.len(), "one request span per offered request");
    let queued = sink
        .events
        .iter()
        .filter(|e| e.ph == EventPhase::Begin && e.name == "queued")
        .count();
    assert!(queued >= wl.len(), "every request is queued on arrival");

    // The KV counter track samples every tick.
    let kv_samples = sink
        .events
        .iter()
        .filter(|e| e.ph == EventPhase::Counter && e.name == "kv_blocks")
        .count();
    assert_eq!(kv_samples as u64, metrics.ticks, "one KV sample per tick");
}

/// For a fixed seed the exported document is byte-identical across runs,
/// including under fault injection.
#[test]
fn trace_is_byte_deterministic_for_fixed_seed() {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    for plan in [None, Some(FaultPlan::chaos(7))] {
        let mut docs = Vec::new();
        for _ in 0..2 {
            let mut wl = workload(24, 42);
            if let Some(p) = &plan {
                p.corrupt_workload(&mut wl);
            }
            let cfg = config(&accel, &model, 42);
            let mut sink = MemorySink::new();
            run(&wl, &cfg, &one_chip(), plan, &mut sink);
            docs.push(sink.to_chrome_trace());
        }
        assert_eq!(
            docs[0],
            docs[1],
            "trace must be byte-identical (chaos: {})",
            plan.is_some()
        );
        assert!(docs[0].contains("\"traceEvents\""));
    }
}

/// Serving through the disabled sink yields metrics byte-identical to
/// a traced run: tracing observes the run, never perturbs it.
#[test]
fn noop_sink_run_matches_untraced_metrics_byte_for_byte() {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    let wl = workload(24, 9);
    let cfg = config(&accel, &model, 9);

    let plain = serve(&accel, &model, &wl, &cfg).expect("untraced run");
    let traced = run(&wl, &cfg, &one_chip(), None, &mut MemorySink::new()).serve;
    assert_eq!(plain.to_json(), traced.to_json());

    let plan = Some(FaultPlan::chaos(3));
    let mut wl = workload(24, 9);
    plan.as_ref().expect("plan set").corrupt_workload(&mut wl);
    let plain = run(&wl, &cfg, &one_chip(), plan, &mut NoopSink);
    let traced = run(&wl, &cfg, &one_chip(), plan, &mut MemorySink::new());
    assert_eq!(plain.to_json(), traced.to_json());
}

/// Multi-chip serving traces fabric collectives: per-chip lanes carrying
/// `bytes` and `energy_pj` arguments, absent on a 1-chip cluster.
#[test]
fn dist_trace_carries_collective_spans_per_chip() {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    let wl = workload(16, 5);
    let cfg = config(&accel, &model, 5);

    for chips in [1usize, 4] {
        let dcfg = DistServeConfig {
            link: Link::edge(),
            ..DistServeConfig::new(chips, Topology::Ring)
        };
        let mut sink = MemorySink::new();
        let traced = run(&wl, &cfg, &dcfg, None, &mut sink);
        let coll: Vec<_> = sink
            .events
            .iter()
            .filter(|e| e.cat == "collective")
            .collect();
        if chips == 1 {
            assert!(coll.is_empty(), "1-chip cluster must not emit collectives");
            continue;
        }
        assert!(
            !coll.is_empty(),
            "{chips}-chip cluster must trace collectives"
        );
        for ev in &coll {
            assert!(matches!(ev.ph, EventPhase::Complete { .. }));
            assert!(ev.pid >= 1 && ev.pid as usize <= chips, "chip lane pid");
            let keys: Vec<&str> = ev.args.iter().map(|(k, _)| k.as_ref()).collect();
            assert!(
                keys.contains(&"bytes") && keys.contains(&"energy_pj"),
                "{keys:?}"
            );
        }
        // Tracing the dist run does not change its metrics either.
        let plain = run(&wl, &cfg, &dcfg, None, &mut NoopSink);
        assert_eq!(plain.serve.to_json(), traced.serve.to_json());
    }
}
