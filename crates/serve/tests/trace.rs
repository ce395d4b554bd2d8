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
use flat_telemetry::{ArgValue, Event, EventPhase, MemorySink, NoopSink, TraceSink};
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

/// Multi-chip serving traces fabric collectives on one fabric lane:
/// `X` slices carrying `bytes`, `energy_pj` and the tick's `chips`,
/// absent on a 1-chip cluster.
#[test]
fn dist_trace_carries_collective_spans_on_the_fabric_lane() {
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
            assert_eq!(ev.pid, 1, "fabric lane pid");
            let keys: Vec<&str> = ev.args.iter().map(|(k, _)| k.as_ref()).collect();
            assert!(
                keys.contains(&"bytes") && keys.contains(&"energy_pj"),
                "{keys:?}"
            );
            assert_eq!(arg(ev, "chips"), Some(&ArgValue::U64(chips as u64)));
        }
        // Tracing the dist run does not change its metrics either.
        let plain = run(&wl, &cfg, &dcfg, None, &mut NoopSink);
        assert_eq!(plain.serve.to_json(), traced.serve.to_json());
    }
}

/// The value of `ev`'s argument `key`.
fn arg<'e>(ev: &'e Event, key: &str) -> Option<&'e ArgValue> {
    ev.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Collective events recorded by a traced 2-request ring run. The
/// requests arrive a second apart, so no cluster size batches them into
/// fewer ticks.
fn collective_events(chips: usize) -> usize {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 2, 1.0);
    spec.prompt_mean = 8;
    spec.output_mean = 2;
    let wl = spec.generate(3).expect("spec is valid");
    let mut sink = MemorySink::new();
    run(
        &wl,
        &config(&accel, &model, 3),
        &DistServeConfig::new(chips, Topology::Ring),
        None,
        &mut sink,
    );
    sink.events.iter().filter(|e| e.cat == "collective").count()
}

/// Each tick's collectives are recorded once, not once per chip: a
/// fixed run's collective count does not grow with the cluster.
#[test]
fn collective_event_count_does_not_grow_with_the_cluster() {
    let two = collective_events(2);
    assert!(two > 0, "a 2-chip run traces collectives");
    assert_eq!(collective_events(64), two);
}

/// Every process lane that carries an event is named, including the
/// fabric lane of a run that starts on one chip and grows.
#[test]
fn every_traced_pid_of_an_elastic_run_is_named() {
    let model = Model::by_name("bert").expect("bert exists");
    let accel = Accelerator::edge();
    let wl = workload(24, 7);
    let mut sink = MemorySink::new();
    serve_dist_elastic(
        &accel,
        &model,
        &wl,
        &config(&accel, &model, 7),
        &DistServeConfig::new(1, Topology::Ring),
        &ScalePlan::new(&[(2.0, 4), (30.0, 2)]),
        None,
        &mut sink,
    )
    .expect("engine terminates");
    let named: Vec<u32> = sink
        .events
        .iter()
        .filter(|e| e.name == "process_name")
        .map(|e| e.pid)
        .collect();
    assert!(
        sink.events.iter().any(|e| e.cat == "collective"),
        "the resized cluster traces collectives"
    );
    for ev in &sink.events {
        assert!(
            named.contains(&ev.pid),
            "pid {} has no process_name",
            ev.pid
        );
    }
}
