//! End-to-end insight contracts against real engine runs:
//!
//! * two fixed-seed, same-config serving runs attribute to a
//!   byte-identical report and diff to a zero-delta ledger (the pinned
//!   determinism contract behind `flat insight diff` in CI);
//! * the phase decomposition's books balance — phases sum to e2e per
//!   request and drop reasons match the engine's own counters;
//! * turning collective/compute overlap on against an otherwise
//!   identical cluster run attributes the latency delta to the
//!   `collective_exposed` phase;
//! * attribution survives the JSON round trip: analyzing the exported
//!   Chrome trace document equals analyzing the in-process stream.

use flat_arch::Accelerator;
use flat_insight::{Attribution, DiffReport};
use flat_serve::{
    serve_dist_elastic, DistServeConfig, DistServeMetrics, EngineConfig, RequestSpec, ScalePlan,
    WorkloadSpec,
};
use flat_telemetry::MemorySink;
use flat_workloads::{Model, Task};

/// A fixed-size, fault-free cluster run traced into `sink`.
fn serve_into(
    accel: &Accelerator,
    wl: &[RequestSpec],
    cfg: &EngineConfig,
    dist: &DistServeConfig,
    sink: &mut MemorySink,
) -> DistServeMetrics {
    let model = Model::by_name("bert").unwrap();
    let plan = ScalePlan::default();
    serve_dist_elastic(accel, &model, wl, cfg, dist, &plan, None, sink).expect("run terminates")
}

fn one_chip() -> DistServeConfig {
    DistServeConfig::new(1, flat_dist::Topology::FullyConnected)
}

fn workload(requests: usize, seed: u64) -> Vec<RequestSpec> {
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, requests, 400.0);
    spec.prompt_mean = 40; // scaled down so the suite stays fast
    spec.output_mean = 6;
    spec.generate(seed).expect("spec is valid")
}

fn traced_run(seed: u64) -> MemorySink {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let wl = workload(24, seed);
    let cfg = EngineConfig::for_platform(&accel, &model, seed);
    let mut sink = MemorySink::new();
    serve_into(&accel, &wl, &cfg, &one_chip(), &mut sink);
    sink
}

fn traced_dist_run(seed: u64, overlap: bool) -> MemorySink {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::cloud();
    let wl = workload(24, seed);
    let cfg = EngineConfig::for_platform(&accel, &model, seed);
    let mut dist = DistServeConfig::new(4, flat_dist::Topology::Ring);
    dist.overlap = overlap;
    let mut sink = MemorySink::new();
    serve_into(&accel, &wl, &cfg, &dist, &mut sink);
    sink
}

#[test]
fn fixed_seed_runs_attribute_byte_identically_and_diff_to_zero() {
    let a = Attribution::of(&traced_run(0x1234).events);
    let b = Attribution::of(&traced_run(0x1234).events);
    assert_eq!(a.to_json(), b.to_json(), "same seed, same report bytes");
    let d = DiffReport::of(&a, &b);
    assert!(d.zero_delta, "same-config fixed-seed runs are zero-delta");
    assert_eq!(d.dominant_phase, "none");
    assert_eq!(d.e2e_delta_ms, 0.0);
    assert!(d.phase_deltas.iter().all(|p| p.delta_ms == 0.0));
    let j = DiffReport::of(&a, &b).to_json();
    assert_eq!(j, d.to_json(), "diff JSON is byte-deterministic");
}

#[test]
fn phase_books_balance_against_engine_metrics() {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let wl = workload(24, 0x77);
    let mut cfg = EngineConfig::for_platform(&accel, &model, 0x77);
    cfg.kv_budget = flat_tensor::Bytes::from_mib(2); // force pressure
    let mut sink = MemorySink::new();
    let m = serve_into(&accel, &wl, &cfg, &one_chip(), &mut sink).serve;
    let a = Attribution::of(&sink.events);
    assert_eq!(a.requests, m.requests, "every offered request observed");
    assert_eq!(a.finished, m.finished);
    assert_eq!(a.dropped, m.dropped);
    assert_eq!(a.preemptions, m.preemptions, "preempt count agrees");
    let attributed_drops: u64 = a.drop_reasons.iter().map(|d| d.count).sum();
    assert_eq!(attributed_drops, m.drops.total());
    for r in &a.per_request {
        if r.drop_reason.is_some() {
            continue;
        }
        let parts: f64 = r.phase_values().iter().sum();
        assert!(
            (parts - r.e2e_ms).abs() < 1e-6,
            "request {}: phases ({parts} ms) must sum to e2e ({} ms)",
            r.id,
            r.e2e_ms
        );
        assert!(r.phase_values().iter().all(|&v| v >= 0.0));
    }
    // Preemption pressure produced recompute slices, attributed as such.
    if m.preemptions > 0 {
        assert!(
            a.phases.recompute.total_ms > 0.0,
            "preempted run must show recompute time"
        );
    }
}

#[test]
fn overlap_delta_is_attributed_to_exposed_collectives() {
    let off = Attribution::of(&traced_dist_run(0x2468, false).events);
    let on = Attribution::of(&traced_dist_run(0x2468, true).events);
    assert!(
        off.phases.collective_exposed.total_ms > 0.0,
        "overlap off: collectives are exposed"
    );
    assert_eq!(
        on.phases.collective_exposed.total_ms, 0.0,
        "overlap on: this workload's compute fully hides the fabric"
    );
    let d = DiffReport::of(&off, &on);
    assert!(!d.zero_delta);
    assert_eq!(
        d.dominant_phase, "collective_exposed",
        "the off->on delta is dominated by exposed collective time: {d:?}"
    );
    assert!(d.e2e_delta_ms < 0.0, "overlap makes the run faster");
}

#[test]
fn exported_trace_attributes_like_the_in_process_stream() {
    // The exporter quantizes timestamps to nanoseconds (`{:.3}` µs), so
    // the two paths agree exactly on every count and to nanosecond
    // precision on every duration — and the document path itself is
    // byte-deterministic.
    let sink = traced_run(0x42);
    let from_stream = Attribution::of(&sink.events);
    let doc = sink.to_chrome_trace();
    let from_doc = Attribution::parse(&doc).expect("valid document");
    assert_eq!(from_stream.requests, from_doc.requests);
    assert_eq!(from_stream.finished, from_doc.finished);
    assert_eq!(from_stream.dropped, from_doc.dropped);
    assert_eq!(from_stream.preemptions, from_doc.preemptions);
    let quantum_ms = 1e-3 * from_stream.requests as f64; // ≤1 ns per event
    for (s, d) in from_stream
        .phases
        .totals()
        .iter()
        .zip(from_doc.phases.totals())
    {
        assert!(
            (s - d).abs() <= quantum_ms,
            "phase totals agree to export quantization: {s} vs {d}"
        );
    }
    let again = Attribution::parse(&doc).expect("valid document");
    assert_eq!(
        from_doc.to_json(),
        again.to_json(),
        "document path is byte-deterministic"
    );
}
