//! Chaos suite: seeded fault injection against the serving engine.
//!
//! Every scenario asserts the same robustness contract, whatever the
//! faults do:
//!
//! * the engine **terminates** with `Ok` — no panic, no livelock;
//! * **conservation** holds — every offered request is either finished or
//!   dropped, exactly once;
//! * every non-completed request carries a **typed drop reason**, and the
//!   per-reason counters add up;
//! * the metrics **serialize** — NaN-laced latencies are flagged, never
//!   fatal, and no rate is ever `inf`.

use flat_arch::Accelerator;
use flat_dist::Topology;
use flat_serve::{
    serve_dist_elastic, DistServeConfig, DistServeMetrics, EngineConfig, FaultPlan, RequestSpec,
    ScalePlan, ServeError, ServeMetrics, WorkloadSpec,
};
use flat_telemetry::NoopSink;
use flat_tensor::Bytes;
use flat_workloads::{Model, Task};

/// A fixed-size ring of `chips` with `faults` injected; one chip is
/// single-chip serving.
fn serve_faulted(
    accel: &Accelerator,
    model: &Model,
    wl: &[RequestSpec],
    cfg: &EngineConfig,
    chips: usize,
    faults: Option<FaultPlan>,
) -> Result<DistServeMetrics, ServeError> {
    let dist = DistServeConfig::new(chips, Topology::Ring);
    let plan = ScalePlan::default();
    serve_dist_elastic(accel, model, wl, cfg, &dist, &plan, faults, &mut NoopSink)
}

fn workload(requests: usize, seed: u64, slo_ms: Option<f64>) -> Vec<RequestSpec> {
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, requests, 400.0);
    spec.prompt_mean = 40; // scaled down so the suite stays fast
    spec.output_mean = 6;
    spec.slo_ms = slo_ms;
    spec.generate(seed).expect("spec is valid")
}

/// Runs one faulted scenario and asserts the full robustness contract.
fn run_chaos(name: &str, plan: FaultPlan, slo_ms: Option<f64>, kv_mib: u64) -> ServeMetrics {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let mut wl = workload(32, plan.seed, slo_ms);
    plan.corrupt_workload(&mut wl);
    let mut cfg = EngineConfig::for_platform(&accel, &model, plan.seed);
    cfg.kv_budget = Bytes::from_mib(kv_mib);
    cfg.max_batch = 6;
    let m = serve_faulted(&accel, &model, &wl, &cfg, 1, Some(plan))
        .unwrap_or_else(|e| panic!("{name}: engine must terminate cleanly, got {e}"))
        .serve;
    // Conservation: offered = finished + dropped, with drop reasons that
    // add up to the drop count.
    assert_eq!(m.requests, wl.len(), "{name}: offered count");
    assert_eq!(
        m.finished + m.dropped,
        m.requests,
        "{name}: every request finishes or is dropped"
    );
    assert_eq!(
        m.drops.total(),
        m.dropped as u64,
        "{name}: every dropped request carries a typed reason"
    );
    // Rates must never be inf/NaN, whatever the clock did.
    assert!(
        m.decode_tokens_per_s.is_finite(),
        "{name}: throughput finite"
    );
    assert!(m.goodput_tokens_per_s.is_finite(), "{name}: goodput finite");
    assert!(
        m.goodput_tokens_per_s <= m.decode_tokens_per_s + 1e-9,
        "{name}: goodput ≤ throughput"
    );
    // The report must serialize whatever the samples look like.
    let json = m.to_json();
    assert!(json.contains("\"drops\""), "{name}: metrics serialize");
    m
}

#[test]
fn chaos_pool_shrinks_mid_run() {
    let plan = FaultPlan {
        shrink_pool_at_tick: Some(4),
        shrink_pool_frac: 0.8,
        ..FaultPlan::quiet(0xA0)
    };
    let m = run_chaos("pool-shrink", plan, None, 8);
    // Capacity loss must show as pressure, not lost requests: whatever
    // still fits the shrunken pool finishes, the rest drops Infeasible.
    assert_eq!(m.drops.deadline + m.drops.corrupt, 0);
    assert!(m.finished > 0, "a shrunken pool still serves what fits");
}

#[test]
fn chaos_pool_shrinks_to_near_nothing() {
    let plan = FaultPlan {
        shrink_pool_at_tick: Some(2),
        shrink_pool_frac: 1.0,
        ..FaultPlan::quiet(0xA1)
    };
    let m = run_chaos("pool-vanish", plan, None, 8);
    assert!(
        m.dropped > 0,
        "a one-block pool cannot hold multi-block requests"
    );
    assert!(m.drops.infeasible > 0);
}

#[test]
fn chaos_corrupt_specs() {
    let plan = FaultPlan {
        corrupt_spec_per_mille: 400,
        ..FaultPlan::quiet(0xB0)
    };
    let m = run_chaos("corrupt-specs", plan, None, 64);
    assert!(
        m.drops.corrupt + m.drops.infeasible > 0,
        "at 400‰ corruption something must be shed"
    );
    assert!(m.finished > 0, "well-formed requests still get served");
}

#[test]
fn chaos_nan_latencies() {
    let plan = FaultPlan {
        nan_latency_per_mille: 500,
        ..FaultPlan::quiet(0xC0)
    };
    let m = run_chaos("nan-latency", plan, None, 64);
    assert_eq!(
        m.finished, m.requests,
        "latency corruption never loses requests"
    );
    assert!(
        m.ttft.nonfinite + m.e2e.nonfinite > 0,
        "at 500‰ some percentile samples must be flagged non-finite"
    );
    assert!(m.e2e.p99_ms.is_finite());
}

#[test]
fn chaos_clock_skew() {
    let plan = FaultPlan {
        clock_skew: Some(8.0),
        ..FaultPlan::quiet(0xD0)
    };
    let m = run_chaos("clock-skew", plan, None, 64);
    assert_eq!(
        m.finished, m.requests,
        "a jittery clock never loses requests"
    );
    assert!(m.makespan_ms.is_finite() && m.makespan_ms >= 0.0);
}

#[test]
fn chaos_deadlines_under_pressure() {
    // Tight SLO against a tight pool: shedding must be graceful and
    // goodput must only count requests that made their deadline.
    let plan = FaultPlan::quiet(0xE0);
    let m = run_chaos("deadline-pressure", plan, Some(2.0), 4);
    assert!(m.drops.deadline > 0, "a 2 ms SLO under pressure must shed");
    assert!(m.finished > 0, "early arrivals still make it");
}

#[test]
fn chaos_everything_at_once() {
    for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
        let m = run_chaos("kitchen-sink", FaultPlan::chaos(seed), Some(50.0), 8);
        // Under full chaos the only hard guarantees are the contract
        // run_chaos already asserted; spot-check the books balance.
        assert_eq!(
            m.drops.infeasible + m.drops.deadline + m.drops.corrupt,
            m.dropped as u64,
            "seed {seed}"
        );
    }
}

#[test]
fn chaos_faulted_runs_are_deterministic_in_seed() {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let plan = FaultPlan::chaos(0x5EED);
    let mut wl = workload(24, plan.seed, Some(40.0));
    plan.corrupt_workload(&mut wl);
    let mut cfg = EngineConfig::for_platform(&accel, &model, plan.seed);
    cfg.kv_budget = Bytes::from_mib(8);
    let a = serve_faulted(&accel, &model, &wl, &cfg, 1, Some(plan)).unwrap();
    let b = serve_faulted(&accel, &model, &wl, &cfg, 1, Some(plan)).unwrap();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "chaos is seeded: same plan, same run"
    );
}

#[test]
fn chaos_distributed_conserves_requests() {
    // The conservation audit on the *distributed* path: under full
    // chaos, at several cluster sizes, every offered request must be
    // finished or dropped exactly once, with per-reason counters that
    // add up — same contract the single-chip suite holds.
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    for chips in [1usize, 2, 4] {
        for seed in [0x11u64, 0x22, 0x33] {
            let plan = FaultPlan::chaos(seed);
            let mut wl = workload(32, seed, Some(50.0));
            plan.corrupt_workload(&mut wl);
            let mut cfg = EngineConfig::for_platform(&accel, &model, seed);
            cfg.kv_budget = Bytes::from_mib(8);
            cfg.max_batch = 6;
            let m = serve_faulted(&accel, &model, &wl, &cfg, chips, Some(plan))
                .unwrap_or_else(|e| panic!("chips={chips} seed={seed}: must terminate, got {e}"));
            let s = &m.serve;
            assert_eq!(s.requests, wl.len(), "chips={chips} seed={seed}: offered");
            assert_eq!(
                s.finished + s.dropped,
                s.requests,
                "chips={chips} seed={seed}: finished + dropped == offered"
            );
            assert_eq!(
                s.drops.total(),
                s.dropped as u64,
                "chips={chips} seed={seed}: reasons cover every drop"
            );
            assert_eq!(
                s.drops.infeasible + s.drops.deadline + s.drops.corrupt,
                s.drops.total(),
                "chips={chips} seed={seed}: no unaccounted reason"
            );
            // Per-tenant books must agree with the global books.
            let t_fin: usize = s.tenants.iter().map(|t| t.finished).sum();
            let t_drop: usize = s.tenants.iter().map(|t| t.dropped).sum();
            assert_eq!(t_fin, s.finished, "chips={chips} seed={seed}");
            assert_eq!(t_drop, s.dropped, "chips={chips} seed={seed}");
        }
    }
}

#[test]
fn chaos_distributed_elastic_conserves_requests() {
    // Chaos plus mid-run resizes: scale-down confiscation preempts and
    // re-queues, but must never lose or double-count a request.
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    for seed in [0x44u64, 0x55] {
        let plan = FaultPlan::chaos(seed);
        let mut wl = workload(32, seed, Some(50.0));
        plan.corrupt_workload(&mut wl);
        let mut cfg = EngineConfig::for_platform(&accel, &model, seed);
        cfg.kv_budget = Bytes::from_mib(8);
        cfg.max_batch = 6;
        cfg.window_ms = Some(5.0);
        let dist = flat_serve::DistServeConfig::new(2, flat_dist::Topology::Ring);
        let scale = flat_serve::ScalePlan::new(&[(2.0, 4), (20.0, 1)]);
        let mut sink = flat_telemetry::NoopSink;
        let m = flat_serve::serve_dist_elastic(
            &accel,
            &model,
            &wl,
            &cfg,
            &dist,
            &scale,
            Some(plan),
            &mut sink,
        )
        .unwrap_or_else(|e| panic!("seed={seed}: must terminate, got {e}"));
        let s = &m.serve;
        assert_eq!(s.finished + s.dropped, s.requests, "seed={seed}");
        assert_eq!(s.drops.total(), s.dropped as u64, "seed={seed}");
        let b = flat_serve::serve_dist_elastic(
            &accel,
            &model,
            &wl,
            &cfg,
            &dist,
            &scale,
            Some(plan),
            &mut sink,
        )
        .unwrap();
        assert_eq!(m.to_json(), b.to_json(), "seed={seed}: deterministic");
    }
}

#[test]
fn tied_arrivals_and_deadlines_break_deterministically() {
    // Several requests with *identical* arrival instants and deadlines:
    // admission order and preemption-victim choice must fall back to
    // stable tie-breaks (tenant, then id) — never map/hash order — so
    // the same seed always produces the same run.
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let wl: Vec<flat_serve::RequestSpec> = (0..8)
        .map(|id| {
            let mut r = flat_serve::RequestSpec::new(id, 0.0, 40, 8);
            r.deadline_ms = Some(60.0);
            r.tenant = (id % 2) as u32;
            r
        })
        .collect();
    let mut cfg = EngineConfig::for_platform(&accel, &model, 7);
    // Tight enough that admission is rationed and eviction happens, so
    // the tie-break actually decides who runs and who is preempted.
    cfg.kv_budget = Bytes::from_mib(4);
    cfg.max_batch = 3;
    let a = flat_serve::serve(&accel, &model, &wl, &cfg).unwrap();
    let b = flat_serve::serve(&accel, &model, &wl, &cfg).unwrap();
    assert_eq!(a.to_json(), b.to_json(), "tied requests, stable order");
    assert_eq!(a.finished + a.dropped, a.requests);
    // The same stream reversed must converge to the same books: the
    // scheduler keys on (arrival, tenant, id), not on input position.
    let mut rev = wl.clone();
    rev.reverse();
    let c = flat_serve::serve(&accel, &model, &rev, &cfg).unwrap();
    assert_eq!(
        a.to_json(),
        c.to_json(),
        "input order must not leak into tie-breaking"
    );
}

#[test]
fn faults_disabled_matches_plain_serve() {
    let model = Model::by_name("bert").unwrap();
    let accel = Accelerator::edge();
    let wl = workload(16, 9, None);
    let cfg = EngineConfig::for_platform(&accel, &model, 9);
    let plain = flat_serve::serve(&accel, &model, &wl, &cfg).unwrap();
    let quiet = serve_faulted(&accel, &model, &wl, &cfg, 1, Some(FaultPlan::quiet(123))).unwrap();
    let none = serve_faulted(&accel, &model, &wl, &cfg, 1, None).unwrap();
    assert_eq!(plain.to_json(), none.serve.to_json());
    assert_eq!(
        plain.to_json(),
        quiet.serve.to_json(),
        "a quiet plan must not perturb the run"
    );
}
