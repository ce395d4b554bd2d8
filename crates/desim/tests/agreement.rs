//! The cross-validation contract between the event backend and the
//! analytical cost model.
//!
//! Uncontended configurations — staging buffers ≥ 2, the double
//! buffering the closed form assumes — must agree within 5 % (tier-1).
//! Contended configurations must *diverge measurably*: that the event
//! backend can catch the analytical model's optimism is the reason the
//! backend exists (see EXPERIMENTS.md, "Model validation").

use flat_arch::Accelerator;
use flat_core::{
    CostModel, FusedDataflow, Granularity, ModelOptions, OperatorDataflow, Stationarity,
};
use flat_desim::{simulate_fused_event, simulate_sequential_event, EventOptions, EventReport};
use flat_workloads::Model;

/// Relative divergence of the event backend from the analytical pricing.
fn fused_divergence(accel: &Accelerator, seq: u64, g: Granularity, opts: EventOptions) -> f64 {
    let block = Model::bert().block(64, seq);
    let analytical = CostModel::with_options(accel, opts.model)
        .fused_la_cost(&block, &FusedDataflow::new(g))
        .cycles;
    let event = simulate_fused_event(accel, &block, &FusedDataflow::new(g), opts)
        .expect("wiring is sound")
        .cycles;
    (event - analytical) / analytical
}

/// Tier-1: every uncontended fused configuration in the validation grid
/// agrees within the 5 % tolerance `flat sim --engine both` defaults to.
#[test]
fn uncontended_fused_grid_agrees_within_tolerance() {
    for accel in [Accelerator::edge(), Accelerator::cloud()] {
        for seq in [512u64, 1024, 4096] {
            for g in [
                Granularity::Row(64),
                Granularity::Row(256),
                Granularity::Head,
            ] {
                let div = fused_divergence(&accel, seq, g, EventOptions::default());
                assert!(
                    div.abs() <= 0.05,
                    "{} seq={seq} {g:?}: divergence {:.3}% exceeds 5%",
                    accel.name,
                    div * 100.0
                );
            }
        }
    }
}

/// The sequential (baseline) pipeline also validates, at the same
/// tolerance: phase fills are small against 64-slice phases.
#[test]
fn sequential_baseline_agrees_within_tolerance() {
    let df = OperatorDataflow::baseline(Stationarity::Weight);
    for accel in [Accelerator::edge(), Accelerator::cloud()] {
        for seq in [512u64, 4096] {
            let block = Model::bert().block(64, seq);
            let analytical = CostModel::new(&accel)
                .sequential_la_cost(&block, &df, &df)
                .cycles;
            let event =
                simulate_sequential_event(&accel, &block, &df, &df, EventOptions::default())
                    .expect("wiring is sound")
                    .cycles;
            let div = (event - analytical) / analytical;
            assert!(
                div.abs() <= 0.05,
                "{} seq={seq}: divergence {:.3}%",
                accel.name,
                div * 100.0
            );
        }
    }
}

/// Without double buffering both backends serialize the same way; the
/// agreement is essentially exact.
#[test]
fn serialized_machine_agrees_tightly() {
    let model = ModelOptions {
        double_buffered: false,
        ..Default::default()
    };
    let opts = EventOptions {
        model,
        ..Default::default()
    };
    let div = fused_divergence(&Accelerator::edge(), 4096, Granularity::Row(64), opts);
    assert!(div.abs() < 1e-3, "serial divergence {:.4}%", div * 100.0);
}

/// The contended fixture: one staging buffer under double-buffered
/// pricing. The event backend serializes every fetch behind the compute
/// it can no longer hide under; the closed form keeps taking the `max`.
/// The divergence must be large enough that a validation sweep cannot
/// miss it.
#[test]
fn single_staging_buffer_diverges_measurably() {
    let opts = EventOptions {
        buffers: 1,
        ..Default::default()
    };
    let div = fused_divergence(&Accelerator::edge(), 4096, Granularity::Row(64), opts);
    assert!(
        div > 0.10,
        "contended config must diverge >10%, got {:.3}%",
        div * 100.0
    );
}

/// The other documented divergence: a single-tile pass (BatchMultiHead
/// granularity runs the whole walk as one iteration) has no steady state
/// for the fill transient to amortize into, so the analytical overlap
/// assumption fails wholesale.
#[test]
fn single_tile_pass_exposes_the_fill_transient() {
    let div = fused_divergence(
        &Accelerator::edge(),
        4096,
        Granularity::BatchMultiHead,
        EventOptions::default(),
    );
    assert!(
        div > 0.10,
        "iterations=1 must expose the transient, got {:.3}%",
        div * 100.0
    );
}

/// Steady-state extrapolation reproduces the full run: capping at 4096
/// iterations and extending by the measured period lands within 0.5 %
/// of simulating all 49 k iterations.
#[test]
fn extrapolation_matches_the_full_run() {
    let accel = Accelerator::edge();
    let block = Model::bert().block(64, 4096);
    let df = FusedDataflow::new(Granularity::Row(64));
    let capped = simulate_fused_event(&accel, &block, &df, EventOptions::default())
        .expect("wiring is sound");
    assert!(capped.extrapolated);
    assert_eq!(capped.simulated_iterations, 4096);
    let full = simulate_fused_event(
        &accel,
        &block,
        &df,
        EventOptions {
            max_iterations: u64::MAX,
            ..Default::default()
        },
    )
    .expect("wiring is sound");
    assert!(!full.extrapolated);
    assert_eq!(full.simulated_iterations, full.total_iterations);
    let err = (capped.cycles - full.cycles).abs() / full.cycles;
    assert!(err < 0.005, "extrapolation error {:.4}%", err * 100.0);
}

/// Two identical runs export byte-identical Chrome traces — the
/// determinism contract, end to end through the telemetry sort.
#[test]
fn event_traces_are_byte_deterministic() {
    let run = || {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let df = FusedDataflow::new(Granularity::Head);
        simulate_fused_event(
            &accel,
            &block,
            &df,
            EventOptions {
                record_trace: true,
                max_iterations: 512,
                ..Default::default()
            },
        )
        .expect("wiring is sound")
        .to_chrome_trace()
    };
    let a = run();
    let b = run();
    assert!(a == b, "traces must be byte-identical");
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.contains("\"ph\":\"X\"") && a.contains("\"ph\":\"C\""));
}

/// Asserts the event report runs exactly the priced lanes, in the same
/// order, each busy within 1 % of the closed form's `lane_busy()`, with
/// every occupancy in [0, 1].
fn assert_lanes_match(report: &EventReport, priced: &[(&str, f64)], what: &str) {
    let names: Vec<&str> = report.lanes.iter().map(|l| l.name.as_str()).collect();
    let priced_names: Vec<&str> = priced.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, priced_names, "{what}: lane set");
    for &(name, busy) in priced {
        let rel = (report.lane_busy(name) - busy).abs() / busy.max(1.0);
        assert!(
            rel < 0.01,
            "{what}: {name} busy time off by {:.3}%",
            rel * 100.0
        );
    }
    for lane in &report.lanes {
        assert!(
            (0.0..=1.0).contains(&lane.occupancy),
            "{what}: {} occupancy {}",
            lane.name,
            lane.occupancy
        );
    }
}

/// The report's lane accounting is coherent: on every lane the event
/// backend's busy time matches the closed form's per-lane demand, for
/// uncontended fused configs and for the sequential baseline.
#[test]
fn lane_accounting_is_coherent() {
    let base = OperatorDataflow::baseline(Stationarity::Weight);
    for accel in [Accelerator::edge(), Accelerator::cloud()] {
        let cm = CostModel::new(&accel);
        for seq in [512u64, 4096] {
            let block = Model::bert().block(64, seq);
            for g in [
                Granularity::Row(64),
                Granularity::Row(256),
                Granularity::Head,
            ] {
                let df = FusedDataflow::new(g);
                let report = simulate_fused_event(&accel, &block, &df, EventOptions::default())
                    .expect("wiring is sound");
                let priced = cm.fused_lane_demands(&block, &df).lane_busy();
                assert_lanes_match(&report, &priced, &format!("{} seq={seq} {g:?}", accel.name));
                assert!(report.buffers.peak_in_flight <= report.buffers.capacity);
                assert_eq!(report.buffers.capacity, 2);
            }
            let report =
                simulate_sequential_event(&accel, &block, &base, &base, EventOptions::default())
                    .expect("wiring is sound");
            let priced = cm.sequential_lane_demands(&block, &base, &base).lane_busy();
            assert_lanes_match(&report, &priced, &format!("{} seq={seq} base", accel.name));
        }
    }
}

/// More staging buffers never slow the pipeline: event cycles do not
/// increase as the credit pool grows 1 → 2 → 4, so a single buffer
/// exposes the softmax and fetch that two can hide.
#[test]
fn more_staging_buffers_never_slow_the_pipeline() {
    let accel = Accelerator::edge();
    let block = Model::bert().block(64, 512);
    let df = FusedDataflow::new(Granularity::Row(16));
    let cycles: Vec<f64> = [1u32, 2, 4]
        .into_iter()
        .map(|buffers| {
            let opts = EventOptions {
                buffers,
                ..Default::default()
            };
            simulate_fused_event(&accel, &block, &df, opts)
                .expect("wiring is sound")
                .cycles
        })
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[1] <= w[0]),
        "cycles for buffers 1, 2, 4: {cycles:?}"
    );
}

/// The event backend ranks the dataflows the way the closed form does:
/// the sequential baseline is slower than FLAT-R64 wherever the logit
/// tensor dwarfs the scratchpad.
#[test]
fn event_base_is_slower_than_flat() {
    let accel = Accelerator::edge();
    let base = OperatorDataflow::baseline(Stationarity::Weight);
    let flat = FusedDataflow::new(Granularity::Row(64));
    for seq in [512u64, 1024, 2048] {
        for batch in [16u64, 64] {
            let block = Model::bert().block(batch, seq);
            let opts = EventOptions::default();
            let base_cycles = simulate_sequential_event(&accel, &block, &base, &base, opts)
                .expect("wiring is sound")
                .cycles;
            let flat_cycles = simulate_fused_event(&accel, &block, &flat, opts)
                .expect("wiring is sound")
                .cycles;
            assert!(
                base_cycles > flat_cycles,
                "seq={seq} batch={batch}: base {base_cycles} <= flat {flat_cycles}"
            );
        }
    }
}

/// At long sequences on the cloud platform the event backend measures
/// FLAT-R256 more than 2x faster than the sequential baseline.
#[test]
fn event_flat_speedup_exceeds_two_at_long_seq() {
    let accel = Accelerator::cloud();
    let block = Model::xlm().block(64, 16_384);
    let base = OperatorDataflow::baseline(Stationarity::Weight);
    let opts = EventOptions::default();
    let base_cycles = simulate_sequential_event(&accel, &block, &base, &base, opts)
        .expect("wiring is sound")
        .cycles;
    let flat_cycles = simulate_fused_event(
        &accel,
        &block,
        &FusedDataflow::new(Granularity::Row(256)),
        opts,
    )
    .expect("wiring is sound")
    .cycles;
    let speedup = base_cycles / flat_cycles;
    assert!(speedup > 2.0, "base/FLAT-R256 speedup {speedup:.3}");
}
