//! Property tests on the cost model: invariants that must hold for every
//! workload, dataflow, and accelerator configuration.

use flat_arch::Accelerator;
use flat_core::{
    fused_footprint, BlockDataflow, CostModel, FusedDataflow, Granularity, LaExecution,
    ModelOptions, OperatorDataflow, Stationarity,
};
use flat_tensor::Bytes;
use flat_workloads::{AttentionBlock, AttentionConfig};
use proptest::prelude::*;

/// Random attention configurations in the realistic range (powers of two
/// keep the runtime reasonable; the model accepts anything).
fn configs() -> impl Strategy<Value = AttentionConfig> {
    (
        1u64..=8,                                      // batch (scaled down for speed)
        prop::sample::select(vec![1u64, 2, 4, 8, 16]), // heads
        prop::sample::select(vec![64u64, 128, 256, 512, 1024, 4096]), // seq
        prop::sample::select(vec![256u64, 512, 1024, 2048]), // hidden
    )
        .prop_filter("heads divide hidden", |(_, h, _, d)| {
            d % h == 0 && d / h >= 8
        })
        .prop_map(|(b, h, n, d)| AttentionConfig::self_attention(b, h, n, d, 4 * d))
}

fn granularities() -> impl Strategy<Value = Granularity> {
    prop_oneof![
        Just(Granularity::BatchMultiHead),
        Just(Granularity::Batch),
        Just(Granularity::Head),
        (1u64..512).prop_map(Granularity::Row),
        (1u64..4, 1u64..8, 1u64..256).prop_map(|(b, h, r)| Granularity::Composite {
            batch_t: b,
            head_t: h,
            rows: r
        }),
    ]
}

fn accelerators() -> impl Strategy<Value = Accelerator> {
    (
        prop::sample::select(vec![8u64, 16, 32, 64]),
        prop::sample::select(vec![64u64, 256, 1024, 8192]), // sg KiB
        1.0e10f64..1.0e12,                                  // offchip B/s
    )
        .prop_map(|(pe, sg, bw)| {
            Accelerator::builder("prop")
                .pe(pe, pe)
                .sg(Bytes::from_kib(sg))
                .memory(flat_arch::MemorySystem::new(bw * 20.0, bw))
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Utilization is always in (0, 1] and runtime never beats ideal.
    #[test]
    fn util_bounded(cfg in configs(), g in granularities(), accel in accelerators()) {
        let block = AttentionBlock::new(cfg);
        let cm = CostModel::new(&accel);
        let r = cm.fused_la_cost(&block, &FusedDataflow::new(g));
        prop_assert!(r.cycles >= r.ideal_cycles - 1e-6, "{} < {}", r.cycles, r.ideal_cycles);
        prop_assert!(r.util() > 0.0 && r.util() <= 1.0);
    }

    /// The fused operator executes exactly the algorithmic MAC count —
    /// 2·B·N²·D — regardless of granularity, enables, or hardware.
    #[test]
    fn fused_macs_invariant(cfg in configs(), g in granularities(), accel in accelerators()) {
        let block = AttentionBlock::new(cfg);
        let r = CostModel::new(&accel).fused_la_cost(&block, &FusedDataflow::new(g));
        prop_assert_eq!(
            r.activity.macs,
            2 * cfg.batch * cfg.seq_q * cfg.seq_kv * cfg.hidden
        );
    }

    /// Everything that crosses the off-chip link also crosses the on-chip
    /// interconnect (DRAM data passes through the SG).
    #[test]
    fn onchip_at_least_offchip(cfg in configs(), g in granularities(), accel in accelerators()) {
        let block = AttentionBlock::new(cfg);
        let cm = CostModel::new(&accel);
        for df in [
            BlockDataflow::flat(g),
            BlockDataflow::base(),
        ] {
            let r = cm.la_cost(&block, &df.la);
            prop_assert!(r.traffic.onchip >= r.traffic.offchip, "{}", df.label());
        }
    }

    /// More off-chip bandwidth never increases a fixed dataflow's runtime.
    #[test]
    fn bandwidth_monotone(cfg in configs(), g in granularities()) {
        let block = AttentionBlock::new(cfg);
        let accel = Accelerator::edge();
        let mut last = f64::INFINITY;
        for bw in [25.0e9, 100.0e9, 400.0e9, 1.6e12] {
            let a = accel.with_offchip_bw(bw);
            let r = CostModel::new(&a).fused_la_cost(&block, &FusedDataflow::new(g));
            prop_assert!(r.cycles <= last * (1.0 + 1e-9), "bw {bw}: {} > {last}", r.cycles);
            last = r.cycles;
        }
    }

    /// Table 2's scaling law, generalized: the R-Gran footprint is
    /// monotone in R, and coarse granularities dominate fine ones.
    #[test]
    fn footprint_monotone_in_granularity(cfg in configs(), r in 1u64..256) {
        let fp = |g| fused_footprint(&FusedDataflow::new(g), &cfg);
        prop_assert!(fp(Granularity::Row(r)) <= fp(Granularity::Row(2 * r)));
        prop_assert!(fp(Granularity::Row(r)) <= fp(Granularity::Head));
        prop_assert!(fp(Granularity::Head) <= fp(Granularity::Batch));
        prop_assert!(fp(Granularity::Batch) <= fp(Granularity::BatchMultiHead));
    }

    /// A streamed baseline moves at least the compulsory traffic: both
    /// inputs in, output out, intermediate round trip.
    #[test]
    fn base_traffic_at_least_compulsory(cfg in configs()) {
        let block = AttentionBlock::new(cfg);
        let accel = Accelerator::edge();
        let r = CostModel::new(&accel).la_cost(&block, &BlockDataflow::base().la);
        let e = cfg.dtype.size_bytes();
        let io = (2 * cfg.batch * cfg.heads * (cfg.seq_q + cfg.seq_kv) * cfg.dk()
            + 2 * cfg.logit_elements())
            * e;
        prop_assert!(r.traffic.offchip.as_u64() >= io, "{} < {io}", r.traffic.offchip);
    }

    /// Schedules are the cost model's own decomposition, fused and
    /// sequential, with and without double buffering: the makespan
    /// equals la_cost cycles, phases tile the timeline without gaps, and
    /// each phase's bound is the busiest lane of that phase's demands.
    #[test]
    fn schedule_consistency(
        cfg in configs(),
        g in granularities(),
        fused in any::<bool>(),
        db in any::<bool>(),
    ) {
        let block = AttentionBlock::new(cfg);
        let accel = Accelerator::edge();
        let opts = ModelOptions { double_buffered: db, ..Default::default() };
        let cm = CostModel::with_options(&accel, opts);
        let df = if fused {
            BlockDataflow::flat(g)
        } else if g.requires_fusion() {
            BlockDataflow::base()
        } else {
            BlockDataflow::base_staged(g)
        };
        let sched = cm.la_schedule(&block, &df);
        let cost = cm.la_cost(&block, &df.la);
        prop_assert!((sched.makespan() - cost.cycles).abs() <= 1e-6 * cost.cycles.max(1.0));
        let mut t = 0.0;
        for p in &sched.phases {
            prop_assert!((p.start - t).abs() < 1e-6);
            t = p.end;
        }
        // The bound names a lane no other lane of the phase outruns.
        let binds = |lanes: &[(&str, f64)], bound: &str| {
            let max = lanes.iter().map(|l| l.1).fold(f64::NEG_INFINITY, f64::max);
            lanes.iter().any(|&(name, busy)| name == bound && busy == max)
        };
        match &df.la {
            LaExecution::Fused(f) => {
                let d = cm.fused_lane_demands(&block, f);
                let lanes = d.iteration_lanes();
                for p in &sched.phases {
                    if p.label.starts_with("warmup") {
                        prop_assert_eq!(p.bound, "dma");
                    } else {
                        prop_assert!(binds(&lanes, p.bound), "{} bound by {}", p.label, p.bound);
                    }
                }
            }
            LaExecution::Sequential { logit, attend } => {
                let d = cm.sequential_lane_demands(&block, logit, attend);
                prop_assert_eq!(sched.phases.len(), if db { 2 } else { 3 });
                for p in &sched.phases {
                    let group = match p.label.as_str() {
                        "L (logit)" => vec![&d.logit],
                        "softmax (whole tensor)" => vec![&d.softmax],
                        "A (attend)" => vec![&d.attend],
                        _ => vec![&d.softmax, &d.attend],
                    };
                    prop_assert!(binds(&d.lanes(&group), p.bound), "{} bound by {}", p.label, p.bound);
                }
            }
        }
    }

    /// Sequential L-A: disabling double buffering never speeds things up.
    #[test]
    fn double_buffering_never_hurts(cfg in configs(), accel in accelerators()) {
        let block = AttentionBlock::new(cfg);
        let df = OperatorDataflow::baseline(Stationarity::Weight);
        let with = CostModel::new(&accel).sequential_la_cost(&block, &df, &df);
        let without = CostModel::with_options(
            &accel,
            ModelOptions { double_buffered: false, overlap_softmax: false, ..Default::default() },
        )
        .sequential_la_cost(&block, &df, &df);
        prop_assert!(with.cycles <= without.cycles * (1.0 + 1e-9));
    }

    /// Energy is monotone in DRAM traffic for matched compute: of two
    /// fused runs with identical MACs, the one moving more off-chip bytes
    /// costs at least as much DRAM energy.
    #[test]
    fn energy_tracks_dram_traffic(cfg in configs(), g1 in granularities(), g2 in granularities()) {
        let block = AttentionBlock::new(cfg);
        let accel = Accelerator::edge();
        let cm = CostModel::new(&accel);
        let a = cm.fused_la_cost(&block, &FusedDataflow::new(g1));
        let b = cm.fused_la_cost(&block, &FusedDataflow::new(g2));
        if a.traffic.offchip >= b.traffic.offchip {
            prop_assert!(a.energy.dram_pj >= b.energy.dram_pj - 1e-6);
        }
    }

    /// At real sequence lengths some fused point beats the streamed
    /// baseline; at tiny ones fusion's per-tile overhead may lose — but
    /// never catastrophically (and the Full DSE space contains the
    /// sequential points, so FLAT-opt ≥ Base-opt regardless — see the
    /// flat-dse tests).
    #[test]
    fn some_fused_point_matches_base(cfg in configs()) {
        let block = AttentionBlock::new(cfg);
        let accel = Accelerator::edge();
        let cm = CostModel::new(&accel);
        let base = cm.la_cost(&block, &BlockDataflow::base().la);
        let best_fused = [
            Granularity::Row(16.min(cfg.seq_q)),
            Granularity::Row(64.min(cfg.seq_q)),
            Granularity::Head,
        ]
        .into_iter()
        .map(|g| cm.fused_la_cost(&block, &FusedDataflow::new(g)).cycles)
        .fold(f64::INFINITY, f64::min);
        // The tight bound needs a workload big enough to amortize the
        // per-tile overhead: real sequence lengths and more than a couple
        // of (batch, head) groups.
        let slack =
            if cfg.seq_q >= 512 && cfg.batch * cfg.heads >= 4 { 1.05 } else { 2.5 };
        prop_assert!(
            best_fused <= base.cycles * slack,
            "fused {best_fused} vs base {} (seq {})",
            base.cycles,
            cfg.seq_q
        );
    }
}

/// Deterministic regression: the fused cost at a pinned configuration
/// stays stable (guards against silent model drift).
#[test]
fn pinned_point_regression() {
    let accel = Accelerator::edge();
    let block = flat_workloads::Model::bert().block(64, 512);
    let r = CostModel::new(&accel).fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(64)));
    // Ideal cycles are exact by construction.
    assert_eq!(r.ideal_cycles, 2.0 * 64.0 * 512.0 * 512.0 * 768.0 / 1024.0);
    // Utilization band: recalibrate deliberately, not accidentally.
    assert!(r.util() > 0.93 && r.util() <= 1.0, "util = {}", r.util());
}
