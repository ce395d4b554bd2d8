//! Property tests for the design-space exploration.

use flat_arch::Accelerator;
use flat_core::{CostModel, CostReport, LaExecution, ModelOptions};
use flat_dse::{la_points, pareto_frontier, Dse, Objective, SpaceKind};
use flat_telemetry::NoopSink;
use flat_tensor::Bytes;
use flat_workloads::{AttentionBlock, Model};
use proptest::prelude::*;

fn accels() -> impl Strategy<Value = Accelerator> {
    (
        prop::sample::select(vec![16u64, 32, 64]),
        prop::sample::select(vec![128u64, 512, 4096]),
    )
        .prop_map(|(pe, sg)| {
            Accelerator::builder("prop")
                .pe(pe, pe)
                .sg(Bytes::from_kib(sg))
                .build()
        })
}

fn spaces() -> impl Strategy<Value = SpaceKind> {
    prop::sample::select(vec![
        SpaceKind::BaseOnly,
        SpaceKind::SequentialMGran,
        SpaceKind::Sequential,
        SpaceKind::FusedMGran,
        SpaceKind::FusedRow(64),
        SpaceKind::Fused,
        SpaceKind::Full,
    ])
}

fn objectives() -> impl Strategy<Value = Objective> {
    prop::sample::select(vec![
        Objective::MaxUtil,
        Objective::MinEnergy,
        Objective::MinEdp,
        Objective::MinFootprint,
        Objective::UtilPerFootprint,
    ])
}

/// The reference search: price every candidate serially and keep
/// `Iterator::max_by`'s winner (the last of any ties).
fn serial_best(
    cm: &CostModel,
    block: &AttentionBlock,
    space: SpaceKind,
    objective: Objective,
) -> (LaExecution, CostReport) {
    la_points(space, block.config().seq_q)
        .into_iter()
        .map(|la| (la, cm.la_cost(block, &la)))
        .max_by(|a, b| {
            objective
                .score(&a.1)
                .partial_cmp(&objective.score(&b.1))
                .unwrap()
        })
        .unwrap()
}

/// Every field bit-equal: `{:?}` prints each `f64` in its shortest
/// round-trip form, so distinct bit patterns print differently.
fn bits(report: &CostReport) -> String {
    format!("{report:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `best_la`, `best_la_traced` and every `explore_precision` point
    /// return exactly the serial `Iterator::max_by` winner of their
    /// space, ties included.
    #[test]
    fn searches_return_the_serial_max(
        accel in accels(),
        seq in prop::sample::select(vec![256u64, 512, 2048]),
        space in spaces(),
        objective in objectives(),
    ) {
        let block = Model::bert().block(8, seq);
        let dse = Dse::new(&accel, &block);
        let (la, report) = serial_best(&CostModel::new(&accel), &block, space, objective);
        let best = dse.best_la(space, objective);
        prop_assert_eq!(best.la, la);
        prop_assert_eq!(bits(&best.report), bits(&report));
        let traced = dse.best_la_traced(space, objective, &mut NoopSink);
        prop_assert_eq!(traced.la, la);
        prop_assert_eq!(bits(&traced.report), bits(&report));
        for p in dse.explore_precision(space, objective) {
            let typed = AttentionBlock::new(block.config().with_dtype(p.choice.dtype));
            let cm = CostModel::with_options(
                &accel,
                ModelOptions {
                    softmax: p.choice.softmax,
                    ..Default::default()
                },
            );
            let (la, report) = serial_best(&cm, &typed, space, objective);
            prop_assert_eq!(p.la, la, "{}", p.choice.label());
            prop_assert_eq!(bits(&p.report), bits(&report), "{}", p.choice.label());
        }
    }

    /// Space nesting: the Full space's optimum dominates every restricted
    /// space's optimum, for every objective.
    #[test]
    fn full_space_dominates(accel in accels(), seq in prop::sample::select(vec![256u64, 512, 2048])) {
        let block = Model::bert().block(8, seq);
        let dse = Dse::new(&accel, &block);
        for objective in [Objective::MaxUtil, Objective::MinEnergy, Objective::MinEdp] {
            let full = objective.score(&dse.best_la(SpaceKind::Full, objective).report);
            for space in [SpaceKind::BaseOnly, SpaceKind::SequentialMGran, SpaceKind::Sequential] {
                let restricted = objective.score(&dse.best_la(space, objective).report);
                prop_assert!(
                    full >= restricted - 1e-9,
                    "{objective}: full {full} < {space:?} {restricted}"
                );
            }
        }
    }

    /// The Pareto frontier is a subset of the points, strictly increasing
    /// in both axes, and contains the global utilization maximum.
    #[test]
    fn pareto_laws(accel in accels(), seq in prop::sample::select(vec![256u64, 1024])) {
        let block = Model::t5_small().block(8, seq);
        let points = Dse::new(&accel, &block).explore_la(SpaceKind::Full);
        let frontier = pareto_frontier(&points);
        prop_assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            prop_assert!(w[0].report.footprint <= w[1].report.footprint);
            prop_assert!(w[0].report.util() < w[1].report.util());
        }
        let best = points.iter().map(|p| p.report.util()).fold(0.0, f64::max);
        prop_assert!((frontier.last().unwrap().report.util() - best).abs() < 1e-12);
    }

    /// Sampling never beats exhaustive search, and equals it when the
    /// sample covers the space.
    #[test]
    fn sampling_bounds(seed in any::<u64>(), samples in 1usize..40) {
        let accel = Accelerator::edge();
        let block = Model::bert().block(8, 256);
        let dse = Dse::new(&accel, &block);
        let full = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
        let sampled = dse.best_la_sampled(SpaceKind::Sequential, Objective::MaxUtil, samples, seed);
        prop_assert!(sampled.report.util() <= full.report.util() + 1e-12);
        let space_size = la_points(SpaceKind::Sequential, 256).len();
        let all = dse.best_la_sampled(SpaceKind::Sequential, Objective::MaxUtil, space_size, seed);
        prop_assert!((all.report.util() - full.report.util()).abs() < 1e-12);
    }

    /// Every enumerated point evaluates to a sane report.
    #[test]
    fn every_point_is_sane(accel in accels()) {
        let block = Model::bert().block(4, 256);
        for p in Dse::new(&accel, &block).explore_la(SpaceKind::Full) {
            prop_assert!(p.report.util() > 0.0 && p.report.util() <= 1.0);
            prop_assert!(p.report.cycles.is_finite());
            prop_assert!(p.report.traffic.offchip.as_u64() > 0);
        }
    }
}
