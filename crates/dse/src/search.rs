//! Exhaustive (parallel) search over the dataflow design space.

use crate::{la_points, others_points, Objective, SpaceKind};
use flat_core::{BlockCost, BlockDataflow, CostModel, CostReport, LaExecution, OperatorDataflow};
use flat_telemetry::{Event, TraceSink};
use flat_workloads::{AttentionBlock, OpCategory, Scope};
use serde::{Deserialize, Serialize};

/// One evaluated design point: a dataflow and its cost at the searched
/// scope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The L-A execution this point uses.
    pub la: LaExecution,
    /// Cost of the L-A pair under it.
    pub report: CostReport,
}

/// The search driver: a cost model plus a workload block.
///
/// # Example
///
/// ```
/// use flat_arch::Accelerator;
/// use flat_dse::{Dse, Objective, SpaceKind};
/// use flat_workloads::Model;
///
/// let accel = Accelerator::edge();
/// let block = Model::bert().block(64, 512);
/// let dse = Dse::new(&accel, &block);
/// let base_opt = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
/// let flat_opt = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
/// // FLAT-opt searches a superset of Base-opt's space: it can never lose.
/// assert!(flat_opt.report.util() >= base_opt.report.util());
/// ```
#[derive(Debug)]
pub struct Dse<'a> {
    pub(crate) accel: &'a flat_arch::Accelerator,
    pub(crate) block: &'a AttentionBlock,
}

impl<'a> Dse<'a> {
    /// Creates a search driver for a block on an accelerator.
    #[must_use]
    pub fn new(accel: &'a flat_arch::Accelerator, block: &'a AttentionBlock) -> Self {
        Dse { accel, block }
    }

    /// Evaluates every L-A point in `space` (in parallel, on the shared
    /// pool) and returns them all — the raw material of the Figure 10
    /// design-space scatter.
    #[must_use]
    pub fn explore_la(&self, space: SpaceKind) -> Vec<DesignPoint> {
        use rayon::prelude::*;
        let points = la_points(space, self.block.config().seq_q);
        let cm = CostModel::new(self.accel);
        points
            .par_iter()
            .map(|&la| DesignPoint {
                la,
                report: cm.la_cost(self.block, &la),
            })
            .collect()
    }

    /// Best L-A point in `space` under `objective`.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty (it never is for the provided
    /// [`SpaceKind`]s).
    #[must_use]
    pub fn best_la(&self, space: SpaceKind, objective: Objective) -> DesignPoint {
        let points = la_points(space, self.block.config().seq_q);
        best_priced(&CostModel::new(self.accel), self.block, &points, objective)
    }

    /// [`best_la`](Self::best_la) with search-progress tracing:
    /// candidates are still priced in parallel on the shared pool, then
    /// the events are *replayed* serially in candidate-enumeration order
    /// with the candidate index as the timestamp — so the trace is
    /// byte-deterministic no matter how the pool interleaved the work.
    ///
    /// Per candidate: an `evaluate` span (utilization + scratchpad
    /// footprint); a `pruned` instant when the footprint exceeds the
    /// accelerator's scratchpad (the point could never be configured); an
    /// `incumbent` instant whenever `objective`'s score strictly
    /// improves; and one closing counter with the evaluated/pruned
    /// totals. The winner is identical to the untraced search, ties and
    /// all.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty (it never is for the provided
    /// [`SpaceKind`]s).
    #[must_use]
    pub fn best_la_traced(
        &self,
        space: SpaceKind,
        objective: Objective,
        sink: &mut dyn TraceSink,
    ) -> DesignPoint {
        let points = self.explore_la(space);
        let best = self.replay_search(&points, objective, sink);
        points[best.expect("design space is never empty")]
    }

    /// Serial, deterministic replay of an evaluated candidate list into
    /// the sink; returns the winning index under `objective` (the last
    /// of any ties — exactly [`Iterator::max_by`]'s choice, so traced
    /// and untraced searches agree).
    fn replay_search(
        &self,
        points: &[DesignPoint],
        objective: Objective,
        sink: &mut dyn TraceSink,
    ) -> Option<usize> {
        let enabled = sink.enabled();
        if enabled {
            sink.record(Event::process_name(0, "flat-dse search"));
            sink.record(Event::thread_name(0, 0, "candidates"));
        }
        let sg = self.accel.sg.as_u64();
        let mut best: Option<(usize, f64)> = None;
        let mut pruned_total = 0u64;
        for (i, p) in points.iter().enumerate() {
            let ts = i as f64;
            let footprint = p.report.footprint.as_u64();
            let pruned = footprint > sg;
            if pruned {
                pruned_total += 1;
            }
            let score = objective.score(&p.report);
            let improved = best.is_none_or(|(_, s)| score > s);
            if best.is_none_or(|(_, s)| score >= s) {
                best = Some((i, score));
            }
            if enabled {
                sink.record(
                    Event::complete("evaluate", "dse", ts, 1.0, 0, 0)
                        .arg("util", p.report.util())
                        .arg("footprint_bytes", footprint),
                );
                if pruned {
                    sink.record(
                        Event::instant("pruned", "dse", ts, 0, 0).arg("footprint_bytes", footprint),
                    );
                }
                if improved {
                    sink.record(
                        Event::instant("incumbent", "dse", ts, 0, 0)
                            .arg("score", score)
                            .arg("util", p.report.util()),
                    );
                }
            }
        }
        if enabled {
            sink.record(
                Event::counter("dse_progress", "dse", points.len() as f64, 0, 0)
                    .arg("evaluated", points.len() as u64)
                    .arg("pruned", pruned_total),
            );
        }
        best.map(|(i, _)| i)
    }

    /// Sampled search: evaluates `samples` uniformly drawn points instead
    /// of the whole space. Exhaustive search is cheap at this space's
    /// size, but larger spaces (joint HW + dataflow search, the GAMMA
    /// \[40\] setting the paper cites) need exactly this mode; the tests pin
    /// the sampling/exhaustive quality relationship.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn best_la_sampled(
        &self,
        space: SpaceKind,
        objective: Objective,
        samples: usize,
        seed: u64,
    ) -> DesignPoint {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        assert!(samples > 0, "need at least one sample");
        let points = la_points(space, self.block.config().seq_q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sample: Vec<LaExecution> = points
            .choose_multiple(&mut rng, samples.min(points.len()))
            .copied()
            .collect();
        best_priced(&CostModel::new(self.accel), self.block, &sample, objective)
    }

    /// Best dataflow for the non-fused operators, judged on the block's
    /// projection + FC cost under `objective`.
    #[must_use]
    pub fn best_others(&self, objective: Objective) -> (OperatorDataflow, CostReport) {
        let cfg = *self.block.config();
        let cm = CostModel::new(self.accel);
        others_points()
            .into_iter()
            .map(|df| {
                let cost = self
                    .block
                    .operators_in_category(OpCategory::Projection)
                    .chain(self.block.operators_in_category(OpCategory::FeedForward))
                    .map(|op| cm.operator_cost(op, &df, &cfg))
                    .fold(CostReport::default(), |acc, r| acc.then(&r));
                (df, cost)
            })
            .max_by(|a, b| {
                objective
                    .score(&a.1)
                    .partial_cmp(&objective.score(&b.1))
                    .expect("finite")
            })
            .expect("others space is never empty")
    }

    /// Best full-block dataflow: the optimal L-A execution combined with
    /// the optimal non-fused-operator dataflow.
    #[must_use]
    pub fn best_block(&self, space: SpaceKind, objective: Objective) -> (BlockDataflow, BlockCost) {
        let la = self.best_la(space, objective);
        let (others, _) = self.best_others(objective);
        let df = BlockDataflow { la: la.la, others };
        let cost = CostModel::new(self.accel).block_cost(self.block, &df);
        (df, cost)
    }

    /// Best block dataflow judged at one of the Figure 8 scopes.
    #[must_use]
    pub fn best_at_scope(
        &self,
        space: SpaceKind,
        scope: Scope,
        objective: Objective,
    ) -> (BlockDataflow, CostReport) {
        match scope {
            Scope::LogitAttend => {
                let la = self.best_la(space, objective);
                let (others, _) = self.best_others(objective);
                (BlockDataflow { la: la.la, others }, la.report)
            }
            Scope::Block | Scope::Model => {
                let (df, cost) = self.best_block(space, objective);
                (df, cost.total())
            }
        }
    }
}

/// Prices `points` on the shared pool and keeps the best under
/// `objective`: a streaming max that never materializes the priced space.
/// Ties go to the later candidate, exactly as [`Iterator::max_by`].
///
/// # Panics
///
/// Panics if `points` is empty.
pub(crate) fn best_priced(
    cm: &CostModel,
    block: &AttentionBlock,
    points: &[LaExecution],
    objective: Objective,
) -> DesignPoint {
    use rayon::prelude::*;
    points
        .par_iter()
        .map(|&la| DesignPoint {
            la,
            report: cm.la_cost(block, &la),
        })
        .max_by(|a, b| {
            objective
                .score(&a.report)
                .partial_cmp(&objective.score(&b.report))
                .expect("scores are finite")
        })
        .expect("design space is never empty")
}

/// Pareto frontier of `(footprint, util)` points: keeps points not
/// dominated by any other (smaller-or-equal footprint *and* greater util).
/// Returned sorted by footprint — the top-left boundary of Figure 10.
#[must_use]
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<DesignPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.report.footprint.cmp(&b.report.footprint).then(
            b.report
                .util()
                .partial_cmp(&a.report.util())
                .expect("finite"),
        )
    });
    let mut frontier: Vec<DesignPoint> = Vec::new();
    let mut best_util = f64::NEG_INFINITY;
    for p in sorted {
        if p.report.util() > best_util {
            best_util = p.report.util();
            frontier.push(p);
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    #[test]
    fn flat_opt_dominates_base_opt() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let dse = Dse::new(&accel, &block);
        let base = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
        let flat = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
        assert!(flat.report.util() >= base.report.util());
    }

    #[test]
    fn fused_space_wins_big_at_long_sequences() {
        let accel = Accelerator::cloud();
        let block = Model::xlm().block(64, 16_384);
        let dse = Dse::new(&accel, &block);
        let base = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
        let flat = dse.best_la(SpaceKind::Fused, Objective::MaxUtil);
        assert!(
            flat.report.util() > 1.3 * base.report.util(),
            "flat {} vs base {}",
            flat.report.util(),
            base.report.util()
        );
    }

    #[test]
    fn min_energy_objective_never_picks_higher_energy() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let dse = Dse::new(&accel, &block);
        let by_util = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
        let by_energy = dse.best_la(SpaceKind::Full, Objective::MinEnergy);
        assert!(by_energy.report.energy.total_pj() <= by_util.report.energy.total_pj());
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let points = Dse::new(&accel, &block).explore_la(SpaceKind::Full);
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            assert!(w[0].report.footprint <= w[1].report.footprint);
            assert!(w[0].report.util() < w[1].report.util());
        }
        // Every point is dominated by or on the frontier.
        let best = frontier.last().unwrap().report.util();
        assert!(points.iter().all(|p| p.report.util() <= best + 1e-12));
    }

    #[test]
    fn sampled_search_never_beats_exhaustive_and_converges() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let dse = Dse::new(&accel, &block);
        let exhaustive = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
        let few = dse.best_la_sampled(SpaceKind::Full, Objective::MaxUtil, 10, 42);
        let many = dse.best_la_sampled(SpaceKind::Full, Objective::MaxUtil, 100_000, 42);
        assert!(few.report.util() <= exhaustive.report.util() + 1e-12);
        // Sampling more than the space size degenerates to exhaustive.
        assert!((many.report.util() - exhaustive.report.util()).abs() < 1e-12);
        // Determinism in the seed.
        let again = dse.best_la_sampled(SpaceKind::Full, Objective::MaxUtil, 10, 42);
        assert_eq!(few.report.util(), again.report.util());
    }

    /// A decoder block searched on its cross-attention layer (whose
    /// `[dec, enc]` logits dominate at a long encoder context), with the
    /// winner applied to both attention layers.
    #[test]
    fn decoder_search_beats_fixed_base() {
        let accel = Accelerator::cloud();
        let block = flat_workloads::DecoderBlock::for_model(&Model::t5_small(), 64, 1024, 16_384);
        let (df, _) = Dse::new(&accel, block.cross_attention())
            .best_block(SpaceKind::Full, Objective::MaxUtil);
        let model = CostModel::new(&accel);
        let best = model.decoder_block_cost(&block, &df);
        let base = model.decoder_block_cost(&block, &BlockDataflow::base());
        assert!(df.la.is_fused(), "long encoder context demands fusion");
        assert!(best.total().cycles < base.total().cycles * 0.6);
    }

    #[test]
    fn traced_search_matches_untraced_and_is_deterministic() {
        use flat_telemetry::MemorySink;
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let dse = Dse::new(&accel, &block);
        let plain = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
        let mut sink = MemorySink::new();
        let traced = dse.best_la_traced(SpaceKind::Full, Objective::MaxUtil, &mut sink);
        assert_eq!(traced.la, plain.la, "tracing must not change the winner");
        assert_eq!(traced.report.util(), plain.report.util());
        // Progress events: every candidate evaluated, incumbents marked,
        // one closing totals counter.
        let evaluates = sink.events.iter().filter(|e| e.name == "evaluate").count();
        assert_eq!(evaluates, dse.explore_la(SpaceKind::Full).len());
        assert!(sink.events.iter().any(|e| e.name == "incumbent"));
        assert_eq!(
            sink.events.last().map(|e| e.name.as_str()),
            Some("dse_progress")
        );
        // Replay order is enumeration order — byte-identical across runs
        // despite the rayon evaluation.
        let mut again = MemorySink::new();
        let _ = dse.best_la_traced(SpaceKind::Full, Objective::MaxUtil, &mut again);
        assert_eq!(sink.to_chrome_trace(), again.to_chrome_trace());
    }

    #[test]
    fn best_others_beats_naive_default() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let dse = Dse::new(&accel, &block);
        let (_, best) = dse.best_others(Objective::MaxUtil);
        assert!(best.util() > 0.3);
    }
}
