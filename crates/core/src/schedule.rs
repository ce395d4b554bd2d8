//! Execution schedules: a phase-by-phase timeline of how a dataflow runs
//! on the accelerator — the observable counterpart of the aggregate cost
//! numbers, and the basis of the `trace` CLI command.
//!
//! The timeline is the cost model's own decomposition: each phase spans
//! the cycles the closed form prices for it, and its bound is the
//! busiest lane of its lane demands, named as
//! [`FusedLaneDemands::lane_busy`] names them (`dma`, `pe`, `sg`, `l2`,
//! `sfu`). A user can *see* why a dataflow is slow, in the vocabulary of
//! `flat sim` and the event backend.
//!
//! [`FusedLaneDemands::lane_busy`]: crate::FusedLaneDemands::lane_busy

use crate::model::{busiest_lane, CostModel};
use crate::{BlockDataflow, PhaseLaneDemands};
use crate::{CostReport, Granularity, LaExecution};
use flat_workloads::AttentionBlock;
use serde::Serialize;

/// One span of the execution timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Phase {
    /// Human-readable label (`"L (logit)"`, `"FLAT-tile 3/128"`, …).
    pub label: String,
    /// Start time, cycles from operator start.
    pub start: f64,
    /// End time in cycles.
    pub end: f64,
    /// The busiest lane of the phase's demands (`dma`, `pe`, `sg`, `l2`
    /// or `sfu`).
    pub bound: &'static str,
}

impl Phase {
    /// Phase duration in cycles.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete timeline for the L-A pair under a dataflow.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Schedule {
    /// Dataflow label the schedule was built for.
    pub dataflow: String,
    /// The timeline spans. For fused dataflows with many iterations, the
    /// steady state is folded: the first few iterations are explicit and
    /// one span summarizes the rest.
    pub phases: Vec<Phase>,
    /// Totals, identical to [`CostModel::la_cost`] for the same inputs.
    pub total: CostReport,
}

impl Schedule {
    /// Total runtime in cycles.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.phases.last().map_or(0.0, |p| p.end)
    }

    /// Renders an ASCII Gantt-style view, `width` characters wide.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let span = self.makespan().max(1.0);
        let mut out = String::new();
        for p in &self.phases {
            let w = ((p.duration() / span) * width as f64).round().max(1.0) as usize;
            let off = ((p.start / span) * width as f64).round() as usize;
            out.push_str(&format!(
                "{:28} {}{} {:>12.3e} cyc  [{}]\n",
                p.label,
                " ".repeat(off.min(width)),
                "#".repeat(w.min(width + 1 - off.min(width))),
                p.duration(),
                p.bound,
            ));
        }
        out
    }
}

impl CostModel<'_> {
    /// Builds the execution timeline of the L-A pair under `df`.
    ///
    /// The phases are the ones the closed form prices: the makespan is
    /// [`CostModel::la_cost`]'s cycle count, and each phase's bound is the
    /// busiest lane of its lane demands.
    ///
    /// # Example
    ///
    /// ```
    /// use flat_arch::Accelerator;
    /// use flat_core::{BlockDataflow, CostModel, Granularity};
    /// use flat_workloads::Model;
    ///
    /// let accel = Accelerator::edge();
    /// let block = Model::bert().block(64, 512);
    /// let cm = CostModel::new(&accel);
    /// let schedule = cm.la_schedule(&block, &BlockDataflow::flat(Granularity::Row(64)));
    /// assert!(schedule.makespan() > 0.0);
    /// println!("{}", schedule.render(40));
    /// ```
    #[must_use]
    pub fn la_schedule(&self, block: &AttentionBlock, df: &BlockDataflow) -> Schedule {
        let (total, phases) = match &df.la {
            LaExecution::Sequential { logit, attend } => {
                let (total, d, (l, softmax, a)) =
                    self.sequential_cost_demands(block, logit, attend);
                let mut spans: Vec<(&str, f64, Vec<&PhaseLaneDemands>)> =
                    vec![("L (logit)", l, vec![&d.logit])];
                match softmax {
                    Some(sm) => spans.extend([
                        ("softmax (whole tensor)", sm, vec![&d.softmax]),
                        ("A (attend)", a, vec![&d.attend]),
                    ]),
                    None => spans.push(("softmax + A (pipelined)", a, vec![&d.softmax, &d.attend])),
                }
                // Phases run back to back: summed in this order, their
                // cycles are the total's, to the bit.
                let mut t = 0.0;
                let phases = spans.into_iter().map(|(label, cycles, group)| {
                    let start = t;
                    t += cycles;
                    let bound = busiest_lane(&d.lanes(&group));
                    Phase {
                        label: label.to_owned(),
                        start,
                        end: t,
                        bound,
                    }
                });
                (total, phases.collect())
            }
            LaExecution::Fused(fused) => {
                // The one-time operand fetch, up to three explicit
                // FLAT-tiles, then the folded steady state.
                let (total, d) = self.fused_cost_demands(block, fused);
                let per_iter = d.per_iteration_cycles();
                let bound = busiest_lane(&d.iteration_lanes());
                // Iteration `k` starts at `warmup + k x per-iteration`, so
                // the last phase ends where the closed form does, to the bit.
                let at = |k: u64| d.warmup_cycles + k as f64 * per_iter;
                let tiles = |label, from, to| Phase {
                    label,
                    start: at(from),
                    end: at(to),
                    bound,
                };
                let gran = match fused.granularity {
                    Granularity::Row(r) => format!("R{r}"),
                    g => g.label(),
                };
                let (iters, explicit) = (d.iterations, d.iterations.min(3));
                let mut phases = Vec::new();
                if d.warmup_cycles > 0.0 {
                    // The cold fetch is the DMA lane's alone.
                    let label = "warmup (first tile fetch)".to_owned();
                    phases.push(Phase {
                        label,
                        start: 0.0,
                        end: at(0),
                        bound: "dma",
                    });
                }
                for i in 0..explicit {
                    let label = format!("FLAT-tile {}/{iters} ({gran}: L+softmax+A)", i + 1);
                    phases.push(tiles(label, i, i + 1));
                }
                if iters > explicit {
                    let label = format!("... {} more FLAT-tiles (steady state)", iters - explicit);
                    phases.push(tiles(label, explicit, iters));
                }
                (total, phases)
            }
        };
        Schedule {
            dataflow: df.label(),
            phases,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    fn setup() -> (Accelerator, AttentionBlock) {
        (Accelerator::edge(), Model::bert().block(64, 512))
    }

    #[test]
    fn fused_schedule_makespan_matches_cost() {
        let (accel, block) = setup();
        let cm = CostModel::new(&accel);
        let df = BlockDataflow::flat(Granularity::Row(64));
        let sched = cm.la_schedule(&block, &df);
        let cost = cm.la_cost(&block, &df.la);
        assert_eq!(sched.makespan().to_bits(), cost.cycles.to_bits());
        assert_eq!(sched.total, cost);
        assert_eq!(sched.phases[0].label, "warmup (first tile fetch)");
        assert_eq!(sched.phases[0].bound, "dma");
    }

    /// Edge/BERT at seq 4096 under Base: L streams from a PE-bound
    /// array, the pipelined softmax + A phase waits on the logit
    /// tensor's DRAM round trip, and the two phases sum to `la_cost`.
    #[test]
    fn base_splits_into_pe_bound_l_and_dma_bound_softmax_a() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 4096);
        let cm = CostModel::new(&accel);
        let df = BlockDataflow::base();
        let sched = cm.la_schedule(&block, &df);
        let got: Vec<(&str, &str)> = sched
            .phases
            .iter()
            .map(|p| (p.label.as_str(), p.bound))
            .collect();
        assert_eq!(
            got,
            [("L (logit)", "pe"), ("softmax + A (pipelined)", "dma")]
        );
        let cost = cm.la_cost(&block, &df.la);
        assert_eq!(sched.makespan().to_bits(), cost.cycles.to_bits());
    }

    #[test]
    fn serial_softmax_is_its_own_phase() {
        let (accel, block) = setup();
        for opts in [
            crate::ModelOptions {
                overlap_softmax: false,
                ..Default::default()
            },
            crate::ModelOptions {
                double_buffered: false,
                ..Default::default()
            },
        ] {
            let cm = CostModel::with_options(&accel, opts);
            let sched = cm.la_schedule(&block, &BlockDataflow::base());
            let labels: Vec<&str> = sched.phases.iter().map(|p| p.label.as_str()).collect();
            assert_eq!(
                labels,
                ["L (logit)", "softmax (whole tensor)", "A (attend)"]
            );
            let cost = cm.la_cost(&block, &BlockDataflow::base().la);
            assert_eq!(sched.makespan().to_bits(), cost.cycles.to_bits());
        }
    }

    /// An 8 MiB L2 behind a 10 GB/s link: each FLAT-R64 tile waits on
    /// the L2 link, not the PE array.
    #[test]
    fn slow_l2_link_bounds_the_tile() {
        let mut accel = Accelerator::edge();
        accel.l2_sram = Some(flat_arch::L2Sram::new(
            flat_tensor::Bytes::from_mib(8),
            10.0e9,
        ));
        let block = Model::bert().block(64, 16_384);
        let sched =
            CostModel::new(&accel).la_schedule(&block, &BlockDataflow::flat(Granularity::Row(64)));
        let tile = sched
            .phases
            .iter()
            .find(|p| p.label.starts_with("FLAT-tile 1/"))
            .expect("an explicit tile");
        assert_eq!(tile.bound, "l2");
    }

    #[test]
    fn phases_are_contiguous_and_ordered() {
        let (accel, block) = setup();
        let cm = CostModel::new(&accel);
        for df in [
            BlockDataflow::base(),
            BlockDataflow::flat(Granularity::Row(32)),
        ] {
            let sched = cm.la_schedule(&block, &df);
            let mut t = 0.0;
            for p in &sched.phases {
                assert!(
                    (p.start - t).abs() < 1e-6,
                    "{}: gap at {}",
                    df.label(),
                    p.label
                );
                assert!(p.end >= p.start);
                t = p.end;
            }
        }
    }

    #[test]
    fn render_is_nonempty_and_bounded() {
        let (accel, block) = setup();
        let cm = CostModel::new(&accel);
        let sched = cm.la_schedule(&block, &BlockDataflow::flat(Granularity::Head));
        let text = sched.render(40);
        assert!(!text.is_empty());
        assert!(text.lines().count() >= sched.phases.len());
    }

    #[test]
    fn steady_state_folding_caps_phase_count() {
        let (accel, block) = setup();
        let cm = CostModel::new(&accel);
        // R=1 gives thousands of iterations; the schedule must fold them.
        let sched = cm.la_schedule(&block, &BlockDataflow::flat(Granularity::Row(1)));
        assert!(sched.phases.len() <= 5);
        assert!(sched.phases.last().unwrap().label.contains("steady state"));
    }
}
