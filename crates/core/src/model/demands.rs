//! Per-lane demand decomposition of the analytical model.
//!
//! The closed-form cost functions ([`CostModel::fused_la_cost`],
//! [`CostModel::sequential_la_cost`]) fold the work each hardware lane
//! performs — PE array, SFU, on-chip SG port, L2 link, off-chip DRAM
//! link — into a single `max` (double-buffered) or sum (serialized) per
//! iteration. The structures here expose that decomposition *before* the
//! fold, so an execution-driven backend (the `flat-desim` event
//! simulator) can replay exactly the work the analytical model priced and
//! the two can be compared number-for-number.
//!
//! The invariant, pinned by tests in this module: re-folding a demand
//! struct reproduces the analytical cycle count bit-for-bit.
//!
//! [`CostModel::fused_la_cost`]: crate::CostModel::fused_la_cost
//! [`CostModel::sequential_la_cost`]: crate::CostModel::sequential_la_cost

use serde::{Deserialize, Serialize};

/// Per-iteration lane demands of the fused (FLAT) L-A execution.
///
/// One iteration is one FLAT-tile pass of the §4.3 walk: stage L computes
/// a logit slice, the SFU softmaxes it, stage A consumes it, while the
/// next tile's operands prefetch. Every field is *per iteration* except
/// [`warmup_cycles`], charged once.
///
/// [`warmup_cycles`]: FusedLaneDemands::warmup_cycles
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedLaneDemands {
    /// Number of cross-loop iterations (FLAT-tile passes).
    pub iterations: u64,
    /// PE-array cycles per iteration: both stages' systolic steps plus
    /// the exposed NoC fill/switch overheads of the execution mode.
    pub compute_cycles: f64,
    /// The stage-L share of [`compute_cycles`](Self::compute_cycles).
    pub logit_compute_cycles: f64,
    /// The stage-A share (`compute_cycles - logit_compute_cycles`).
    pub attend_compute_cycles: f64,
    /// SFU cycles per iteration (softmax of one logit slice).
    pub sfu_cycles: f64,
    /// On-chip (SG-port) bytes moved per iteration.
    pub onchip_bytes: f64,
    /// Off-chip (DRAM) bytes moved per iteration, fetch and writeback.
    pub offchip_bytes: f64,
    /// Off-chip window penalty: 1 for interleaved fusion (the prefetch
    /// hides behind both stages), 2 for spatial pipelining (§5.1).
    pub offchip_window_penalty: f64,
    /// Second-level buffer link cycles per iteration (0 without an L2).
    pub l2_cycles: f64,
    /// One-time cold-start cycles: the first tile's operand fetch.
    pub warmup_cycles: f64,
    /// SG-port bandwidth of the priced accelerator (bytes/cycle).
    pub onchip_bytes_per_cycle: f64,
    /// DRAM bandwidth of the priced accelerator (bytes/cycle).
    pub offchip_bytes_per_cycle: f64,
    /// Whether the demands were priced with double buffering: lanes
    /// overlap (`max`) when true, serialize (sum) when false.
    pub double_buffered: bool,
}

impl FusedLaneDemands {
    /// Off-chip link cycles per iteration, window penalty included.
    #[must_use]
    pub fn offchip_cycles(&self) -> f64 {
        self.offchip_bytes * self.offchip_window_penalty / self.offchip_bytes_per_cycle
    }

    /// On-chip (SG-port) cycles per iteration.
    #[must_use]
    pub fn onchip_cycles(&self) -> f64 {
        self.onchip_bytes / self.onchip_bytes_per_cycle
    }

    /// Re-folds the lane demands exactly the way the analytical model
    /// does: overlapped lanes take the slowest (`max`), serialized lanes
    /// sum, the L2 link binds from below in both modes.
    #[must_use]
    pub fn per_iteration_cycles(&self) -> f64 {
        let t_on = self.onchip_cycles();
        let t_off = self.offchip_cycles();
        let base = if self.double_buffered {
            self.compute_cycles.max(t_on).max(t_off)
        } else {
            self.compute_cycles + t_on + t_off
        };
        let gated = base.max(self.l2_cycles);
        if self.double_buffered {
            gated.max(self.sfu_cycles)
        } else {
            gated + self.sfu_cycles
        }
    }

    /// Total analytical cycles: `iterations x per-iteration + warmup`.
    /// Equals [`CostReport::cycles`](crate::CostReport) of the pricing
    /// these demands were derived from, bit-for-bit.
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.iterations as f64 * self.per_iteration_cycles() + self.warmup_cycles
    }

    /// Whole-run busy cycles of each hardware lane, before the fold,
    /// under the lane names of the `flat-desim` executor (`dma`, `pe`,
    /// `sg`, `l2`, `sfu`). The DMA lane also carries the one-time warmup
    /// fetch; `l2` is listed only when the accelerator has an L2 link.
    #[must_use]
    pub fn lane_busy(&self) -> Vec<(&'static str, f64)> {
        let n = self.iterations as f64;
        let mut lanes = vec![
            ("dma", self.warmup_cycles + n * self.offchip_cycles()),
            ("pe", n * self.compute_cycles),
            ("sg", n * self.onchip_cycles()),
        ];
        if self.l2_cycles > 0.0 {
            lanes.push(("l2", n * self.l2_cycles));
        }
        lanes.push(("sfu", n * self.sfu_cycles));
        lanes
    }
}

/// Whole-phase lane demands of one sequential-pipeline phase (Logit,
/// softmax, or Attend). Unlike [`FusedLaneDemands`] these are *phase
/// totals*: a sequential dataflow runs each phase to completion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseLaneDemands {
    /// Phase label (`"logit"`, `"softmax"`, `"attend"`).
    pub label: &'static str,
    /// PE-array cycles for the whole phase (0 for the softmax phase).
    pub compute_cycles: f64,
    /// SFU cycles for the whole phase (0 for the GEMM phases).
    pub sfu_cycles: f64,
    /// On-chip bytes moved over the whole phase.
    pub onchip_bytes: f64,
    /// Off-chip bytes moved over the whole phase.
    pub offchip_bytes: f64,
    /// Cold-start cycles charged once at phase start.
    pub warmup_cycles: f64,
}

/// Lane demands of the sequential L → softmax → A execution, one entry
/// per phase, plus the composition rules the analytical model applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SequentialLaneDemands {
    /// The Logit GEMM phase.
    pub logit: PhaseLaneDemands,
    /// The softmax pass.
    pub softmax: PhaseLaneDemands,
    /// The Attend GEMM phase.
    pub attend: PhaseLaneDemands,
    /// Whether the model lets softmax pipeline into the Attend phase
    /// (row-ordered consumption): when true and double-buffered, the two
    /// phases overlap; otherwise softmax is its own serial phase.
    pub overlap_softmax: bool,
    /// Whether transfers overlap compute within a phase.
    pub double_buffered: bool,
    /// SG-port bandwidth of the priced accelerator (bytes/cycle).
    pub onchip_bytes_per_cycle: f64,
    /// DRAM bandwidth of the priced accelerator (bytes/cycle).
    pub offchip_bytes_per_cycle: f64,
}

impl SequentialLaneDemands {
    /// Phases in execution order.
    #[must_use]
    pub fn phases(&self) -> [&PhaseLaneDemands; 3] {
        [&self.logit, &self.softmax, &self.attend]
    }

    /// Whole-run busy cycles of each hardware lane summed over the three
    /// phases, under the lane names of the `flat-desim` executor (`dma`,
    /// `pe`, `sg`, `sfu`). The DMA lane also carries the phase warmups.
    #[must_use]
    pub fn lane_busy(&self) -> Vec<(&'static str, f64)> {
        let sum =
            |f: fn(&PhaseLaneDemands) -> f64| -> f64 { self.phases().into_iter().map(f).sum() };
        vec![
            (
                "dma",
                sum(|p| p.warmup_cycles) + sum(|p| p.offchip_bytes) / self.offchip_bytes_per_cycle,
            ),
            ("pe", sum(|p| p.compute_cycles)),
            ("sg", sum(|p| p.onchip_bytes) / self.onchip_bytes_per_cycle),
            ("sfu", sum(|p| p.sfu_cycles)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use crate::Stationarity;
    use crate::{CostModel, FusedDataflow, Granularity, ModelOptions, OperatorDataflow};
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    /// The load-bearing invariant: demands re-fold to the priced cycles
    /// exactly, for every option combination.
    #[test]
    fn fused_demands_refold_bit_exact() {
        for accel in [Accelerator::edge(), Accelerator::cloud()] {
            for seq in [512u64, 4096] {
                for g in [
                    Granularity::Row(64),
                    Granularity::Head,
                    Granularity::BatchMultiHead,
                ] {
                    for db in [true, false] {
                        let block = Model::bert().block(64, seq);
                        let opts = ModelOptions {
                            double_buffered: db,
                            ..Default::default()
                        };
                        let cm = CostModel::with_options(&accel, opts);
                        let df = FusedDataflow::new(g);
                        let report = cm.fused_la_cost(&block, &df);
                        let demands = cm.fused_lane_demands(&block, &df);
                        assert_eq!(
                            demands.total_cycles().to_bits(),
                            report.cycles.to_bits(),
                            "{} seq={seq} {g:?} db={db}",
                            accel.name
                        );
                        assert_eq!(demands.double_buffered, db);
                        assert!(
                            (demands.logit_compute_cycles + demands.attend_compute_cycles
                                - demands.compute_cycles)
                                .abs()
                                < 1e-9
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_execution_halves_the_prefetch_window() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cm = CostModel::new(&accel);
        let inter = cm.fused_lane_demands(&block, &FusedDataflow::new(Granularity::Row(64)));
        let pipe = cm.fused_lane_demands(&block, &FusedDataflow::pipelined(Granularity::Row(64)));
        assert_eq!(inter.offchip_window_penalty, 1.0);
        assert_eq!(pipe.offchip_window_penalty, 2.0);
    }

    #[test]
    fn sequential_demands_cover_all_three_phases() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cm = CostModel::new(&accel);
        let df = OperatorDataflow::baseline(Stationarity::Weight);
        let d = cm.sequential_lane_demands(&block, &df, &df);
        assert!(d.logit.compute_cycles > 0.0);
        assert_eq!(d.logit.sfu_cycles, 0.0);
        assert!(d.softmax.sfu_cycles > 0.0);
        assert_eq!(d.softmax.compute_cycles, 0.0);
        assert!(d.attend.compute_cycles > 0.0);
        assert!(d.attend.offchip_bytes > 0.0);
    }

    /// The sequential demand totals bound the analytical phase pricing:
    /// re-folding each phase with the model's own combine rule and
    /// summing reproduces the non-overlapped serial composition.
    #[test]
    fn sequential_demands_refold_to_serial_composition() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let opts = ModelOptions {
            overlap_softmax: false,
            ..Default::default()
        };
        let cm = CostModel::with_options(&accel, opts);
        let df = OperatorDataflow::baseline(Stationarity::Weight);
        let d = cm.sequential_lane_demands(&block, &df, &df);
        let refold = |p: &crate::PhaseLaneDemands| -> f64 {
            let unit = p.compute_cycles.max(p.sfu_cycles) + p.compute_cycles.min(p.sfu_cycles);
            let t_on = p.onchip_bytes / d.onchip_bytes_per_cycle;
            let t_off = p.offchip_bytes / d.offchip_bytes_per_cycle;
            unit.max(t_on).max(t_off) + p.warmup_cycles
        };
        let total: f64 = d.phases().iter().map(|p| refold(p)).sum();
        let report = cm.sequential_la_cost(&block, &df, &df);
        let ratio = total / report.cycles;
        assert!(
            (0.999..1.001).contains(&ratio),
            "refold {total} vs report {}",
            report.cycles
        );
    }
}
