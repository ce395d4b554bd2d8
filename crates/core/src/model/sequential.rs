//! Sequential L → softmax → A execution (all the `Base*` dataflows).

use crate::model::l2::choose_l2_tiling;
use crate::model::single::{OpSlices, TensorStates};
use crate::model::staging::Staging;
use crate::model::{CostModel, Traffic};
use crate::{CostReport, OperatorDataflow};
use flat_arch::ActivityCounts;
use flat_tensor::Bytes;
use flat_workloads::{AttentionBlock, OpKind};

impl CostModel<'_> {
    /// Cost of the softmax pass over `elements` logits. When the logit
    /// tensor is SG-resident the SFU reads and writes on-chip; otherwise
    /// both passes cross the off-chip link.
    pub(crate) fn softmax_phase(
        &self,
        elements: u64,
        resident: bool,
        dtype: flat_tensor::DataType,
    ) -> CostReport {
        let e = dtype.size_bytes();
        let sfu_cycles = self.sfu_cycles(elements) as f64;
        let moved = Bytes::new(2 * elements * e);
        let (onchip, offchip) = if resident {
            (moved, Bytes::ZERO)
        } else {
            // DRAM round trip, streamed through the SFU's row buffer.
            (moved, moved)
        };
        let cycles = self.combine_cycles(sfu_cycles, onchip.as_f64(), offchip.as_f64());
        let activity = ActivityCounts {
            macs: 0,
            sl_accesses: 0,
            sg_accesses: onchip.as_u64() / e,
            dram_accesses: offchip.as_u64() / e,
            sfu_elements: elements,
        };
        CostReport {
            cycles,
            ideal_cycles: 0.0,
            traffic: Traffic { onchip, offchip },
            activity,
            footprint: Bytes::ZERO,
            energy: self.energy_table(dtype).energy(&activity),
        }
    }

    /// Cost of the sequential Logit → softmax → Attend execution.
    ///
    /// The intermediate tensor is SG-resident between the two operators
    /// only when *all* of it fits alongside the working sets — a
    /// sequential dataflow finishes every L slice before A starts, so
    /// partial slices cannot be retained (this is the structural limit
    /// FLAT removes).
    #[must_use]
    pub fn sequential_la_cost(
        &self,
        block: &AttentionBlock,
        logit_df: &OperatorDataflow,
        attend_df: &OperatorDataflow,
    ) -> CostReport {
        self.sequential_cost_demands(block, logit_df, attend_df).0
    }

    /// The per-phase lane demands behind
    /// [`CostModel::sequential_la_cost`]: what the PE array, SFU, SG
    /// port, and DRAM link each serve in the Logit, softmax, and Attend
    /// phases, before the analytical fold. The `flat-desim` event
    /// backend executes these instead of folding them.
    #[must_use]
    pub fn sequential_lane_demands(
        &self,
        block: &AttentionBlock,
        logit_df: &OperatorDataflow,
        attend_df: &OperatorDataflow,
    ) -> crate::SequentialLaneDemands {
        self.sequential_cost_demands(block, logit_df, attend_df).1
    }

    /// The total, its lane demands, and the cycles of the serial phases
    /// the total sums in execution order: L, the softmax pass (`None`
    /// when it pipelines into A), and A (softmax included when it does).
    pub(crate) fn sequential_cost_demands(
        &self,
        block: &AttentionBlock,
        logit_df: &OperatorDataflow,
        attend_df: &OperatorDataflow,
    ) -> (
        CostReport,
        crate::SequentialLaneDemands,
        (f64, Option<f64>, f64),
    ) {
        let cfg = *block.config();
        let dtype = cfg.dtype;
        let e = dtype.size_bytes();
        let l_gemm = block.operator(OpKind::Logit).gemm;
        let a_gemm = block.operator(OpKind::Attend).gemm;
        let staging_present = logit_df.l3.is_some() || attend_df.l3.is_some();
        let budget = self.l2_budget_elems(staging_present, dtype);
        let tiling_l = choose_l2_tiling(&l_gemm, logit_df.stationarity, budget);
        let tiling_a = choose_l2_tiling(&a_gemm, attend_df.stationarity, budget);
        let ws = Bytes::new(tiling_l.working_set_elems.max(tiling_a.working_set_elems) * e);

        let dbm = self.db_mult();
        let full_logit = Bytes::new(l_gemm.c_elements() * e);

        // Input-staging demand of each phase.
        let l_slices = logit_df
            .l3
            .map(|l3| OpSlices::new(l3.granularity, &l_gemm, &cfg));
        let a_slices = attend_df
            .l3
            .map(|l3| OpSlices::new(l3.granularity, &a_gemm, &cfg));
        let l_input_req = logit_df.l3.map_or(0, |l3| {
            let s = l_slices.expect("slices follow l3");
            (l3.enables.input_a as u64 * s.a + l3.enables.input_b as u64 * s.b) * dbm
        });
        let a_side_req = attend_df.l3.map_or(0, |l3| {
            let s = a_slices.expect("slices follow l3");
            (l3.enables.input_b as u64 * s.b + l3.enables.output as u64 * s.c) * dbm
        });
        let l_input_req = Bytes::new(l_input_req * e);
        let a_side_req = Bytes::new(a_side_req * e);

        // Residency test: the whole logit tensor plus the busier phase's
        // staging must fit next to the L2 working set.
        let wants_residency = logit_df.l3.is_some_and(|l3| l3.enables.output)
            && attend_df.l3.is_some_and(|l3| l3.enables.input_a);
        let resident =
            wants_residency && ws + l_input_req.max(a_side_req) + full_logit <= self.accel.sg;

        let frac = |req: Bytes, extra: Bytes| -> f64 {
            if req.is_zero() {
                return 1.0;
            }
            let avail = self.accel.sg.saturating_sub(ws + extra);
            (avail.as_f64() / req.as_f64()).min(1.0)
        };

        // --- Logit phase ---
        let logit_resident_charge = if resident { full_logit } else { Bytes::ZERO };
        let f_l = frac(l_input_req, logit_resident_charge);
        let staged = |on: bool, f: f64| -> Staging {
            if on {
                Staging::Staged { fraction: f }
            } else {
                Staging::Streamed
            }
        };
        let l_states = TensorStates {
            a: staged(logit_df.l3.is_some_and(|l3| l3.enables.input_a), f_l),
            b: staged(logit_df.l3.is_some_and(|l3| l3.enables.input_b), f_l),
            c: if resident {
                Staging::Resident
            } else {
                staged(logit_df.l3.is_some_and(|l3| l3.enables.output), f_l)
            },
        };
        let (l_report, mut l_demands) = self.gemm_phase_demands(
            &l_gemm,
            logit_df.stationarity,
            l_states,
            l_input_req + logit_resident_charge,
            tiling_l,
            dtype,
        );
        l_demands.label = "logit";

        // --- Softmax phase ---
        let softmax = self.softmax_phase(l_gemm.c_elements(), resident, dtype);
        let sm_demands = crate::PhaseLaneDemands {
            label: "softmax",
            compute_cycles: 0.0,
            sfu_cycles: self.sfu_cycles(l_gemm.c_elements()) as f64,
            onchip_bytes: softmax.traffic.onchip.as_f64(),
            offchip_bytes: softmax.traffic.offchip.as_f64(),
            warmup_cycles: 0.0,
        };

        // --- Attend phase ---
        let f_a = frac(a_side_req, logit_resident_charge);
        let a_states = TensorStates {
            a: if resident {
                Staging::Resident
            } else {
                staged(attend_df.l3.is_some_and(|l3| l3.enables.input_a), f_a)
            },
            b: staged(attend_df.l3.is_some_and(|l3| l3.enables.input_b), f_a),
            c: staged(attend_df.l3.is_some_and(|l3| l3.enables.output), f_a),
        };
        let (a_report, mut a_demands) = self.gemm_phase_demands(
            &a_gemm,
            attend_df.stationarity,
            a_states,
            a_side_req + logit_resident_charge,
            tiling_a,
            dtype,
        );
        a_demands.label = "attend";
        let demands = crate::SequentialLaneDemands {
            logit: l_demands,
            softmax: sm_demands,
            attend: a_demands,
            overlap_softmax: self.opts.overlap_softmax,
            double_buffered: self.opts.double_buffered,
            onchip_bytes_per_cycle: self.accel.onchip_bytes_per_cycle(),
            offchip_bytes_per_cycle: self.accel.offchip_bytes_per_cycle(),
        };

        // Softmax is a row operation and A consumes rows in order, so even
        // a strictly sequential baseline may pipeline the softmax pass
        // with A's execution (softmax of row r completes just before A
        // ingests row r). With double buffering the two phases overlap —
        // the softmax's SFU time and memory traffic bind only if slower
        // than A; without it, they serialize.
        if self.opts.double_buffered && self.opts.overlap_softmax {
            let traffic = a_report.traffic + softmax.traffic;
            // The units overlap, but the two memory links are shared
            // resources: the combined phase can be no faster than either
            // unit alone or either link moving both phases' traffic.
            let cycles = a_report
                .cycles
                .max(softmax.cycles)
                .max(traffic.offchip.as_f64() / self.accel.offchip_bytes_per_cycle())
                .max(traffic.onchip.as_f64() / self.accel.onchip_bytes_per_cycle());
            let a_sm = CostReport {
                cycles,
                ideal_cycles: a_report.ideal_cycles,
                traffic,
                activity: a_report.activity + softmax.activity,
                footprint: a_report.footprint.max(softmax.footprint),
                energy: a_report.energy + softmax.energy,
            };
            let cycles = (l_report.cycles, None, a_sm.cycles);
            (l_report.then(&a_sm), demands, cycles)
        } else {
            let cycles = (l_report.cycles, Some(softmax.cycles), a_report.cycles);
            (l_report.then(&softmax).then(&a_report), demands, cycles)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Granularity, Stationarity};
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    fn la(accel: &Accelerator, seq: u64, df: &OperatorDataflow) -> CostReport {
        let block = Model::bert().block(64, seq);
        CostModel::new(accel).sequential_la_cost(&block, df, df)
    }

    #[test]
    fn base_is_memory_bound_on_edge() {
        let accel = Accelerator::edge();
        let r = la(
            &accel,
            512,
            &OperatorDataflow::baseline(Stationarity::Weight),
        );
        assert!(
            r.util() < 0.8,
            "Base L-A should be memory bound: {}",
            r.util()
        );
        assert!(r.util() > 0.1);
    }

    /// With an enormous buffer and M-Gran staging, the logits stay
    /// resident and utilization approaches the compute bound.
    #[test]
    fn staged_m_with_huge_buffer_beats_base() {
        let accel = Accelerator::edge().with_sg(Bytes::from_gib(2));
        let base = la(
            &accel,
            512,
            &OperatorDataflow::baseline(Stationarity::Weight),
        );
        let staged = la(
            &accel,
            512,
            &OperatorDataflow::staged(Stationarity::Weight, Granularity::BatchMultiHead),
        );
        assert!(
            staged.util() > base.util(),
            "{} <= {}",
            staged.util(),
            base.util()
        );
        assert!(staged.traffic.offchip < base.traffic.offchip);
    }

    /// With the real 512 KiB edge buffer, M-Gran staging of a 400 MB logit
    /// tensor is counterproductive (the paper's Base-M < Base regime).
    #[test]
    fn staged_m_with_small_buffer_loses_to_base() {
        let accel = Accelerator::edge();
        let base = la(
            &accel,
            512,
            &OperatorDataflow::baseline(Stationarity::Weight),
        );
        let staged = la(
            &accel,
            512,
            &OperatorDataflow::staged(Stationarity::Weight, Granularity::BatchMultiHead),
        );
        assert!(
            staged.cycles >= base.cycles * 0.95,
            "{} vs {}",
            staged.cycles,
            base.cycles
        );
    }

    #[test]
    fn longer_sequences_lower_sequential_utilization() {
        let accel = Accelerator::cloud();
        let df = OperatorDataflow::staged(Stationarity::Weight, Granularity::Head);
        let short = la(&accel, 4096, &df);
        let long = la(&accel, 65_536, &df);
        assert!(
            long.util() < short.util(),
            "{} vs {}",
            long.util(),
            short.util()
        );
    }

    #[test]
    fn softmax_phase_accounts_both_passes() {
        let accel = Accelerator::edge();
        let cm = CostModel::new(&accel);
        let on = cm.softmax_phase(1_000_000, true, flat_tensor::DataType::Fp16);
        let off = cm.softmax_phase(1_000_000, false, flat_tensor::DataType::Fp16);
        assert_eq!(on.traffic.offchip, Bytes::ZERO);
        assert_eq!(off.traffic.offchip, Bytes::new(4_000_000));
        assert!(off.cycles > on.cycles);
        assert_eq!(on.activity.sfu_elements, 1_000_000);
    }
}
