//! Fused, interleaved L-A execution — the FLAT dataflow itself (§4).

use crate::footprint::FusedSlices;
use crate::model::compute::{gemm_compute, gemm_onchip_traffic};
use crate::model::l2::{choose_l2_tiling, dram_traffic};
use crate::model::staging::{offchip_elems, Staging};
use crate::model::{CostModel, Traffic};
use crate::{CostReport, FusedDataflow};
use flat_arch::ActivityCounts;
use flat_tensor::{Bytes, Gemm};
use flat_workloads::AttentionBlock;

impl CostModel<'_> {
    /// Cost of the fused L-A operator under a FLAT dataflow.
    ///
    /// Execution follows the §4.3 walk-through: per cross-loop iteration,
    /// stage-L computes one FLAT-tile of logits into the SG, the SFU
    /// softmaxes it in place, stage-A consumes it; the off-chip prefetch
    /// for the next iteration overlaps the *entire* current iteration
    /// (§5.1's interleaved double-buffering advantage).
    ///
    /// # Example
    ///
    /// ```
    /// use flat_arch::Accelerator;
    /// use flat_core::{CostModel, FusedDataflow, Granularity};
    /// use flat_workloads::Model;
    ///
    /// let accel = Accelerator::edge();
    /// let block = Model::bert().block(64, 512);
    /// let cm = CostModel::new(&accel);
    /// let report = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(64)));
    /// assert!(report.util() > 0.5);
    /// ```
    #[must_use]
    pub fn fused_la_cost(&self, block: &AttentionBlock, df: &FusedDataflow) -> CostReport {
        self.fused_cost_demands(block, df).0
    }

    /// The per-iteration lane demands behind [`CostModel::fused_la_cost`]:
    /// what each hardware lane (PE array, SFU, SG port, L2 link, DRAM
    /// link) must serve per FLAT-tile pass, before the analytical fold.
    /// `demands.total_cycles()` reproduces the priced cycles bit-for-bit;
    /// the `flat-desim` event backend executes the same demands instead
    /// of folding them.
    #[must_use]
    pub fn fused_lane_demands(
        &self,
        block: &AttentionBlock,
        df: &FusedDataflow,
    ) -> crate::FusedLaneDemands {
        self.fused_cost_demands(block, df).1
    }

    pub(crate) fn fused_cost_demands(
        &self,
        block: &AttentionBlock,
        df: &FusedDataflow,
    ) -> (CostReport, crate::FusedLaneDemands) {
        let cfg = *block.config();
        let dtype = cfg.dtype;
        let e = dtype.size_bytes();
        let dk = cfg.dk();
        let s = FusedSlices::new(df.granularity, &cfg);

        // Per-iteration sub-GEMMs: L computes [rows, dk] x [dk, Nkv] per
        // covered (batch, head); A computes [rows, Nkv] x [Nkv, dk].
        let l_sub = Gemm::new(s.groups, s.rows, dk, cfg.seq_kv);
        let a_sub = Gemm::new(s.groups, s.rows, cfg.seq_kv, dk);

        let budget = self.l2_budget_elems(true, dtype);
        let tiling_l = choose_l2_tiling(&l_sub, df.stationarity_l, budget);
        let tiling_a = choose_l2_tiling(&a_sub, df.stationarity_a, budget);
        let ws = Bytes::new(tiling_l.working_set_elems.max(tiling_a.working_set_elems) * e);

        // FLAT-tile footprint. DRAM-facing slices are double-buffered,
        // with one refinement over the flat Table 2 accounting: at row
        // granularity the key/value slices are *reused in place* across
        // every row-group iteration of a head (the next head's prefetch
        // amortizes over ⌈Nq/R⌉ iterations), so they need no second
        // buffer. The intermediate slice never touches DRAM and is always
        // single-buffered (§4.4).
        let dbm = self.db_mult();
        let kv_mult = if df.granularity.reuses_kv_across_iterations(&cfg) {
            1
        } else {
            dbm
        };
        let en = df.enables;
        let demands = [
            (en.intermediate, s.intermediate),
            (en.key, kv_mult * s.key),
            (en.value, kv_mult * s.value),
            (en.query, dbm * s.query),
            (en.output, dbm * s.output),
        ];
        let req_elems: u64 = demands.iter().filter(|(on, _)| *on).map(|(_, d)| d).sum();
        let req = Bytes::new(req_elems * e);

        // Priority allocation (a real mapper pins the cheapest, hottest
        // tensors first): intermediate, then K, V, Q, O. Each tensor gets
        // a resident fraction in the SG and — when the accelerator has a
        // second-level buffer (§3.1 multi-level hierarchy) — an overflow
        // fraction there. L2-resident data never touches DRAM but its
        // per-iteration re-reads ride the (slower) L2 link.
        let mut remaining = self.accel.sg.saturating_sub(ws).as_u64() / e;
        let mut l2_remaining = self.accel.l2_sram.map_or(0, |l2| l2.capacity.as_u64() / e);
        let mut sg_fractions = [0.0f64; 5];
        let mut l2_fractions = [0.0f64; 5];
        for (i, (enabled, demand)) in demands.iter().enumerate() {
            if !enabled {
                continue;
            }
            if *demand == 0 {
                sg_fractions[i] = 1.0;
                continue;
            }
            let got = remaining.min(*demand);
            sg_fractions[i] = got as f64 / *demand as f64;
            remaining -= got;
            let overflow = *demand - got;
            let l2_got = l2_remaining.min(overflow);
            l2_fractions[i] = l2_got as f64 / *demand as f64;
            l2_remaining -= l2_got;
        }
        // Residency for DRAM-avoidance purposes is SG + L2.
        let fractions: [f64; 5] =
            std::array::from_fn(|i| (sg_fractions[i] + l2_fractions[i]).min(1.0));
        let [f_int, f_k, f_v, f_q, f_o] = fractions;

        // Per-iteration traffic over the L2 link: the L2-resident portion
        // of K/V is re-read every iteration; of the logit slice, written
        // and read back around the softmax; Q/O cross it once each.
        let l2_elems_per_iter = l2_fractions[1] * s.key as f64
            + l2_fractions[2] * s.value as f64
            + l2_fractions[0] * s.intermediate as f64 * 4.0
            + l2_fractions[3] * s.query as f64
            + l2_fractions[4] * s.output as f64;

        // --- Off-chip traffic ---
        let iters = s.iterations;
        let dl = dram_traffic(
            &l_sub,
            df.stationarity_l,
            tiling_l.tm,
            tiling_l.tk,
            tiling_l.tn,
        );
        let da = dram_traffic(
            &a_sub,
            df.stationarity_a,
            tiling_a.tm,
            tiling_a.tk,
            tiling_a.tn,
        );
        let q_total = cfg.batch * cfg.heads * cfg.seq_q * dk;
        let kv_total = cfg.batch * cfg.heads * cfg.seq_kv * dk;
        let o_total = q_total;
        let int_total = cfg.logit_elements();

        let pick = |enabled: bool, f: f64| -> Staging {
            if enabled {
                Staging::Staged { fraction: f }
            } else {
                Staging::Streamed
            }
        };
        // A streamed (non-staged) tensor is refetched every iteration that
        // needs it: K and V pay iterations x their per-iteration traffic —
        // staging them is what makes large R profitable (§4.2.1).
        let off_q = offchip_elems(q_total, iters * dl.a, pick(en.query, f_q));
        let off_k = offchip_elems(kv_total, iters * dl.b, pick(en.key, f_k));
        let off_v = offchip_elems(kv_total, iters * da.b, pick(en.value, f_v));
        let off_o = offchip_elems(o_total, iters * da.c, pick(en.output, f_o));
        // The intermediate tensor: with its FLAT-tile enabled and fitting
        // it NEVER crosses the link. A spilled fraction (or a disabled
        // tile) round-trips once — the walk-through (§4.3) streams each
        // completed slice through the SFU, so what leaves the chip is
        // already softmaxed: one write by stage L, one read by stage A.
        let off_int = if en.intermediate {
            (1.0 - f_int.min(1.0)) * 2.0 * int_total as f64
        } else {
            2.0 * int_total as f64
        };
        let off_elems = off_q + off_k + off_v + off_o + off_int;
        let offchip_bytes = off_elems * e as f64;

        // --- On-chip traffic ---
        let on_l = gemm_onchip_traffic(&l_sub, df.stationarity_l, self.accel).total();
        let on_a = gemm_onchip_traffic(&a_sub, df.stationarity_a, self.accel).total();
        let sfu_traffic = 2 * int_total;
        let on_elems = (iters * (on_l + on_a) + sfu_traffic) as f64 + off_elems;
        let onchip_bytes = on_elems * e as f64;

        // --- Compute ---
        let pipelined = df.execution == crate::FusedExecution::Pipelined;
        // Spatial pipelining splits the array between the stages; the L
        // and A sub-GEMMs of one FLAT-tile do identical work, so an even
        // row split is balanced.
        let stage_accel = if pipelined {
            let mut a = self.accel.clone();
            a.pe = flat_arch::PeArray::new((a.pe.rows / 2).max(1), a.pe.cols);
            a
        } else {
            self.accel.clone()
        };
        let cl = gemm_compute(&l_sub, df.stationarity_l, &stage_accel);
        let ca = gemm_compute(&a_sub, df.stationarity_a, &stage_accel);
        let compute_per_iter = if pipelined {
            // Stages overlap across consecutive tiles, but every tile pays
            // the split array's fill AND drain on the critical path (§5.1:
            // "the pipelined array incurs fill and drain latencies").
            cl.steps.max(ca.steps) + stage_accel.noc.tile_switch_overhead(stage_accel.pe)
        } else if self.opts.double_buffered {
            // One exposed fill per stage; drains overlap the next stage's
            // fill under interleaved double buffering.
            cl.steps + ca.steps + 2 * self.accel.noc.fill_latency(self.accel.pe)
        } else {
            cl.steps
                + ca.steps
                + (cl.switches + ca.switches) * self.accel.noc.tile_switch_overhead(self.accel.pe)
        } as f64;
        // Stage-L's share of the per-iteration compute (for the demand
        // decomposition; the analytical fold only needs the sum).
        let logit_compute = if pipelined {
            compute_per_iter / 2.0
        } else if self.opts.double_buffered {
            (cl.steps + self.accel.noc.fill_latency(self.accel.pe)) as f64
        } else {
            (cl.steps + cl.switches * self.accel.noc.tile_switch_overhead(self.accel.pe)) as f64
        }
        .min(compute_per_iter);
        // The SFU is its own unit: it softmaxes FLAT-tile i while the PE
        // array runs L of tile i+1 (no dependency between them), so it
        // only binds when slower than the array.
        let sfu_per_iter = self.sfu_cycles(s.intermediate) as f64;

        // --- Per-iteration phase combination ---
        // Interleaved double buffering hides the next tile's fetch behind
        // BOTH stages (§5.1, feature 2); spatial pipelining only has one
        // stage's duration to hide it in, so its effective off-chip
        // window halves.
        let it = iters as f64;
        let off_window_penalty = if pipelined { 2.0 } else { 1.0 };
        // The L2 link, when present, is one more shared resource the
        // iteration cannot outrun.
        let l2_cycles_per_iter = self.accel.l2_sram.map_or(0.0, |l2| {
            l2_elems_per_iter * e as f64 / l2.bytes_per_cycle(self.accel.clock_hz)
        });
        let warmup_bytes = (dbm * (s.query + s.key + s.value) * e) as f64;
        let warmup = warmup_bytes.min(offchip_bytes) / self.accel.offchip_bytes_per_cycle();
        // The fold itself lives on the demand struct so the event-driven
        // backend executes exactly what the closed form prices.
        let demands = crate::FusedLaneDemands {
            iterations: iters,
            compute_cycles: compute_per_iter,
            logit_compute_cycles: logit_compute,
            attend_compute_cycles: compute_per_iter - logit_compute,
            sfu_cycles: sfu_per_iter,
            onchip_bytes: onchip_bytes / it,
            offchip_bytes: offchip_bytes / it,
            offchip_window_penalty: off_window_penalty,
            l2_cycles: l2_cycles_per_iter,
            warmup_cycles: warmup,
            onchip_bytes_per_cycle: self.accel.onchip_bytes_per_cycle(),
            offchip_bytes_per_cycle: self.accel.offchip_bytes_per_cycle(),
            double_buffered: self.opts.double_buffered,
        };
        let cycles = demands.total_cycles();

        // Useful MACs are the exact algorithmic count; a ragged tail tile
        // (rows not dividing Nq, heads not dividing H) still occupies a
        // full tile pass in the cycle estimate above, but its idle lanes
        // do no useful (or energy-costing) work.
        let macs = 2 * cfg.batch * cfg.seq_q * cfg.seq_kv * cfg.hidden;
        debug_assert!(iters * (cl.macs + ca.macs) >= macs);
        // L2 accesses are charged at twice the SG rate by folding 2x their
        // element count into the SG counter (the table has no separate
        // L2 entry; the 2x ratio matches a larger, slower SRAM).
        let l2_total_elems = (l2_elems_per_iter * it) as u64;
        let activity = ActivityCounts {
            macs,
            sl_accesses: 2 * macs,
            sg_accesses: on_elems as u64 + 2 * l2_total_elems,
            dram_accesses: off_elems as u64,
            sfu_elements: int_total,
        };
        let report = CostReport {
            cycles,
            ideal_cycles: macs as f64 / self.accel.peak_macs_per_cycle() as f64,
            traffic: Traffic {
                onchip: Bytes::new(onchip_bytes as u64),
                offchip: Bytes::new(offchip_bytes as u64),
            },
            activity,
            footprint: ws + req,
            energy: self.energy_table(dtype).energy(&activity),
        };
        (report, demands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Granularity, OperatorDataflow, Stationarity};
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    fn fused(accel: &Accelerator, seq: u64, g: Granularity) -> CostReport {
        let block = Model::bert().block(64, seq);
        CostModel::new(accel).fused_la_cost(&block, &FusedDataflow::new(g))
    }

    /// The headline: on the edge platform FLAT at row granularity fits the
    /// 512 KiB SG and reaches high utilization where the baseline stalls.
    #[test]
    fn flat_r_beats_sequential_base_on_edge() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cm = CostModel::new(&accel);
        let base = cm.sequential_la_cost(
            &block,
            &OperatorDataflow::baseline(Stationarity::Weight),
            &OperatorDataflow::baseline(Stationarity::Weight),
        );
        let flat = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(64)));
        assert!(
            flat.util() > base.util(),
            "{} <= {}",
            flat.util(),
            base.util()
        );
        assert!(flat.traffic.offchip < base.traffic.offchip);
    }

    /// FLAT-R keeps high utilization at sequence lengths where the buffer
    /// still holds its O(N) working set, and degrades gracefully (not
    /// catastrophically) beyond — while coarse granularities collapse.
    /// Figure 12(b) documents the same knee: even ATTACC needs more
    /// bandwidth past ~8K on the 32 MiB cloud part.
    #[test]
    fn row_granularity_scales_to_long_sequences() {
        let accel = Accelerator::cloud();
        let mid = fused(&accel, 4096, Granularity::Row(1024));
        assert!(mid.util() > 0.85, "FLAT-R util at 4K = {}", mid.util());

        let long = 65_536;
        let r = fused(&accel, long, Granularity::Row(256));
        let m = fused(&accel, long, Granularity::BatchMultiHead);
        assert!(r.util() > m.util(), "R {} <= M {}", r.util(), m.util());
        // And it still crushes the sequential baseline at the same point.
        let block = Model::bert().block(64, long);
        let base = CostModel::new(&accel).sequential_la_cost(
            &block,
            &OperatorDataflow::baseline(Stationarity::Weight),
            &OperatorDataflow::baseline(Stationarity::Weight),
        );
        assert!(
            r.util() > 2.0 * base.util(),
            "R {} vs base {}",
            r.util(),
            base.util()
        );
    }

    /// The fused intermediate tensor never crosses the off-chip link when
    /// its FLAT-tile fits.
    #[test]
    fn intermediate_traffic_eliminated() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cfg = *block.config();
        let cm = CostModel::new(&accel);
        let enabled = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(32)));
        let mut df = FusedDataflow::new(Granularity::Row(32));
        df.enables.intermediate = false;
        let disabled = cm.fused_la_cost(&block, &df);
        let delta = disabled.traffic.offchip.as_f64() - enabled.traffic.offchip.as_f64();
        // Disabling the intermediate tile adds a DRAM round trip (write
        // softmaxed + read back) of the whole logit tensor.
        let logit_bytes = cfg.logit_size().as_f64();
        assert!(
            delta > 1.8 * logit_bytes,
            "delta {delta} vs logit {logit_bytes}"
        );
    }

    /// Larger R means fewer iterations and less per-iteration overhead —
    /// until the footprint stops fitting.
    #[test]
    fn footprint_grows_with_r() {
        let accel = Accelerator::edge();
        let r16 = fused(&accel, 512, Granularity::Row(16));
        let r256 = fused(&accel, 512, Granularity::Row(256));
        assert!(r16.footprint < r256.footprint);
    }

    /// Key/value FLAT-tiles are what make row slicing cheap: disabling
    /// them forces a K refetch per row group.
    #[test]
    fn disabling_key_tile_costs_refetches() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cm = CostModel::new(&accel);
        let with = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(16)));
        let mut df = FusedDataflow::new(Granularity::Row(16));
        df.enables.key = false;
        df.enables.value = false;
        let without = cm.fused_la_cost(&block, &df);
        assert!(without.traffic.offchip > with.traffic.offchip);
    }

    /// §5.1's interleaved-vs-pipelined argument, quantified: the spatially
    /// pipelined fusion pays per-tile fill/drain on a split array and a
    /// halved prefetch window, so interleaving wins.
    #[test]
    fn interleaved_beats_pipelined() {
        for (accel, seq, r) in [
            (Accelerator::edge(), 4096u64, 64u64),
            (Accelerator::cloud(), 16_384, 1024),
        ] {
            let block = Model::bert().block(64, seq);
            let cm = CostModel::new(&accel);
            let inter = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(r)));
            let pipe = cm.fused_la_cost(&block, &FusedDataflow::pipelined(Granularity::Row(r)));
            assert!(
                inter.cycles <= pipe.cycles,
                "{}: interleaved {} > pipelined {}",
                accel.name,
                inter.cycles,
                pipe.cycles
            );
        }
    }

    /// §4.2.2's composite FLAT-tile: on the wide cloud array, packing
    /// several heads into one slice recovers the spatial parallelism a
    /// small per-head row count cannot provide alone.
    #[test]
    fn composite_tiles_help_wide_arrays() {
        let accel = Accelerator::cloud();
        let block = Model::bert().block(64, 4096);
        let cm = CostModel::new(&accel);
        // R=16 alone: a 16-row slice underfills 256 array rows.
        let thin = cm.fused_la_cost(&block, &FusedDataflow::new(Granularity::Row(16)));
        // Same rows, 4 heads per slice: 4x the spatial work per iteration.
        let packed = cm.fused_la_cost(
            &block,
            &FusedDataflow::new(Granularity::Composite {
                batch_t: 1,
                head_t: 4,
                rows: 16,
            }),
        );
        assert!(
            packed.util() > thin.util(),
            "packed {} <= thin {}",
            packed.util(),
            thin.util()
        );
    }

    /// §3.1's multi-level hierarchy: a second-level buffer extends the
    /// sequence-length reach of a small SG — overflow staging never
    /// beats first-level residency, but it crushes spilling to DRAM.
    #[test]
    fn l2_sram_extends_reach() {
        let stock = Accelerator::edge();
        let mut two_level = Accelerator::edge();
        two_level.l2_sram = Some(flat_arch::L2Sram::new(
            flat_tensor::Bytes::from_mib(8),
            200.0e9,
        ));
        let big_sg = Accelerator::edge().with_sg(flat_tensor::Bytes::from_mib(9));

        let block = Model::bert().block(64, 16_384);
        let df = FusedDataflow::new(Granularity::Row(64));
        let u = |a: &Accelerator| CostModel::new(a).fused_la_cost(&block, &df).util();

        let (u1, u2, u3) = (u(&stock), u(&two_level), u(&big_sg));
        assert!(u2 > u1 + 0.1, "L2 must help: {u2} vs {u1}");
        assert!(u2 <= u3 + 1e-9, "L2 never beats first-level residency");
        assert!(u2 > 0.9 * u3, "and recovers most of it: {u2} vs {u3}");
    }

    /// A starved L2 link becomes the binding resource rather than a free
    /// capacity tier.
    #[test]
    fn slow_l2_link_binds() {
        let mut fast = Accelerator::edge();
        fast.l2_sram = Some(flat_arch::L2Sram::new(
            flat_tensor::Bytes::from_mib(8),
            400.0e9,
        ));
        let mut slow = fast.clone();
        slow.l2_sram = Some(flat_arch::L2Sram::new(
            flat_tensor::Bytes::from_mib(8),
            10.0e9,
        ));
        let block = Model::bert().block(64, 16_384);
        let df = FusedDataflow::new(Granularity::Row(64));
        let fast_u = CostModel::new(&fast).fused_la_cost(&block, &df).util();
        let slow_u = CostModel::new(&slow).fused_la_cost(&block, &df).util();
        assert!(fast_u > slow_u, "{fast_u} <= {slow_u}");
    }

    #[test]
    fn ideal_cycles_match_macs() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cfg = *block.config();
        let r =
            CostModel::new(&accel).fused_la_cost(&block, &FusedDataflow::new(Granularity::Head));
        let total_macs = 2 * cfg.batch * cfg.seq_q * cfg.seq_kv * cfg.hidden;
        assert_eq!(r.activity.macs, total_macs);
    }
}
