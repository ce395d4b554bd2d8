//! Block- and model-level cost aggregation, split by the Figure 11
//! operator categories.

use crate::model::CostModel;
use crate::{BlockDataflow, CostReport, LaExecution};
use flat_workloads::{AttentionBlock, Model, OpCategory, Scope};
use serde::{Deserialize, Serialize};

/// Cost of one attention block, broken down the way Figure 11 stacks it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlockCost {
    /// The Logit-Attend pair (fused or sequential).
    pub logit_attend: CostReport,
    /// The Q/K/V/O projections.
    pub projection: CostReport,
    /// The two feed-forward layers.
    pub feed_forward: CostReport,
}

impl BlockCost {
    /// Whole-block cost (sequential composition of the three categories).
    #[must_use]
    pub fn total(&self) -> CostReport {
        self.logit_attend
            .then(&self.projection)
            .then(&self.feed_forward)
    }

    /// Cost of one category.
    #[must_use]
    pub fn category(&self, cat: OpCategory) -> CostReport {
        match cat {
            OpCategory::LogitAttend => self.logit_attend,
            OpCategory::Projection => self.projection,
            OpCategory::FeedForward => self.feed_forward,
        }
    }

    /// Repeats the block `times` (a model's identical blocks).
    #[must_use]
    pub fn repeat(&self, times: u64) -> BlockCost {
        BlockCost {
            logit_attend: self.logit_attend.repeat(times),
            projection: self.projection.repeat(times),
            feed_forward: self.feed_forward.repeat(times),
        }
    }
}

impl CostModel<'_> {
    /// Cost of the L-A pair under the block dataflow's execution choice.
    #[must_use]
    pub fn la_cost(&self, block: &AttentionBlock, la: &LaExecution) -> CostReport {
        match la {
            LaExecution::Sequential { logit, attend } => {
                self.sequential_la_cost(block, logit, attend)
            }
            LaExecution::Fused(fused) => self.fused_la_cost(block, fused),
        }
    }

    /// Cost of a whole attention block under `df`.
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
    /// let cost = CostModel::new(&accel).block_cost(&block, &BlockDataflow::flat(Granularity::Row(64)));
    /// assert!(cost.total().util() > 0.0);
    /// ```
    #[must_use]
    pub fn block_cost(&self, block: &AttentionBlock, df: &BlockDataflow) -> BlockCost {
        let cfg = *block.config();
        let seq = |cat: OpCategory| -> CostReport {
            block
                .operators_in_category(cat)
                .map(|op| self.operator_cost(op, &df.others, &cfg))
                .fold(CostReport::default(), |acc, r| acc.then(&r))
        };
        BlockCost {
            logit_attend: self.la_cost(block, &df.la),
            projection: seq(OpCategory::Projection),
            feed_forward: seq(OpCategory::FeedForward),
        }
    }

    /// Cost at one of the Figure 8 analysis scopes. `Model` scope needs a
    /// block count; use [`CostModel::model_cost`] for that.
    #[must_use]
    pub fn scope_cost(
        &self,
        block: &AttentionBlock,
        df: &BlockDataflow,
        scope: Scope,
    ) -> CostReport {
        match scope {
            Scope::LogitAttend => self.la_cost(block, &df.la),
            Scope::Block | Scope::Model => self.block_cost(block, df).total(),
        }
    }

    /// Cost of a whole model (its identical blocks in sequence) at a batch
    /// size and sequence length.
    #[must_use]
    pub fn model_cost(&self, model: &Model, batch: u64, seq: u64, df: &BlockDataflow) -> BlockCost {
        let block = model.block(batch, seq);
        self.block_cost(&block, df).repeat(model.blocks())
    }

    /// Cost of a decoder block: both L-A pairs (causal self-attention and
    /// cross-attention) run under the block dataflow's L-A strategy; the
    /// eight projections and the FFN pair under its non-fused dataflow.
    ///
    /// # Example
    ///
    /// ```
    /// use flat_arch::Accelerator;
    /// use flat_core::{BlockDataflow, CostModel, Granularity};
    /// use flat_workloads::{DecoderBlock, Model};
    ///
    /// let accel = Accelerator::cloud();
    /// let block = DecoderBlock::for_model(&Model::t5_small(), 64, 1024, 4096);
    /// let cm = CostModel::new(&accel);
    /// let base = cm.decoder_block_cost(&block, &BlockDataflow::base()).total();
    /// let flat = cm.decoder_block_cost(&block, &BlockDataflow::flat(Granularity::Row(256))).total();
    /// assert!(flat.cycles < base.cycles);
    /// ```
    #[must_use]
    pub fn decoder_block_cost(
        &self,
        block: &flat_workloads::DecoderBlock,
        df: &BlockDataflow,
    ) -> BlockCost {
        let la_self = self.la_cost(block.self_attention(), &df.la);
        let la_cross = self.la_cost(block.cross_attention(), &df.la);
        let others = |cat: OpCategory, attn: &AttentionBlock| -> CostReport {
            let cfg = *attn.config();
            attn.operators_in_category(cat)
                .map(|op| self.operator_cost(op, &df.others, &cfg))
                .fold(CostReport::default(), |acc, r| acc.then(&r))
        };
        BlockCost {
            logit_attend: la_self.then(&la_cross),
            projection: others(OpCategory::Projection, block.self_attention())
                .then(&others(OpCategory::Projection, block.cross_attention())),
            feed_forward: others(OpCategory::FeedForward, block.self_attention()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Granularity;
    use flat_arch::Accelerator;

    #[test]
    fn block_total_sums_categories() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cost = CostModel::new(&accel).block_cost(&block, &BlockDataflow::base());
        let total = cost.total();
        let by_cat: f64 = OpCategory::all()
            .iter()
            .map(|&c| cost.category(c).cycles)
            .sum();
        assert!((total.cycles - by_cat).abs() < 1e-6);
    }

    /// Figure 8: block-scope utilization exceeds L-A-scope utilization for
    /// the baselines at short sequences — the well-behaved projections and
    /// FCs dilute the L-A stall.
    #[test]
    fn other_operators_dilute_la_at_short_seq() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        let cm = CostModel::new(&accel);
        let df = BlockDataflow::base();
        let la = cm.scope_cost(&block, &df, Scope::LogitAttend);
        let blk = cm.scope_cost(&block, &df, Scope::Block);
        assert!(blk.util() > la.util(), "{} <= {}", blk.util(), la.util());
    }

    /// At long sequences the L-A operators dominate the whole block, so
    /// block-scope utilization converges toward L-A-scope utilization.
    #[test]
    fn la_dominates_at_long_seq() {
        let accel = Accelerator::cloud();
        let cm = CostModel::new(&accel);
        let df = BlockDataflow::base();
        let cost = cm.block_cost(&Model::xlm().block(64, 65_536), &df);
        assert!(cost.logit_attend.cycles > 3.0 * cost.projection.cycles);
        // Already at 16K the pair outweighs projections and FFN together.
        let cost = cm.block_cost(&Model::xlm().block(64, 16_384), &df);
        assert!(
            cost.logit_attend.cycles > 2.0 * (cost.projection.cycles + cost.feed_forward.cycles)
        );
    }

    #[test]
    fn decoder_block_counts_both_attention_layers() {
        let accel = Accelerator::cloud();
        let cm = CostModel::new(&accel);
        let dec = flat_workloads::DecoderBlock::for_model(&Model::t5_small(), 8, 512, 512);
        let enc = Model::t5_small().block(8, 512);
        let df = BlockDataflow::base();
        let dec_cost = cm.decoder_block_cost(&dec, &df);
        let enc_cost = cm.block_cost(&enc, &df);
        // Same sequence on both sides: the decoder's L-A work is ~2x the
        // encoder's (self + cross), and the same machinery prices it.
        let ratio = dec_cost.logit_attend.ideal_cycles / enc_cost.logit_attend.ideal_cycles;
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        assert!(dec_cost.total().cycles > enc_cost.total().cycles);
    }

    #[test]
    fn flat_accelerates_the_decoder_cross_attention() {
        let accel = Accelerator::cloud();
        let cm = CostModel::new(&accel);
        // Long encoder context, short decoder window: cross-attention's
        // [dec, enc] logits dominate.
        let dec = flat_workloads::DecoderBlock::for_model(&Model::t5_small(), 64, 1024, 16_384);
        let base = cm.decoder_block_cost(&dec, &BlockDataflow::base()).total();
        let flat = cm
            .decoder_block_cost(&dec, &BlockDataflow::flat(Granularity::Row(256)))
            .total();
        assert!(
            flat.cycles < base.cycles * 0.7,
            "{} vs {}",
            flat.cycles,
            base.cycles
        );
    }

    #[test]
    fn model_cost_scales_with_block_count() {
        let accel = Accelerator::edge();
        let cm = CostModel::new(&accel);
        let df = BlockDataflow::flat(Granularity::Row(64));
        let one = cm.block_cost(&Model::bert().block(8, 512), &df).total();
        let model = cm.model_cost(&Model::bert(), 8, 512, &df).total();
        assert!((model.cycles - 12.0 * one.cycles).abs() < 1e-3);
        // Utilization is invariant under repetition.
        assert!((model.util() - one.util()).abs() < 1e-9);
    }
}
