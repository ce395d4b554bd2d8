//! The accelerator comparison matrix of Figure 7(c): BaseAccel,
//! FlexAccel-M, FlexAccel, ATTACC-M, ATTACC-Rx, ATTACC.

use crate::{Dse, Objective, SpaceKind};
use flat_core::{BlockCost, BlockDataflow};
use flat_workloads::Model;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An accelerator *capability class*: how flexible its dataflow support is
/// and which granularities it can stage. All classes share the same
/// silicon budget (PEs, SG, bandwidth); they differ only in which
/// dataflows their controllers can express — which is exactly the paper's
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccelClass {
    /// Conventional DNN accelerator: fixed `Base` dataflow.
    BaseAccel,
    /// Flexible intra-operator dataflow, programmable scratchpad staging
    /// at whole-tensor (M-Gran) granularity only.
    FlexAccelM,
    /// Fully flexible baseline accelerator: the whole sequential space
    /// (`Base-opt`).
    FlexAccel,
    /// FLAT-capable but fixed to M-Gran FLAT-tiles.
    AttAccM,
    /// FLAT-capable but fixed to R-Gran with the given row count.
    AttAccR(u64),
    /// Fully FLAT-capable accelerator: the whole design space
    /// (`FLAT-opt`).
    AttAcc,
}

impl AccelClass {
    /// The search space this class's controller can express.
    #[must_use]
    pub fn space(&self) -> SpaceKind {
        match self {
            AccelClass::BaseAccel => SpaceKind::BaseOnly,
            AccelClass::FlexAccelM => SpaceKind::SequentialMGran,
            AccelClass::FlexAccel => SpaceKind::Sequential,
            AccelClass::AttAccM => SpaceKind::FusedMGran,
            AccelClass::AttAccR(r) => SpaceKind::FusedRow(*r),
            AccelClass::AttAcc => SpaceKind::Full,
        }
    }

    /// The classes compared in Figure 11/12.
    #[must_use]
    pub fn comparison_set() -> Vec<AccelClass> {
        vec![
            AccelClass::BaseAccel,
            AccelClass::FlexAccelM,
            AccelClass::FlexAccel,
            AccelClass::AttAcc,
        ]
    }

    /// Evaluates this class on a model: finds the best dataflow its
    /// controller can express (for BaseAccel there is a small fixed set)
    /// and prices the whole model.
    ///
    /// # Example
    ///
    /// ```
    /// use flat_arch::Accelerator;
    /// use flat_dse::{AccelClass, Objective};
    /// use flat_workloads::Model;
    ///
    /// let accel = Accelerator::edge();
    /// let flex = AccelClass::FlexAccel.evaluate(&accel, &Model::bert(), 64, 4096, Objective::MaxUtil);
    /// let attacc = AccelClass::AttAcc.evaluate(&accel, &Model::bert(), 64, 4096, Objective::MaxUtil);
    /// assert!(attacc.cost.total().cycles <= flex.cost.total().cycles);
    /// ```
    #[must_use]
    pub fn evaluate(
        &self,
        accel: &flat_arch::Accelerator,
        model: &Model,
        batch: u64,
        seq: u64,
        objective: Objective,
    ) -> AccelEvaluation {
        let block = model.block(batch, seq);
        let dse = Dse::new(accel, &block);
        let (dataflow, per_block) = dse.best_block(self.space(), objective);
        let cost = per_block.repeat(model.blocks());
        AccelEvaluation {
            class: *self,
            dataflow,
            cost,
        }
    }
}

impl fmt::Display for AccelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelClass::BaseAccel => f.write_str("BaseAccel"),
            AccelClass::FlexAccelM => f.write_str("FlexAccel-M"),
            AccelClass::FlexAccel => f.write_str("FlexAccel"),
            AccelClass::AttAccM => f.write_str("ATTACC-M"),
            AccelClass::AttAccR(r) => write!(f, "ATTACC-R{r}"),
            AccelClass::AttAcc => f.write_str("ATTACC"),
        }
    }
}

/// Outcome of evaluating an accelerator class on a model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelEvaluation {
    /// Which class was evaluated.
    pub class: AccelClass,
    /// The dataflow its controller picked.
    pub dataflow: BlockDataflow,
    /// Whole-model cost, split by operator category.
    pub cost: BlockCost,
}

impl AccelEvaluation {
    /// Model-level speedup of `self` over `other` (>1 means `self` is
    /// faster).
    #[must_use]
    pub fn speedup_over(&self, other: &AccelEvaluation) -> f64 {
        other.cost.total().cycles / self.cost.total().cycles
    }

    /// Model-level energy-consumption ratio of `self` vs `other`
    /// (<1 means `self` uses less energy).
    #[must_use]
    pub fn energy_ratio_vs(&self, other: &AccelEvaluation) -> f64 {
        self.cost.total().energy.total_pj() / other.cost.total().energy.total_pj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_arch::Accelerator;

    #[test]
    fn class_hierarchy_is_monotone_in_capability() {
        let accel = Accelerator::edge();
        let model = Model::bert();
        let obj = Objective::MaxUtil;
        let base = AccelClass::BaseAccel.evaluate(&accel, &model, 64, 4096, obj);
        let flexm = AccelClass::FlexAccelM.evaluate(&accel, &model, 64, 4096, obj);
        let flex = AccelClass::FlexAccel.evaluate(&accel, &model, 64, 4096, obj);
        let attacc = AccelClass::AttAcc.evaluate(&accel, &model, 64, 4096, obj);
        // Strictly larger search spaces can only help runtime.
        assert!(flex.cost.total().cycles <= flexm.cost.total().cycles);
        assert!(attacc.cost.total().cycles <= flex.cost.total().cycles);
        assert!(flex.cost.total().cycles <= base.cost.total().cycles);
    }

    #[test]
    fn attacc_speedup_in_paper_range_at_4k_edge() {
        let accel = Accelerator::edge();
        let model = Model::bert();
        let obj = Objective::MaxUtil;
        let flex = AccelClass::FlexAccel.evaluate(&accel, &model, 64, 4096, obj);
        let attacc = AccelClass::AttAcc.evaluate(&accel, &model, 64, 4096, obj);
        let s = attacc.speedup_over(&flex);
        // Paper (Fig 12a, BERT edge 4K): 1.27x over FlexAccel. Accept a
        // generous band: meaningfully faster, not absurdly so.
        assert!((1.0..4.0).contains(&s), "speedup {s}");
    }

    #[test]
    fn attacc_saves_energy() {
        let accel = Accelerator::cloud();
        let model = Model::xlm();
        let obj = Objective::MaxUtil;
        let flexm = AccelClass::FlexAccelM.evaluate(&accel, &model, 64, 16_384, obj);
        let attacc = AccelClass::AttAcc.evaluate(&accel, &model, 64, 16_384, obj);
        assert!(attacc.energy_ratio_vs(&flexm) < 1.0);
    }

    #[test]
    fn labels_match_figure_7c() {
        assert_eq!(AccelClass::FlexAccelM.to_string(), "FlexAccel-M");
        assert_eq!(AccelClass::AttAccR(64).to_string(), "ATTACC-R64");
    }
}
