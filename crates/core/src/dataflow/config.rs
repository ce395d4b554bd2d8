//! Assembled dataflow configurations — the rows of Figure 7(b).

use crate::dataflow::{FusedEnables, Granularity, OperandEnables, Stationarity};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dataflow for one non-fused operator.
///
/// Combines an intra-operator dataflow (the [`Stationarity`] choice, which
/// fixes L1/L2 tiling against the PE array) with an optional L3 staging
/// tier: a [`Granularity`] and per-tensor [`OperandEnables`]. `l3: None` is
/// the plain baseline that streams every L2 tile from DRAM.
///
/// # Example
///
/// ```
/// use flat_core::{Granularity, OperatorDataflow, Stationarity};
///
/// let base = OperatorDataflow::baseline(Stationarity::Weight);
/// assert!(base.l3.is_none());
/// let staged = OperatorDataflow::staged(Stationarity::Weight, Granularity::Batch);
/// assert!(staged.l3.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OperatorDataflow {
    /// Which operand the PE array holds resident.
    pub stationarity: Stationarity,
    /// Optional L3 staging tier.
    pub l3: Option<L3Config>,
}

/// The L3 staging tier of a non-fused operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct L3Config {
    /// Slice size of the staged tensors.
    pub granularity: Granularity,
    /// Which tensors are staged.
    pub enables: OperandEnables,
}

impl OperatorDataflow {
    /// Plain baseline: no L3 tier, stream everything (the `Base` row of
    /// Figure 7(b)).
    #[must_use]
    pub const fn baseline(stationarity: Stationarity) -> Self {
        OperatorDataflow {
            stationarity,
            l3: None,
        }
    }

    /// Baseline with an L3 tier at `granularity`, all tensors staged
    /// (the `Base-X` rows of Figure 7(b)).
    #[must_use]
    pub const fn staged(stationarity: Stationarity, granularity: Granularity) -> Self {
        OperatorDataflow {
            stationarity,
            l3: Some(L3Config {
                granularity,
                enables: OperandEnables::all(),
            }),
        }
    }
}

impl fmt::Display for OperatorDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.l3 {
            None => write!(f, "base/{}", self.stationarity),
            Some(l3) => write!(f, "staged-{}/{}", l3.granularity, self.stationarity),
        }
    }
}

/// How the two stages of the fused operator share the PE array (§5.1,
/// feature 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FusedExecution {
    /// Temporal pipelining: all PEs compute the L stage of a FLAT-tile,
    /// then all PEs compute its A stage — the paper's chosen
    /// implementation.
    #[default]
    Interleaved,
    /// Spatial pipelining: half the array runs L while the other half
    /// runs A of the previous tile. Pays per-tile fill/drain, halves the
    /// prefetch window, and (outside this operator) leaves a split array
    /// for non-fused work — the §5.1 downsides, modeled so they can be
    /// measured.
    Pipelined,
}

/// Dataflow for the fused L-A operator (the FLAT contribution, §4.2).
///
/// # Example
///
/// ```
/// use flat_core::{FusedDataflow, Granularity};
///
/// let flat_r64 = FusedDataflow::new(Granularity::Row(64));
/// assert!(flat_r64.enables.intermediate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FusedDataflow {
    /// FLAT-tile granularity (M/B/H/R).
    pub granularity: Granularity,
    /// Which tensors get FLAT-tiles.
    pub enables: FusedEnables,
    /// Intra-operator dataflow of the Logit stage.
    pub stationarity_l: Stationarity,
    /// Intra-operator dataflow of the Attend stage.
    pub stationarity_a: Stationarity,
    /// Interleaved (temporal) or pipelined (spatial) stage execution.
    pub execution: FusedExecution,
}

impl FusedDataflow {
    /// A fused dataflow at `granularity` with every FLAT-tile enabled.
    ///
    /// The default stage dataflows are output-stationary for L and
    /// input-stationary for A: both keep the array's spatial dimensions on
    /// the large `rows × N` extents instead of the small per-head `dk`,
    /// which is the right call for every workload in the suite (DSE
    /// explores the alternatives).
    #[must_use]
    pub const fn new(granularity: Granularity) -> Self {
        FusedDataflow {
            granularity,
            enables: FusedEnables::all(),
            stationarity_l: Stationarity::Output,
            stationarity_a: Stationarity::Input,
            execution: FusedExecution::Interleaved,
        }
    }

    /// The same dataflow under spatially pipelined execution.
    #[must_use]
    pub const fn pipelined(granularity: Granularity) -> Self {
        let mut df = FusedDataflow::new(granularity);
        df.execution = FusedExecution::Pipelined;
        df
    }
}

impl fmt::Display for FusedDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FLAT-{}", self.granularity)
    }
}

/// How the L-A pair is executed: sequentially (all baselines) or fused
/// (FLAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaExecution {
    /// Run L to completion, softmax the whole tensor, then run A.
    Sequential {
        /// Dataflow of the Logit operator.
        logit: OperatorDataflow,
        /// Dataflow of the Attend operator.
        attend: OperatorDataflow,
    },
    /// Interleave L and A per FLAT-tile.
    Fused(FusedDataflow),
}

impl LaExecution {
    /// True for the fused (FLAT) execution.
    #[must_use]
    pub const fn is_fused(&self) -> bool {
        matches!(self, LaExecution::Fused(_))
    }

    /// Short label for reports (`Base`, `Base-B`, `FLAT-R64`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            LaExecution::Sequential { logit, .. } => match logit.l3 {
                None => "Base".to_owned(),
                Some(l3) => format!("Base-{}", l3.granularity),
            },
            LaExecution::Fused(fused) => format!("FLAT-{}", fused.granularity),
        }
    }
}

/// A complete dataflow assignment for an attention block: how L-A runs and
/// how every non-fused operator (Q/K/V/O/FC1/FC2) runs.
///
/// The named constructors produce the comparison rows of Figure 7(b); the
/// `*-opt` rows come out of `flat-dse`.
///
/// # Example
///
/// ```
/// use flat_core::{BlockDataflow, Granularity};
///
/// let base = BlockDataflow::base();
/// assert!(!base.la.is_fused());
/// let flat = BlockDataflow::flat(Granularity::Row(64));
/// assert!(flat.la.is_fused());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockDataflow {
    /// Execution strategy for the Logit-Attend pair.
    pub la: LaExecution,
    /// Dataflow for every other (non-fused) operator.
    pub others: OperatorDataflow,
}

impl BlockDataflow {
    /// `Base`: sequential execution, no L3 tier anywhere.
    #[must_use]
    pub const fn base() -> Self {
        let op = OperatorDataflow::baseline(Stationarity::Weight);
        BlockDataflow {
            la: LaExecution::Sequential {
                logit: op,
                attend: op,
            },
            others: op,
        }
    }

    /// `Base-X`: sequential execution with an L3 tier at `granularity` on
    /// the L and A operators (and M-Gran staging for the rest).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is row-level — a sequential dataflow cannot
    /// exploit row slices (§4.2.2).
    #[must_use]
    pub fn base_staged(granularity: Granularity) -> Self {
        assert!(
            !granularity.requires_fusion(),
            "sequential (Base-X) dataflows cannot use row granularity"
        );
        let op = OperatorDataflow::staged(Stationarity::Weight, granularity);
        BlockDataflow {
            la: LaExecution::Sequential {
                logit: op,
                attend: op,
            },
            others: OperatorDataflow::staged(Stationarity::Weight, Granularity::BatchMultiHead),
        }
    }

    /// `FLAT-X` / `FLAT-Rx`: fused L-A at `granularity`, all FLAT-tiles
    /// enabled; other operators staged at M-Gran.
    #[must_use]
    pub const fn flat(granularity: Granularity) -> Self {
        BlockDataflow {
            la: LaExecution::Fused(FusedDataflow::new(granularity)),
            others: OperatorDataflow::staged(Stationarity::Weight, Granularity::BatchMultiHead),
        }
    }

    /// Short label for reports (`Base`, `Base-B`, `FLAT-R64`, …): the
    /// label of its L-A execution.
    #[must_use]
    pub fn label(&self) -> String {
        self.la.label()
    }
}

impl fmt::Display for BlockDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_7b() {
        assert_eq!(BlockDataflow::base().label(), "Base");
        assert_eq!(
            BlockDataflow::base_staged(Granularity::Batch).label(),
            "Base-B"
        );
        assert_eq!(BlockDataflow::flat(Granularity::Head).label(), "FLAT-H");
        assert_eq!(
            BlockDataflow::flat(Granularity::Row(128)).label(),
            "FLAT-R128"
        );
    }

    #[test]
    #[should_panic(expected = "row granularity")]
    fn base_cannot_use_row_granularity() {
        let _ = BlockDataflow::base_staged(Granularity::Row(4));
    }

    #[test]
    fn base_has_no_l3_on_la() {
        match BlockDataflow::base().la {
            LaExecution::Sequential { logit, attend } => {
                assert!(logit.l3.is_none());
                assert!(attend.l3.is_none());
            }
            LaExecution::Fused(_) => panic!("base is sequential"),
        }
    }

    #[test]
    fn fused_defaults_enable_everything() {
        match BlockDataflow::flat(Granularity::Row(64)).la {
            LaExecution::Fused(f) => assert_eq!(f.enables.count_enabled(), 5),
            LaExecution::Sequential { .. } => panic!("flat is fused"),
        }
    }
}
