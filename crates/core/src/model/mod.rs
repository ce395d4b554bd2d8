//! The analytical cost model (§5.3): workload × dataflow × hardware →
//! runtime, utilization, traffic, and energy.
//!
//! The model prices three execution shapes:
//!
//! * a standalone operator ([`CostModel::operator_cost`]),
//! * the sequential L → softmax → A pipeline
//!   ([`CostModel::sequential_la_cost`]) used by every `Base*` dataflow,
//! * the fused, interleaved FLAT execution ([`CostModel::fused_la_cost`]),
//!
//! and aggregates them to blocks and models ([`CostModel::block_cost`],
//! [`CostModel::model_cost`]).
//!
//! Mechanisms modeled, each traceable to §5.3.1:
//!
//! * PE-array occupancy per stationarity with edge effects, and NoC
//!   fill/drain exposure per tile switch (or per segment when
//!   double-buffered) — [`compute`],
//! * SG-budgeted L2 tiling and the DRAM refetch multipliers of streamed
//!   tensors — [`l2`],
//! * L3-/FLAT-tile staging with the partial-fit extra-pass rule —
//!   [`staging`],
//! * softmax on the critical path, on- or off-chip depending on residency,
//! * shared, finite on-chip and off-chip bandwidth pools; with double
//!   buffering the compute/on-chip/off-chip demands overlap (max), without
//!   it they serialize (sum),
//! * Accelergy-style activity-count energy.

mod block;
mod compute;
mod demands;
mod fused;
mod l2;
mod report;
mod sequential;
mod single;
mod staging;

pub use block::BlockCost;
pub use compute::{gemm_compute, gemm_onchip_traffic, ComputeCost, OnchipTraffic};
pub(crate) use demands::busiest_lane;
pub use demands::{FusedLaneDemands, PhaseLaneDemands, SequentialLaneDemands};
pub use l2::{choose_l2_tiling, dram_traffic, DramTraffic, L2Tiling};
pub use report::{CostReport, Traffic};
pub use staging::{offchip_elems, Staging};

use flat_arch::Accelerator;
use flat_tensor::SoftmaxKind;
use serde::{Deserialize, Serialize};

/// Model toggles for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelOptions {
    /// Double-buffer DRAM-facing tiles: overlapped transfers and hidden
    /// tile switches, at 2× staging footprint. Matches the paper's chosen
    /// implementation (§5.1); disable to quantify its contribution.
    pub double_buffered: bool,
    /// Let the sequential baseline pipeline its softmax pass with the
    /// Attend operator's execution (softmax of a row completes just before
    /// A ingests it). This is dependency-legal and our default; disabling
    /// it charges softmax as its own serial phase between L and A, which
    /// is how the paper's baseline behaves and widens FLAT's advantage.
    pub overlap_softmax: bool,
    /// Which softmax family member the SFU runs: the exact two-pass
    /// (max + exp + divide, the default and the paper's configuration),
    /// FLASH-D (division folded into the accumulate recurrence), or the
    /// H-FA log-LUT variant (no exp, no divider). Prices both SFU cycles
    /// and SFU energy.
    pub softmax: SoftmaxKind,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            double_buffered: true,
            overlap_softmax: true,
            softmax: SoftmaxKind::Exact,
        }
    }
}

/// The cost model, bound to an accelerator.
///
/// # Example
///
/// ```
/// use flat_arch::Accelerator;
/// use flat_core::{BlockDataflow, CostModel, Granularity};
/// use flat_workloads::Model;
///
/// let accel = Accelerator::cloud();
/// let cm = CostModel::new(&accel);
/// let block = Model::xlm().block(64, 16_384);
/// let base = cm.block_cost(&block, &BlockDataflow::base()).total();
/// let flat = cm.block_cost(&block, &BlockDataflow::flat(Granularity::Row(512))).total();
/// assert!(flat.cycles < base.cycles);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    pub(crate) accel: &'a Accelerator,
    pub(crate) opts: ModelOptions,
}

impl<'a> CostModel<'a> {
    /// A cost model with default options (double buffering on).
    #[must_use]
    pub fn new(accel: &'a Accelerator) -> Self {
        CostModel {
            accel,
            opts: ModelOptions::default(),
        }
    }

    /// A cost model with explicit options.
    #[must_use]
    pub fn with_options(accel: &'a Accelerator, opts: ModelOptions) -> Self {
        CostModel { accel, opts }
    }

    /// The accelerator this model prices against.
    #[must_use]
    pub fn accelerator(&self) -> &'a Accelerator {
        self.accel
    }

    /// The model options in effect.
    #[must_use]
    pub fn options(&self) -> ModelOptions {
        self.opts
    }

    /// SFU cycles for `elements` logits under the selected softmax kind.
    pub(crate) fn sfu_cycles(&self, elements: u64) -> u64 {
        self.accel
            .sfu
            .softmax_cycles_kind(elements, self.opts.softmax)
    }

    /// The per-action energy table in effect: the accelerator's, rescaled
    /// for the element width and the selected softmax family member.
    pub(crate) fn energy_table(&self, dtype: flat_tensor::DataType) -> flat_arch::EnergyTable {
        self.accel
            .energy
            .scaled_for(dtype)
            .scaled_for_softmax(self.opts.softmax)
    }
}
