//! The FLAT dataflow and its analytical cost model — the paper's primary
//! contribution.
//!
//! FLAT (Fused Logit ATtention) fuses the two activation-activation
//! operators of an attention layer — Logit (`Q·Kᵀ`) and Attend
//! (`softmax(L)·V`) — and tiles *across* them so the quadratic `[N, N]`
//! intermediate tensor lives its whole life inside the on-chip scratchpad.
//! The softmax row reduction sets the finest legal slice (one full logit
//! row), which yields the granularity ladder M/B/H/R and, at row
//! granularity, an `O(N)` live footprint where every baseline needs
//! `Ω(N²)` (Table 2).
//!
//! This crate provides:
//!
//! * the dataflow vocabulary — [`Granularity`], [`Stationarity`],
//!   [`FusedEnables`]/[`OperandEnables`], [`OperatorDataflow`],
//!   [`FusedDataflow`], [`BlockDataflow`] (the Figure 7(b) rows),
//! * the footprint algebra of Table 2 ([`fused_footprint`],
//!   [`FusedSlices`]),
//! * the analytical cost model ([`CostModel`]) pricing workloads on
//!   `flat-arch` accelerators,
//! * roofline analysis ([`roofline`]) for Figure 2.
//!
//! # Quick start
//!
//! ```
//! use flat_arch::Accelerator;
//! use flat_core::{BlockDataflow, CostModel, Granularity};
//! use flat_workloads::Model;
//!
//! let accel = Accelerator::edge();
//! let block = Model::bert().block(64, 4096);
//! let cm = CostModel::new(&accel);
//!
//! let base = cm.block_cost(&block, &BlockDataflow::base()).total();
//! let flat = cm.block_cost(&block, &BlockDataflow::flat(Granularity::Row(64))).total();
//!
//! assert!(flat.util() > base.util());
//! assert!(flat.traffic.offchip < base.traffic.offchip);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod footprint;
mod loopnest;
mod model;
pub mod roofline;
pub mod schedule;

pub use loopnest::loop_nest;

pub use dataflow::{
    BlockDataflow, FusedDataflow, FusedEnables, FusedExecution, Granularity, L3Config, LaExecution,
    OperandEnables, OperatorDataflow, ParseDataflowError, Stationarity,
};
pub use footprint::{fused_footprint, fused_footprint_elems, table2_row_elems, FusedSlices};
pub use model::{
    choose_l2_tiling, dram_traffic, gemm_compute, gemm_onchip_traffic, offchip_elems, BlockCost,
    ComputeCost, CostModel, CostReport, DramTraffic, FusedLaneDemands, L2Tiling, ModelOptions,
    OnchipTraffic, PhaseLaneDemands, SequentialLaneDemands, Staging, Traffic,
};
