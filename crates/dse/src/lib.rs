//! Design-space exploration for FLAT dataflows and ATTACC accelerators
//! (§5.3.3).
//!
//! The DSE enumerates every dataflow hyper-parameter of Figure 6(a) —
//! cross-operator granularity (M/B/H/R with candidate row counts),
//! FLAT-tile enables, stage stationarities, and the sequential-baseline
//! equivalents — prices each point with the `flat-core` cost model, and
//! optimizes a pluggable [`Objective`] (utilization, energy, EDP,
//! footprint).
//!
//! [`SpaceKind`] restricts the search to what a given accelerator's
//! controller can express; [`AccelClass`] packages the Figure 7(c)
//! comparison matrix (BaseAccel / FlexAccel-M / FlexAccel / ATTACC-*).
//! [`required_offchip_bw`] finds the smallest off-chip bandwidth at which
//! a space's best dataflow reaches a target utilization (Figure 12(b),
//! `flat bw`).
//!
//! # Example
//!
//! ```
//! use flat_arch::Accelerator;
//! use flat_dse::{Dse, Objective, SpaceKind};
//! use flat_workloads::Model;
//!
//! let accel = Accelerator::cloud();
//! let block = Model::xlm().block(64, 16_384);
//! let dse = Dse::new(&accel, &block);
//!
//! let base_opt = dse.best_la(SpaceKind::Sequential, Objective::MaxUtil);
//! let flat_opt = dse.best_la(SpaceKind::Full, Objective::MaxUtil);
//! assert!(flat_opt.report.util() >= base_opt.report.util());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod bw;
mod hw;
mod objective;
mod precision;
mod search;
mod space;

pub use accel::{AccelClass, AccelEvaluation};
pub use bw::required_offchip_bw;
pub use hw::{best_hardware, HwCandidate, HwSearchResult, HwSearchSpec};
pub use objective::Objective;
pub use precision::{precision_pareto, PrecisionChoice, PrecisionPoint};
pub use search::{pareto_frontier, DesignPoint, Dse};
pub use space::{la_points, others_points, row_candidates, SpaceKind};
