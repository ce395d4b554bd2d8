//! `flat-insight` — the analysis layer over the flat telemetry.
//!
//! The rest of the stack produces deterministic observability artifacts:
//! Chrome trace documents from the serving engine (`--trace FILE` or an
//! in-process [`MemorySink`](flat_telemetry::MemorySink)) and windowed
//! [`WindowSample`](flat_serve::WindowSample) trajectories from
//! sustained runs. This crate turns those artifacts into answers:
//!
//! * [`Attribution`] — critical-path attribution: decompose each traced
//!   request's end-to-end latency into queued / prefill / recompute /
//!   decode / collective-exposed / other phases, with per-phase
//!   percentile distributions overall and per tenant
//!   (`flat insight attr TRACE.json`);
//! * [`DiffReport`] — differential analysis: align two traced runs by
//!   request id and attribute the latency delta to phases, drop-reason
//!   shifts, and the most-moved requests
//!   (`flat insight diff A.json B.json`);
//! * [`analyze_windows`] / [`InsightFinding`] — fleet health: multi-window
//!   SLO burn-rate (fast 3-window / slow 12-window gates) plus rolling
//!   3-sigma anomaly detection over trajectories, surfaced in the
//!   `flat fleet` report.
//!
//! Every analysis is pure arithmetic over its inputs: same artifacts in,
//! byte-identical JSON out. CI pins that contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attribution;
pub mod diff;
pub mod health;
pub mod trace;

pub use attribution::{
    Attribution, DropTally, PhaseBreakdown, PhaseStat, RequestPhases, TenantPhases, PHASE_NAMES,
};
pub use diff::{DiffReport, DropShift, PhaseDelta, RequestDelta};
pub use health::{analyze_windows, InsightFinding, DEFAULT_ERROR_BUDGET};
pub use trace::{from_events, parse_chrome_trace, ArgScalar, TraceEvent};
