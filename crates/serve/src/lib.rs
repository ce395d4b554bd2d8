//! `flat-serve` — a continuous-batching autoregressive inference runtime
//! with a paged KV-cache, built on the `flat-kernels` streaming numerics.
//!
//! The repo below this crate prices and executes *single* attention
//! workloads; serving heavy traffic is a different shape of problem: a
//! stream of requests, each carrying a prompt and wanting a generated
//! continuation, competing for one accelerator and one pool of KV memory.
//! This crate provides the runtime layer:
//!
//! * [`KvPool`] / [`KvLayout`] — a paged KV-cache (fixed-size token
//!   blocks, free list, per-request [`BlockTable`]s) with capacity
//!   accounted against the modeled memory hierarchy in `flat-arch`;
//! * [`serve`] / [`EngineConfig`] — the continuous-batching engine:
//!   iteration-level scheduling that mixes prefill chunks and decode
//!   steps in every tick, weighted-fair multi-tenant admission with
//!   backpressure, priority-aware preempt-by-recompute eviction under KV
//!   pressure, and optional copy-on-write prefix dedup
//!   ([`EngineConfig::dedup`]) that shares identical prompt-prefix KV
//!   blocks across requests, executing each decode token through
//!   [`flat_kernels::decode_attention_with`] over the request's cache
//!   blocks ([`KvPool::blocks`]), a block at a time;
//! * [`ServeError`] / [`DropReason`] — the robustness layer: typed errors
//!   instead of panics, admission-time rejection of provably unservable
//!   requests, and deadline (SLO) shedding with per-reason drop counters;
//! * [`WorkloadSpec`] — synthetic Poisson traffic with prompt/output
//!   lengths drawn from the paper's long-sequence `Task` presets, plus an
//!   optional per-request SLO;
//! * [`ServeMetrics`] — per-request TTFT/TPOT/E2E percentiles,
//!   throughput *and* goodput, drop-reason counters, and KV-pool
//!   occupancy, serialized to JSON for the bench snapshots;
//! * [`serve_dist_elastic`] / [`DistServeConfig`] — the one full-control
//!   entry point. It runs the same engine on a multi-accelerator cluster
//!   (pooled KV capacity striped across shards, tensor-parallel tick
//!   pricing, `flat-dist` collective time paid on the virtual clock,
//!   reported via [`DistServeMetrics`]) and takes three more inputs:
//!   - an elastic [`ScalePlan`] that resizes the cluster mid-run;
//!   - a seeded [`FaultPlan`] (mid-run KV-pool shrinkage, corrupted
//!     specs, NaN latencies, clock skew) backing the chaos test suite;
//!   - a [`flat_telemetry::TraceSink`] that records per-request
//!     lifecycle spans (queued → prefill → decode →
//!     finished/dropped/preempted), KV/queue/scheduler counter tracks,
//!     and one fabric lane of collective slices (once per tick, tagged
//!     with the tick's chip count), stamped on the deterministic
//!     virtual clock so fixed seeds give byte-identical Perfetto traces.
//!
//! [`serve`] is [`serve_dist_elastic`] on a 1-chip cluster with no
//! resizes, no faults and no trace: single-chip serving is the
//! degenerate cluster, and both share one engine path.
//!
//! # Example
//!
//! ```
//! use flat_arch::Accelerator;
//! use flat_serve::{serve, EngineConfig, WorkloadSpec};
//! use flat_workloads::{Model, Task};
//!
//! let model = Model::by_name("bert").unwrap();
//! let accel = Accelerator::edge();
//! let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 8, 200.0);
//! spec.prompt_mean = 32; // keep the doctest fast
//! spec.output_mean = 4;
//! let workload = spec.generate(42).unwrap();
//! let cfg = EngineConfig::for_platform(&accel, &model, 42);
//! let metrics = serve(&accel, &model, &workload, &cfg).unwrap();
//! assert_eq!(metrics.finished, 8);
//! assert_eq!(metrics.dropped, 0);
//! assert!(metrics.ttft.p50_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Robustness contract: non-test code in this crate must not carry panic
// paths. The clippy CI step fails on any violation.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod dist;
mod engine;
mod error;
mod faults;
mod kv;
mod metrics;
mod request;
mod workload;

pub use dist::{
    serve_dist_elastic, DistServeConfig, DistServeMetrics, ScaleEvent, ScaleEventRecord, ScalePlan,
};
pub use engine::{serve, EngineConfig};
pub use error::{DropReason, ServeError};
pub use faults::{FaultInjector, FaultPlan};
pub use flat_kernels::ComputePrecision;
pub use kv::{BlockTable, KvLayout, KvPool};
pub use metrics::{
    DropCounts, KvPoolStats, Percentiles, ServeMetrics, TenantMetrics, WindowSample,
};
pub use request::{Phase, Request, RequestSpec};
pub use workload::{merge_streams, task_by_name, WorkloadSpec};
