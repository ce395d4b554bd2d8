//! FLAT — facade crate for the full reproduction stack.
//!
//! Re-exports every sub-crate under one roof so examples and downstream
//! users can depend on a single crate. See the individual crates for the
//! substance:
//!
//! * [`tensor`] — shapes, dtypes, GEMM descriptors, operational intensity.
//! * [`arch`] — the abstract accelerator (PE array, scratchpads, NoC, SFU,
//!   memory system, energy table) plus the paper's edge/cloud presets.
//! * [`workloads`] — the model zoo (BERT, FlauBERT, XLM, TransformerXL, T5)
//!   and the attention-block operator graph.
//! * [`core`] — the FLAT dataflow and its analytical cost model.
//! * [`kernels`] — numerical witness: fused row-tiled attention with
//!   streaming softmax, proven equivalent to the naive computation.
//! * [`dse`] — design-space exploration and the ATTACC accelerator configs.
//! * [`serve`] — the continuous-batching inference runtime: paged
//!   KV-cache, iteration-level scheduler, serving metrics, typed errors
//!   with deadline-aware shedding, and a seeded fault-injection harness.
//! * [`desim`] — the discrete-event simulation backend: virtual-time
//!   contexts over bounded backpressured channels, cross-validating the
//!   analytical cost model lane by lane.
//! * [`dist`] — multi-accelerator sharded execution: fabric topologies
//!   with analytical collective costs, head/sequence/KV partition
//!   strategies, and chip-count scaling sweeps.
//! * [`telemetry`] — the unified observability layer: trace spans and
//!   counters behind a `TraceSink`, Chrome/Perfetto trace export, and
//!   Prometheus-style text exposition.
//! * [`fleet`] — sustained-load fleet traffic: diurnal multi-tenant
//!   request streams with prefix templates, and the report framing one
//!   [`serve::serve_dist_elastic`] run of them (windowed trajectories,
//!   elastic resizes, health findings).
//! * [`insight`] — the analysis layer over the telemetry: per-request
//!   critical-path attribution of traces, differential run comparison,
//!   and SLO burn-rate and anomaly findings over trajectories.

#![forbid(unsafe_code)]

pub use flat_arch as arch;
pub use flat_core as core;
pub use flat_desim as desim;
pub use flat_dist as dist;
pub use flat_dse as dse;
pub use flat_fleet as fleet;
pub use flat_gpu as gpu;
pub use flat_insight as insight;
pub use flat_kernels as kernels;
pub use flat_serve as serve;
pub use flat_telemetry as telemetry;
pub use flat_tensor as tensor;
pub use flat_workloads as workloads;
