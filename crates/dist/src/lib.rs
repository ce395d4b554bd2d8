//! # flat-dist — multi-accelerator sharded attention
//!
//! FLAT's dataflow (and every other crate in this workspace) models one
//! accelerator. This crate models what happens when one chip is not
//! enough: a deterministic cluster-level execution model that shards an
//! attention layer across copies of the existing
//! [`flat_arch::Accelerator`] and charges the communication the split
//! forces through a first-class collective cost layer.
//!
//! Three layers, each testable on its own:
//!
//! * [`fabric`] — the wires: ring / 2-D mesh / fully-connected
//!   [`Topology`]s of identical [`Link`]s, with α–β analytical costs for
//!   `all_reduce`, `all_gather`, `reduce_scatter`, and point-to-point KV
//!   transfer, validated against the closed-form ring-allreduce bound.
//! * [`partition`] — the split: a [`Partition`] enum (head-parallel,
//!   sequence-parallel FLAT tiles, KV-shard decode) mapping a workload
//!   to per-chip shards and the exact collective payloads the boundary
//!   costs. The sequence-parallel merge reuses the online-softmax fold,
//!   and [`sharded`] witnesses the math numerically against the
//!   single-chip streaming kernel.
//! * [`cost`] / [`sweep`] — the verdicts: [`DistModel`] composes a shard's
//!   unmodified `flat-core` report with fabric time and link energy
//!   (1 chip is an exact identity with the single-chip model), and
//!   [`Sweep`] re-optimizes the shard dataflow with `flat-dse` at every
//!   chip count × topology × partition point, locating the
//!   [`scaling_knee`].
//!
//! Everything is analytical and deterministic: same inputs, same bytes
//! out — the property `flat dist --json` relies on.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod fabric;
pub mod partition;
pub mod sharded;
pub mod sweep;

pub use cost::{DistModel, DistReport};
pub use fabric::{CollectiveAlgo, Fabric, Link, Topology};
pub use partition::{CollectiveCall, CollectiveOp, Partition};
pub use sharded::{head_parallel_attention, kv_shards, sequence_parallel_attention};
pub use sweep::{best_joint, scaling_knee, series, Sweep, SweepPoint, KNEE_RATIO};
