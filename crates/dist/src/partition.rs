//! Sharding strategies: how one attention layer is split across chips and
//! what the split costs in collectives.
//!
//! Each [`Partition`] answers two questions for a cluster of `p` chips:
//!
//! 1. **What does each chip compute?** — [`Partition::shard_config`]
//!    shrinks an [`AttentionConfig`] to the per-chip workload (heads for
//!    head-parallel, the KV side of the `N²` tile for sequence-parallel
//!    and KV-shard decode). Uneven splits round *up*: the modeled chip is
//!    the critical-path chip that got the ceiling share.
//! 2. **What must the chips exchange?** — [`Partition::collectives`]
//!    lists the [`CollectiveCall`]s (operation + exact byte count) the
//!    shard boundary forces per layer.
//!
//! The sequence-parallel exchange is the FLAT-specific one: each chip
//! holds a `seq_kv / p` slice of K/V and produces, per query row and
//! head, a *partial* online-softmax state — the running max `m`, running
//! sum `s`, and the `dk`-wide weighted accumulator. Merging those states
//! is [`flat_kernels::RowFold::merge`], the online-softmax fold run across
//! chips (numerically witnessed in [`crate::sharded`]), and its payload is the
//! `B·H·Nq·(dk + 2)` floats the all-reduce below prices.

use crate::fabric::Fabric;
use flat_workloads::AttentionConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How attention work is divided across the chips of a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Split the `H` heads across chips; every chip sees the full
    /// sequence. The output projection needs the full hidden dimension,
    /// so the shard outputs are all-gathered.
    HeadParallel,
    /// Split the key/value side of the `N²` logit tile across chips
    /// (context parallelism): every chip keeps its FLAT row-tiles of Q
    /// and streams a `seq_kv / p` slice of K/V, so the softmax
    /// row-reduction becomes an all-reduce of running (max, sum,
    /// accumulator) triples.
    SequenceParallel,
    /// Decode-time KV sharding for serving: the cache for one request is
    /// striped across chips, each decode step broadcasts the query and
    /// all-reduces the partial-softmax states.
    KvShard,
}

/// A collective operation a partition requires, priced by a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveOp {
    /// Every chip ends with the elementwise reduction of all inputs.
    AllReduce,
    /// Every chip ends with the concatenation of all shards.
    AllGather,
    /// Every chip ends with its shard of the reduction.
    ReduceScatter,
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CollectiveOp::AllReduce => "all-reduce",
            CollectiveOp::AllGather => "all-gather",
            CollectiveOp::ReduceScatter => "reduce-scatter",
        })
    }
}

/// One collective a shard boundary forces: the operation and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CollectiveCall {
    /// Which collective runs.
    pub op: CollectiveOp,
    /// Payload size in bytes (for an all-gather, the *gathered* size).
    pub bytes: u64,
}

impl CollectiveCall {
    /// Seconds this call takes on `fabric`.
    #[must_use]
    pub fn cost_s(&self, fabric: &Fabric) -> f64 {
        match self.op {
            CollectiveOp::AllReduce => fabric.all_reduce_s(self.bytes),
            CollectiveOp::AllGather => fabric.all_gather_s(self.bytes),
            CollectiveOp::ReduceScatter => fabric.reduce_scatter_s(self.bytes),
        }
    }

    /// Bytes this call pushes through the busiest chip's links on
    /// `fabric` — the traffic the link-energy model charges.
    #[must_use]
    pub fn traversed_bytes(&self, fabric: &Fabric) -> f64 {
        match self.op {
            CollectiveOp::AllReduce => fabric.all_reduce_traversed_bytes(self.bytes),
            CollectiveOp::AllGather | CollectiveOp::ReduceScatter => {
                fabric.all_gather_traversed_bytes(self.bytes)
            }
        }
    }
}

impl fmt::Display for CollectiveCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {} B", self.op, self.bytes)
    }
}

impl Partition {
    /// All strategies, for sweeps.
    #[must_use]
    pub const fn all() -> [Partition; 3] {
        [
            Partition::HeadParallel,
            Partition::SequenceParallel,
            Partition::KvShard,
        ]
    }

    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Lists the accepted names on an unknown label.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "head" | "head-parallel" => Ok(Partition::HeadParallel),
            "seq" | "sequence-parallel" => Ok(Partition::SequenceParallel),
            "kv" | "kv-shard" => Ok(Partition::KvShard),
            other => Err(format!("unknown partition {other:?} (head|seq|kv)")),
        }
    }

    /// The workload one chip runs when `cfg` is split `chips` ways.
    ///
    /// Uneven splits model the critical-path chip (ceiling share); more
    /// chips than shardable units leave one unit per chip. With one chip
    /// every strategy returns `cfg` unchanged — the base of the 1-chip
    /// equivalence the tests pin.
    #[must_use]
    pub fn shard_config(&self, cfg: &AttentionConfig, chips: usize) -> AttentionConfig {
        let p = chips.max(1) as u64;
        match self {
            Partition::HeadParallel => {
                let heads = cfg.heads.div_ceil(p).max(1);
                // Per-head width dk is invariant; the shard's hidden
                // dimension follows its head count.
                AttentionConfig::cross_attention(
                    cfg.batch,
                    heads,
                    cfg.seq_q,
                    cfg.seq_kv,
                    heads * cfg.dk(),
                    cfg.ffn_hidden,
                )
                .with_dtype(cfg.dtype)
            }
            Partition::SequenceParallel => AttentionConfig::cross_attention(
                cfg.batch,
                cfg.heads,
                cfg.seq_q,
                cfg.seq_kv.div_ceil(p).max(1),
                cfg.hidden,
                cfg.ffn_hidden,
            )
            .with_dtype(cfg.dtype),
            Partition::KvShard => AttentionConfig::cross_attention(
                cfg.batch,
                cfg.heads,
                1,
                cfg.seq_kv.div_ceil(p).max(1),
                cfg.hidden,
                cfg.ffn_hidden,
            )
            .with_dtype(cfg.dtype),
        }
    }

    /// The collectives one layer pays at this shard boundary (empty for a
    /// single chip — nothing to exchange).
    #[must_use]
    pub fn collectives(&self, cfg: &AttentionConfig, chips: usize) -> Vec<CollectiveCall> {
        if chips <= 1 {
            return Vec::new();
        }
        let elem = cfg.dtype.size_bytes();
        match self {
            // Gather the per-head-group outputs into the full B·Nq·D
            // activation every chip needs for its O-projection shard.
            Partition::HeadParallel => vec![CollectiveCall {
                op: CollectiveOp::AllGather,
                bytes: cfg.batch * cfg.seq_q * cfg.hidden * elem,
            }],
            // Merge partial online-softmax states: per (batch, head,
            // query row) a dk-wide accumulator plus the running (max,
            // sum) pair.
            Partition::SequenceParallel => vec![CollectiveCall {
                op: CollectiveOp::AllReduce,
                bytes: cfg.batch * cfg.heads * cfg.seq_q * (cfg.dk() + 2) * elem,
            }],
            // One decode step: broadcast the query row (modeled as an
            // all-gather of the B·D activation), then merge the partial
            // states for the single query row.
            Partition::KvShard => vec![
                CollectiveCall {
                    op: CollectiveOp::AllGather,
                    bytes: cfg.batch * cfg.hidden * elem,
                },
                CollectiveCall {
                    op: CollectiveOp::AllReduce,
                    bytes: cfg.batch * cfg.heads * (cfg.dk() + 2) * elem,
                },
            ],
        }
    }

    /// Total collective seconds for one layer on `fabric`. Folds from
    /// +0.0 because an empty iterator's `sum()` is -0.0.
    #[must_use]
    pub fn collective_s(&self, cfg: &AttentionConfig, fabric: &Fabric) -> f64 {
        self.collectives(cfg, fabric.chips)
            .iter()
            .map(|c| c.cost_s(fabric))
            .fold(0.0, |a, b| a + b)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Partition::HeadParallel => "head-parallel",
            Partition::SequenceParallel => "sequence-parallel",
            Partition::KvShard => "kv-shard",
        })
    }
}

// Hand-written so JSON carries the canonical display name (the one the
// CLI accepts and the knee tables print) while variant-name
// serializations from earlier snapshots still read back.
impl serde::Serialize for Partition {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl serde::Deserialize for Partition {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => match s.as_str() {
                "HeadParallel" => Ok(Partition::HeadParallel),
                "SequenceParallel" => Ok(Partition::SequenceParallel),
                "KvShard" => Ok(Partition::KvShard),
                other => Partition::by_name(other).map_err(serde::Error::custom),
            },
            _ => Err(serde::Error::custom("expected partition name")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Link, Topology};

    fn cfg() -> AttentionConfig {
        AttentionConfig::self_attention(8, 16, 4096, 1024, 4096)
    }

    #[test]
    fn one_chip_shard_is_the_whole_workload() {
        for p in Partition::all() {
            if p == Partition::KvShard {
                continue; // decode reshapes seq_q by design
            }
            assert_eq!(p.shard_config(&cfg(), 1), cfg(), "{p}");
            assert!(p.collectives(&cfg(), 1).is_empty(), "{p}");
        }
    }

    #[test]
    fn head_parallel_splits_heads_and_hidden_together() {
        let shard = Partition::HeadParallel.shard_config(&cfg(), 4);
        assert_eq!(shard.heads, 4);
        assert_eq!(shard.hidden, 256);
        assert_eq!(shard.dk(), cfg().dk(), "per-head width is invariant");
        assert_eq!(shard.seq_kv, cfg().seq_kv, "full sequence on every chip");
    }

    #[test]
    fn uneven_head_split_models_the_ceiling_chip() {
        let shard = Partition::HeadParallel.shard_config(&cfg(), 3);
        assert_eq!(shard.heads, 6, "ceil(16/3)");
        let over = Partition::HeadParallel.shard_config(&cfg(), 64);
        assert_eq!(over.heads, 1, "never below one head");
    }

    #[test]
    fn sequence_parallel_splits_only_the_kv_side() {
        let shard = Partition::SequenceParallel.shard_config(&cfg(), 8);
        assert_eq!(shard.seq_q, cfg().seq_q, "FLAT row-tiles stay whole");
        assert_eq!(shard.seq_kv, 512);
        assert_eq!(shard.heads, cfg().heads);
    }

    #[test]
    fn kv_shard_is_a_decode_step() {
        let shard = Partition::KvShard.shard_config(&cfg(), 4);
        assert_eq!(shard.seq_q, 1);
        assert_eq!(shard.seq_kv, 1024);
    }

    #[test]
    fn collective_payloads_match_the_tensor_algebra() {
        let c = cfg();
        let elem = c.dtype.size_bytes();
        let head = Partition::HeadParallel.collectives(&c, 8);
        assert_eq!(head.len(), 1);
        assert_eq!(head[0].op, CollectiveOp::AllGather);
        assert_eq!(head[0].bytes, 8 * 4096 * 1024 * elem, "B·Nq·D output");
        let seq = Partition::SequenceParallel.collectives(&c, 8);
        assert_eq!(seq[0].op, CollectiveOp::AllReduce);
        assert_eq!(
            seq[0].bytes,
            8 * 16 * 4096 * (64 + 2) * elem,
            "B·H·Nq·(dk+2) state"
        );
        let kv = Partition::KvShard.collectives(&c, 8);
        assert_eq!(kv.len(), 2, "query broadcast + state merge");
        assert!(
            kv.iter().map(|c| c.bytes).sum::<u64>() < seq[0].bytes,
            "decode is tiny"
        );
    }

    #[test]
    fn collective_seconds_sum_the_calls() {
        let fabric = Fabric::new(8, Topology::Ring, Link::cloud());
        let c = cfg();
        let by_hand: f64 = Partition::KvShard
            .collectives(&c, 8)
            .iter()
            .map(|call| call.cost_s(&fabric))
            .sum();
        assert_eq!(Partition::KvShard.collective_s(&c, &fabric), by_hand);
        let one = Fabric::new(1, Topology::Ring, Link::cloud());
        assert_eq!(Partition::SequenceParallel.collective_s(&c, &one), 0.0);
    }

    #[test]
    fn names_round_trip() {
        for (name, p) in [
            ("head", Partition::HeadParallel),
            ("seq", Partition::SequenceParallel),
            ("kv", Partition::KvShard),
        ] {
            assert_eq!(Partition::by_name(name).unwrap(), p);
        }
        assert!(Partition::by_name("expert").is_err());
    }
}
