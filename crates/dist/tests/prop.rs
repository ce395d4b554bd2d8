//! Property tests for the distributed layer.
//!
//! Three families of invariants:
//!
//! 1. **Collective algebra** — costs are symmetric in participant order
//!    (a collective is a set operation), monotone in message size on
//!    every topology × algorithm pair, and monotone in chip count along
//!    powers of two: non-decreasing for ring/mesh/torus/tree (more
//!    steps), non-increasing for fully-connected under the direct
//!    schedules (more dedicated links than data). Powers of two because
//!    a prime chip count degenerates the mesh to a line and its latency
//!    term can shrink at the next composite — a real property of
//!    near-square factorization, not a model bug.
//! 2. **Closed forms and identities** — the ring all-reduce equals
//!    `2(p−1)(α + n/(pβ))` exactly for random α, β, n, p;
//!    `reduce_scatter + all_gather == all_reduce` on the ring for every
//!    algorithm; halving-doubling makes `2·log2(p)` steps at
//!    power-of-two chip counts and falls back to the ring schedule
//!    elsewhere.
//! 3. **Sharded numerics** — sequence-parallel partial attention merged
//!    with the cross-chip online-softmax fold equals single-chip
//!    streaming attention for every shard count and every tile split
//!    straddling the shard boundaries (the acceptance criterion), and on
//!    one chip it is the streaming kernel's fold bit for bit.

use flat_dist::{sequence_parallel_attention, CollectiveAlgo, Fabric, Link, Partition, Topology};
use flat_kernels::{streaming_attention, Mask, MultiHeadInput};
use flat_workloads::AttentionConfig;
use proptest::prelude::*;

fn any_topology() -> impl Strategy<Value = Topology> {
    proptest::sample::select(Topology::all().to_vec())
}

fn any_algo() -> impl Strategy<Value = CollectiveAlgo> {
    proptest::sample::select(CollectiveAlgo::all().to_vec())
}

fn any_link() -> impl Strategy<Value = (f64, f64)> {
    // (bandwidth GB/s, latency µs) over realistic fabric ranges.
    (1.0f64..1000.0, 0.1f64..20.0)
}

fn fabric(chips: usize, topology: Topology, (gbps, us): (f64, f64)) -> Fabric {
    Fabric::new(
        chips,
        topology,
        Link {
            bytes_per_s: gbps * 1e9,
            latency_s: us * 1e-6,
            pj_per_byte: 80.0,
        },
    )
}

proptest! {
    /// Collectives over an explicit participant set are order- and
    /// duplication-insensitive: any permutation (modeled by reversal and
    /// rotation) and any duplication of the id list prices identically.
    #[test]
    fn collectives_are_symmetric_in_participant_order(
        topology in any_topology(),
        link in any_link(),
        chips in 2usize..33,
        ids in proptest::collection::vec(0usize..33, 1..12),
        bytes in 1u64..(1 << 32),
        rot in 0usize..12,
    ) {
        let f = fabric(chips, topology, link);
        let fwd = f.all_reduce_among_s(bytes, &ids);
        let mut rev = ids.clone();
        rev.reverse();
        let mut rotated = ids.clone();
        rotated.rotate_left(rot % ids.len().max(1));
        let mut doubled = ids.clone();
        doubled.extend_from_slice(&ids);
        prop_assert_eq!(fwd, f.all_reduce_among_s(bytes, &rev));
        prop_assert_eq!(fwd, f.all_reduce_among_s(bytes, &rotated));
        prop_assert_eq!(fwd, f.all_reduce_among_s(bytes, &doubled));
        prop_assert_eq!(
            f.all_gather_among_s(bytes, &ids),
            f.all_gather_among_s(bytes, &rev)
        );
        prop_assert_eq!(
            f.reduce_scatter_among_s(bytes, &ids),
            f.reduce_scatter_among_s(bytes, &rotated)
        );
    }

    /// Bigger messages never get cheaper, on any topology × algorithm
    /// pair, for all three collectives and point-to-point transfers.
    #[test]
    fn collective_cost_is_monotone_in_message_size(
        topology in any_topology(),
        algo in any_algo(),
        link in any_link(),
        chips in 1usize..33,
        bytes in 1u64..(1 << 40),
        extra in 1u64..(1 << 30),
    ) {
        let f = fabric(chips, topology, link).with_algo(algo);
        let bigger = bytes + extra;
        prop_assert!(f.all_reduce_s(bigger) >= f.all_reduce_s(bytes));
        prop_assert!(f.all_gather_s(bigger) >= f.all_gather_s(bytes));
        prop_assert!(f.reduce_scatter_s(bigger) >= f.reduce_scatter_s(bytes));
        prop_assert!(f.p2p_s(bigger, 0, chips - 1) >= f.p2p_s(bytes, 0, chips - 1));
    }

    /// Along powers of two, adding chips never makes a ring or mesh
    /// collective cheaper (more steps) and never makes a fully-connected
    /// one dearer (each phase moves n/p over a dedicated link).
    #[test]
    fn collective_cost_is_monotone_in_chip_count(
        link in any_link(),
        doubling in 1u32..6,
        bytes in 1u64..(1 << 36),
    ) {
        let (p, q) = (1usize << (doubling - 1), 1usize << doubling);
        for topology in [Topology::Ring, Topology::Mesh2d] {
            let small = fabric(p, topology, link);
            let large = fabric(q, topology, link);
            prop_assert!(
                large.all_reduce_s(bytes) >= small.all_reduce_s(bytes),
                "{topology}: {p} -> {q} chips got cheaper"
            );
            prop_assert!(large.all_gather_s(bytes) >= small.all_gather_s(bytes));
        }
        // Fully connected shrinks with scale — except the 1 -> 2 step,
        // where one chip's zero-communication baseline is unbeatable.
        if p >= 2 {
            let small = fabric(p, Topology::FullyConnected, link);
            let large = fabric(q, Topology::FullyConnected, link);
            prop_assert!(large.all_reduce_s(bytes) <= small.all_reduce_s(bytes));
            prop_assert!(large.all_gather_s(bytes) <= small.all_gather_s(bytes));
        }
    }

    /// Along powers of two, for every collective algorithm: adding chips
    /// never makes a ring, mesh, torus, or tree collective cheaper (more
    /// steps, or a longer logical chain for halving-doubling partners).
    /// On the fully-connected fabric the direct ring/bucket schedules
    /// get cheaper with scale (each phase moves n/p over a dedicated
    /// link) while halving-doubling's log-depth latency grows.
    #[test]
    fn collective_cost_is_monotone_in_chip_count_for_every_algo(
        link in any_link(),
        algo in any_algo(),
        doubling in 1u32..6,
        bytes in 1u64..(1 << 36),
    ) {
        let (p, q) = (1usize << (doubling - 1), 1usize << doubling);
        for topology in [Topology::Ring, Topology::Mesh2d, Topology::Torus2d, Topology::Tree] {
            let small = fabric(p, topology, link).with_algo(algo);
            let large = fabric(q, topology, link).with_algo(algo);
            prop_assert!(
                large.all_reduce_s(bytes) >= small.all_reduce_s(bytes),
                "{topology}/{algo}: {p} -> {q} chips got cheaper"
            );
            prop_assert!(large.all_gather_s(bytes) >= small.all_gather_s(bytes));
        }
        if p >= 2 {
            let small = fabric(p, Topology::FullyConnected, link).with_algo(algo);
            let large = fabric(q, Topology::FullyConnected, link).with_algo(algo);
            match algo {
                CollectiveAlgo::Ring | CollectiveAlgo::Bucket => {
                    prop_assert!(large.all_reduce_s(bytes) <= small.all_reduce_s(bytes));
                    prop_assert!(large.all_gather_s(bytes) <= small.all_gather_s(bytes));
                }
                CollectiveAlgo::HalvingDoubling => {
                    prop_assert!(large.all_reduce_s(bytes) >= small.all_reduce_s(bytes));
                    prop_assert!(large.all_gather_s(bytes) >= small.all_gather_s(bytes));
                }
            }
        }
    }

    /// Open chains cannot beat wraparound, wraparound cannot beat
    /// dedicated all-pairs links: at equal bytes and equal link
    /// parameters, `mesh >= torus >= fully-connected` for every
    /// algorithm and chip count — the open-chain pricing bugfix's
    /// regression guard.
    #[test]
    fn mesh_at_least_torus_at_least_fc(
        link in any_link(),
        algo in any_algo(),
        chips in 1usize..33,
        bytes in 1u64..(1 << 38),
    ) {
        let mesh = fabric(chips, Topology::Mesh2d, link).with_algo(algo);
        let torus = fabric(chips, Topology::Torus2d, link).with_algo(algo);
        let fc = fabric(chips, Topology::FullyConnected, link).with_algo(algo);
        let slack = 1e-12 * mesh.all_reduce_s(bytes).max(1.0);
        prop_assert!(mesh.all_reduce_s(bytes) >= torus.all_reduce_s(bytes) - slack);
        prop_assert!(torus.all_reduce_s(bytes) >= fc.all_reduce_s(bytes) - slack);
        prop_assert!(mesh.all_gather_s(bytes) >= torus.all_gather_s(bytes) - slack);
        prop_assert!(torus.all_gather_s(bytes) >= fc.all_gather_s(bytes) - slack);
    }

    /// On the ring, `reduce_scatter + all_gather == all_reduce` for
    /// every algorithm: the all-reduce *is* the two phases chained
    /// (bucket's shard-through shortcut only exists on 2-D fabrics).
    #[test]
    fn ring_reduce_scatter_plus_all_gather_is_all_reduce(
        link in any_link(),
        algo in any_algo(),
        chips in 1usize..65,
        bytes in 1u64..(1 << 40),
    ) {
        let f = fabric(chips, Topology::Ring, link).with_algo(algo);
        let sum = f.reduce_scatter_s(bytes) + f.all_gather_s(bytes);
        let ar = f.all_reduce_s(bytes);
        prop_assert!(
            (sum - ar).abs() <= 1e-12 * ar.max(1e-30),
            "{algo} p={chips}: rs+ag {sum} != ar {ar}"
        );
    }

    /// Halving-doubling is a step-count algorithm: with the bandwidth
    /// term suppressed (huge β, 1-byte payload), a fully-connected
    /// all-reduce costs exactly `2·log2(p)` hops of latency at
    /// power-of-two chip counts — and off powers of two it falls back to
    /// the ring schedule on every topology.
    #[test]
    fn halving_doubling_steps_and_fallback(
        topology in any_topology(),
        doubling in 1u32..8,
        us in 0.1f64..20.0,
        chips in 2usize..65,
        bytes in 1u64..(1 << 38),
        link in any_link(),
    ) {
        let p = 1usize << doubling;
        let fast = (1.0e9, us); // 1e9 GB/s: latency-only regime
        let f = fabric(p, Topology::FullyConnected, fast)
            .with_algo(CollectiveAlgo::HalvingDoubling);
        let alpha = us * 1e-6;
        let expect = 2.0 * f64::from(doubling) * alpha;
        let got = f.all_reduce_s(1);
        prop_assert!(
            (got - expect).abs() <= 1e-6 * expect,
            "p={p}: got {got}, want 2·log2(p)·α = {expect}"
        );
        prop_assume!(!chips.is_power_of_two());
        let ring_priced = fabric(chips, topology, link).all_reduce_s(bytes);
        let hd_priced = fabric(chips, topology, link)
            .with_algo(CollectiveAlgo::HalvingDoubling)
            .all_reduce_s(bytes);
        prop_assert_eq!(ring_priced, hd_priced, "{} p={}", topology, chips);
    }

    /// The ring all-reduce is exactly the closed form
    /// `2(p−1)(α + n/(pβ))` — not approximately: the implementation must
    /// *be* the textbook algorithm.
    #[test]
    fn ring_all_reduce_equals_closed_form(
        link in any_link(),
        chips in 2usize..65,
        bytes in 1u64..(1 << 40),
    ) {
        let f = fabric(chips, Topology::Ring, link);
        let (gbps, us) = link;
        let (alpha, beta) = (us * 1e-6, gbps * 1e9);
        let expect = 2.0 * (chips - 1) as f64
            * (alpha + bytes as f64 / (chips as f64 * beta));
        let got = f.all_reduce_s(bytes);
        prop_assert!(
            (got - expect).abs() <= 1e-12 * expect,
            "p={chips} n={bytes}: got {got}, want {expect}"
        );
    }

    /// Partition algebra: every strategy's shard at 1 chip needs no
    /// collectives, shard compute shrinks weakly monotonically in chip
    /// count (logit elements, the N² proxy), and collective payloads are
    /// independent of chip count (the tensors exchanged are determined
    /// by the layer, not the cluster).
    #[test]
    fn partitions_shrink_shards_and_fix_payloads(
        heads in 1u64..33,
        seq in 64u64..8192,
        batch in 1u64..9,
        p_small in 2usize..16,
        extra in 1usize..16,
    ) {
        let cfg = AttentionConfig::cross_attention(batch, heads, seq, seq, heads * 64, 4096);
        let p_large = p_small + extra;
        for part in Partition::all() {
            prop_assert!(part.collectives(&cfg, 1).is_empty());
            let small = part.shard_config(&cfg, p_small);
            let large = part.shard_config(&cfg, p_large);
            prop_assert!(
                large.logit_elements() <= small.logit_elements(),
                "{part}: more chips grew the shard"
            );
            let payload = |p: usize| -> u64 {
                part.collectives(&cfg, p).iter().map(|c| c.bytes).sum()
            };
            prop_assert_eq!(payload(p_small), payload(p_large), "{}", part);
        }
    }

    /// One chip folds its whole KV range as one chunk and merges it into
    /// the empty fold, which is the identity: the result is the streaming
    /// kernel with one row per tile and one KV chunk, in every bit.
    #[test]
    fn one_chip_is_the_streaming_fold_bit_for_bit(
        batch in 1usize..3,
        heads in 1usize..4,
        seq_q in 1usize..12,
        seq_kv in 1usize..48,
        dk in 1usize..12,
        seed in any::<u64>(),
    ) {
        let input = MultiHeadInput::random(batch, heads, seq_q, seq_kv, dk, seed);
        let reference = streaming_attention(&input, 1, seq_kv, Mask::None);
        let sharded = sequence_parallel_attention(&input, 1);
        let bits = |ms: &[flat_kernels::Mat]| -> Vec<u32> {
            ms.iter().flat_map(|m| m.as_slice().iter().map(|x| x.to_bits())).collect()
        };
        prop_assert_eq!(bits(&sharded), bits(&reference));
    }

    /// The acceptance criterion: sequence-parallel sharded attention —
    /// per-shard online-softmax partials merged across chips — is
    /// numerically the single-chip streaming kernel, for any shard
    /// count (including more shards than KV rows) and any streaming tile
    /// split straddling the shard boundaries.
    #[test]
    fn sequence_parallel_matches_streaming_attention(
        batch in 1usize..3,
        heads in 1usize..4,
        seq_q in 1usize..12,
        seq_kv in 1usize..48,
        dk in 1usize..12,
        chips in 1usize..10,
        rows_per_tile in 1usize..8,
        kv_tile in 1usize..50,
        seed in any::<u64>(),
    ) {
        let input = MultiHeadInput::random(batch, heads, seq_q, seq_kv, dk, seed);
        let reference = streaming_attention(&input, rows_per_tile, kv_tile, Mask::None);
        let sharded = sequence_parallel_attention(&input, chips);
        prop_assert_eq!(reference.len(), sharded.len());
        for (g, (r, s)) in reference.iter().zip(&sharded).enumerate() {
            let diff = r.max_abs_diff(s);
            prop_assert!(
                diff < 2e-4,
                "group {g}: diff {diff} at chips {chips}, kv {seq_kv}"
            );
        }
    }
}
