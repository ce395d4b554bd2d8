//! The inter-chip fabric: topologies, links, collective algorithms, and
//! analytical collective costs.
//!
//! The on-chip [`flat_arch::Noc`] model stops at the chip boundary; this
//! module picks up from there. A [`Fabric`] is `chips` identical
//! accelerators joined by identical [`Link`]s in one of five
//! [`Topology`] shapes, running one of three [`CollectiveAlgo`]
//! schedules. Every collective a sharded attention execution needs —
//! `all_reduce`, `all_gather`, `reduce_scatter`, and point-to-point KV
//! transfer — is priced with the standard α–β model (per-message latency
//! `α` seconds, bandwidth `β` bytes/s per link).
//!
//! # Topologies
//!
//! * **Ring** — a bidirectional ring (TPU-pod-slice style). The
//!   bandwidth-optimal ring algorithms apply directly: a reduce-scatter
//!   or all-gather makes `p−1` steps each moving `n/p` bytes, so
//!   `T = (p−1)·(α + n/(p·β))`, and an all-reduce is the two chained,
//!   `T = 2·(p−1)·(α + n/(p·β))` — the closed form the tests pin.
//! * **2-D mesh** — near-square grid *without* wraparound links. Phases
//!   run dimension-ordered (rows then columns), but each 1-D phase is an
//!   *open chain*: the ring schedule needs a Hamiltonian cycle the chain
//!   does not have. The best embedding of a logical ring on a line
//!   (snake out through the even nodes, return through the odd) has
//!   dilation 2 and congestion 2, so every open-chain step with 3+ chips
//!   pays twice the ring step's latency and bandwidth. A 2-chip chain
//!   *is* a 2-ring, and prime chip counts degenerate to a single `1 × p`
//!   open chain.
//! * **2-D torus** — the same near-square grid *with* wraparound links;
//!   each dimension-ordered phase is a true ring.
//! * **Fully connected** — every pair of chips has a dedicated link
//!   (NVLink-switch style), so the direct one-step algorithms apply:
//!   each chip exchanges `n/p` shards with all peers concurrently,
//!   `T = α + n/(p·β)` per phase.
//! * **Tree** — an implicit complete binary tree (chip `i`'s parent is
//!   `(i−1)/2`). The ring schedule embeds via DFS order at
//!   dilation/congestion 2 like the open chain; the halving-doubling
//!   schedule maps onto sibling-subtree merges (2 hops per round,
//!   congestion-free) and is the natural fit.
//!
//! # Collective algorithms
//!
//! * **Ring** ([`CollectiveAlgo::Ring`]) — the pipelined ring schedules
//!   above, embedded per topology.
//! * **Recursive halving-doubling** ([`CollectiveAlgo::HalvingDoubling`])
//!   — `log2(p)` rounds per phase: round `k` exchanges `n/2^k` bytes
//!   with the partner `p/2^k` ranks away, so an all-reduce makes
//!   `2·log2(p)` steps at power-of-two chip counts. On low-diameter
//!   fabrics (fully connected, tree) the latency term collapses from
//!   `O(p)` to `O(log p)`; on rings/meshes the partner distance is paid
//!   in hops and congestion, so halving-doubling never beats the ring
//!   there. Non-power-of-two chip counts fall back to the ring schedule
//!   on the same topology.
//! * **Bucket** ([`CollectiveAlgo::Bucket`]) — the 2-D shard-through
//!   all-reduce for meshes/tori: reduce-scatter along rows (`n` over the
//!   row), all-reduce only the `n/cols` shard along columns, all-gather
//!   back along rows. Strictly cheaper than the dimension-ordered ring
//!   all-reduce whenever both dimensions are non-trivial; degenerates to
//!   the ring schedule on 1-D and fully-connected fabrics.
//!
//! All costs are *symmetric in participant order* (a collective over
//! `{0,1,2}` costs what one over `{2,0,1}` costs — the schedule embeds a
//! logical ring over the participant set) and *monotone in message
//! size*. The property tests in `tests/prop.rs` hold this across every
//! topology × algorithm pair, along with the `reduce_scatter +
//! all_gather == all_reduce` identity on rings and the halving-doubling
//! step counts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the chips are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A bidirectional ring (TPU-pod-slice style, degree 2).
    Ring,
    /// A near-square 2-D mesh without wraparound links.
    Mesh2d,
    /// A near-square 2-D torus: the mesh plus wraparound links.
    Torus2d,
    /// A dedicated link between every pair of chips (NVLink-switch
    /// style).
    FullyConnected,
    /// An implicit complete binary tree (chip `i`'s parent is `(i-1)/2`).
    Tree,
}

impl Topology {
    /// All topologies, for sweeps.
    #[must_use]
    pub const fn all() -> [Topology; 5] {
        [
            Topology::Ring,
            Topology::Mesh2d,
            Topology::Torus2d,
            Topology::FullyConnected,
            Topology::Tree,
        ]
    }

    /// Accepted (lowercase) CLI spellings; the first entry is the
    /// canonical `Display` name, so serialized names always round-trip
    /// through [`by_name`](Self::by_name).
    #[must_use]
    pub const fn names(self) -> &'static [&'static str] {
        match self {
            Topology::Ring => &["ring"],
            Topology::Mesh2d => &["mesh", "mesh2d"],
            Topology::Torus2d => &["torus", "torus2d"],
            Topology::FullyConnected => &["fully-connected", "fc"],
            Topology::Tree => &["tree"],
        }
    }

    /// Parses the CLI spelling, case-insensitively. Every `Display` name
    /// is accepted, so `by_name(&t.to_string())` round-trips.
    ///
    /// # Errors
    ///
    /// Lists the accepted names (generated from [`Topology::all`], so the
    /// list cannot go stale) on an unknown label.
    pub fn by_name(name: &str) -> Result<Self, String> {
        let lower = name.trim().to_ascii_lowercase();
        for t in Topology::all() {
            if t.names().contains(&lower.as_str()) {
                return Ok(t);
            }
        }
        let accepted: Vec<&str> = Topology::all()
            .iter()
            .flat_map(|t| t.names().iter().copied())
            .collect();
        Err(format!(
            "unknown topology {name:?} (accepted: {})",
            accepted.join("|")
        ))
    }

    /// The near-square `(rows, cols)` factorization of `chips` used by the
    /// mesh and torus: the largest divisor pair with `rows <= cols`. Prime
    /// chip counts degenerate to a `1 × p` grid — a single open chain on
    /// the mesh, a single ring on the torus.
    #[must_use]
    pub fn mesh_dims(chips: usize) -> (usize, usize) {
        let p = chips.max(1);
        let mut rows = 1;
        let mut d = 1;
        while d * d <= p {
            if p.is_multiple_of(d) {
                rows = d;
            }
            d += 1;
        }
        (rows, p / rows)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names()[0])
    }
}

// Hand-written so JSON carries the canonical display name ("ring",
// "fully-connected", …) — the same spelling `by_name` and the knee
// tables use — while PR 4-era variant-name serializations ("Ring",
// "Mesh2d", "FullyConnected") still read back.
impl serde::Serialize for Topology {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl serde::Deserialize for Topology {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => match s.as_str() {
                "Ring" => Ok(Topology::Ring),
                "Mesh2d" => Ok(Topology::Mesh2d),
                "Torus2d" => Ok(Topology::Torus2d),
                "FullyConnected" => Ok(Topology::FullyConnected),
                "Tree" => Ok(Topology::Tree),
                other => Topology::by_name(other).map_err(serde::Error::custom),
            },
            _ => Err(serde::Error::custom("expected topology name")),
        }
    }
}

/// Which collective schedule the fabric runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectiveAlgo {
    /// Pipelined ring reduce-scatter/all-gather, embedded per topology.
    #[default]
    Ring,
    /// Recursive halving (reduce-scatter) + recursive doubling
    /// (all-gather): `log2(p)` rounds per phase at power-of-two chip
    /// counts, ring fallback elsewhere.
    HalvingDoubling,
    /// The 2-D shard-through all-reduce for meshes/tori (reduce-scatter
    /// rows → all-reduce shard along columns → all-gather rows); ring
    /// elsewhere.
    Bucket,
}

impl CollectiveAlgo {
    /// All algorithms, for sweeps.
    #[must_use]
    pub const fn all() -> [CollectiveAlgo; 3] {
        [
            CollectiveAlgo::Ring,
            CollectiveAlgo::HalvingDoubling,
            CollectiveAlgo::Bucket,
        ]
    }

    /// Accepted (lowercase) CLI spellings; the first is the canonical
    /// `Display` name.
    #[must_use]
    pub const fn names(self) -> &'static [&'static str] {
        match self {
            CollectiveAlgo::Ring => &["ring"],
            CollectiveAlgo::HalvingDoubling => &["hd", "halving-doubling"],
            CollectiveAlgo::Bucket => &["bucket"],
        }
    }

    /// Parses the CLI spelling, case-insensitively.
    ///
    /// # Errors
    ///
    /// Lists the accepted names (generated from [`CollectiveAlgo::all`])
    /// on an unknown label.
    pub fn by_name(name: &str) -> Result<Self, String> {
        let lower = name.trim().to_ascii_lowercase();
        for a in CollectiveAlgo::all() {
            if a.names().contains(&lower.as_str()) {
                return Ok(a);
            }
        }
        let accepted: Vec<&str> = CollectiveAlgo::all()
            .iter()
            .flat_map(|a| a.names().iter().copied())
            .collect();
        Err(format!(
            "unknown collective algorithm {name:?} (accepted: {})",
            accepted.join("|")
        ))
    }
}

impl fmt::Display for CollectiveAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names()[0])
    }
}

// Hand-written for the same display-name JSON as `Topology`.
impl serde::Serialize for CollectiveAlgo {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

// Hand-written so pre-algo serializations (PR 4 era `Fabric` /
// `SweepPoint` JSON, where the field is absent and reads back as null)
// default to the ring schedule instead of erroring.
impl serde::Deserialize for CollectiveAlgo {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(CollectiveAlgo::default()),
            serde::Value::String(s) => match s.as_str() {
                "Ring" => Ok(CollectiveAlgo::Ring),
                "HalvingDoubling" => Ok(CollectiveAlgo::HalvingDoubling),
                "Bucket" => Ok(CollectiveAlgo::Bucket),
                other => CollectiveAlgo::by_name(other).map_err(serde::Error::custom),
            },
            _ => Err(serde::Error::custom("expected collective algorithm name")),
        }
    }
}

/// One inter-chip link: α–β cost parameters plus a per-byte transfer
/// energy for the energy roll-up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Sustained bandwidth in bytes per second (per direction).
    pub bytes_per_s: f64,
    /// Per-message (per-hop) latency in seconds.
    pub latency_s: f64,
    /// Energy per byte moved across the link, in picojoules. Inter-chip
    /// SerDes costs an order of magnitude more than DRAM access —
    /// ~10 pJ/bit ≈ 80 pJ/B is the commonly quoted class.
    pub pj_per_byte: f64,
}

impl Link {
    /// A 300 GB/s, 1 µs, 80 pJ/B link — the NVLink/ICI class that pairs
    /// with the cloud accelerator preset.
    #[must_use]
    pub fn cloud() -> Self {
        Link {
            bytes_per_s: 300.0e9,
            latency_s: 1.0e-6,
            pj_per_byte: 80.0,
        }
    }

    /// A 25 GB/s, 2 µs PCIe-class link for edge clusters.
    #[must_use]
    pub fn edge() -> Self {
        Link {
            bytes_per_s: 25.0e9,
            latency_s: 2.0e-6,
            pj_per_byte: 80.0,
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} GB/s, {:.1} us/hop",
            self.bytes_per_s / 1e9,
            self.latency_s * 1e6
        )
    }
}

/// Time and per-chip link traffic of one priced collective: the planner
/// derives both from the same step structure so the latency and energy
/// models cannot drift apart.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCost {
    /// Seconds on the critical path.
    s: f64,
    /// Bytes each chip pushes through its links (counted once per link
    /// traversed, so a dilation-2 embedding charges double).
    traversed: f64,
}

impl PhaseCost {
    const ZERO: PhaseCost = PhaseCost {
        s: 0.0,
        traversed: 0.0,
    };

    fn plus(self, other: PhaseCost) -> PhaseCost {
        PhaseCost {
            s: self.s + other.s,
            traversed: self.traversed + other.traversed,
        }
    }
}

/// How far apart halving-doubling partners sit on the physical fabric.
#[derive(Clone, Copy)]
enum HdHops {
    /// Dedicated links: every partner is 1 hop away, congestion-free.
    Direct,
    /// A 1-D chain/ring: a partner `d` ranks away is `d` hops away, and
    /// the `d` concurrent pair-messages of that round share each link.
    Chain,
    /// Sibling-subtree merge on the binary tree: representatives meet
    /// through a common parent (2 hops), on link-disjoint paths.
    Tree,
}

/// A cluster fabric: `chips` accelerators joined by identical [`Link`]s
/// in a [`Topology`], running a [`CollectiveAlgo`] schedule.
///
/// # Example
///
/// ```
/// use flat_dist::{Fabric, Link, Topology};
///
/// let ring = Fabric::new(8, Topology::Ring, Link::cloud());
/// let fc = Fabric::new(8, Topology::FullyConnected, Link::cloud());
/// let n = 64 * 1024 * 1024;
/// // Same bytes, same links: the fully-connected fabric finishes an
/// // all-reduce faster than the ring's 2(p-1) steps.
/// assert!(fc.all_reduce_s(n) < ring.all_reduce_s(n));
/// // One chip needs no communication at all.
/// assert_eq!(Fabric::new(1, Topology::Ring, Link::cloud()).all_reduce_s(n), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// Number of accelerators in the cluster.
    pub chips: usize,
    /// How they are wired.
    pub topology: Topology,
    /// The per-link cost parameters.
    pub link: Link,
    /// Which collective schedule runs on the wires.
    pub algo: CollectiveAlgo,
}

impl Fabric {
    /// A fabric of `chips` chips running the ring collective schedule. A
    /// single chip is legal (every collective costs zero) so one cost
    /// model covers the whole sweep.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or the link parameters are not positive
    /// and finite.
    #[must_use]
    pub fn new(chips: usize, topology: Topology, link: Link) -> Self {
        assert!(chips > 0, "a fabric needs at least one chip");
        assert!(
            link.bytes_per_s > 0.0 && link.bytes_per_s.is_finite(),
            "link bandwidth must be positive"
        );
        assert!(
            link.latency_s >= 0.0 && link.latency_s.is_finite(),
            "link latency must be non-negative"
        );
        Fabric {
            chips,
            topology,
            link,
            algo: CollectiveAlgo::Ring,
        }
    }

    /// The same fabric running a different collective schedule.
    #[must_use]
    pub fn with_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// One dimension-ordered phase on a 1-D chain of `q` chips: `steps`
    /// steps each moving `bytes_per_step`. With a wraparound link (or
    /// only 2 chips, where the chain *is* a 2-ring) this is the plain
    /// ring step cost; an open chain of 3+ chips runs the ring schedule
    /// through the dilation-2/congestion-2 snake embedding and pays
    /// double per step.
    fn chain_phase(&self, q: usize, wrap: bool, steps: usize, bytes_per_step: f64) -> PhaseCost {
        let factor = if wrap || q <= 2 { 1.0 } else { 2.0 };
        PhaseCost {
            s: steps as f64
                * factor
                * (self.link.latency_s + bytes_per_step / self.link.bytes_per_s),
            traversed: steps as f64 * factor * bytes_per_step,
        }
    }

    /// One direct phase on the fully-connected fabric: each chip
    /// exchanges a `shard` with all `p-1` peers concurrently over
    /// dedicated links.
    fn direct_phase(&self, p: usize, shard: f64) -> PhaseCost {
        PhaseCost {
            s: self.link.latency_s + shard / self.link.bytes_per_s,
            traversed: (p - 1) as f64 * shard,
        }
    }

    /// One direction of the recursive halving-doubling schedule over `q`
    /// (power-of-two) participants and `n` total bytes: `log2(q)` rounds,
    /// round `k` moving `n/2^k` to the partner `q/2^k` ranks away. The
    /// mirrored direction (doubling) moves the same message multiset over
    /// the same distances, so a full all-reduce is exactly twice this.
    fn hd_half(&self, n: f64, q: usize, hops: HdHops) -> PhaseCost {
        let mut out = PhaseCost::ZERO;
        let mut d = q / 2;
        let mut msg = n / 2.0;
        while d >= 1 {
            let (lat_hops, congestion) = match hops {
                HdHops::Direct => (1.0, 1.0),
                HdHops::Chain => (d as f64, d as f64),
                HdHops::Tree => (2.0, 1.0),
            };
            out.s += lat_hops * self.link.latency_s + congestion * msg / self.link.bytes_per_s;
            out.traversed += lat_hops * msg;
            d /= 2;
            msg /= 2.0;
        }
        out
    }

    /// The halving-doubling hop model for this topology's 1-D phases.
    fn hd_hops(&self) -> HdHops {
        match self.topology {
            Topology::FullyConnected => HdHops::Direct,
            Topology::Tree => HdHops::Tree,
            Topology::Ring | Topology::Mesh2d | Topology::Torus2d => HdHops::Chain,
        }
    }

    /// Whether halving-doubling applies at this chip count; otherwise
    /// the fabric falls back to the ring schedule.
    fn hd_applies(p: usize) -> bool {
        p.is_power_of_two()
    }

    /// Priced all-reduce of `bytes` over `p` participants (each chip
    /// starts and ends with the full vector).
    fn plan_all_reduce(&self, bytes: u64, p: usize) -> PhaseCost {
        if p <= 1 {
            return PhaseCost::ZERO;
        }
        let n = bytes as f64;
        match self.algo {
            CollectiveAlgo::Ring => self.ring_all_reduce(n, p),
            CollectiveAlgo::HalvingDoubling => {
                if !Self::hd_applies(p) {
                    return self.ring_all_reduce(n, p);
                }
                match self.topology {
                    Topology::Ring | Topology::FullyConnected | Topology::Tree => {
                        let half = self.hd_half(n, p, self.hd_hops());
                        half.plus(half)
                    }
                    // Dimension-ordered like the ring schedule: a full
                    // halving-doubling all-reduce along rows, then along
                    // columns.
                    Topology::Mesh2d | Topology::Torus2d => {
                        let (r, c) = Topology::mesh_dims(p);
                        let rows = self.hd_half(n, c, HdHops::Chain);
                        let cols = self.hd_half(n, r, HdHops::Chain);
                        rows.plus(rows).plus(cols).plus(cols)
                    }
                }
            }
            CollectiveAlgo::Bucket => match self.topology {
                // Shard-through: reduce-scatter the full vector along
                // rows, all-reduce only the n/c shard along columns,
                // all-gather back along rows.
                Topology::Mesh2d | Topology::Torus2d => {
                    let (r, c) = Topology::mesh_dims(p);
                    if r <= 1 || c <= 1 {
                        return self.ring_all_reduce(n, p);
                    }
                    let wrap = self.topology == Topology::Torus2d;
                    let row = self.chain_phase(c, wrap, c - 1, n / c as f64);
                    let col = self.chain_phase(r, wrap, 2 * (r - 1), n / (r * c) as f64);
                    row.plus(col).plus(row)
                }
                _ => self.ring_all_reduce(n, p),
            },
        }
    }

    /// Priced all-gather whose *gathered* size is `bytes` (each of the
    /// `p` participants contributes `bytes / p`).
    fn plan_all_gather(&self, bytes: u64, p: usize) -> PhaseCost {
        if p <= 1 {
            return PhaseCost::ZERO;
        }
        let n = bytes as f64;
        match self.algo {
            // The bucket optimization is the reduce+gather round trip;
            // a lone gather has nothing to shard through, so it runs the
            // ring schedule.
            CollectiveAlgo::Ring | CollectiveAlgo::Bucket => self.ring_all_gather(n, p),
            CollectiveAlgo::HalvingDoubling => {
                if !Self::hd_applies(p) {
                    return self.ring_all_gather(n, p);
                }
                match self.topology {
                    Topology::Ring | Topology::FullyConnected | Topology::Tree => {
                        self.hd_half(n, p, self.hd_hops())
                    }
                    // Gather within rows (each row assembles its n/r
                    // slice), then across columns.
                    Topology::Mesh2d | Topology::Torus2d => {
                        let (r, c) = Topology::mesh_dims(p);
                        self.hd_half(n / r as f64, c, HdHops::Chain)
                            .plus(self.hd_half(n, r, HdHops::Chain))
                    }
                }
            }
        }
    }

    /// The ring schedule's all-reduce, embedded per topology.
    fn ring_all_reduce(&self, n: f64, p: usize) -> PhaseCost {
        match self.topology {
            // Reduce-scatter then all-gather: 2(p-1) steps of n/p each.
            Topology::Ring => self.chain_phase(p, true, 2 * (p - 1), n / p as f64),
            // Ring all-reduce along rows (full vector), then along
            // columns: after the row phase every chip of a row holds the
            // row sum, so the column phase completes the global sum.
            // Mesh rows/columns are open chains; torus rows/columns wrap.
            Topology::Mesh2d | Topology::Torus2d => {
                let wrap = self.topology == Topology::Torus2d;
                let (r, c) = Topology::mesh_dims(p);
                self.chain_phase(c, wrap, 2 * (c - 1), n / c as f64)
                    .plus(self.chain_phase(r, wrap, 2 * (r - 1), n / r as f64))
            }
            // Direct reduce-scatter + all-gather over dedicated links:
            // each chip exchanges its n/p shard with all peers at once.
            Topology::FullyConnected => {
                let d = self.direct_phase(p, n / p as f64);
                d.plus(d)
            }
            // DFS-order ring embedding on the tree: an open-chain-priced
            // ring schedule (dilation/congestion 2).
            Topology::Tree => self.chain_phase(p, false, 2 * (p - 1), n / p as f64),
        }
    }

    /// The ring schedule's all-gather, embedded per topology.
    fn ring_all_gather(&self, n: f64, p: usize) -> PhaseCost {
        let shard = n / p as f64;
        match self.topology {
            Topology::Ring => self.chain_phase(p, true, p - 1, shard),
            // Gather along rows (shards of size n/p), then along columns
            // (each column step moves a whole gathered row, c shards).
            Topology::Mesh2d | Topology::Torus2d => {
                let wrap = self.topology == Topology::Torus2d;
                let (r, c) = Topology::mesh_dims(p);
                self.chain_phase(c, wrap, c - 1, shard)
                    .plus(self.chain_phase(r, wrap, r - 1, shard * c as f64))
            }
            Topology::FullyConnected => self.direct_phase(p, shard),
            Topology::Tree => self.chain_phase(p, false, p - 1, shard),
        }
    }

    /// Seconds for an all-reduce of `bytes` over `p` participants.
    fn all_reduce_p(&self, bytes: u64, p: usize) -> f64 {
        self.plan_all_reduce(bytes, p).s
    }

    /// Seconds for an all-gather whose gathered size is `bytes` over `p`
    /// participants.
    fn all_gather_p(&self, bytes: u64, p: usize) -> f64 {
        self.plan_all_gather(bytes, p).s
    }

    /// All-reduce of `bytes` over the whole fabric.
    #[must_use]
    pub fn all_reduce_s(&self, bytes: u64) -> f64 {
        self.all_reduce_p(bytes, self.chips)
    }

    /// All-gather with gathered size `bytes` over the whole fabric.
    #[must_use]
    pub fn all_gather_s(&self, bytes: u64) -> f64 {
        self.all_gather_p(bytes, self.chips)
    }

    /// Reduce-scatter of `bytes` over the whole fabric. The mirror image
    /// of the all-gather: identical step structure, data flowing the
    /// other way, so it costs the same (for halving-doubling the mirrored
    /// direction moves the same message multiset over the same
    /// distances).
    #[must_use]
    pub fn reduce_scatter_s(&self, bytes: u64) -> f64 {
        self.all_gather_s(bytes)
    }

    /// All-reduce over an explicit participant set — a subset of the
    /// chips forming a logical ring in the given order-insensitive set.
    /// Cost depends only on how many participate, never on the order (or
    /// duplication) in which the slice lists them.
    #[must_use]
    pub fn all_reduce_among_s(&self, bytes: u64, participants: &[usize]) -> f64 {
        self.all_reduce_p(bytes, distinct_on_fabric(participants, self.chips))
    }

    /// All-gather over an explicit participant set (gathered size
    /// `bytes`). Order-insensitive like
    /// [`all_reduce_among_s`](Self::all_reduce_among_s).
    #[must_use]
    pub fn all_gather_among_s(&self, bytes: u64, participants: &[usize]) -> f64 {
        self.all_gather_p(bytes, distinct_on_fabric(participants, self.chips))
    }

    /// Reduce-scatter over an explicit participant set.
    #[must_use]
    pub fn reduce_scatter_among_s(&self, bytes: u64, participants: &[usize]) -> f64 {
        self.all_gather_among_s(bytes, participants)
    }

    /// Hop distance between two chips under this topology.
    #[must_use]
    pub fn hops(&self, from: usize, to: usize) -> usize {
        assert!(from < self.chips && to < self.chips, "chip id out of range");
        if from == to {
            return 0;
        }
        match self.topology {
            Topology::Ring => {
                let d = from.abs_diff(to);
                d.min(self.chips - d)
            }
            Topology::Mesh2d => {
                let (_, c) = Topology::mesh_dims(self.chips);
                let (x1, y1) = (from % c, from / c);
                let (x2, y2) = (to % c, to / c);
                x1.abs_diff(x2) + y1.abs_diff(y2)
            }
            Topology::Torus2d => {
                let (r, c) = Topology::mesh_dims(self.chips);
                let (x1, y1) = (from % c, from / c);
                let (x2, y2) = (to % c, to / c);
                let dx = x1.abs_diff(x2);
                let dy = y1.abs_diff(y2);
                dx.min(c - dx) + dy.min(r - dy)
            }
            Topology::FullyConnected => 1,
            Topology::Tree => {
                // Climb toward the common ancestor of the implicit
                // complete binary tree, one level at a time.
                let (mut a, mut b) = (from, to);
                let mut hops = 0;
                while a != b {
                    if a > b {
                        a = (a - 1) / 2;
                    } else {
                        b = (b - 1) / 2;
                    }
                    hops += 1;
                }
                hops
            }
        }
    }

    /// Seconds to move `bytes` point-to-point from one chip to another —
    /// wormhole style: the per-hop latency is paid per hop, the
    /// serialization time once.
    #[must_use]
    pub fn p2p_s(&self, bytes: u64, from: usize, to: usize) -> f64 {
        let hops = self.hops(from, to);
        if hops == 0 {
            return 0.0;
        }
        hops as f64 * self.link.latency_s + bytes as f64 / self.link.bytes_per_s
    }

    /// Picojoules to move `bytes` once across links (per traversal; a
    /// `k`-step collective moving `n` bytes per step charges `k·n`
    /// traversed bytes — use the `*_traversed_bytes` accessors).
    #[must_use]
    pub fn transfer_energy_pj(&self, traversed_bytes: f64) -> f64 {
        traversed_bytes * self.link.pj_per_byte
    }

    /// Bytes each chip pushes through its links during an all-reduce of
    /// `bytes` — the traffic the energy model charges. Derived from the
    /// same step structure as the latency (ring: `2(p-1)/p·n` per chip;
    /// dilation-2 open-chain embeddings charge each logical hop's
    /// physical links).
    #[must_use]
    pub fn all_reduce_traversed_bytes(&self, bytes: u64) -> f64 {
        self.plan_all_reduce(bytes, self.chips).traversed
    }

    /// Bytes each chip pushes through its links during an all-gather of
    /// gathered size `bytes` (a reduce-scatter traverses the same).
    #[must_use]
    pub fn all_gather_traversed_bytes(&self, bytes: u64) -> f64 {
        self.plan_all_gather(bytes, self.chips).traversed
    }
}

impl fmt::Display for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chips, {} [{}] ({})",
            self.chips, self.topology, self.algo, self.link
        )
    }
}

/// Number of distinct, in-range chip ids in a participant slice.
fn distinct_on_fabric(participants: &[usize], chips: usize) -> usize {
    let mut seen = vec![false; chips];
    let mut count = 0;
    for &p in participants {
        if p < chips && !seen[p] {
            seen[p] = true;
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn ring_all_reduce_matches_closed_form() {
        // T = 2(p-1) · (α + n/(p·β)) — the canonical ring-allreduce bound.
        let link = Link {
            bytes_per_s: 100.0e9,
            latency_s: 2.0e-6,
            pj_per_byte: 80.0,
        };
        for p in [2usize, 4, 7, 8, 16] {
            let fabric = Fabric::new(p, Topology::Ring, link);
            let n = 64 * MIB;
            let expect = 2.0 * (p - 1) as f64 * (2.0e-6 + n as f64 / (p as f64 * 100.0e9));
            let got = fabric.all_reduce_s(n);
            assert!(
                (got - expect).abs() < 1e-12 * expect.max(1.0),
                "p={p}: got {got}, closed form {expect}"
            );
        }
    }

    #[test]
    fn ring_gather_and_scatter_match_closed_form() {
        let link = Link::cloud();
        let fabric = Fabric::new(8, Topology::Ring, link);
        let n = 32 * MIB;
        let expect = 7.0 * (link.latency_s + n as f64 / (8.0 * link.bytes_per_s));
        assert!((fabric.all_gather_s(n) - expect).abs() < 1e-15);
        assert_eq!(fabric.all_gather_s(n), fabric.reduce_scatter_s(n));
    }

    #[test]
    fn single_chip_collectives_are_free() {
        for topo in Topology::all() {
            for algo in CollectiveAlgo::all() {
                let f = Fabric::new(1, topo, Link::cloud()).with_algo(algo);
                assert_eq!(f.all_reduce_s(MIB), 0.0);
                assert_eq!(f.all_gather_s(MIB), 0.0);
                assert_eq!(f.reduce_scatter_s(MIB), 0.0);
                assert_eq!(f.all_reduce_traversed_bytes(MIB), 0.0);
                assert_eq!(f.all_gather_traversed_bytes(MIB), 0.0);
            }
        }
    }

    #[test]
    fn mesh_dims_are_near_square_divisors() {
        assert_eq!(Topology::mesh_dims(1), (1, 1));
        assert_eq!(Topology::mesh_dims(4), (2, 2));
        assert_eq!(Topology::mesh_dims(8), (2, 4));
        assert_eq!(Topology::mesh_dims(12), (3, 4));
        assert_eq!(
            Topology::mesh_dims(7),
            (1, 7),
            "primes degenerate to a line"
        );
    }

    #[test]
    fn mesh_all_reduce_prices_open_chains_at_dilation_two() {
        // An 8-chip mesh is 2 x 4: the 2-chip column chain *is* a 2-ring,
        // but the 4-chip row chain has no wraparound, so its ring
        // schedule runs through the dilation-2 snake embedding and costs
        // twice the 4-ring phase.
        let link = Link::cloud();
        let f = Fabric::new(8, Topology::Mesh2d, link);
        let n = 16 * MIB;
        let rows2 = Fabric::new(2, Topology::Ring, link).all_reduce_s(n);
        let cols4 = Fabric::new(4, Topology::Ring, link).all_reduce_s(n);
        assert!((f.all_reduce_s(n) - (rows2 + 2.0 * cols4)).abs() < 1e-15);
        // The torus keeps its wraparound links: its phases are true rings.
        let t = Fabric::new(8, Topology::Torus2d, link);
        assert!((t.all_reduce_s(n) - (rows2 + cols4)).abs() < 1e-15);
    }

    #[test]
    fn prime_chip_mesh_prices_the_degenerate_line() {
        // mesh_dims(7) = (1, 7): a single open chain. The ring schedule
        // on it pays the dilation-2 factor; the 7-chip torus wraps the
        // same chain into a true ring.
        let link = Link::cloud();
        let n = 16 * MIB;
        let line = Fabric::new(7, Topology::Mesh2d, link).all_reduce_s(n);
        let ring = Fabric::new(7, Topology::Ring, link).all_reduce_s(n);
        let torus = Fabric::new(7, Topology::Torus2d, link).all_reduce_s(n);
        assert!((line - 2.0 * ring).abs() < 1e-15, "line = 2x ring phases");
        assert!((torus - ring).abs() < 1e-15, "1xp torus wraps into a ring");
    }

    #[test]
    fn mesh_at_least_torus_at_least_fully_connected() {
        // Equal bytes, equal links: removing wraparound can only hurt,
        // and dedicated all-pairs links can only help.
        let link = Link::cloud();
        let n = 8 * MIB;
        for p in [2usize, 3, 4, 6, 7, 8, 12, 16] {
            for algo in CollectiveAlgo::all() {
                let mesh = Fabric::new(p, Topology::Mesh2d, link).with_algo(algo);
                let torus = Fabric::new(p, Topology::Torus2d, link).with_algo(algo);
                let fc = Fabric::new(p, Topology::FullyConnected, link).with_algo(algo);
                assert!(
                    mesh.all_reduce_s(n) >= torus.all_reduce_s(n) - 1e-15,
                    "p={p} algo={algo}: mesh all-reduce must not beat the torus"
                );
                assert!(
                    torus.all_reduce_s(n) >= fc.all_reduce_s(n) - 1e-15,
                    "p={p} algo={algo}: torus all-reduce must not beat fully-connected"
                );
                assert!(
                    mesh.all_gather_s(n) >= torus.all_gather_s(n) - 1e-15,
                    "p={p} algo={algo}: mesh all-gather must not beat the torus"
                );
                assert!(
                    torus.all_gather_s(n) >= fc.all_gather_s(n) - 1e-15,
                    "p={p} algo={algo}: torus all-gather must not beat fully-connected"
                );
            }
        }
    }

    #[test]
    fn bucket_beats_dimension_ordered_ring_on_the_torus() {
        // Sharding through the column phase moves n/(r*c) per step
        // instead of n/r — strictly cheaper when both dims are real.
        let link = Link::cloud();
        let n = 16 * MIB;
        for p in [4usize, 8, 12, 16] {
            let ring = Fabric::new(p, Topology::Torus2d, link).all_reduce_s(n);
            let bucket = Fabric::new(p, Topology::Torus2d, link)
                .with_algo(CollectiveAlgo::Bucket)
                .all_reduce_s(n);
            assert!(
                bucket < ring,
                "p={p}: bucket {bucket} must beat dimension-ordered ring {ring}"
            );
        }
    }

    #[test]
    fn halving_doubling_collapses_latency_on_low_diameter_fabrics() {
        // Tiny message: cost is pure step latency. On the tree, hd's
        // 2·log2(p) rounds of 2 hops beat the embedded ring's 2(p-1)
        // dilated steps.
        let link = Link {
            bytes_per_s: 1.0e18,
            latency_s: 1.0e-6,
            pj_per_byte: 80.0,
        };
        let p = 16;
        let tree_ring = Fabric::new(p, Topology::Tree, link).all_reduce_s(8);
        let tree_hd = Fabric::new(p, Topology::Tree, link)
            .with_algo(CollectiveAlgo::HalvingDoubling)
            .all_reduce_s(8);
        assert!(tree_hd < tree_ring);
        // 2 hops x log2(p) rounds x 2 directions of latency.
        let expect = 4.0 * (p as f64).log2() * link.latency_s;
        assert!((tree_hd - expect).abs() < 1e-12);
    }

    #[test]
    fn halving_doubling_falls_back_to_ring_off_powers_of_two() {
        let link = Link::cloud();
        for topo in Topology::all() {
            let ring = Fabric::new(6, topo, link).all_reduce_s(4 * MIB);
            let hd = Fabric::new(6, topo, link)
                .with_algo(CollectiveAlgo::HalvingDoubling)
                .all_reduce_s(4 * MIB);
            assert_eq!(ring, hd, "{topo}: 6 chips must fall back to ring");
        }
    }

    #[test]
    fn hop_distances_respect_topology() {
        let ring = Fabric::new(8, Topology::Ring, Link::cloud());
        assert_eq!(ring.hops(0, 1), 1);
        assert_eq!(ring.hops(0, 7), 1, "rings wrap");
        assert_eq!(ring.hops(0, 4), 4);
        let mesh = Fabric::new(8, Topology::Mesh2d, Link::cloud()); // 2 x 4
        assert_eq!(mesh.hops(0, 3), 3);
        assert_eq!(mesh.hops(0, 7), 4, "meshes do not wrap");
        let torus = Fabric::new(8, Topology::Torus2d, Link::cloud()); // 2 x 4
        assert_eq!(torus.hops(0, 3), 1, "tori wrap along rows");
        assert_eq!(torus.hops(0, 7), 2);
        let fc = Fabric::new(8, Topology::FullyConnected, Link::cloud());
        assert_eq!(fc.hops(0, 7), 1);
        let tree = Fabric::new(8, Topology::Tree, Link::cloud());
        assert_eq!(tree.hops(0, 1), 1, "root to child");
        assert_eq!(tree.hops(1, 2), 2, "siblings meet at the root");
        assert_eq!(tree.hops(7, 2), 4, "leaf to opposite subtree");
        for f in [&ring, &mesh, &torus, &fc, &tree] {
            assert_eq!(f.hops(3, 3), 0);
            assert_eq!(f.p2p_s(MIB, 2, 2), 0.0);
        }
    }

    #[test]
    fn p2p_charges_latency_per_hop_bandwidth_once() {
        let link = Link {
            bytes_per_s: 1.0e9,
            latency_s: 1.0e-6,
            pj_per_byte: 80.0,
        };
        let ring = Fabric::new(8, Topology::Ring, link);
        let serialization = MIB as f64 / 1.0e9;
        assert!((ring.p2p_s(MIB, 0, 4) - (4.0e-6 + serialization)).abs() < 1e-15);
    }

    #[test]
    fn among_is_a_set_operation() {
        let f = Fabric::new(8, Topology::Ring, Link::cloud());
        let n = 4 * MIB;
        assert_eq!(
            f.all_reduce_among_s(n, &[0, 3, 5]),
            f.all_reduce_among_s(n, &[5, 0, 3])
        );
        assert_eq!(
            f.all_reduce_among_s(n, &[0, 3, 3, 5]),
            f.all_reduce_among_s(n, &[0, 3, 5]),
            "duplicates do not inflate the group"
        );
        assert_eq!(f.all_reduce_among_s(n, &[2]), 0.0);
        assert_eq!(f.all_reduce_among_s(n, &[]), 0.0);
    }

    #[test]
    fn topology_names_round_trip() {
        for t in Topology::all() {
            // The canonical Display name parses back...
            assert_eq!(Topology::by_name(&t.to_string()).unwrap(), t);
            // ...as does every accepted alias, in any case.
            for name in t.names() {
                assert_eq!(Topology::by_name(name).unwrap(), t);
                assert_eq!(Topology::by_name(&name.to_uppercase()).unwrap(), t);
            }
        }
        let err = Topology::by_name("hypercube").unwrap_err();
        for t in Topology::all() {
            assert!(
                err.contains(t.names()[0]),
                "error must list {} (got: {err})",
                t.names()[0]
            );
        }
    }

    #[test]
    fn algo_names_round_trip() {
        for a in CollectiveAlgo::all() {
            assert_eq!(CollectiveAlgo::by_name(&a.to_string()).unwrap(), a);
            for name in a.names() {
                assert_eq!(CollectiveAlgo::by_name(name).unwrap(), a);
                assert_eq!(CollectiveAlgo::by_name(&name.to_uppercase()).unwrap(), a);
            }
        }
        let err = CollectiveAlgo::by_name("butterfly").unwrap_err();
        assert!(err.contains("ring") && err.contains("hd") && err.contains("bucket"));
    }

    #[test]
    fn fabric_with_algo_deserializes_with_and_without_the_field() {
        let f = Fabric::new(8, Topology::Torus2d, Link::cloud())
            .with_algo(CollectiveAlgo::HalvingDoubling);
        let json = serde_json::to_string(&f).unwrap();
        let back: Fabric = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        // Pre-algo serializations (PR 4 era) default to the ring schedule.
        let legacy = r#"{"chips":4,"topology":"Ring","link":{"bytes_per_s":3e11,"latency_s":1e-6,"pj_per_byte":80.0}}"#;
        let back: Fabric = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.algo, CollectiveAlgo::Ring);
    }
}
