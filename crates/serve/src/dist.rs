//! Cluster serving: the continuous-batching engine on a
//! multi-accelerator cluster.
//!
//! [`serve_dist_elastic`] runs the iteration-level scheduler against
//! `chips` copies of the accelerator joined by a [`flat_dist::Fabric`]:
//!
//! * **Capacity scales out** — every chip contributes its KV budget, so
//!   the paged pool holds `chips ×` the single-chip block count, with
//!   pages striped round-robin across shards (the per-shard occupancy
//!   the metrics report follows that striping).
//! * **Compute scales out** — tensor-parallel execution under the
//!   configured [`Partition`] divides each tick's MACs and weight/KV
//!   streaming across chips, so the accounting plane prices ticks
//!   against `chips ×` the FLOPs and off-chip bandwidth.
//! * **Collectives are paid on the virtual clock** — every scheduled
//!   token owes its partition's per-token collective payload; each tick
//!   batches those payloads into one collective round per model layer
//!   and adds the fabric time (α amortizes across the batch, β does
//!   not) to the tick's duration. The accumulated fabric-busy time and
//!   payload bytes surface in [`DistServeMetrics`].
//!
//! Single-chip serving is the 1-chip cluster: [`crate::serve`] is this
//! entry point on one fully-connected chip. The fabric prices every
//! collective at zero there and the scaling factors are 1, so the run
//! is exactly the single-accelerator engine.

use crate::engine::{Engine, EngineConfig};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::metrics::ServeMetrics;
use crate::request::RequestSpec;
use flat_arch::Accelerator;
use flat_dist::{CollectiveAlgo, Fabric, Link, Partition, Topology};
use flat_telemetry::TraceSink;
use flat_workloads::{AttentionConfig, Model};
use serde::Serialize;
use std::collections::BTreeMap;

/// Cluster knobs for [`serve_dist_elastic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistServeConfig {
    /// Accelerators in the cluster.
    pub chips: usize,
    /// How they are wired.
    pub topology: Topology,
    /// Per-link cost parameters.
    pub link: Link,
    /// Sharding strategy; [`Partition::KvShard`] is the serving-native
    /// choice (decode against a striped cache).
    pub partition: Partition,
    /// Collective schedule priced on the fabric.
    pub algo: CollectiveAlgo,
    /// Overlap collective rounds with the tick's compute: when set, a
    /// tick pays `max(compute, collective)` instead of their sum, and
    /// only the uncovered remainder shows up as exposed fabric time.
    pub overlap: bool,
}

impl DistServeConfig {
    /// A `chips`-wide cluster on cloud-class links, KV-shard partition,
    /// ring collectives, serial (non-overlapped) pricing.
    #[must_use]
    pub fn new(chips: usize, topology: Topology) -> Self {
        DistServeConfig {
            chips,
            topology,
            link: Link::cloud(),
            partition: Partition::KvShard,
            algo: CollectiveAlgo::Ring,
            overlap: false,
        }
    }
}

/// One elastic resize of the cluster: at `at_ms` of virtual time, the
/// chip count becomes `chips`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScaleEvent {
    /// Virtual time the resize takes effect (applied at the first tick
    /// whose clock has reached it).
    pub at_ms: f64,
    /// Cluster size after the event (≥ 1).
    pub chips: usize,
}

/// Largest cluster [`serve_dist_elastic`] accepts, at the start or after
/// a resize. The plane keeps one peak-occupancy lane per chip, so a
/// request for 10^12 chips would otherwise abort on an 8 TB allocation
/// instead of returning an error.
const MAX_CHIPS: usize = 1 << 20;

/// Rejects a cluster of more than [`MAX_CHIPS`] chips.
fn check_cluster_size(what: &str, chips: usize) -> Result<(), ServeError> {
    if chips > MAX_CHIPS {
        return Err(ServeError::InvalidConfig(format!(
            "{what} of {chips} chips is past the {MAX_CHIPS}-chip limit"
        )));
    }
    Ok(())
}

/// A schedule of elastic resizes for [`serve_dist_elastic`]. Events are
/// applied in `at_ms` order; an empty plan is a fixed-size cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalePlan {
    /// The resize events, any order (sorted before use).
    pub events: Vec<ScaleEvent>,
}

impl ScalePlan {
    /// A plan from `(at_ms, chips)` pairs.
    #[must_use]
    pub fn new(events: &[(f64, usize)]) -> Self {
        ScalePlan {
            events: events
                .iter()
                .map(|&(at_ms, chips)| ScaleEvent { at_ms, chips })
                .collect(),
        }
    }

    /// Rejects non-finite/negative times and targets of zero or more
    /// than 2^20 chips.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending event.
    pub fn validate(&self) -> Result<(), ServeError> {
        for ev in &self.events {
            if !(ev.at_ms.is_finite() && ev.at_ms >= 0.0) {
                return Err(ServeError::InvalidConfig(
                    "scale event time must be finite and non-negative".to_owned(),
                ));
            }
            if ev.chips == 0 {
                return Err(ServeError::InvalidConfig(
                    "scale event must keep at least one chip".to_owned(),
                ));
            }
            check_cluster_size("scale event target", ev.chips)?;
        }
        Ok(())
    }

    /// The events sorted by time (ties by target size), ready to apply.
    #[must_use]
    pub fn sorted(&self) -> Vec<ScaleEvent> {
        let mut evs = self.events.clone();
        evs.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.chips.cmp(&b.chips)));
        evs
    }
}

/// What one applied [`ScaleEvent`] cost: the KV blocks re-striped over
/// the fabric, the modeled bytes they carried, the stop-the-world stall
/// the migration added to the virtual clock, and the requests evicted to
/// fit a shrunken pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScaleEventRecord {
    /// When the event was scheduled.
    pub at_ms: f64,
    /// Virtual time it was actually applied (first tick at/after `at_ms`).
    pub applied_ms: f64,
    /// Cluster size before.
    pub from_chips: usize,
    /// Cluster size after.
    pub to_chips: usize,
    /// Resident KV blocks whose round-robin home shard changed.
    pub migrated_blocks: u64,
    /// Modeled bytes those blocks carried (at the serving element width).
    pub migrated_bytes: f64,
    /// Stall added to the virtual clock: sources transfer in parallel,
    /// each source serializes its own sends.
    pub migration_ms: f64,
    /// Running requests preempted so the resident set fits the new pool.
    pub preempted: u64,
}

/// Per-tick collective pricing, precomputed from the model's dimensions.
///
/// Built by [`serve_dist_elastic`], consumed inside the engine loop: each
/// tick hands [`charge_tick`](Self::charge_tick) its scheduled token count
/// and compute time and gets back the fabric seconds to add to the
/// virtual clock.
#[derive(Debug, Clone)]
pub struct DistPlane {
    fabric: Fabric,
    /// The partition's per-token collective calls for one layer
    /// (operation + bytes for a single token's activations/state).
    per_token_calls: Vec<flat_dist::CollectiveCall>,
    layers: u64,
    /// The cluster knobs, kept so elastic rescales can rebuild the fabric
    /// and the partition's collective calls for a new chip count.
    cfg: DistServeConfig,
    /// The one-token layer shape the per-token calls derive from.
    token_cfg: AttentionConfig,
    /// Running totals, accumulated tick by tick.
    pub(crate) fabric_busy_ms: f64,
    /// Collective milliseconds the compute could *not* hide: equal to
    /// `fabric_busy_ms` under serial pricing, smaller under overlap.
    pub(crate) exposed_ms: f64,
    pub(crate) payload_bytes: f64,
    /// Peak striped block count per shard (sized to the largest cluster
    /// seen; shards beyond the current size stop accumulating). Current
    /// up to the last closed epoch: a resize and the end of the run close
    /// one.
    pub(crate) per_shard_peak: Vec<usize>,
    /// Peak pool usage since the last resize: the open chip-count epoch,
    /// not yet expanded into `per_shard_peak`.
    epoch_peak_used: usize,
    /// Applied elastic resizes, in order.
    pub(crate) scale_log: Vec<ScaleEventRecord>,
}

impl DistPlane {
    pub(crate) fn new(model: &Model, cfg: &DistServeConfig) -> Self {
        let fabric = Fabric::new(cfg.chips, cfg.topology, cfg.link).with_algo(cfg.algo);
        // A one-token decode-shaped layer: the per-token exchange the
        // partition forces, independent of batch (batch scales bytes).
        let token_cfg = AttentionConfig::cross_attention(
            1,
            model.heads(),
            1,
            1,
            model.hidden(),
            model.ffn_hidden(),
        );
        DistPlane {
            fabric,
            per_token_calls: cfg.partition.collectives(&token_cfg, cfg.chips),
            layers: model.blocks(),
            cfg: *cfg,
            token_cfg,
            fabric_busy_ms: 0.0,
            exposed_ms: 0.0,
            payload_bytes: 0.0,
            per_shard_peak: vec![0; cfg.chips],
            epoch_peak_used: 0,
            scale_log: Vec::new(),
        }
    }

    pub(crate) fn chips(&self) -> usize {
        self.fabric.chips
    }

    /// Rebuilds the fabric and the partition's per-token collective calls
    /// for a resized cluster. Peak-occupancy lanes are extended (never
    /// truncated) so shards that existed keep their history.
    pub(crate) fn rescale(&mut self, chips: usize) {
        self.close_epoch();
        self.fabric = Fabric::new(chips, self.cfg.topology, self.cfg.link).with_algo(self.cfg.algo);
        self.per_token_calls = self.cfg.partition.collectives(&self.token_cfg, chips);
        if self.per_shard_peak.len() < chips {
            self.per_shard_peak.resize(chips, 0);
        }
    }

    /// Prices re-striping `used_blocks` resident KV blocks (round-robin
    /// homes) from a `chips()`-shard layout onto `to` shards: block `b`
    /// moves `b % from → b % to` when those differ. Transfers are priced
    /// point-to-point on a fabric spanning both layouts — sources send in
    /// parallel, each source serializes its own sends, so the stall is the
    /// slowest source's total. Returns `(blocks, bytes, stall_seconds)`.
    pub(crate) fn migration_cost(
        &self,
        used_blocks: usize,
        block_bytes: f64,
        to: usize,
    ) -> (u64, f64, f64) {
        let from = self.fabric.chips.max(1);
        let to = to.max(1);
        if from == to || used_blocks == 0 {
            return (0, 0.0, 0.0);
        }
        let span = from.max(to);
        let pricing = Fabric::new(span, self.cfg.topology, self.cfg.link).with_algo(self.cfg.algo);
        // Sparse (source, dest) move counts: at most `used_blocks` pairs
        // are live, whatever the cluster sizes.
        let mut moved: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for b in 0..used_blocks {
            let (s, d) = (b % from, b % to);
            if s != d {
                *moved.entry((s, d)).or_insert(0) += 1;
            }
        }
        let mut blocks = 0u64;
        let mut stall_s = 0.0f64;
        let mut src = None;
        let mut src_s = 0.0;
        // Keys iterate source-major, dests ascending: each source's sends
        // sum in dest order, and the slowest source sets the stall.
        for (&(s, d), &n) in &moved {
            if src != Some(s) {
                stall_s = stall_s.max(src_s);
                src = Some(s);
                src_s = 0.0;
            }
            blocks += n;
            let bytes = (n as f64 * block_bytes).round() as u64;
            src_s += pricing.p2p_s(bytes, s, d);
        }
        stall_s = stall_s.max(src_s);
        (blocks, blocks as f64 * block_bytes, stall_s)
    }

    /// Whether ticks price collectives overlapped with compute.
    pub(crate) fn overlap(&self) -> bool {
        self.cfg.overlap
    }

    /// Charges one tick's collectives: `tokens` scheduled tokens owe their
    /// partition's per-token calls, batched into one round per call kind
    /// and model layer (α amortizes across the batch, β does not). Serial
    /// pricing exposes the whole fabric time; overlap pricing only what
    /// `compute_s` cannot hide, `max(0, fabric − compute)`. The fabric-busy,
    /// exposed and payload totals grow by the tick's share, and the
    /// exposed seconds the tick adds to the virtual clock come back. One
    /// chip owes no collectives, so its ticks are pure compute.
    ///
    /// With `trace` set, each call kind also comes back as one
    /// [`CollectiveSlice`]; their durations sum to the tick's fabric time
    /// (up to rounding), so traced ticks close flush with the virtual
    /// clock.
    pub(crate) fn charge_tick(
        &mut self,
        tokens: u64,
        compute_s: f64,
        trace: bool,
    ) -> (f64, Vec<CollectiveSlice>) {
        let mut slices = Vec::new();
        if tokens == 0 || self.per_token_calls.is_empty() {
            return (0.0, slices);
        }
        let layers = self.layers as f64;
        let (mut per_layer_s, mut token_bytes) = (0.0, 0.0);
        for c in &self.per_token_calls {
            let batched = flat_dist::CollectiveCall {
                op: c.op,
                bytes: c.bytes.saturating_mul(tokens),
            };
            let call_s = batched.cost_s(&self.fabric);
            per_layer_s += call_s;
            token_bytes += c.bytes as f64;
            if trace {
                slices.push(CollectiveSlice {
                    op: c.op,
                    dur_s: layers * call_s,
                    bytes: batched.bytes.saturating_mul(self.layers),
                    energy_pj: layers
                        * batched.traversed_bytes(&self.fabric)
                        * self.fabric.link.pj_per_byte,
                });
            }
        }
        let fabric_s = layers * per_layer_s;
        let exposed_s = if self.cfg.overlap {
            (fabric_s - compute_s).max(0.0)
        } else {
            fabric_s
        };
        self.fabric_busy_ms += fabric_s * 1e3;
        self.exposed_ms += exposed_s * 1e3;
        // The logical tensor sizes, before schedule expansion.
        self.payload_bytes += layers * tokens as f64 * token_bytes;
        (exposed_s, slices)
    }

    /// Records this tick's pool usage. Only the epoch's peak is kept:
    /// under a fixed chip count every shard's striped share grows with
    /// `used`, so the per-shard peaks of the epoch are the shares of its
    /// peak, expanded once when the epoch closes.
    pub(crate) fn observe_used_blocks(&mut self, used: usize) {
        self.epoch_peak_used = self.epoch_peak_used.max(used);
    }

    /// Expands the open epoch's peak against the round-robin striping of
    /// the *current* chip count: shard `s` holds `used/chips` blocks plus
    /// one more if `s` is under the remainder. Lanes beyond it (from a
    /// larger past cluster) keep their peak.
    pub(crate) fn close_epoch(&mut self) {
        let (used, p) = (self.epoch_peak_used, self.fabric.chips.max(1));
        for (s, peak) in self.per_shard_peak.iter_mut().enumerate().take(p) {
            let share = used / p + usize::from(s < used % p);
            *peak = (*peak).max(share);
        }
        self.epoch_peak_used = 0;
    }
}

/// One tick's worth of a single collective kind, ready to stamp on the
/// fabric trace lane.
#[derive(Debug, Clone)]
pub(crate) struct CollectiveSlice {
    /// The operation; its display form (`all-reduce`, `all-gather`,
    /// `reduce-scatter`) names the slice.
    pub(crate) op: flat_dist::CollectiveOp,
    /// Fabric seconds for the batched call across all model layers.
    pub(crate) dur_s: f64,
    /// Logical payload carried, in bytes (all layers).
    pub(crate) bytes: u64,
    /// Link energy charged by the traversed-bytes model, in picojoules.
    pub(crate) energy_pj: f64,
}

/// [`ServeMetrics`] plus the cluster-level view: what
/// [`serve_dist_elastic`] returns. [`crate::serve`] is the `serve` field
/// of a 1-chip run.
#[derive(Debug, Clone, Serialize)]
pub struct DistServeMetrics {
    /// Chips in the cluster at the start of the run.
    pub chips: usize,
    /// Chips at the end of the run (differs under an elastic plan).
    pub chips_final: usize,
    /// Fabric topology.
    pub topology: Topology,
    /// Sharding strategy.
    pub partition: Partition,
    /// Collective schedule priced on the fabric.
    pub algo: CollectiveAlgo,
    /// Whether ticks priced collectives overlapped with compute.
    pub overlap: bool,
    /// Virtual milliseconds the fabric was busy with collectives.
    pub fabric_busy_ms: f64,
    /// Collective milliseconds compute could not hide — what the ticks
    /// actually paid. Equals `fabric_busy_ms` under serial pricing.
    pub fabric_exposed_ms: f64,
    /// Exposed-fabric share of the makespan.
    pub fabric_fraction: f64,
    /// Logical collective payload carried over the run, in bytes.
    pub collective_payload_bytes: f64,
    /// Peak KV occupancy of each shard (striped pages ÷ per-shard
    /// capacity), indexed by shard id; under an elastic plan the list
    /// spans the largest cluster seen.
    pub per_shard_kv_peak_occupancy: Vec<f64>,
    /// Applied elastic resizes with their migration costs (empty on a
    /// fixed-size run).
    pub scale_events: Vec<ScaleEventRecord>,
    /// Total modeled bytes of KV state re-striped by elastic resizes.
    pub kv_migrated_bytes: f64,
    /// Total virtual milliseconds the resizes stalled the engine.
    pub kv_migration_ms: f64,
    /// The engine metrics, unchanged in shape from single-chip serving.
    pub serve: ServeMetrics,
}

impl DistServeMetrics {
    /// Pretty JSON, schema-stable for the CLI and the bench snapshots.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }
}

/// `num_ms / den_ms` with every degenerate denominator (zero, negative,
/// NaN, infinite) clamped to 0.0 — the fraction must never be NaN in
/// `--json` output, matching the rate clamps in [`crate::metrics`].
fn safe_fraction(num_ms: f64, den_ms: f64) -> f64 {
    if den_ms.is_finite() && den_ms > 0.0 {
        let frac = num_ms / den_ms;
        if frac.is_finite() {
            frac
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// The one full-control serving entry point: runs a request stream on a
/// `dist.chips`-wide cluster and reports engine + fabric metrics.
///
/// * `plan` resizes the cluster mid-run: each applied event rebuilds the
///   fabric, rescales the modeled compute/bandwidth, re-stripes resident
///   KV point-to-point over the fabric (priced and reported per event),
///   and grows or shrinks the pooled KV capacity, evicting by priority
///   when the resident set no longer fits. An empty plan is a fixed-size
///   cluster.
/// * `faults` injects a seeded [`FaultPlan`]'s mid-run failures.
///   Conservation (`finished + dropped == offered`) holds under chaos;
///   the chaos suite pins it.
/// * `sink` records the run: per-request lifecycle spans (queued →
///   prefill chunks → decode steps → finished/dropped/preempted),
///   per-tick KV/queue counter tracks, and, when the cluster starts or
///   is resized above one chip, one fabric lane with each tick's
///   collective slices (operation, payload bytes, link energy, and the
///   tick's chip count), recorded once per tick whatever the cluster
///   size. Every stamp comes from the
///   deterministic virtual clock, so fixed seeds yield byte-identical
///   traces. A [`flat_telemetry::NoopSink`] leaves the metrics untouched.
///
/// With `chips = 1`, an empty plan, no faults and a no-op sink this is
/// [`crate::serve`], which returns the `.serve` part.
///
/// # Errors
///
/// Everything [`crate::serve`] returns, plus
/// [`ServeError::InvalidConfig`] for a cluster of zero or more than
/// 2^20 chips, or a malformed plan (non-finite time, or a target of zero
/// or more than 2^20 chips).
#[allow(clippy::too_many_arguments)]
pub fn serve_dist_elastic(
    accel: &Accelerator,
    model: &Model,
    workload: &[RequestSpec],
    cfg: &EngineConfig,
    dist: &DistServeConfig,
    plan: &ScalePlan,
    faults: Option<FaultPlan>,
    sink: &mut dyn TraceSink,
) -> Result<DistServeMetrics, ServeError> {
    if dist.chips == 0 {
        return Err(ServeError::InvalidConfig(
            "a cluster needs at least one chip".to_owned(),
        ));
    }
    check_cluster_size("a cluster", dist.chips)?;
    plan.validate()?;
    let plane = DistPlane::new(model, dist);
    let (serve, plane) = Engine::new(
        accel,
        model,
        workload,
        cfg,
        faults,
        plane,
        &plan.sorted(),
        sink,
    )?
    .run()?;
    let shard_capacity = (serve.kv.total_blocks / plane.chips().max(1)).max(1);
    let per_shard_kv_peak_occupancy = plane
        .per_shard_peak
        .iter()
        .map(|&peak| peak as f64 / shard_capacity as f64)
        .collect();
    Ok(DistServeMetrics {
        chips: dist.chips,
        chips_final: plane.chips(),
        topology: dist.topology,
        partition: dist.partition,
        algo: dist.algo,
        overlap: dist.overlap,
        fabric_busy_ms: plane.fabric_busy_ms,
        fabric_exposed_ms: plane.exposed_ms,
        fabric_fraction: safe_fraction(plane.exposed_ms, serve.makespan_ms),
        collective_payload_bytes: plane.payload_bytes,
        per_shard_kv_peak_occupancy,
        kv_migrated_bytes: plane.scale_log.iter().map(|e| e.migrated_bytes).sum(),
        kv_migration_ms: plane.scale_log.iter().map(|e| e.migration_ms).sum(),
        scale_events: plane.scale_log.clone(),
        serve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve;
    use crate::workload::WorkloadSpec;
    use flat_telemetry::NoopSink;
    use flat_workloads::Task;

    fn workload(n: usize) -> Vec<RequestSpec> {
        let mut spec = WorkloadSpec::from_task(Task::ShortNlp, n, 400.0);
        spec.prompt_mean = 48;
        spec.output_mean = 8;
        spec.generate(11).unwrap()
    }

    fn cfg(accel: &Accelerator, model: &Model) -> EngineConfig {
        let mut c = EngineConfig::for_platform(accel, model, 11);
        c.kv_budget = flat_tensor::Bytes::from_mib(64);
        c
    }

    /// A fixed-size, fault-free, untraced cluster run.
    fn run_fixed(
        accel: &Accelerator,
        model: &Model,
        wl: &[RequestSpec],
        cfg: &EngineConfig,
        dist: &DistServeConfig,
    ) -> Result<DistServeMetrics, ServeError> {
        let plan = ScalePlan::default();
        serve_dist_elastic(accel, model, wl, cfg, dist, &plan, None, &mut NoopSink)
    }

    /// [`crate::serve`] is the 1-chip cluster, whatever the wiring: a
    /// 1-chip ring with hd collectives and overlap pricing produces the
    /// same engine metrics byte for byte.
    #[test]
    fn one_chip_cluster_reproduces_single_chip_serving() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let wl = workload(12);
        let c = cfg(&accel, &model);
        let plain = serve(&accel, &model, &wl, &c).unwrap();
        let mut one = DistServeConfig::new(1, Topology::Ring);
        one.algo = CollectiveAlgo::HalvingDoubling;
        one.overlap = true;
        let dist = run_fixed(&accel, &model, &wl, &c, &one).unwrap();
        assert_eq!(
            dist.serve.to_json(),
            plain.to_json(),
            "engine metrics must be identical"
        );
        assert_eq!(dist.fabric_busy_ms, 0.0);
        assert_eq!(dist.fabric_exposed_ms, 0.0);
        assert_eq!(dist.collective_payload_bytes, 0.0);
        assert_eq!(dist.per_shard_kv_peak_occupancy.len(), 1);
    }

    /// Overlap pricing hides collective time behind compute: the fabric
    /// is exactly as busy, but ticks only pay the uncovered remainder,
    /// so the makespan can only shrink. Serial pricing exposes every
    /// fabric millisecond.
    #[test]
    fn overlap_hides_collective_time_without_changing_fabric_work() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let wl = workload(16);
        let c = cfg(&accel, &model);
        let mut serial = DistServeConfig::new(4, Topology::Ring);
        serial.algo = CollectiveAlgo::HalvingDoubling;
        let mut overlapped = serial;
        overlapped.overlap = true;
        let s = run_fixed(&accel, &model, &wl, &c, &serial).unwrap();
        let o = run_fixed(&accel, &model, &wl, &c, &overlapped).unwrap();
        assert_eq!(
            s.fabric_exposed_ms, s.fabric_busy_ms,
            "serial pricing exposes everything"
        );
        assert!(o.fabric_exposed_ms <= o.fabric_busy_ms);
        assert!(o.fabric_exposed_ms < s.fabric_exposed_ms);
        assert!(o.serve.makespan_ms <= s.serve.makespan_ms);
        assert_eq!(
            o.collective_payload_bytes, s.collective_payload_bytes,
            "overlap changes timing, not traffic"
        );
        assert!(o.to_json().contains("\"overlap\": true"));
        assert!(s.to_json().contains("\"algo\": \"hd\""));
    }

    /// The JSON fraction survives degenerate makespans: zero, negative,
    /// NaN, and infinite denominators all clamp to 0.0 instead of
    /// emitting NaN.
    #[test]
    fn fabric_fraction_is_never_nan() {
        assert_eq!(safe_fraction(3.0, 0.0), 0.0);
        assert_eq!(safe_fraction(3.0, -1.0), 0.0);
        assert_eq!(safe_fraction(3.0, f64::NAN), 0.0);
        assert_eq!(safe_fraction(3.0, f64::INFINITY), 0.0);
        assert_eq!(safe_fraction(f64::NAN, 2.0), 0.0);
        assert!((safe_fraction(1.0, 4.0) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn more_chips_add_capacity_and_fabric_time() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let wl = workload(16);
        let c = cfg(&accel, &model);
        let one = run_fixed(
            &accel,
            &model,
            &wl,
            &c,
            &DistServeConfig::new(1, Topology::Ring),
        )
        .unwrap();
        let four = run_fixed(
            &accel,
            &model,
            &wl,
            &c,
            &DistServeConfig::new(4, Topology::Ring),
        )
        .unwrap();
        assert_eq!(four.serve.kv.total_blocks, 4 * one.serve.kv.total_blocks);
        assert!(four.fabric_busy_ms > 0.0);
        assert!(four.fabric_fraction > 0.0 && four.fabric_fraction < 1.0);
        assert_eq!(four.per_shard_kv_peak_occupancy.len(), 4);
        assert_eq!(
            four.serve.finished, one.serve.finished,
            "conservation holds on a cluster"
        );
    }

    /// On a fixed-size cluster every shard's peak is its round-robin
    /// share of one pool peak: the shares differ by at most one block and
    /// the lower shards hold the extra. The peak is expanded when the run
    /// ends, so a run that wrote KV has a non-zero one.
    #[test]
    fn shard_occupancies_follow_round_robin_striping() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let wl = workload(16);
        let chips = 4;
        let m = run_fixed(
            &accel,
            &model,
            &wl,
            &cfg(&accel, &model),
            &DistServeConfig::new(chips, Topology::Mesh2d),
        )
        .unwrap();
        let occ = &m.per_shard_kv_peak_occupancy;
        assert!(occ.iter().all(|&o| (0.0..=1.0).contains(&o)));
        let shard_blocks = (m.serve.kv.total_blocks / chips) as f64;
        let peaks: Vec<usize> = occ
            .iter()
            .map(|o| (o * shard_blocks).round() as usize)
            .collect();
        let used: usize = peaks.iter().sum();
        assert!(used > 0, "the run wrote KV");
        assert!(used <= m.serve.kv.peak_used_blocks);
        for (s, &peak) in peaks.iter().enumerate() {
            assert_eq!(
                peak,
                used / chips + usize::from(s < used % chips),
                "shard {s}"
            );
        }
    }

    #[test]
    fn determinism_and_serialization() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let wl = workload(8);
        let c = cfg(&accel, &model);
        let d = DistServeConfig::new(2, Topology::Ring);
        let a = run_fixed(&accel, &model, &wl, &c, &d).unwrap();
        let b = run_fixed(&accel, &model, &wl, &c, &d).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("fabric_busy_ms"));
    }

    #[test]
    fn zero_chips_is_a_typed_error() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let mut d = DistServeConfig::new(1, Topology::Ring);
        d.chips = 0;
        let err = run_fixed(&accel, &model, &workload(2), &cfg(&accel, &model), &d).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    /// Regression: resizing to a huge cluster used to allocate a dense
    /// `span × span` move matrix (80 GB at 100k chips) and abort. Only
    /// the blocks that change home are counted now.
    #[test]
    fn resize_to_a_huge_cluster_prices_only_the_moved_blocks() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::cloud();
        let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 32, 800.0);
        spec.prompt_mean = 48;
        spec.output_mean = 8;
        let wl = spec.generate(3).unwrap();
        let mut c = EngineConfig::for_platform(&accel, &model, 3);
        c.kv_budget = flat_tensor::Bytes::from_mib(4);
        let m = serve_dist_elastic(
            &accel,
            &model,
            &wl,
            &c,
            &DistServeConfig::new(2, Topology::Ring),
            &ScalePlan::new(&[(5.0, 100_000)]),
            None,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(m.scale_events.len(), 1);
        assert_eq!(m.scale_events[0].migrated_blocks, 3);
        assert_eq!(m.chips_final, 100_000);
    }

    /// Regression: a cluster or a resize target of 10^12 chips used to
    /// abort the process on an 8 TB allocation. Both are typed errors
    /// past the cap, checked before anything is allocated; the cap itself
    /// is accepted.
    #[test]
    fn cluster_size_is_capped_before_any_allocation() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        let (wl, c) = (workload(4), cfg(&accel, &model));
        let run = |chips: usize, plan: &[(f64, usize)]| {
            serve_dist_elastic(
                &accel,
                &model,
                &wl,
                &c,
                &DistServeConfig::new(chips, Topology::Ring),
                &ScalePlan::new(plan),
                None,
                &mut NoopSink,
            )
        };
        for (chips, plan) in [
            (1_000_000_000_000, vec![]),
            (MAX_CHIPS + 1, vec![]),
            (2, vec![(5.0, 1_000_000_000_000)]),
            (2, vec![(5.0, 4), (9.0, MAX_CHIPS + 1)]),
        ] {
            let err = run(chips, &plan).unwrap_err();
            assert!(
                matches!(&err, ServeError::InvalidConfig(why) if why.contains("1048576-chip limit")),
                "{chips} {plan:?}: {err}"
            );
        }
        let m = run(MAX_CHIPS, &[]).unwrap();
        assert_eq!(m.per_shard_kv_peak_occupancy.len(), MAX_CHIPS);
    }

    /// The epoch peak expands to exactly the per-shard peaks a walk of
    /// every shard at every tick records, across grows and shrinks.
    #[test]
    fn epoch_peaks_equal_the_per_tick_shard_walk() {
        let model = Model::by_name("bert").unwrap();
        let mut plane = DistPlane::new(&model, &DistServeConfig::new(3, Topology::Ring));
        let mut want = vec![0usize; 3];
        let mut chips = 3;
        // `(used, resize to)` per tick; 0 keeps the chip count.
        let ticks = [
            (5, 0),
            (11, 0),
            (7, 5),
            (4, 0),
            (13, 2),
            (9, 0),
            (2, 6),
            (1, 0),
            (17, 0),
        ];
        for (used, to) in ticks {
            if to > 0 {
                plane.rescale(to);
                chips = to;
                want.resize(want.len().max(to), 0);
            }
            plane.observe_used_blocks(used);
            for (s, peak) in want.iter_mut().enumerate().take(chips) {
                *peak = (*peak).max(used / chips + usize::from(s < used % chips));
            }
        }
        plane.close_epoch();
        assert_eq!(plane.per_shard_peak, want);
    }

    /// One tick's charge: serial pricing exposes the whole fabric time,
    /// overlap pricing hides it behind enough compute, both add the same
    /// busy time and payload, and slices come back only when tracing.
    #[test]
    fn charge_tick_applies_the_overlap_rule_and_accumulates() {
        let model = Model::by_name("bert").unwrap();
        let mut serial = DistPlane::new(&model, &DistServeConfig::new(4, Topology::Ring));
        let (exposed, slices) = serial.charge_tick(8, 1.0, false);
        assert!(exposed > 0.0 && slices.is_empty());
        assert_eq!(serial.exposed_ms, serial.fabric_busy_ms);
        assert_eq!(serial.fabric_busy_ms, exposed * 1e3);
        let (again, slices) = serial.charge_tick(8, 1.0, true);
        assert_eq!(again.to_bits(), exposed.to_bits());
        assert_eq!(slices.len(), 2, "kv-shard: all-gather + all-reduce");
        let traced_s: f64 = slices.iter().map(|s| s.dur_s).sum();
        assert!((traced_s - exposed).abs() <= 1e-12 * exposed);
        assert!(slices.iter().all(|s| s.bytes > 0 && s.energy_pj > 0.0));

        let mut cfg = DistServeConfig::new(4, Topology::Ring);
        cfg.overlap = true;
        let mut overlapped = DistPlane::new(&model, &cfg);
        assert_eq!(overlapped.charge_tick(8, 1.0, false).0, 0.0);
        assert_eq!(overlapped.exposed_ms, 0.0);
        assert_eq!(overlapped.fabric_busy_ms, exposed * 1e3);
        assert_eq!(overlapped.payload_bytes * 2.0, serial.payload_bytes);
        assert!(overlapped.charge_tick(0, 0.0, true).1.is_empty());

        let mut one = DistPlane::new(&model, &DistServeConfig::new(1, Topology::Ring));
        let (exposed, slices) = one.charge_tick(8, 0.0, true);
        assert!(exposed == 0.0 && slices.is_empty());
        assert_eq!(one.payload_bytes, 0.0);
    }

    /// The sparse move count prices exactly what the dense matrix did:
    /// per source, sends summed in ascending dest order; the stall is
    /// the slowest source.
    #[test]
    fn migration_cost_matches_the_dense_reference() {
        let model = Model::by_name("bert").unwrap();
        for (from, to, used) in [(2, 4, 37), (4, 2, 37), (3, 8, 100), (8, 3, 5), (5, 5, 9)] {
            let plane = DistPlane::new(&model, &DistServeConfig::new(from, Topology::Ring));
            let (blocks, bytes, stall) = plane.migration_cost(used, 1024.0, to);
            let span = from.max(to);
            let pricing = Fabric::new(span, Topology::Ring, Link::cloud());
            let (mut want_blocks, mut want_stall) = (0u64, 0.0f64);
            for s in 0..span {
                let mut src_s = 0.0;
                for d in 0..span {
                    let n = (0..used).filter(|b| b % from == s && b % to == d && s != d);
                    let n = n.count() as u64;
                    if n > 0 {
                        want_blocks += n;
                        src_s += pricing.p2p_s(n * 1024, s, d);
                    }
                }
                want_stall = want_stall.max(src_s);
            }
            assert_eq!(blocks, want_blocks, "{from} -> {to}");
            assert_eq!(bytes, want_blocks as f64 * 1024.0);
            assert_eq!(stall.to_bits(), want_stall.to_bits(), "{from} -> {to}");
        }
    }
}
