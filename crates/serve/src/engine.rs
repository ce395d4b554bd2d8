//! The continuous-batching engine: iteration-level scheduling of prefill
//! chunks and decode steps over the paged KV pool.
//!
//! Each engine *tick* composes one mixed batch (Orca-style iteration-level
//! scheduling): every running decode request advances by exactly one
//! token, and up to `prefill_chunk` prompt tokens of admitted requests are
//! ingested alongside. Admission is backpressured by the KV pool's free
//! list; exhaustion mid-tick preempts the latest-arrived running request
//! (vLLM's recompute policy: release its pages, re-queue it, count it).
//!
//! Two planes run side by side, deliberately:
//!
//! * the **numeric plane** executes real attention per scheduled token
//!   through [`flat_kernels::decode_attention_with`] at a reduced width (one
//!   representative head, `dk` lanes), fed one paged KV block at a time
//!   by [`KvPool::blocks`] — each step's output feeds the next
//!   step's Q/K/V derivation, so generation is genuinely sequential and
//!   any scheduling bug shows up in the numeric checksum. The Q/K/V rows
//!   are seeded pseudo-random embeddings, one xoshiro256** stream per
//!   row ([`stream_of`]), drawn eight streams per vector op by
//!   [`embed_rows`] a batch at a time: a prefill group's K/V rows, and
//!   every decoding request's Q/K/V rows before the tick's decode steps.
//!   Each row is the same bits a lone `StdRng` stream draws;
//! * the **accounting plane** prices every tick against the full model on
//!   the modeled accelerator — weight streaming, KV streaming at the
//!   all-layer byte cost, and MAC throughput — producing the TTFT/TPOT
//!   latencies the metrics report.
//!
//! The engine is **total**: it never panics on adversarial input.
//! Malformed specs, requests whose worst-case KV footprint exceeds the
//! whole pool, and requests queued past their deadline are shed with a
//! typed [`DropReason`] and counted; configuration and workload problems
//! surface as [`ServeError`]s; and a scheduler that stops making progress
//! trips a tick cap into [`ServeError::Livelock`] instead of hanging.

use crate::dist::{
    serve_dist_elastic, CollectiveSlice, DistPlane, DistServeConfig, ScaleEvent, ScaleEventRecord,
    ScalePlan,
};
use crate::error::{DropReason, ServeError};
use crate::faults::{FaultInjector, FaultPlan};
use crate::kv::{KvLayout, KvPool};
use crate::metrics::{KvPoolStats, ServeMetrics, WindowSample};
use crate::request::{Phase, Request, RequestSpec};
use flat_arch::Accelerator;
use flat_dist::Topology;
use flat_kernels::{decode_attention_with, ComputePrecision};
use flat_telemetry::{Event, NoopSink, TraceSink};
use flat_tensor::{Bytes, SoftmaxKind};
use flat_workloads::Model;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// The engine's process lane in exported traces.
pub(crate) const TRACE_PID_ENGINE: u32 = 0;

/// The fabric's process lane: each tick's collectives, once per tick,
/// whatever the cluster size.
const TRACE_PID_FABRIC: u32 = 1;

/// Milliseconds (the engine clock) to microseconds (the trace clock).
const US_PER_MS: f64 = 1e3;

/// Largest K or V buffer of one physical KV block, in f32s (64 MiB). A
/// block is allocated whole on first use, so a `block_tokens` past this
/// would only abort the process there.
const MAX_BLOCK_FLOATS: usize = 1 << 24;

/// Scheduler and execution knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Tokens per KV-cache block.
    pub block_tokens: usize,
    /// Prompt tokens ingested per tick across all prefilling requests.
    pub prefill_chunk: usize,
    /// Maximum concurrently running (admitted) requests.
    pub max_batch: usize,
    /// Execution width of the numeric plane (one head's lanes).
    pub dk: usize,
    /// Modeled memory budget backing the KV pool.
    pub kv_budget: Bytes,
    /// Seed of the numeric plane (token embeddings).
    pub seed: u64,
    /// Storage precision of the numeric plane's attention (and the
    /// element width the accounting plane prices KV streaming at).
    pub precision: ComputePrecision,
    /// Softmax family member the decode kernel runs.
    pub softmax: SoftmaxKind,
    /// Copy-on-write prefix sharing: dedup full KV blocks of shared
    /// prompt prefixes (requests carrying the same
    /// [`RequestSpec::prefix_template`]) across the batch. Capacity-only:
    /// outputs and per-request latencies are token-identical to a
    /// dedup-off run of the same workload and seed (a test pins this).
    pub dedup: bool,
    /// Emit a [`WindowSample`] every this-many virtual milliseconds —
    /// the goodput/latency/occupancy trajectory sustained-load runs plot.
    /// `None` (the default) keeps the metrics schema unchanged.
    pub window_ms: Option<f64>,
}

impl EngineConfig {
    /// Defaults sized against the accelerator's modeled DRAM: the KV pool
    /// gets whatever the off-chip level holds beyond the model weights.
    #[must_use]
    pub fn for_platform(accel: &Accelerator, model: &Model, seed: u64) -> Self {
        let weights = Bytes::new(2 * model_params(model) as u64);
        // Never below one block's worth: a pool must exist even when the
        // weights nominally fill DRAM.
        let kv_budget = accel.dram_capacity().saturating_sub(weights);
        EngineConfig {
            block_tokens: 16,
            prefill_chunk: 512,
            max_batch: 64,
            dk: 32,
            kv_budget,
            seed,
            precision: ComputePrecision::F32,
            softmax: SoftmaxKind::Exact,
            dedup: false,
            window_ms: None,
        }
    }

    /// Rejects configurations the scheduler cannot make progress under.
    fn validate(&self) -> Result<(), ServeError> {
        let bad = |why: &str| Err(ServeError::InvalidConfig(why.to_owned()));
        if self.block_tokens == 0 {
            return bad("block_tokens must be at least 1");
        }
        if self.prefill_chunk == 0 {
            return bad("prefill_chunk must be at least 1 or prompts never ingest");
        }
        if self.max_batch == 0 {
            return bad("max_batch must be at least 1 or nothing is ever admitted");
        }
        if self.dk == 0 {
            return bad("dk must be at least 1");
        }
        if self
            .block_tokens
            .checked_mul(self.dk)
            .is_none_or(|floats| floats > MAX_BLOCK_FLOATS)
        {
            return bad("block_tokens x dk must be at most 2^24 floats per K or V block");
        }
        if self.window_ms.is_some_and(|w| !(w > 0.0 && w.is_finite())) {
            return bad("window_ms must be positive and finite when set");
        }
        Ok(())
    }
}

/// Weight parameter count of the full model: per layer the four h×h
/// attention projections plus the two FFN matrices.
fn model_params(model: &Model) -> f64 {
    let h = model.hidden() as f64;
    let ffn = model.ffn_hidden() as f64;
    model.blocks() as f64 * (4.0 * h * h + 2.0 * h * ffn)
}

/// Runs a request stream to completion on one accelerator and reports
/// the metrics.
///
/// Single-chip serving is the degenerate cluster: this is
/// [`serve_dist_elastic`] on a 1-chip fully-connected fabric with no
/// resizes, no faults and no trace, returning the engine metrics. One
/// chip owes no collectives and scales nothing, so this is exactly the
/// single-accelerator engine.
///
/// Every request in `workload` is accounted for exactly once: it either
/// finishes, or is dropped with a typed [`DropReason`] (infeasible
/// footprint, missed deadline, corrupt spec) — conservation is the
/// engine's core invariant, asserted in the tests. The whole run is
/// deterministic in (`workload`, `cfg.seed`).
///
/// # Errors
///
/// [`ServeError::EmptyWorkload`] on an empty workload,
/// [`ServeError::InvalidConfig`] on degenerate engine knobs, and
/// [`ServeError::Livelock`] if the scheduler ever stops making progress
/// (a bug guard — no well-formed input triggers it).
pub fn serve(
    accel: &Accelerator,
    model: &Model,
    workload: &[RequestSpec],
    cfg: &EngineConfig,
) -> Result<ServeMetrics, ServeError> {
    serve_dist_elastic(
        accel,
        model,
        workload,
        cfg,
        &DistServeConfig::new(1, Topology::FullyConnected),
        &ScalePlan::default(),
        None,
        &mut NoopSink,
    )
    .map(|m| m.serve)
}

/// One serving run: the request queues, the KV pool, and the cluster
/// plane the ticks are priced on (one chip for [`serve`]).
pub(crate) struct Engine<'t> {
    cfg: EngineConfig,
    layout: KvLayout,
    pool: KvPool,
    scale: f32,
    /// The numeric plane's embedded rows, `dk` wide, filled a batch at a
    /// time by [`embed_rows`]: a prefill group's K rows then its V rows,
    /// or the Q, K and V rows of every decoding request. Reused across
    /// tokens and ticks, never reallocated once large enough.
    rows: Vec<f32>,
    /// The `running` indices whose Q/K/V rows the decode batch in `rows`
    /// holds, in order.
    decoding: Vec<usize>,
    /// Not-yet-arrived requests, arrival-sorted.
    incoming: VecDeque<Request>,
    /// Arrived (or preempted) requests awaiting admission, arrival-sorted.
    waiting: VecDeque<Request>,
    /// Admitted requests, admission order.
    running: Vec<Request>,
    finished: Vec<Request>,
    /// Requests shed with a typed reason.
    dropped: Vec<Request>,
    injector: Option<FaultInjector>,
    /// Cluster plane: collective pricing + per-shard accounting.
    plane: DistPlane,
    now_ms: f64,
    ticks: u64,
    prefill_tokens: u64,
    /// Time-weighted block usage (block·ms) for mean occupancy.
    occ_block_ms: f64,
    /// Where trace events go; [`NoopSink`] on untraced runs, and every
    /// emission site checks `enabled()` before building an event.
    sink: &'t mut dyn TraceSink,
    /// This tick's work slices, buffered until the tick is priced (the
    /// span duration is only known after costing).
    pending: Vec<PendingSlice>,
    /// Cumulative preemptions, for the scheduler counter track.
    preempt_total: u64,
    /// Cumulative deadline sheds, for the scheduler counter track.
    shed_deadline_total: u64,
    /// Weighted-fair admission state: each tenant's virtual time,
    /// advanced by (worst-case blocks ÷ weight) per admission.
    tenant_vt: BTreeMap<u32, f64>,
    /// Time-weighted per-tenant block usage (block·ms), for the
    /// per-tenant occupancy accounting.
    tenant_block_ms: BTreeMap<u32, f64>,
    /// Pending elastic resizes, `at_ms`-sorted.
    scale_plan: VecDeque<ScaleEvent>,
    /// Pool blocks one chip's KV budget affords (elastic capacity unit).
    blocks_per_chip: usize,
    /// Cumulative output tokens, for window sampling.
    decode_total: u64,
    /// Cumulative output tokens of deadline-meeting finishes.
    good_tokens_total: u64,
    /// Completed trajectory windows (empty unless `cfg.window_ms`).
    windows: Vec<WindowSample>,
    /// End of the currently open window.
    next_window_end: f64,
    /// Cumulative counters at the last closed window boundary.
    win_cursor: WindowCursor,
    // Accounting-plane constants (the `base_*` rates are per chip; a tick
    // is priced against them times the plane's current chip count).
    weight_bytes: f64,
    weight_macs_per_token: f64,
    kv_bytes_per_token: f64,
    attn_macs_per_ctx_token: f64,
    base_peak_flops: f64,
    base_offchip_bytes_per_s: f64,
}

/// Cumulative totals at the last closed window boundary; the next
/// [`WindowSample`]'s counts are deltas against these.
#[derive(Debug, Default, Clone, Copy)]
struct WindowCursor {
    finished: usize,
    dropped: usize,
    decode_tokens: u64,
    good_tokens: u64,
    occ_block_ms: f64,
    /// Clock at the last closed boundary (the open window's left edge).
    last_end_ms: f64,
}

/// Trajectory vectors stay bounded even under a pathologically small
/// window: past this many samples the remainder of the run folds into
/// the final window.
const MAX_WINDOWS: usize = 1 << 17;

/// One request's work inside a tick, waiting for the tick's price to
/// become a complete span.
#[derive(Debug, Clone, Copy)]
struct PendingSlice {
    id: usize,
    /// `"prefill"` or `"decode"`.
    kind: &'static str,
    tokens: u64,
    /// Context length attended (decode only).
    ctx: u64,
    /// Work redone after a preempt-and-recompute eviction (the request
    /// had already paged these tokens in at least once). Stamped on the
    /// trace slice so attribution can split productive prefill from
    /// recompute overhead.
    recompute: bool,
}

/// Request lanes start at tid 1; tid 0 is the scheduler/counter lane.
fn req_tid(id: usize) -> u64 {
    1 + id as u64
}

/// Fixed per-tick scheduling overhead (kernel launches, batching) in
/// seconds of engine time.
const TICK_OVERHEAD_S: f64 = 10e-6;

/// Hard cap on scheduler iterations — generous by orders of magnitude for
/// any sane workload; trips a livelocked scheduler into
/// [`ServeError::Livelock`] instead of hanging.
const MAX_TICKS: u64 = 10_000_000;

/// Scheduling order: arrival time (total order — corrupt arrivals never
/// reach the queues), then id as the tiebreak. Total and deterministic:
/// two requests sharing an arrival time (and even a deadline) always
/// order by id, so admission and victim choice are seed-stable.
fn sched_order(a: &RequestSpec, b: &RequestSpec) -> Ordering {
    a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id))
}

/// Priority-aware eviction order: the *maximum* under this ordering is
/// the preemption victim. Lower priority classes rank higher (evicted
/// first); within a class the latest-arrived goes, with id as the final
/// deterministic tiebreak — so equal-priority workloads behave exactly
/// like the pre-priority scheduler.
pub(crate) fn victim_order(a: &RequestSpec, b: &RequestSpec) -> Ordering {
    b.priority.cmp(&a.priority).then(sched_order(a, b))
}

/// The running request the eviction policy sacrifices under KV pressure
/// (only requests actually holding/consuming pool pages are candidates).
fn victim_index(running: &[Request]) -> Option<usize> {
    running
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.phase, Phase::Prefill | Phase::Decode))
        .max_by(|(_, a), (_, b)| victim_order(&a.spec, &b.spec))
        .map(|(j, _)| j)
}

impl<'t> Engine<'t> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        accel: &Accelerator,
        model: &Model,
        workload: &[RequestSpec],
        cfg: &EngineConfig,
        faults: Option<FaultPlan>,
        plane: DistPlane,
        scale: &[ScaleEvent],
        sink: &'t mut dyn TraceSink,
    ) -> Result<Self, ServeError> {
        if workload.is_empty() {
            return Err(ServeError::EmptyWorkload);
        }
        cfg.validate()?;
        let layout = KvLayout::for_model(model, cfg.block_tokens);
        if layout
            .bytes_per_token
            .as_u64()
            .checked_mul(cfg.block_tokens as u64)
            .is_none()
        {
            return Err(ServeError::InvalidConfig(format!(
                "one KV block of {} tokens overflows a 64-bit byte count",
                cfg.block_tokens
            )));
        }
        // A cluster pools every chip's KV budget (pages striped across
        // shards) and executes tensor-parallel, so compute and bandwidth
        // scale with the chip count. One chip leaves everything exact.
        let chips = plane.chips();
        let blocks_per_chip = layout.blocks_in_budget(cfg.kv_budget);
        // Every pool size the run can reach, checked once: a scale event
        // resizes the pool to `blocks_per_chip` times its target.
        let max_chips = scale.iter().map(|ev| ev.chips).fold(chips, usize::max);
        if blocks_per_chip.checked_mul(max_chips).is_none() {
            return Err(ServeError::InvalidConfig(format!(
                "a KV pool of {blocks_per_chip} blocks per chip overflows at {max_chips} chips"
            )));
        }
        let total_blocks = blocks_per_chip * chips;
        // Malformed specs (non-finite arrival, zero lengths) can never be
        // scheduled — shed them before they can poison the arrival sort
        // or the virtual clock.
        let mut dropped = Vec::new();
        let mut incoming = Vec::new();
        for spec in workload.iter().copied() {
            let mut r = Request::new(spec);
            if spec.is_well_formed() {
                incoming.push(r);
            } else {
                let at = if spec.arrival_ms.is_finite() {
                    spec.arrival_ms
                } else {
                    0.0
                };
                r.mark_dropped(DropReason::CorruptSpec, at);
                dropped.push(r);
            }
        }
        incoming.sort_by(|a, b| sched_order(&a.spec, &b.spec));
        if sink.enabled() {
            sink.record(Event::process_name(TRACE_PID_ENGINE, "flat-serve engine"));
            sink.record(Event::thread_name(TRACE_PID_ENGINE, 0, "scheduler"));
            if max_chips > 1 {
                sink.record(Event::process_name(TRACE_PID_FABRIC, "fabric"));
                sink.record(Event::thread_name(TRACE_PID_FABRIC, 0, "collectives"));
            }
            // Corrupt specs never enter the queues: a lone instant marker
            // is their whole lifecycle.
            for r in &dropped {
                sink.record(
                    Event::instant(
                        "dropped",
                        "request",
                        r.drop_ms.unwrap_or(0.0) * US_PER_MS,
                        TRACE_PID_ENGINE,
                        req_tid(r.spec.id),
                    )
                    .arg("reason", "corrupt-spec"),
                );
            }
        }
        let h = model.hidden() as f64;
        Ok(Engine {
            cfg: *cfg,
            layout,
            pool: KvPool::new(total_blocks, cfg.block_tokens, cfg.dk),
            scale: 1.0 / (cfg.dk as f32).sqrt(),
            rows: Vec::new(),
            decoding: Vec::new(),
            incoming: incoming.into(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            finished: Vec::new(),
            dropped,
            injector: faults.map(|plan| FaultInjector::new(plan, total_blocks)),
            plane,
            now_ms: 0.0,
            ticks: 0,
            prefill_tokens: 0,
            occ_block_ms: 0.0,
            sink,
            pending: Vec::new(),
            preempt_total: 0,
            shed_deadline_total: 0,
            tenant_vt: BTreeMap::new(),
            tenant_block_ms: BTreeMap::new(),
            scale_plan: scale.iter().copied().collect(),
            blocks_per_chip,
            decode_total: 0,
            good_tokens_total: 0,
            windows: Vec::new(),
            next_window_end: cfg.window_ms.unwrap_or(f64::INFINITY),
            win_cursor: WindowCursor::default(),
            weight_bytes: 2.0 * model_params(model),
            weight_macs_per_token: model_params(model),
            // KV streaming is priced at the configured element width,
            // relative to the f32 reference the layout is sized for.
            kv_bytes_per_token: layout.bytes_per_token.as_f64()
                * (cfg.precision.dtype().size_bytes() as f64 / 4.0),
            attn_macs_per_ctx_token: 2.0 * model.blocks() as f64 * h,
            base_peak_flops: accel.peak_flops(),
            base_offchip_bytes_per_s: accel.mem.offchip_bytes_per_s,
        })
    }

    /// Runs the stream to completion; returns the engine metrics and the
    /// plane with its accumulated fabric totals.
    pub(crate) fn run(mut self) -> Result<(ServeMetrics, DistPlane), ServeError> {
        let total = self.incoming.len() + self.dropped.len();
        while self.finished.len() + self.dropped.len() < total {
            self.ticks += 1;
            if self.ticks >= MAX_TICKS {
                return Err(ServeError::Livelock { ticks: self.ticks });
            }
            if let Some(inj) = self.injector.as_mut() {
                inj.on_tick(self.ticks, &mut self.pool);
            }
            self.admit_arrivals();
            if self.running.is_empty() && self.waiting.is_empty() {
                // Idle: jump to the next arrival.
                let Some(next) = self.incoming.front() else {
                    return Err(ServeError::Internal("queues empty with unfinished work"));
                };
                self.now_ms = self.now_ms.max(next.spec.arrival_ms);
                self.admit_arrivals();
            }
            self.apply_scale_events();
            self.shed_expired();
            self.admit_waiting();
            let work = self.execute_tick();
            let compute_s = self.tick_cost_s(&work);
            // Collective time rides the same virtual clock as compute: the
            // tick is not done until the fabric is.
            let (exposed_s, coll_slices) = self.plane.charge_tick(
                work.prefill_tokens + work.decode_steps,
                compute_s,
                self.sink.enabled(),
            );
            let cost_s = compute_s + exposed_s;
            let tick_exposed_ms = exposed_s * 1e3;
            let skew = self
                .injector
                .as_mut()
                .map_or(1.0, FaultInjector::skew_factor);
            let dt_ms = cost_s * 1e3 * skew;
            let tick_start_ms = self.now_ms;
            let stamp = self.now_ms + dt_ms;
            self.now_ms = stamp;
            self.occ_block_ms += self.pool.used_blocks() as f64 * dt_ms;
            self.decode_total += work.decode_steps;
            if dt_ms > 0.0 {
                for r in &self.running {
                    let blocks = r.table.block_count();
                    if blocks > 0 {
                        *self.tenant_block_ms.entry(r.spec.tenant).or_insert(0.0) +=
                            blocks as f64 * dt_ms;
                    }
                }
            }
            self.plane.observe_used_blocks(self.pool.used_blocks());
            if self.sink.enabled() {
                self.flush_tick_events(
                    tick_start_ms,
                    stamp,
                    dt_ms,
                    skew,
                    tick_exposed_ms,
                    &coll_slices,
                );
            }
            self.pending.clear();
            self.retire_and_requeue(stamp);
            self.sample_windows();
        }
        // Close the trajectory: one final (possibly partial) window
        // covers the tail of the run.
        if self.cfg.window_ms.is_some() && self.now_ms > self.win_cursor.last_end_ms {
            self.close_window(self.now_ms);
        }
        self.plane.close_epoch();
        let total_blocks = self.pool.total_blocks();
        let kv = KvPoolStats {
            total_blocks,
            block_tokens: self.cfg.block_tokens,
            bytes_per_token: self.layout.bytes_per_token.as_u64(),
            peak_used_blocks: self.pool.peak_used(),
            mean_occupancy: if self.now_ms > 0.0 {
                self.occ_block_ms / (self.now_ms * total_blocks as f64)
            } else {
                0.0
            },
            peak_occupancy: self.pool.peak_used() as f64 / total_blocks as f64,
            dedup_hits: self.pool.dedup_hits(),
            peak_logical_blocks: self.pool.peak_logical(),
        };
        self.finished.sort_by_key(|r| r.spec.id);
        self.dropped.sort_by_key(|r| r.spec.id);
        let tenant_block_ms: Vec<(u32, f64)> = self
            .tenant_block_ms
            .iter()
            .map(|(&t, &ms)| (t, ms))
            .collect();
        Ok((
            ServeMetrics::collate(
                &self.finished,
                &self.dropped,
                kv,
                self.now_ms,
                self.ticks,
                self.prefill_tokens,
                &tenant_block_ms,
                std::mem::take(&mut self.windows),
            ),
            self.plane,
        ))
    }

    /// Closes every window boundary the clock has passed, then lets the
    /// caller force-close a final partial window at end of run.
    fn sample_windows(&mut self) {
        let Some(w) = self.cfg.window_ms else { return };
        while self.now_ms >= self.next_window_end {
            let end = self.next_window_end;
            self.close_window(end);
            self.next_window_end += w;
            if self.windows.len() >= MAX_WINDOWS {
                // Bounded trajectory: the rest of the run lands in the
                // final close at collate time.
                self.next_window_end = f64::INFINITY;
                return;
            }
        }
    }

    /// Emits one [`WindowSample`] for `(previous boundary, end_ms]` from
    /// the deltas against the cursor. The span is the actual elapsed
    /// virtual time, so the final partial window's rates stay honest.
    fn close_window(&mut self, end_ms: f64) {
        let span_ms = end_ms - self.win_cursor.last_end_ms;
        let total_blocks = self.pool.total_blocks().max(1);
        let d_occ = self.occ_block_ms - self.win_cursor.occ_block_ms;
        let d_good = self.good_tokens_total - self.win_cursor.good_tokens;
        let d_dec = self.decode_total - self.win_cursor.decode_tokens;
        self.windows.push(WindowSample {
            end_ms,
            finished: self.finished.len() - self.win_cursor.finished,
            dropped: self.dropped.len() - self.win_cursor.dropped,
            decode_tokens: d_dec,
            goodput_tokens_per_s: if span_ms > 0.0 {
                d_good as f64 / (span_ms / 1e3)
            } else {
                0.0
            },
            kv_occupancy: if span_ms > 0.0 {
                (d_occ / (span_ms * total_blocks as f64)).clamp(0.0, 1.0)
            } else {
                0.0
            },
            chips: self.plane.chips(),
            // The sampler parks `next_window_end` at infinity when it
            // hits MAX_WINDOWS; any close after that is the collapsed
            // tail, not a nominal-width window.
            truncated: self.next_window_end.is_infinite() && self.cfg.window_ms.is_some(),
        });
        self.win_cursor = WindowCursor {
            finished: self.finished.len(),
            dropped: self.dropped.len(),
            decode_tokens: self.decode_total,
            good_tokens: self.good_tokens_total,
            occ_block_ms: self.occ_block_ms,
            last_end_ms: end_ms,
        };
    }

    /// Applies every due elastic resize: re-stripe resident KV over the
    /// fabric (a stop-the-world stall on the virtual clock), grow or
    /// shrink the pooled capacity (evicting by [`victim_order`] until the
    /// resident set fits), and rescale the modeled compute, bandwidth,
    /// and collective pricing.
    fn apply_scale_events(&mut self) {
        while self
            .scale_plan
            .front()
            .is_some_and(|ev| ev.at_ms <= self.now_ms)
        {
            let Some(ev) = self.scale_plan.pop_front() else {
                break;
            };
            let from = self.plane.chips();
            let to = ev.chips.max(1);
            if to == from {
                continue;
            }
            let applied_ms = self.now_ms;
            // Price the re-striping before capacity changes: what is
            // resident *now* is what moves.
            let block_bytes = self.kv_bytes_per_token * self.cfg.block_tokens as f64;
            let used = self.pool.used_blocks();
            let (migrated_blocks, migrated_bytes, stall_s) =
                self.plane.migration_cost(used, block_bytes, to);
            // Capacity follows the chip count.
            let new_total = self.blocks_per_chip * to;
            let mut preempted = 0u64;
            let current = self.pool.total_blocks();
            if new_total > current {
                self.pool.grow(new_total - current);
            } else {
                let mut excess = current - new_total;
                while excess > 0 {
                    excess -= self.pool.confiscate(excess);
                    if excess == 0 {
                        break;
                    }
                    // Free list dry: evict the policy's victim so its
                    // blocks (refcount permitting) come back.
                    match victim_index(&self.running) {
                        Some(j) => {
                            self.preempt(j);
                            preempted += 1;
                        }
                        None => break, // nothing left to evict
                    }
                }
            }
            self.plane.rescale(to);
            let migration_ms = stall_s * 1e3;
            self.now_ms += migration_ms;
            if self.sink.enabled() {
                self.sink.record(
                    Event::instant(
                        "scale",
                        "engine",
                        applied_ms * US_PER_MS,
                        TRACE_PID_ENGINE,
                        0,
                    )
                    .arg("from_chips", from as u64)
                    .arg("to_chips", to as u64)
                    .arg("migrated_blocks", migrated_blocks),
                );
            }
            self.plane.scale_log.push(ScaleEventRecord {
                at_ms: ev.at_ms,
                applied_ms,
                from_chips: from,
                to_chips: to,
                migrated_blocks,
                migrated_bytes,
                migration_ms,
                preempted,
            });
        }
    }

    /// Emits this tick's trace events: the buffered per-request work
    /// slices as complete spans covering the whole tick, the fabric lane's
    /// collective slices packed against the tick's end, and the KV /
    /// queue / scheduler counter samples at the tick's close. Only called
    /// when the sink is enabled.
    fn flush_tick_events(
        &mut self,
        tick_start_ms: f64,
        stamp_ms: f64,
        dt_ms: f64,
        skew: f64,
        exposed_ms: f64,
        coll: &[CollectiveSlice],
    ) {
        let ts = tick_start_ms * US_PER_MS;
        let dur = dt_ms * US_PER_MS;
        for s in &self.pending {
            let mut ev =
                Event::complete(s.kind, "request", ts, dur, TRACE_PID_ENGINE, req_tid(s.id))
                    .arg("tokens", s.tokens);
            if s.kind == "decode" {
                ev = ev.arg("ctx_tokens", s.ctx);
            }
            if s.recompute {
                ev = ev.arg("recompute", 1u64);
            }
            self.sink.record(ev);
        }
        // The fabric time compute could not hide: one slice on the
        // scheduler lane, packed against the tick's end exactly like the
        // fabric lane's collective slices (it *is* their unhidden tail).
        // Attribution reads this to price the collective-exposed phase.
        // Category "engine", not "collective": the collective category
        // is reserved for the fabric lane's slices carrying bytes, energy
        // and chips args (a pinned trace contract).
        if exposed_ms > 0.0 {
            let d = exposed_ms * US_PER_MS * skew;
            self.sink.record(
                Event::complete(
                    "exposed",
                    "engine",
                    stamp_ms * US_PER_MS - d,
                    d,
                    TRACE_PID_ENGINE,
                    0,
                )
                .arg("overlap", u64::from(self.plane.overlap())),
            );
        }
        // Collectives close flush with the tick: stack the slices (skew
        // scales them exactly as it scaled the tick) back from `stamp`.
        let chips = self.plane.chips() as u64;
        let total_us: f64 = coll.iter().map(|s| s.dur_s * 1e3 * US_PER_MS * skew).sum();
        let mut t0 = stamp_ms * US_PER_MS - total_us;
        for s in coll {
            let d = s.dur_s * 1e3 * US_PER_MS * skew;
            self.sink.record(
                Event::complete(&s.op.to_string(), "collective", t0, d, TRACE_PID_FABRIC, 0)
                    .arg("bytes", s.bytes)
                    .arg("energy_pj", s.energy_pj)
                    .arg("chips", chips),
            );
            t0 += d;
        }
        let end = stamp_ms * US_PER_MS;
        self.sink.record(
            Event::counter("kv_blocks", "engine", end, TRACE_PID_ENGINE, 0)
                .arg("used", self.pool.used_blocks() as u64)
                .arg("free", self.pool.free_blocks() as u64),
        );
        self.sink.record(
            Event::counter("queues", "engine", end, TRACE_PID_ENGINE, 0)
                .arg("running", self.running.len() as u64)
                .arg("waiting", self.waiting.len() as u64),
        );
        self.sink.record(
            Event::counter("sched", "engine", end, TRACE_PID_ENGINE, 0)
                .arg("preemptions", self.preempt_total)
                .arg("shed_deadline", self.shed_deadline_total)
                .arg("dropped", self.dropped.len() as u64),
        );
    }

    /// Moves arrived requests into the waiting queue (both are
    /// arrival-sorted, so this is a prefix splice).
    fn admit_arrivals(&mut self) {
        while self
            .incoming
            .front()
            .is_some_and(|r| r.spec.arrival_ms <= self.now_ms)
        {
            if let Some(r) = self.incoming.pop_front() {
                if self.sink.enabled() {
                    let tid = req_tid(r.spec.id);
                    let ts = r.spec.arrival_ms * US_PER_MS;
                    self.sink.record(Event::thread_name(
                        TRACE_PID_ENGINE,
                        tid,
                        &format!("req {}", r.spec.id),
                    ));
                    self.sink.record(
                        Event::begin("request", "request", ts, TRACE_PID_ENGINE, tid)
                            .arg("tenant", u64::from(r.spec.tenant)),
                    );
                    self.sink
                        .record(Event::begin("queued", "request", ts, TRACE_PID_ENGINE, tid));
                }
                self.waiting.push_back(r);
            }
        }
    }

    /// Deadline shedding: any queued request already past its SLO is
    /// dropped now rather than admitted, run, and delivered late — the
    /// capacity it would burn goes to requests that can still meet
    /// theirs. (Running requests are never killed mid-flight; the SLO is
    /// enforced at the queue, where shedding is free.)
    fn shed_expired(&mut self) {
        let now = self.now_ms;
        let mut i = 0;
        while i < self.waiting.len() {
            let expired = self.waiting[i].spec.deadline_ms.is_some_and(|d| now > d);
            if expired {
                if let Some(mut r) = self.waiting.remove(i) {
                    r.mark_dropped(DropReason::DeadlineExceeded, now);
                    self.shed_deadline_total += 1;
                    self.trace_queue_drop(r.spec.id, DropReason::DeadlineExceeded, now);
                    self.dropped.push(r);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Sheds the waiting-queue entry at `idx` with `reason`.
    fn drop_waiting_at(&mut self, idx: usize, reason: DropReason) {
        if let Some(mut r) = self.waiting.remove(idx) {
            r.mark_dropped(reason, self.now_ms);
            self.trace_queue_drop(r.spec.id, reason, self.now_ms);
            self.dropped.push(r);
        }
    }

    /// Closes a queued request's open spans with a drop marker: the
    /// queued span ends, the drop reason lands as an instant, and the
    /// request span closes — keeping every lane B/E-balanced.
    fn trace_queue_drop(&mut self, id: usize, reason: DropReason, now_ms: f64) {
        if !self.sink.enabled() {
            return;
        }
        let tid = req_tid(id);
        let ts = now_ms * US_PER_MS;
        self.sink
            .record(Event::end("queued", "request", ts, TRACE_PID_ENGINE, tid));
        self.sink.record(
            Event::instant("dropped", "request", ts, TRACE_PID_ENGINE, tid)
                .arg("reason", reason.to_string().as_str()),
        );
        self.sink
            .record(Event::end("request", "request", ts, TRACE_PID_ENGINE, tid));
    }

    /// The waiting-queue index weighted-fair admission serves next: each
    /// backlogged tenant's *head* (its earliest-arrived waiting request)
    /// competes on tenant virtual time, smallest first, tenant id as the
    /// deterministic tiebreak. Newly backlogged (or long-idle) tenants
    /// join at the current minimum so they can neither claim credit for
    /// idle history nor be starved by it. With a single tenant this is
    /// exactly FIFO head admission.
    fn pick_admission_candidate(&mut self) -> Option<usize> {
        // First waiting index per tenant (the queue is arrival-sorted, so
        // the first hit is that tenant's head).
        let mut heads: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, r) in self.waiting.iter().enumerate() {
            heads.entry(r.spec.tenant).or_insert(i);
        }
        if heads.is_empty() {
            return None;
        }
        // Normalize: backlogged tenants never lag the pack's minimum.
        let vmin = heads
            .keys()
            .filter_map(|t| self.tenant_vt.get(t).copied())
            .fold(f64::INFINITY, f64::min);
        let vmin = if vmin.is_finite() { vmin } else { 0.0 };
        for t in heads.keys() {
            let vt = self.tenant_vt.entry(*t).or_insert(vmin);
            if *vt < vmin {
                *vt = vmin;
            }
        }
        heads
            .iter()
            .min_by(|(ta, _), (tb, _)| {
                let va = self.tenant_vt.get(ta).copied().unwrap_or(0.0);
                let vb = self.tenant_vt.get(tb).copied().unwrap_or(0.0);
                va.total_cmp(&vb).then(ta.cmp(tb))
            })
            .map(|(_, &i)| i)
    }

    /// Weighted-fair admission under backpressure: the next tenant's head
    /// (by tenant virtual time) starts prefill only when the pool can
    /// page its whole prompt plus the first decode token. A candidate
    /// whose *worst-case* footprint (`prompt + output`) exceeds the
    /// entire pool is provably unservable — admitted, it would exhaust
    /// the pool, self-preempt, re-queue, and livelock — so it is rejected
    /// here with [`DropReason::Infeasible`]. On admission the tenant is
    /// charged worst-case blocks over its weight, so heavier tenants
    /// drain proportionally more queue under contention. (Feasible
    /// candidates never need more than the feasibility bound, so they are
    /// eventually admitted once the pool drains.)
    fn admit_waiting(&mut self) {
        while self.running.len() < self.cfg.max_batch {
            let Some(idx) = self.pick_admission_candidate() else {
                break;
            };
            let spec = self.waiting[idx].spec;
            let worst_case = spec.prompt_len.checked_add(spec.output_len);
            let infeasible =
                worst_case.is_none_or(|t| self.layout.blocks_for(t) > self.pool.total_blocks());
            if infeasible {
                self.drop_waiting_at(idx, DropReason::Infeasible);
                continue;
            }
            let needed = self.layout.blocks_for(spec.prompt_len + 1);
            if needed > self.pool.free_blocks() {
                break;
            }
            if let Some(mut r) = self.waiting.remove(idx) {
                if self.sink.enabled() {
                    self.sink.record(Event::end(
                        "queued",
                        "request",
                        self.now_ms * US_PER_MS,
                        TRACE_PID_ENGINE,
                        req_tid(r.spec.id),
                    ));
                }
                r.phase = Phase::Prefill;
                // Charge worst-case footprint over weight: the classic
                // virtual-time advance of weighted fair queueing.
                let charge = self.layout.blocks_for(spec.prompt_len + spec.output_len) as f64
                    / (f64::from(spec.weight_milli.max(1)) / 1000.0);
                *self.tenant_vt.entry(spec.tenant).or_insert(0.0) += charge;
                self.running.push(r);
            }
        }
    }

    /// One iteration-level batch: prefill chunks, then a decode step for
    /// every decoding request. Returns the tick's work tally.
    fn execute_tick(&mut self) -> TickWork {
        let mut work = TickWork::default();
        let mut budget = self.cfg.prefill_chunk;
        for i in 0..self.running.len() {
            if budget == 0 {
                break;
            }
            if self.running[i].phase != Phase::Prefill {
                continue;
            }
            let spec = self.running[i].spec;
            let take = budget.min(spec.prompt_len - self.running[i].prefilled);
            let mut appended = 0;
            'take: while appended < take {
                // The next group of up to `EMBED_LANES` positions: its K
                // rows, then its V rows, embedded in one batch. Rows left
                // when `i` is evicted partway are dropped unread.
                let pos = self.running[i].prefilled;
                let group = (take - appended).min(EMBED_LANES);
                let kv = |r: usize| {
                    let salt = if r < group { SALT_K } else { SALT_V };
                    let stream = stream_of(self.cfg.seed, &spec, pos + r % group, salt);
                    (stream, &[][..])
                };
                embed_rows(2 * group, self.cfg.dk, kv, &mut self.rows);
                for t in 0..group {
                    if !self.append_with_preemption(i, t, group + t) {
                        break 'take; // `i` itself was preempted.
                    }
                    self.running[i].prefilled += 1;
                    appended += 1;
                    // Copy-on-write dedup: once a block is full and still
                    // entirely inside the shared prefix, seal it — identical
                    // content already published by a sibling replaces the
                    // private copy. Capacity-only: the numeric plane reads
                    // the same bytes either way.
                    if self.cfg.dedup
                        && self.running[i].prefilled <= spec.shared_prefix_len()
                        && self.running[i]
                            .table
                            .tokens()
                            .is_multiple_of(self.cfg.block_tokens)
                    {
                        let table = &mut self.running[i].table;
                        self.pool.seal_last_block(table);
                    }
                }
            }
            budget -= appended;
            work.prefill_tokens += appended as u64;
            self.prefill_tokens += appended as u64;
            if appended > 0 && self.sink.enabled() {
                self.pending.push(PendingSlice {
                    id: self.running[i].spec.id,
                    kind: "prefill",
                    tokens: appended as u64,
                    ctx: 0,
                    recompute: self.running[i].preemptions > 0,
                });
            }
            let r = &self.running[i];
            if r.phase == Phase::Prefill && r.prefilled == r.spec.prompt_len {
                // Prompt fully paged in: probe the prefix once to seed the
                // sequential generation state, then start decoding.
                let stream = stream_of(self.cfg.seed, &spec, spec.prompt_len - 1, SALT_Q);
                embed_rows(1, self.cfg.dk, |_| (stream, &[]), &mut self.rows);
                let out = decode_attention_with(
                    &self.rows[..self.cfg.dk],
                    self.pool.blocks(&self.running[i].table),
                    self.scale,
                    self.cfg.precision,
                    self.cfg.softmax,
                );
                self.running[i].last_out = out;
                self.running[i].phase = Phase::Decode;
            }
        }
        // Every decoding request's Q, K and V rows, embedded in one batch
        // before any step runs. Only the prefill loop above moves a
        // request into Decode, and below a request can only leave it, so
        // these are the rows each step would draw; a request evicted
        // before its turn skips its rows.
        self.decoding.clear();
        self.decoding
            .extend((0..self.running.len()).filter(|&i| self.running[i].phase == Phase::Decode));
        let (running, decoding, seed) = (&self.running, &self.decoding, self.cfg.seed);
        let qkv = |r: usize| {
            let req = &running[decoding[r / 3]];
            let pos = req.spec.prompt_len + req.generated;
            let stream = stream_of(seed, &req.spec, pos, [SALT_Q, SALT_K, SALT_V][r % 3]);
            (stream, req.last_out.as_slice())
        };
        embed_rows(3 * decoding.len(), self.cfg.dk, qkv, &mut self.rows);
        for slot in 0..self.decoding.len() {
            let i = self.decoding[slot];
            if self.running[i].phase != Phase::Decode {
                continue;
            }
            let id = self.running[i].spec.id;
            if !self.append_with_preemption(i, 3 * slot + 1, 3 * slot + 2) {
                continue; // `i` itself was preempted; it restarts later.
            }
            let out = decode_attention_with(
                &self.rows[3 * slot * self.cfg.dk..][..self.cfg.dk],
                self.pool.blocks(&self.running[i].table),
                self.scale,
                self.cfg.precision,
                self.cfg.softmax,
            );
            let ctx = self.running[i].table.tokens() as u64;
            work.decode_context_tokens += ctx;
            work.decode_steps += 1;
            if self.sink.enabled() {
                self.pending.push(PendingSlice {
                    id,
                    kind: "decode",
                    tokens: 1,
                    ctx,
                    recompute: false,
                });
            }
            let r = &mut self.running[i];
            r.last_out = out;
            r.generated += 1;
            if r.generated == 1 {
                r.first_token_ms = Some(f64::NAN); // stamped after costing
            }
            if r.generated == r.spec.output_len {
                r.phase = Phase::Finished;
                r.finish_ms = Some(f64::NAN);
                let table = &mut self.running[i].table;
                // Release pages immediately so later requests in this same
                // tick can reuse them.
                self.pool.release(table);
            }
        }
        work
    }

    /// Appends embedded rows `k` and `v` of `rows` for `running[i]`,
    /// evicting by [`victim_order`] (lowest priority class first,
    /// latest-arrived within a class) as long as the pool is exhausted.
    /// Returns `false` if `i` itself was the eviction victim.
    fn append_with_preemption(&mut self, i: usize, k: usize, v: usize) -> bool {
        let dk = self.cfg.dk;
        loop {
            let (pool, running, rows) = (&mut self.pool, &mut self.running, &self.rows);
            if pool.try_append(
                &mut running[i].table,
                &rows[k * dk..][..dk],
                &rows[v * dk..][..dk],
            ) {
                return true;
            }
            // `running[i]` is itself Prefill/Decode when this is called,
            // so a victim always exists; the fallback preempts `i` rather
            // than trusting that invariant with a panic.
            let victim = victim_index(&self.running).unwrap_or(i);
            self.preempt(victim);
            if victim == i {
                return false;
            }
        }
    }

    /// Recompute-style preemption: release pages, erase progress, and mark
    /// for re-queueing (moved back to `waiting` at end of tick).
    fn preempt(&mut self, j: usize) {
        let table = &mut self.running[j].table;
        self.pool.release(table);
        self.running[j].reset_for_requeue();
        self.preempt_total += 1;
    }

    /// Drains finished and preempted requests out of the running set,
    /// stamping this tick's completion time on the events it produced.
    /// The fault injector may corrupt a finished request's stamps to NaN
    /// here — downstream metrics must absorb that, and the chaos suite
    /// checks they do.
    fn retire_and_requeue(&mut self, stamp_ms: f64) {
        let mut i = 0;
        while i < self.running.len() {
            match self.running[i].phase {
                Phase::Finished => {
                    let mut r = self.running.remove(i);
                    let mut stamp = |t: f64| match self.injector.as_mut() {
                        Some(inj) => inj.latency(t),
                        None => t,
                    };
                    if r.first_token_ms.is_some_and(f64::is_nan) {
                        r.first_token_ms = Some(stamp(stamp_ms));
                    }
                    r.finish_ms = Some(stamp(stamp_ms));
                    if r.met_deadline() {
                        self.good_tokens_total += r.generated as u64;
                    }
                    // Trace on the uncorrupted virtual clock: the fault
                    // injector may smear the metrics' stamps to NaN, but
                    // a trace must stay well-ordered and parseable.
                    if self.sink.enabled() {
                        self.sink.record(
                            Event::end(
                                "request",
                                "request",
                                stamp_ms * US_PER_MS,
                                TRACE_PID_ENGINE,
                                req_tid(r.spec.id),
                            )
                            .arg("generated", r.generated as u64),
                        );
                    }
                    self.finished.push(r);
                }
                Phase::Waiting => {
                    let r = self.running.remove(i);
                    if self.sink.enabled() {
                        let tid = req_tid(r.spec.id);
                        let ts = stamp_ms * US_PER_MS;
                        self.sink.record(
                            Event::instant("preempted", "request", ts, TRACE_PID_ENGINE, tid)
                                .arg("count", r.preemptions),
                        );
                        self.sink.record(Event::begin(
                            "queued",
                            "request",
                            ts,
                            TRACE_PID_ENGINE,
                            tid,
                        ));
                    }
                    let at = self
                        .waiting
                        .iter()
                        .position(|w| sched_order(&w.spec, &r.spec) == Ordering::Greater)
                        .unwrap_or(self.waiting.len());
                    self.waiting.insert(at, r);
                }
                _ => {
                    if self.running[i].first_token_ms.is_some_and(f64::is_nan) {
                        self.running[i].first_token_ms = Some(stamp_ms);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Prices one tick on the modeled accelerator: the batch streams the
    /// weights once, every decode step streams its context's KV at the
    /// full all-layer byte cost, and all token work shares the MAC array.
    /// Compute and memory overlap (double-buffered), so the tick takes the
    /// slower of the two, plus a fixed scheduling overhead.
    fn tick_cost_s(&self, work: &TickWork) -> f64 {
        let tokens = work.prefill_tokens + work.decode_steps;
        if tokens == 0 {
            return TICK_OVERHEAD_S;
        }
        let ctx = work.decode_context_tokens as f64;
        let macs = tokens as f64 * self.weight_macs_per_token
            + ctx * self.attn_macs_per_ctx_token
            + work.prefill_tokens as f64 * self.attn_macs_per_ctx_token;
        // Tensor-parallel execution: every chip adds its compute and
        // bandwidth.
        let chips = self.plane.chips() as f64;
        let compute_s = 2.0 * macs / (self.base_peak_flops * chips);
        let bytes = self.weight_bytes
            + ctx * self.kv_bytes_per_token
            + work.prefill_tokens as f64 * self.kv_bytes_per_token;
        let memory_s = bytes / (self.base_offchip_bytes_per_s * chips);
        compute_s.max(memory_s) + TICK_OVERHEAD_S
    }
}

/// The embedding stream of `spec`'s row at `pos` for `salt` (Q, K or V).
///
/// Positions inside a request's shared prefix key on the *template* id
/// instead of the request id, so every request carrying the same
/// template produces byte-identical prefix K/V rows — the property
/// block-level dedup keys on. The keying is independent of `cfg.dedup`,
/// which is why dedup-on and dedup-off runs stay token-identical.
/// Non-template positions keep the historical per-request stream.
fn stream_of(seed: u64, spec: &RequestSpec, pos: usize, salt: u64) -> u64 {
    let ident = if pos < spec.shared_prefix_len() {
        spec.prefix_template
            .unwrap_or_default()
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(0x9E6C_63D0_876A_68EE)
    } else {
        (spec.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    seed.wrapping_add(ident)
        .wrapping_add((pos as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(salt)
}

/// Rows one embedding pass draws side by side: one xoshiro256** stream
/// per vector lane.
const EMBED_LANES: usize = 8;

/// The numeric plane's token embedding: `n` seeded pseudo-random rows,
/// `dk` wide, written into `rows`. `row(r)` gives row `r`'s stream (see
/// [`stream_of`]) and the previous step's attention output to blend in,
/// or an empty slice — the blend is the dependence that makes generation
/// sequential.
///
/// Row `r` holds exactly the bits `StdRng::seed_from_u64(stream)` draws
/// one `gen::<f32>() * 2.0 - 1.0` per element for, blended as
/// `0.5 · noise + 0.5 · prev[(d + 1) % prev.len()]`. The rows run
/// [`EMBED_LANES`] at a time: each generator state word is a lane array,
/// so one step of all eight streams is a handful of vector ops.
fn embed_rows<'p>(
    n: usize,
    dk: usize,
    row: impl Fn(usize) -> (u64, &'p [f32]),
    rows: &mut Vec<f32>,
) {
    // Whole passes: a short last pass fills padding rows nobody reads.
    rows.resize(n.next_multiple_of(EMBED_LANES) * dk, 0.0);
    let passes = rows.chunks_exact_mut(EMBED_LANES * dk);
    for (base, block) in (0..n).step_by(EMBED_LANES).zip(passes) {
        let keys: [(u64, &[f32]); EMBED_LANES] = std::array::from_fn(|l| {
            if base + l < n {
                row(base + l)
            } else {
                (0, &[][..])
            }
        });
        let mut rng = Xoshiro8::seed(keys.map(|(stream, _)| stream));
        // Each step draws one element of every row into a lane-major 8×8
        // tile, then the tile is transposed into the rows, so the draws
        // stay whole-vector ops. The last tile is drawn whole even when
        // `dk` stops inside it (a fixed trip count vectorizes better): its
        // extra draws come after every value the rows take.
        for d in (0..dk).step_by(EMBED_LANES) {
            let w = (dk - d).min(EMBED_LANES);
            let mut tile = [[0.0f32; EMBED_LANES]; EMBED_LANES];
            for t in &mut tile {
                *t = rng.next_noise();
            }
            for (l, row) in block.chunks_exact_mut(dk).enumerate() {
                for (x, t) in row[d..d + w].iter_mut().zip(&tile) {
                    *x = t[l];
                }
            }
        }
        // Element `d` blends `prev[(d + 1) % prev.len()]`: `prev[1..]`
        // first, then whole copies of `prev`.
        for ((_, prev), row) in keys.into_iter().zip(block.chunks_exact_mut(dk)) {
            if let (Ok(row), Ok(prev)) = (
                <&mut [f32; BLEND_WIDTH]>::try_from(&mut *row),
                <&[f32; BLEND_WIDTH]>::try_from(prev),
            ) {
                // A decode row's `prev` is the last output, as wide as
                // the row: one fixed-width rotate-by-one pass.
                let rotated: [f32; BLEND_WIDTH] =
                    std::array::from_fn(|d| prev[(d + 1) % BLEND_WIDTH]);
                blend(row, &rotated);
            } else if let Some(wrap) = prev.len().checked_sub(1) {
                let (head, tail) = row.split_at_mut(wrap.min(dk));
                blend(head, &prev[1..]);
                for chunk in tail.chunks_mut(prev.len()) {
                    blend(chunk, prev);
                }
            }
        }
    }
}

/// The row width [`embed_rows`] blends a same-width `prev` at in one
/// fixed-width pass: the engine's head width (`EngineConfig::for_platform`
/// sets `dk` to 32).
const BLEND_WIDTH: usize = 32;

/// `row[d] = 0.5 · row[d] + 0.5 · prev[d]` over their common length.
fn blend(row: &mut [f32], prev: &[f32]) {
    for (x, &p) in row.iter_mut().zip(prev) {
        *x = 0.5 * *x + 0.5 * p;
    }
}

/// [`EMBED_LANES`] xoshiro256** generators (the workspace `StdRng`), each
/// state word held as a lane array so every step vectorizes.
struct Xoshiro8 {
    s: [[u64; EMBED_LANES]; 4],
}

impl Xoshiro8 {
    /// Each lane's `StdRng::seed_from_u64` state: splitmix64 expansion.
    fn seed(mut x: [u64; EMBED_LANES]) -> Self {
        let s = std::array::from_fn(|_| {
            std::array::from_fn(|l| {
                x[l] = x[l].wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x[l];
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
        });
        Xoshiro8 { s }
    }

    /// Each lane's next `gen::<f32>() * 2.0 - 1.0`.
    fn next_noise(&mut self) -> [f32; EMBED_LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut noise = [0.0; EMBED_LANES];
        for l in 0..EMBED_LANES {
            let result = s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
            noise[l] = (result >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
        }
        noise
    }
}

const SALT_Q: u64 = 0x51;
const SALT_K: u64 = 0x4B;
const SALT_V: u64 = 0x56;

/// Work executed in one tick, for the cost model.
#[derive(Debug, Default, Clone, Copy)]
struct TickWork {
    prefill_tokens: u64,
    decode_steps: u64,
    /// Sum over decode steps of the context length attended.
    decode_context_tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload(n: usize) -> Vec<RequestSpec> {
        (0..n)
            .map(|id| RequestSpec::new(id, id as f64 * 0.5, 24 + (id * 7) % 40, 4 + id % 9))
            .collect()
    }

    fn cfg(kv_budget: Bytes) -> EngineConfig {
        EngineConfig {
            block_tokens: 16,
            prefill_chunk: 64,
            max_batch: 8,
            dk: 16,
            kv_budget,
            seed: 7,
            precision: ComputePrecision::F32,
            softmax: SoftmaxKind::Exact,
            dedup: false,
            window_ms: None,
        }
    }

    #[test]
    fn conservation_every_request_finishes_exactly_once() {
        let model = Model::by_name("bert").unwrap();
        let wl = tiny_workload(24);
        let m = serve(
            &Accelerator::edge(),
            &model,
            &wl,
            &cfg(Bytes::from_mib(512)),
        )
        .unwrap();
        assert_eq!(m.requests, 24);
        assert_eq!(m.finished, 24);
        assert_eq!(m.dropped, 0);
        assert_eq!(
            m.decode_tokens,
            wl.iter().map(|r| r.output_len as u64).sum::<u64>()
        );
        assert_eq!(
            m.prefill_tokens,
            wl.iter().map(|r| r.prompt_len as u64).sum::<u64>()
        );
    }

    #[test]
    fn latencies_and_occupancy_are_nonzero_and_ordered() {
        let model = Model::by_name("bert").unwrap();
        let m = serve(
            &Accelerator::cloud(),
            &model,
            &tiny_workload(16),
            &cfg(Bytes::from_mib(512)),
        )
        .unwrap();
        assert!(m.ttft.p50_ms > 0.0);
        assert!(m.tpot.p50_ms > 0.0);
        assert!(m.ttft.p50_ms <= m.ttft.p95_ms && m.ttft.p95_ms <= m.ttft.p99_ms);
        assert!(m.e2e.p99_ms <= m.makespan_ms);
        assert!(m.kv.peak_occupancy > 0.0 && m.kv.peak_occupancy <= 1.0);
        assert!(m.kv.mean_occupancy > 0.0 && m.kv.mean_occupancy <= m.kv.peak_occupancy);
        assert!(m.decode_tokens_per_s > 0.0);
        assert_eq!(
            m.goodput_tokens_per_s, m.decode_tokens_per_s,
            "without deadlines goodput equals throughput"
        );
    }

    #[test]
    fn tight_pool_preempts_but_still_finishes_everyone() {
        let model = Model::by_name("bert").unwrap();
        // ~36 KiB/token ⇒ a 40 MiB pool holds ~71 blocks of 16 tokens;
        // each request needs up to 5 blocks, so 8 running plus queue
        // pressure forces eviction churn.
        let budget = Bytes::from_mib(3);
        let wl = tiny_workload(24);
        let m = serve(&Accelerator::edge(), &model, &wl, &cfg(budget)).unwrap();
        assert_eq!(m.finished, 24);
        assert!(m.preemptions > 0, "expected KV pressure to preempt");
        assert!(m.kv.peak_occupancy > 0.9);
    }

    #[test]
    fn deterministic_in_seed_and_workload() {
        let model = Model::by_name("bert").unwrap();
        let wl = tiny_workload(12);
        let c = cfg(Bytes::from_mib(256));
        let a = serve(&Accelerator::edge(), &model, &wl, &c).unwrap();
        let b = serve(&Accelerator::edge(), &model, &wl, &c).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        let mut c2 = c;
        c2.seed = 8;
        let d = serve(&Accelerator::edge(), &model, &wl, &c2).unwrap();
        assert_ne!(
            a.checksum, d.checksum,
            "numeric plane must depend on the seed"
        );
    }

    /// Regression: an oversized request used to trip an up-front panic
    /// (and, admitted, would self-preempt forever in
    /// `append_with_preemption`). It must now terminate promptly with the
    /// request dropped at admission and every other request served.
    #[test]
    fn oversized_request_is_dropped_at_admission_not_livelocked() {
        let model = Model::by_name("bert").unwrap();
        let mut wl = tiny_workload(4);
        wl.push(RequestSpec::new(4, 0.3, 100_000, 1));
        // 4 MiB ⇒ ~7 blocks: every tiny request fits, the oversized one
        // (100k tokens ≫ the pool) provably cannot.
        let m = serve(&Accelerator::edge(), &model, &wl, &cfg(Bytes::from_mib(4))).unwrap();
        assert_eq!(m.requests, 5);
        assert_eq!(m.finished, 4);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.drops.infeasible, 1);
        assert!(
            m.ticks < 100_000,
            "rejection must be prompt, not a livelock timeout"
        );
    }

    #[test]
    fn sole_oversized_request_terminates_too() {
        let model = Model::by_name("bert").unwrap();
        let wl = vec![RequestSpec::new(0, 0.0, 100_000, 1)];
        let m = serve(&Accelerator::edge(), &model, &wl, &cfg(Bytes::from_mib(1))).unwrap();
        assert_eq!((m.finished, m.dropped), (0, 1));
        assert_eq!(m.drops.infeasible, 1);
    }

    #[test]
    fn queued_past_deadline_is_shed_and_counted() {
        let model = Model::by_name("bert").unwrap();
        // Serialize admission (max_batch 1) so the trailing request waits
        // behind the first; its microscopic deadline expires in the queue.
        let mut wl = tiny_workload(2);
        wl[1].deadline_ms = Some(wl[1].arrival_ms + 1e-6);
        let mut c = cfg(Bytes::from_mib(64));
        c.max_batch = 1;
        let m = serve(&Accelerator::edge(), &model, &wl, &c).unwrap();
        assert_eq!(m.requests, 2);
        assert_eq!(m.finished, 1);
        assert_eq!(m.drops.deadline, 1);
        assert!(
            m.goodput_tokens_per_s <= m.decode_tokens_per_s,
            "shed work never counts toward goodput"
        );
    }

    #[test]
    fn corrupt_specs_are_shed_not_scheduled() {
        let model = Model::by_name("bert").unwrap();
        let mut wl = tiny_workload(3);
        wl.push(RequestSpec {
            arrival_ms: f64::NAN,
            ..RequestSpec::new(3, 0.0, 8, 2)
        });
        wl.push(RequestSpec::new(4, 0.1, 0, 2));
        wl.push(RequestSpec::new(5, 0.2, 8, 0));
        let m = serve(&Accelerator::edge(), &model, &wl, &cfg(Bytes::from_mib(64))).unwrap();
        assert_eq!(m.requests, 6);
        assert_eq!(m.finished, 3);
        assert_eq!(m.drops.corrupt, 3);
    }

    #[test]
    fn empty_workload_and_bad_config_are_typed_errors() {
        let model = Model::by_name("bert").unwrap();
        let accel = Accelerator::edge();
        assert_eq!(
            serve(&accel, &model, &[], &cfg(Bytes::from_mib(64))).unwrap_err(),
            ServeError::EmptyWorkload
        );
        for mangle in [
            |c: &mut EngineConfig| c.block_tokens = 0,
            |c: &mut EngineConfig| c.prefill_chunk = 0,
            |c: &mut EngineConfig| c.max_batch = 0,
            |c: &mut EngineConfig| c.dk = 0,
        ] {
            let mut c = cfg(Bytes::from_mib(64));
            mangle(&mut c);
            let err = serve(&accel, &model, &tiny_workload(2), &c).unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
        }
    }

    #[test]
    fn decode_output_matches_batched_reference() {
        // Re-run one request's generation outside the engine and check the
        // engine's checksum contribution: a 1-request workload's final
        // attention output must equal a hand-rolled replay.
        let model = Model::by_name("bert").unwrap();
        let wl = vec![RequestSpec::new(0, 0.0, 8, 3)];
        let c = cfg(Bytes::from_mib(64));
        let a = serve(&Accelerator::edge(), &model, &wl, &c).unwrap();
        let b = serve(&Accelerator::edge(), &model, &wl, &c).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert!(a.checksum.is_finite() && a.checksum != 0.0);
    }

    /// One embedded row drawn the scalar way: one `StdRng` stream,
    /// `gen::<f32>() * 2.0 - 1.0` per element, blended with `prev`.
    fn std_row(stream: u64, prev: &[f32], dk: usize) -> Vec<u32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(stream);
        (0..dk)
            .map(|d| {
                let noise = rng.gen::<f32>() * 2.0 - 1.0;
                let x = if prev.is_empty() {
                    noise
                } else {
                    0.5 * noise + 0.5 * prev[(d + 1) % prev.len()]
                };
                x.to_bits()
            })
            .collect()
    }

    fn lane_rows(n: usize, dk: usize, row: impl Fn(usize) -> (u64, &'static [f32])) -> Vec<u32> {
        let mut rows = vec![7.0; 3];
        embed_rows(n, dk, row, &mut rows);
        rows[..n * dk].iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lane_embedding_matches_std_rng_at_every_batch_size() {
        for n in 1..=17 {
            for dk in [1, 5, 8, 32, 33] {
                let stream = |r: usize| (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64;
                let want: Vec<u32> = (0..n).flat_map(|r| std_row(stream(r), &[], dk)).collect();
                assert_eq!(
                    lane_rows(n, dk, |r| (stream(r), &[])),
                    want,
                    "n {n} dk {dk}"
                );
            }
        }
    }

    #[test]
    fn lane_embedding_blends_prev_like_std_rng() {
        // Decode rows blend the previous output at `(d + 1) % len`: as wide
        // as the row, narrower (it wraps several times), one element, and
        // wider; unblended rows mixed into the same passes.
        static PREV: [f32; 40] = {
            let mut p = [0.0; 40];
            let mut i = 0;
            while i < 40 {
                p[i] = (i as f32 - 17.5) * 0.031;
                i += 1;
            }
            p
        };
        let widths = [32, 7, 1, 40, 0, 31, 2, 32, 0, 13, 5];
        let prev = |r: usize| &PREV[..widths[r % widths.len()]];
        let stream = |r: usize| 0xDEAD_BEEF_u64.wrapping_add(r as u64 * 3);
        for n in [1, 3, 8, 11, 17] {
            let want: Vec<u32> = (0..n)
                .flat_map(|r| std_row(stream(r), prev(r), 32))
                .collect();
            assert_eq!(lane_rows(n, 32, |r| (stream(r), prev(r))), want, "n {n}");
        }
    }

    #[test]
    fn shared_prefix_rows_key_on_the_template() {
        let mut a = RequestSpec::new(3, 0.0, 48, 4);
        (a.prefix_template, a.prefix_len) = (Some(9), 32);
        let b = RequestSpec { id: 41, ..a };
        let seed = 61_863;
        for (pos, shared) in [(0, true), (31, true), (32, false), (47, false)] {
            let ka = stream_of(seed, &a, pos, SALT_K);
            let kb = stream_of(seed, &b, pos, SALT_K);
            assert_eq!(ka == kb, shared, "pos {pos}");
            let rows = lane_rows(2, 32, |r| ([ka, kb][r], &[]));
            assert_eq!(rows[..32], std_row(ka, &[], 32)[..], "pos {pos}");
            assert_eq!(rows[..32] == rows[32..], shared, "pos {pos}");
        }
    }

    /// Satellite pin: a single instantaneous-ish request must not report
    /// an infinite token rate.
    #[test]
    fn single_request_rates_are_finite() {
        let model = Model::by_name("bert").unwrap();
        let wl = vec![RequestSpec::new(0, 0.0, 4, 1)];
        let m = serve(&Accelerator::edge(), &model, &wl, &cfg(Bytes::from_mib(64))).unwrap();
        assert!(m.decode_tokens_per_s.is_finite());
        assert!(m.goodput_tokens_per_s.is_finite());
    }
}
