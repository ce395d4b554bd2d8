//! Critical-path attribution: decompose each request's end-to-end
//! latency into phases, then aggregate per phase and per tenant.
//!
//! The serving engine's trace schema gives every request a lane carrying
//! a `request` B/E span (arrival → completion), `queued` B/E spans (one
//! per admission wait, re-opened after preemption), and per-tick
//! `prefill` / `decode` complete slices spanning the whole tick the
//! request participated in. Two schema details added for attribution:
//! prefill slices re-paging work erased by a preempt-and-recompute
//! eviction carry a `recompute` argument, and the scheduler lane carries
//! an `exposed` slice per tick for the collective time compute could not
//! hide. From those, each finished request's latency decomposes as
//!
//! ```text
//! e2e = queued + prefill + recompute + decode + collective_exposed + other
//! ```
//!
//! where `other` is time admitted-but-stalled (in the batch, no slice
//! this tick — e.g. the prefill chunk budget went to earlier requests).
//! Within one tick, the tick's exposed fabric time is charged to the
//! `collective_exposed` phase and the remaining compute time is split
//! over the request's slices in token proportion.

use crate::trace::{arg_str, arg_u64, has_arg, parse_chrome_trace};
use flat_serve::Percentiles;
use flat_telemetry::{Event, EventPhase};
use serde::Serialize;
use std::collections::BTreeMap;

/// Engine/scheduler process lane in the trace schema.
const PID_ENGINE: u32 = 0;

/// One request's phase decomposition, in milliseconds of virtual time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestPhases {
    /// Request id (trace lane `tid - 1`).
    pub id: u64,
    /// Tenant class (from the `request` begin span's `tenant` argument;
    /// 0 when the trace predates the argument).
    pub tenant: u32,
    /// Arrival on the virtual clock.
    pub arrival_ms: f64,
    /// Completion (or drop) on the virtual clock.
    pub end_ms: f64,
    /// End-to-end latency.
    pub e2e_ms: f64,
    /// Waiting in the admission queue (including re-queues after
    /// preemption).
    pub queued_ms: f64,
    /// First-pass prompt paging.
    pub prefill_ms: f64,
    /// Prompt paging redone after a preempt-and-recompute eviction.
    pub recompute_ms: f64,
    /// Autoregressive decode steps.
    pub decode_ms: f64,
    /// Collective fabric time compute could not hide, during this
    /// request's ticks.
    pub collective_exposed_ms: f64,
    /// Admitted but stalled: in the running batch with no slice that
    /// tick.
    pub other_ms: f64,
    /// Tokens generated (0 for dropped requests).
    pub generated: u64,
    /// Preempt-and-recompute evictions suffered.
    pub preemptions: u64,
    /// Drop reason, if the request was shed instead of served.
    pub drop_reason: Option<String>,
}

/// One phase's aggregate: the total across requests and the per-request
/// distribution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseStat {
    /// Sum over finished requests, ms.
    pub total_ms: f64,
    /// Per-request distribution (nearest-rank percentiles).
    pub dist: Percentiles,
}

/// The aggregate breakdown over a set of requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseBreakdown {
    /// Admission-queue waiting.
    pub queued: PhaseStat,
    /// First-pass prompt paging.
    pub prefill: PhaseStat,
    /// Post-preemption re-paging.
    pub recompute: PhaseStat,
    /// Decode steps.
    pub decode: PhaseStat,
    /// Exposed collective time.
    pub collective_exposed: PhaseStat,
    /// Admitted-but-stalled time.
    pub other: PhaseStat,
    /// End-to-end latency.
    pub e2e: PhaseStat,
}

/// The phase names of [`PhaseBreakdown`], in ledger order (`e2e`
/// excluded — it is the sum, not a component).
pub const PHASE_NAMES: [&str; 6] = [
    "queued",
    "prefill",
    "recompute",
    "decode",
    "collective_exposed",
    "other",
];

impl RequestPhases {
    /// The component phases in [`PHASE_NAMES`] order.
    #[must_use]
    pub fn phase_values(&self) -> [f64; 6] {
        [
            self.queued_ms,
            self.prefill_ms,
            self.recompute_ms,
            self.decode_ms,
            self.collective_exposed_ms,
            self.other_ms,
        ]
    }
}

impl PhaseBreakdown {
    fn of(requests: &[&RequestPhases]) -> Self {
        let stat = |f: &dyn Fn(&RequestPhases) -> f64| {
            let samples: Vec<f64> = requests.iter().map(|r| f(r)).collect();
            PhaseStat {
                // Float `Sum` starts from -0.0; no requests must total +0.
                total_ms: samples.iter().fold(0.0, |acc, x| acc + x),
                dist: Percentiles::of(samples),
            }
        };
        PhaseBreakdown {
            queued: stat(&|r| r.queued_ms),
            prefill: stat(&|r| r.prefill_ms),
            recompute: stat(&|r| r.recompute_ms),
            decode: stat(&|r| r.decode_ms),
            collective_exposed: stat(&|r| r.collective_exposed_ms),
            other: stat(&|r| r.other_ms),
            e2e: stat(&|r| r.e2e_ms),
        }
    }

    /// The component totals in [`PHASE_NAMES`] order.
    #[must_use]
    pub fn totals(&self) -> [f64; 6] {
        [
            self.queued.total_ms,
            self.prefill.total_ms,
            self.recompute.total_ms,
            self.decode.total_ms,
            self.collective_exposed.total_ms,
            self.other.total_ms,
        ]
    }
}

/// One tenant's slice of the breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantPhases {
    /// Tenant class id.
    pub tenant: u32,
    /// Finished requests attributed.
    pub finished: usize,
    /// The tenant's aggregate breakdown.
    pub breakdown: PhaseBreakdown,
}

/// A dropped-request tally for one typed reason.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DropTally {
    /// The typed drop reason string from the trace.
    pub reason: String,
    /// Requests shed with it.
    pub count: u64,
}

/// The full attribution report of one traced run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Attribution {
    /// Report schema tag.
    pub schema: String,
    /// Requests observed in the trace (finished + dropped).
    pub requests: usize,
    /// Requests that ran to completion.
    pub finished: usize,
    /// Requests shed with a typed reason.
    pub dropped: usize,
    /// Shed requests by reason, reason-sorted.
    pub drop_reasons: Vec<DropTally>,
    /// First arrival to last completion, ms.
    pub makespan_ms: f64,
    /// Total preempt-and-recompute evictions observed.
    pub preemptions: u64,
    /// Aggregate breakdown over finished requests.
    pub phases: PhaseBreakdown,
    /// Per-tenant breakdowns, tenant-id-sorted.
    pub tenants: Vec<TenantPhases>,
    /// Every request's decomposition, id-sorted.
    pub per_request: Vec<RequestPhases>,
}

/// Per-lane accumulation state while scanning the event stream.
#[derive(Debug, Default)]
struct Lane {
    arrival_us: Option<f64>,
    end_us: Option<f64>,
    tenant: u32,
    queued_open: Option<f64>,
    queued_us: f64,
    generated: u64,
    preemptions: u64,
    drop_reason: Option<String>,
    ticks: Vec<Tick>,
}

/// One tick a request participated in: the slice interval plus the token
/// weights of the work kinds inside it.
#[derive(Debug, Clone, Copy)]
struct Tick {
    ts_us: f64,
    dur_us: f64,
    prefill_tok: f64,
    recompute_tok: f64,
    decode_tok: f64,
}

impl Attribution {
    /// Parses and attributes a Chrome trace JSON document (the
    /// `--trace FILE` output).
    ///
    /// # Errors
    ///
    /// Describes the first malformed construct: unparseable JSON, a
    /// missing `traceEvents` array, or an event missing one of the
    /// `name`/`ph`/`ts`/`pid`/`tid` fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        Ok(Self::of(&parse_chrome_trace(text)?))
    }

    /// Attributes an event stream (e.g. a
    /// [`flat_telemetry::MemorySink`]'s contents).
    ///
    /// Events may arrive in any order; they are stably sorted by
    /// timestamp first, which restores the per-lane B/E pairing order
    /// the producers emit (equal-timestamp events on one lane keep
    /// their relative order under a stable sort).
    #[must_use]
    pub fn of(events: &[Event]) -> Self {
        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));

        // Exposed-collective intervals on the scheduler lane, in ts
        // order.
        let exposed: Vec<(f64, f64)> = ordered
            .iter()
            .filter(|e| e.pid == PID_ENGINE && e.tid == 0 && e.name == "exposed")
            .filter_map(|e| match e.ph {
                EventPhase::Complete { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
                _ => None,
            })
            .collect();

        let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
        for e in &ordered {
            if e.pid != PID_ENGINE || e.tid == 0 || e.cat != "request" {
                continue;
            }
            let lane = lanes.entry(e.tid - 1).or_default();
            match (e.ph, e.name.as_str()) {
                (EventPhase::Begin, "request") => {
                    lane.arrival_us = Some(e.ts_us);
                    if let Some(t) = arg_u64(e, "tenant") {
                        lane.tenant = u32::try_from(t).unwrap_or(u32::MAX);
                    }
                }
                (EventPhase::End, "request") => {
                    lane.end_us = Some(e.ts_us);
                    if let Some(g) = arg_u64(e, "generated") {
                        lane.generated = g;
                    }
                }
                (EventPhase::Begin, "queued") => lane.queued_open = Some(e.ts_us),
                (EventPhase::End, "queued") => {
                    if let Some(open) = lane.queued_open.take() {
                        lane.queued_us += (e.ts_us - open).max(0.0);
                    }
                }
                (EventPhase::Instant, "preempted") => {
                    lane.preemptions = lane.preemptions.max(arg_u64(e, "count").unwrap_or(0));
                }
                (EventPhase::Instant, "dropped") => {
                    lane.drop_reason = Some(arg_str(e, "reason").unwrap_or("unknown").to_owned());
                }
                (EventPhase::Complete { dur_us }, "prefill" | "decode") => {
                    let tokens = arg_u64(e, "tokens").unwrap_or(0) as f64;
                    let same_tick = lane
                        .ticks
                        .last()
                        .is_some_and(|t| t.ts_us.to_bits() == e.ts_us.to_bits());
                    if !same_tick {
                        lane.ticks.push(Tick {
                            ts_us: e.ts_us,
                            dur_us,
                            prefill_tok: 0.0,
                            recompute_tok: 0.0,
                            decode_tok: 0.0,
                        });
                    }
                    if let Some(tick) = lane.ticks.last_mut() {
                        tick.dur_us = tick.dur_us.max(dur_us);
                        if e.name == "decode" {
                            tick.decode_tok += tokens;
                        } else if has_arg(e, "recompute") {
                            tick.recompute_tok += tokens;
                        } else {
                            tick.prefill_tok += tokens;
                        }
                    }
                }
                _ => {}
            }
        }

        let mut per_request: Vec<RequestPhases> = lanes
            .into_iter()
            .map(|(id, lane)| finish_lane(id, lane, &exposed))
            .collect();
        per_request.sort_by_key(|r| r.id);

        let finished: Vec<&RequestPhases> = per_request
            .iter()
            .filter(|r| r.drop_reason.is_none())
            .collect();
        let mut drop_counts: BTreeMap<String, u64> = BTreeMap::new();
        for r in &per_request {
            if let Some(reason) = &r.drop_reason {
                *drop_counts.entry(reason.clone()).or_insert(0) += 1;
            }
        }
        let mut by_tenant: BTreeMap<u32, Vec<&RequestPhases>> = BTreeMap::new();
        for r in &finished {
            by_tenant.entry(r.tenant).or_default().push(r);
        }
        let arrival_min = finished
            .iter()
            .map(|r| r.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        let end_max = finished.iter().map(|r| r.end_ms).fold(0.0f64, f64::max);

        Attribution {
            schema: "flat-insight-attribution/v1".to_owned(),
            requests: per_request.len(),
            finished: finished.len(),
            dropped: per_request.len() - finished.len(),
            drop_reasons: drop_counts
                .into_iter()
                .map(|(reason, count)| DropTally { reason, count })
                .collect(),
            makespan_ms: if arrival_min.is_finite() {
                end_max - arrival_min
            } else {
                0.0
            },
            preemptions: per_request.iter().map(|r| r.preemptions).sum(),
            phases: PhaseBreakdown::of(&finished),
            tenants: by_tenant
                .into_iter()
                .map(|(tenant, reqs)| TenantPhases {
                    tenant,
                    finished: reqs.len(),
                    breakdown: PhaseBreakdown::of(&reqs),
                })
                .collect(),
            per_request,
        }
    }

    /// The report as pretty JSON — byte-deterministic for a fixed trace
    /// (sorted-key objects, derived field set).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// The aggregate phase quantiles as a telemetry registry, for
    /// Prometheus text exposition: one summary per phase plus the run
    /// totals as counters.
    #[must_use]
    pub fn registry(&self) -> flat_telemetry::Registry {
        let mut r = flat_telemetry::Registry::new();
        r.counter_add(
            "insight_requests_total",
            "Requests observed in the trace.",
            self.requests as f64,
        );
        r.counter_add(
            "insight_finished_total",
            "Requests that ran to completion.",
            self.finished as f64,
        );
        r.counter_add(
            "insight_dropped_total",
            "Requests shed with a typed reason.",
            self.dropped as f64,
        );
        let phase = |r: &mut flat_telemetry::Registry, name: &str, help: &str, s: &PhaseStat| {
            r.summary_of(
                name,
                help,
                &self
                    .per_request
                    .iter()
                    .filter(|q| q.drop_reason.is_none())
                    .map(pick(name))
                    .collect::<Vec<f64>>(),
            );
            r.counter_add(&format!("{name}_total"), help, s.total_ms.max(0.0));
        };
        phase(
            &mut r,
            "insight_queued_ms",
            "Admission-queue waiting per request.",
            &self.phases.queued,
        );
        phase(
            &mut r,
            "insight_prefill_ms",
            "First-pass prompt paging per request.",
            &self.phases.prefill,
        );
        phase(
            &mut r,
            "insight_recompute_ms",
            "Post-preemption re-paging per request.",
            &self.phases.recompute,
        );
        phase(
            &mut r,
            "insight_decode_ms",
            "Decode-step time per request.",
            &self.phases.decode,
        );
        phase(
            &mut r,
            "insight_collective_exposed_ms",
            "Exposed collective time per request.",
            &self.phases.collective_exposed,
        );
        phase(
            &mut r,
            "insight_other_ms",
            "Admitted-but-stalled time per request.",
            &self.phases.other,
        );
        r
    }
}

/// Field selector for [`Attribution::registry`]'s per-phase samples.
fn pick(metric: &str) -> fn(&RequestPhases) -> f64 {
    match metric {
        "insight_queued_ms" => |r| r.queued_ms,
        "insight_prefill_ms" => |r| r.prefill_ms,
        "insight_recompute_ms" => |r| r.recompute_ms,
        "insight_decode_ms" => |r| r.decode_ms,
        "insight_collective_exposed_ms" => |r| r.collective_exposed_ms,
        _ => |r| r.other_ms,
    }
}

/// Sum of overlap between `[t0, t1]` and the sorted `exposed` intervals.
fn exposed_overlap_us(exposed: &[(f64, f64)], t0: f64, t1: f64) -> f64 {
    // First interval that ends after t0.
    let start = exposed.partition_point(|&(_, end)| end <= t0);
    let mut total = 0.0;
    for &(s, e) in &exposed[start..] {
        if s >= t1 {
            break;
        }
        total += (e.min(t1) - s.max(t0)).max(0.0);
    }
    total
}

/// Closes one lane into its request decomposition.
fn finish_lane(id: u64, lane: Lane, exposed: &[(f64, f64)]) -> RequestPhases {
    let arrival_us = lane.arrival_us.unwrap_or(0.0);
    let end_us = lane.end_us.unwrap_or(arrival_us);
    let mut prefill_us = 0.0;
    let mut recompute_us = 0.0;
    let mut decode_us = 0.0;
    let mut exposed_us = 0.0;
    for t in &lane.ticks {
        let hidden = exposed_overlap_us(exposed, t.ts_us, t.ts_us + t.dur_us).min(t.dur_us);
        exposed_us += hidden;
        let compute = (t.dur_us - hidden).max(0.0);
        let w = t.prefill_tok + t.recompute_tok + t.decode_tok;
        if w > 0.0 {
            prefill_us += compute * t.prefill_tok / w;
            recompute_us += compute * t.recompute_tok / w;
            decode_us += compute * t.decode_tok / w;
        }
    }
    let e2e_us = (end_us - arrival_us).max(0.0);
    let other_us =
        (e2e_us - lane.queued_us - prefill_us - recompute_us - decode_us - exposed_us).max(0.0);
    RequestPhases {
        id,
        tenant: lane.tenant,
        arrival_ms: arrival_us / 1e3,
        end_ms: end_us / 1e3,
        e2e_ms: e2e_us / 1e3,
        queued_ms: lane.queued_us / 1e3,
        prefill_ms: prefill_us / 1e3,
        recompute_ms: recompute_us / 1e3,
        decode_ms: decode_us / 1e3,
        collective_exposed_ms: exposed_us / 1e3,
        other_ms: other_us / 1e3,
        generated: lane.generated,
        preemptions: lane.preemptions,
        drop_reason: lane.drop_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-request trace: request 0 queues 1 ms, prefills
    /// one 2 ms tick, decodes one 3 ms tick (1 ms of it exposed
    /// collective), finishes. Request 1 is dropped at the queue.
    fn tiny_trace() -> Vec<Event> {
        let ms = 1e3; // µs per ms
        vec![
            Event::begin("request", "request", 0.0, 0, 1).arg("tenant", 2u64),
            Event::begin("queued", "request", 0.0, 0, 1),
            Event::end("queued", "request", ms, 0, 1),
            Event::complete("prefill", "request", ms, 2.0 * ms, 0, 1).arg("tokens", 8u64),
            Event::complete("decode", "request", 3.0 * ms, 3.0 * ms, 0, 1)
                .arg("tokens", 1u64)
                .arg("ctx_tokens", 9u64),
            Event::complete("exposed", "engine", 5.0 * ms, 1.0 * ms, 0, 0),
            Event::end("request", "request", 6.0 * ms, 0, 1).arg("generated", 1u64),
            Event::begin("request", "request", 0.0, 0, 2).arg("tenant", 0u64),
            Event::begin("queued", "request", 0.0, 0, 2),
            Event::end("queued", "request", 4.0 * ms, 0, 2),
            Event::instant("dropped", "request", 4.0 * ms, 0, 2).arg("reason", "deadline-exceeded"),
            Event::end("request", "request", 4.0 * ms, 0, 2),
        ]
    }

    #[test]
    fn phases_decompose_and_sum_to_e2e() {
        let a = Attribution::of(&tiny_trace());
        assert_eq!(a.requests, 2);
        assert_eq!(a.finished, 1);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.drop_reasons[0].reason, "deadline-exceeded");
        let r = &a.per_request[0];
        assert_eq!(r.tenant, 2);
        assert!((r.queued_ms - 1.0).abs() < 1e-9);
        assert!((r.prefill_ms - 2.0).abs() < 1e-9);
        assert!((r.decode_ms - 2.0).abs() < 1e-9, "{}", r.decode_ms);
        assert!((r.collective_exposed_ms - 1.0).abs() < 1e-9);
        assert!((r.e2e_ms - 6.0).abs() < 1e-9);
        let parts: f64 = r.phase_values().iter().sum();
        assert!((parts - r.e2e_ms).abs() < 1e-9, "phases must sum to e2e");
    }

    #[test]
    fn recompute_slices_split_from_prefill() {
        let ms = 1e3;
        let events = vec![
            Event::begin("request", "request", 0.0, 0, 1),
            Event::begin("queued", "request", 0.0, 0, 1),
            Event::end("queued", "request", 0.0, 0, 1),
            Event::complete("prefill", "request", 0.0, ms, 0, 1).arg("tokens", 4u64),
            Event::instant("preempted", "request", ms, 0, 1).arg("count", 1u64),
            Event::begin("queued", "request", ms, 0, 1),
            Event::end("queued", "request", ms, 0, 1),
            Event::complete("prefill", "request", ms, 2.0 * ms, 0, 1)
                .arg("tokens", 4u64)
                .arg("recompute", 1u64),
            Event::end("request", "request", 3.0 * ms, 0, 1).arg("generated", 0u64),
        ];
        let a = Attribution::of(&events);
        let r = &a.per_request[0];
        assert!((r.prefill_ms - 1.0).abs() < 1e-9);
        assert!((r.recompute_ms - 2.0).abs() < 1e-9);
        assert_eq!(r.preemptions, 1);
        assert_eq!(a.preemptions, 1);
    }

    #[test]
    fn json_is_deterministic() {
        let a = Attribution::of(&tiny_trace());
        let b = Attribution::of(&tiny_trace());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("flat-insight-attribution/v1"));
    }

    #[test]
    fn registry_exports_phase_summaries() {
        let text = Attribution::of(&tiny_trace()).registry().prometheus();
        assert!(text.contains("# TYPE insight_queued_ms summary"));
        assert!(text.contains("insight_decode_ms{quantile=\"0.5\"}"));
        assert!(text.contains("insight_requests_total 2"));
    }

    #[test]
    fn empty_stream_attributes_to_nothing() {
        let a = Attribution::of(&[]);
        assert_eq!(a.requests, 0);
        assert_eq!(a.makespan_ms, 0.0);
        assert!(a.per_request.is_empty());
    }

    /// Over zero requests every total is +0, so `attr` never prints `-0`.
    #[test]
    fn empty_totals_are_positive_zero() {
        let a = Attribution::of(&[]);
        for total in a.phases.totals().into_iter().chain([a.phases.e2e.total_ms]) {
            assert_eq!(total.to_bits(), 0.0f64.to_bits());
        }
        assert!(!a.to_json().contains("-0"), "{}", a.to_json());
    }
}
