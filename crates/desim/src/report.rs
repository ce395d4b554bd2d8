//! The event-backend result: cycles, lane usage, buffer occupancy, and
//! the Perfetto-loadable trace built through `flat-telemetry`.

use crate::engine::{ContextStats, RunStats};
use crate::executor::lane_tid;
use flat_telemetry::{sort_events, Event};

/// Busy time of one hardware lane over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUsage {
    /// Lane name (`"dma"`, `"pe"`, `"sg"`, `"sfu"`, `"l2"`).
    pub name: String,
    /// Cycles the lane spent occupied.
    pub busy_cycles: f64,
    /// `busy_cycles / total cycles` — the lane's utilization.
    pub occupancy: f64,
}

/// Staging-buffer (credit-pool) occupancy over the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferUsage {
    /// Configured staging slots.
    pub capacity: u32,
    /// Time-weighted mean tiles in flight (fetched, not yet retired).
    pub mean_in_flight: f64,
    /// Peak tiles in flight — hits `capacity` when the prefetch runs
    /// ahead as far as the buffers allow.
    pub peak_in_flight: u32,
}

/// The result of an event-driven simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EventReport {
    /// Simulated makespan in cycles (extrapolated past the iteration
    /// cap when [`extrapolated`](Self::extrapolated)).
    pub cycles: f64,
    /// Iterations (or phase slices) actually executed by the engine.
    pub simulated_iterations: u64,
    /// Iterations the workload demands.
    pub total_iterations: u64,
    /// Whether `cycles` extends the measured steady-state period past
    /// the iteration cap.
    pub extrapolated: bool,
    /// Per-lane busy time and utilization.
    pub lanes: Vec<LaneUsage>,
    /// Staging-buffer occupancy.
    pub buffers: BufferUsage,
    /// Recorded lane slices: `(lane, label, start, dur)` in cycles.
    pub(crate) slices: Vec<(String, &'static str, f64, f64)>,
    /// Tiles-in-flight counter samples: `(time, value)`.
    pub(crate) counter_samples: Vec<(f64, u32)>,
}

/// Merges per-lane busy time into a lane list keyed by name (phases
/// of a sequential run reuse the same lanes).
pub(crate) fn merge_lanes(lanes: &mut Vec<LaneUsage>, contexts: &[ContextStats]) {
    for c in contexts {
        match lanes.iter_mut().find(|l| l.name == c.name) {
            Some(lane) => lane.busy_cycles += c.busy_cycles,
            None => lanes.push(LaneUsage {
                name: c.name.clone(),
                busy_cycles: c.busy_cycles,
                occupancy: 0.0,
            }),
        }
    }
}

impl EventReport {
    /// Builds a report from one engine run. `buffers` is the configured
    /// credit-pool capacity (reported even when the run kept no samples).
    pub(crate) fn from_run(
        stats: &RunStats,
        simulated: u64,
        total: u64,
        extrapolated: bool,
        buffers: u32,
    ) -> Self {
        let mut lanes = Vec::new();
        merge_lanes(&mut lanes, &stats.contexts);
        let credits = stats.channels.iter().find(|c| c.name == "credits");
        let buffers_usage = match credits {
            Some(c) => BufferUsage {
                capacity: c.capacity as u32,
                mean_in_flight: c.capacity as f64 - c.mean_occupancy,
                peak_in_flight: (c.capacity - c.min_occupancy) as u32,
            },
            None => BufferUsage {
                capacity: buffers.max(1),
                mean_in_flight: 0.0,
                peak_in_flight: 0,
            },
        };
        let slices = stats
            .trace
            .iter()
            .map(|s| (stats.contexts[s.ctx].name.clone(), s.label, s.start, s.dur))
            .collect();
        let counter_samples = credits
            .map(|c| {
                c.samples
                    .iter()
                    .map(|&(t, len)| (t, (c.capacity - len) as u32))
                    .collect()
            })
            .unwrap_or_default();
        let mut report = EventReport {
            cycles: stats.end_time,
            simulated_iterations: simulated,
            total_iterations: total,
            extrapolated,
            lanes,
            buffers: buffers_usage,
            slices,
            counter_samples,
        };
        report.finish_occupancy();
        report
    }

    /// Recomputes each lane's occupancy from its busy time and the
    /// report's (possibly extrapolated) total cycles.
    pub(crate) fn finish_occupancy(&mut self) {
        for lane in &mut self.lanes {
            lane.occupancy = if self.cycles > 0.0 {
                (lane.busy_cycles / self.cycles).min(1.0)
            } else {
                0.0
            };
        }
    }

    /// Busy cycles of the named lane, 0 if the lane did not run.
    #[must_use]
    pub fn lane_busy(&self, name: &str) -> f64 {
        self.lanes
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.busy_cycles)
    }

    /// The recorded per-lane trace as telemetry events, in the
    /// deterministic `(ts, pid, tid, name)` total order: pid 1 is the
    /// simulated chip, one thread lane per hardware lane, plus a
    /// tiles-in-flight counter track. Timestamps are cycles (viewers
    /// display them as microseconds — the unit label, not the ordering,
    /// is cosmetic).
    #[must_use]
    pub fn trace_events(&self) -> Vec<Event> {
        const PID: u32 = 1;
        let mut events = vec![Event::process_name(PID, "flat-desim")];
        let mut named: Vec<&str> = Vec::new();
        for (lane, _, _, _) in &self.slices {
            if !named.contains(&lane.as_str()) {
                named.push(lane);
            }
        }
        named.sort_unstable();
        for lane in named {
            events.push(Event::thread_name(PID, lane_tid(lane), lane));
        }
        for (lane, label, start, dur) in &self.slices {
            events.push(Event::complete(
                label,
                "desim",
                *start,
                *dur,
                PID,
                lane_tid(lane),
            ));
        }
        for &(t, v) in &self.counter_samples {
            events.push(
                Event::counter("tiles in flight", "desim", t, PID, 0).arg("tiles", u64::from(v)),
            );
        }
        sort_events(&mut events);
        events
    }

    /// Serializes the trace as one Chrome trace JSON document
    /// (Perfetto-loadable).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        flat_telemetry::chrome_trace_json(&self.trace_events())
    }
}
