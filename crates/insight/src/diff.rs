//! Differential run analysis: align two attributed runs request by
//! request and attribute the end-to-end delta to phases.
//!
//! Two runs of the same workload (same seed, same request population)
//! align by request id; the per-pair e2e delta then decomposes exactly
//! into per-phase deltas because each side's phases sum to its e2e. The
//! report surfaces the dominant phase — the one explaining the largest
//! share of the total shift — plus drop-reason shifts and the requests
//! that moved most. Two byte-identical runs produce `zero_delta: true`
//! and an all-zero ledger, which is the pinned determinism contract.

use crate::attribution::{Attribution, RequestPhases, PHASE_NAMES};
use serde::Serialize;

/// How many most-moved requests the report keeps.
const TOP_REQUESTS: usize = 5;

/// One phase's total shift between runs (summed over matched finished
/// pairs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseDelta {
    /// Phase name (see [`PHASE_NAMES`]).
    pub phase: String,
    /// Run A total, ms.
    pub a_ms: f64,
    /// Run B total, ms.
    pub b_ms: f64,
    /// `b_ms - a_ms`.
    pub delta_ms: f64,
}

/// One request's shift between runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestDelta {
    /// Request id (aligned across runs).
    pub id: u64,
    /// Run A end-to-end latency, ms.
    pub a_e2e_ms: f64,
    /// Run B end-to-end latency, ms.
    pub b_e2e_ms: f64,
    /// `b - a`, ms.
    pub delta_ms: f64,
    /// The phase contributing the largest absolute share of this
    /// request's delta.
    pub dominant_phase: String,
}

/// One drop reason's count shift between runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DropShift {
    /// The typed drop reason.
    pub reason: String,
    /// Run A count.
    pub a: u64,
    /// Run B count.
    pub b: u64,
}

/// The full differential report between two attributed runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiffReport {
    /// Report schema tag.
    pub schema: String,
    /// Request ids present in both runs and finished in both.
    pub matched: usize,
    /// Ids only in run A (or finished only in A).
    pub only_in_a: usize,
    /// Ids only in run B (or finished only in B).
    pub only_in_b: usize,
    /// Run A finished count.
    pub a_finished: usize,
    /// Run B finished count.
    pub b_finished: usize,
    /// Run A makespan, ms.
    pub a_makespan_ms: f64,
    /// Run B makespan, ms.
    pub b_makespan_ms: f64,
    /// Total e2e shift over matched pairs, ms (`B - A`).
    pub e2e_delta_ms: f64,
    /// Per-phase shift ledger, in [`PHASE_NAMES`] order.
    pub phase_deltas: Vec<PhaseDelta>,
    /// The phase with the largest absolute total shift, or `none` when
    /// the ledger is all-zero.
    pub dominant_phase: String,
    /// Drop-reason count shifts (reasons present in either run with
    /// differing counts, plus all reasons when any shift exists).
    pub drop_shifts: Vec<DropShift>,
    /// The `TOP_REQUESTS` (five) most-moved matched requests, by |delta|.
    pub top_request_deltas: Vec<RequestDelta>,
    /// Whether the two runs are attribution-identical: every id matched,
    /// every phase of every pair exactly equal, no drop shifts.
    pub zero_delta: bool,
}

fn dominant_of(deltas: &[(usize, f64)]) -> String {
    let mut best = 0usize;
    let mut best_abs = 0.0f64;
    for &(i, d) in deltas {
        if d.abs() > best_abs {
            best_abs = d.abs();
            best = i;
        }
    }
    if best_abs == 0.0 {
        "none".to_owned()
    } else {
        PHASE_NAMES[best].to_owned()
    }
}

impl DiffReport {
    /// Diffs two attributed runs, aligning requests by id.
    #[must_use]
    pub fn of(a: &Attribution, b: &Attribution) -> Self {
        let finished = |run: &Attribution| {
            run.per_request
                .iter()
                .filter(|r| r.drop_reason.is_none())
                .map(|r| (r.id, r.clone()))
                .collect::<std::collections::BTreeMap<u64, RequestPhases>>()
        };
        let fa = finished(a);
        let fb = finished(b);

        let mut phase_tot = [[0.0f64; 2]; PHASE_NAMES.len()];
        let mut e2e_delta = 0.0;
        let mut pairs: Vec<RequestDelta> = Vec::new();
        let mut matched = 0usize;
        let mut exact = true;
        for (id, ra) in &fa {
            let Some(rb) = fb.get(id) else { continue };
            matched += 1;
            let va = ra.phase_values();
            let vb = rb.phase_values();
            let mut per_phase: Vec<(usize, f64)> = Vec::with_capacity(PHASE_NAMES.len());
            for i in 0..PHASE_NAMES.len() {
                phase_tot[i][0] += va[i];
                phase_tot[i][1] += vb[i];
                per_phase.push((i, vb[i] - va[i]));
                if va[i].to_bits() != vb[i].to_bits() {
                    exact = false;
                }
            }
            e2e_delta += rb.e2e_ms - ra.e2e_ms;
            pairs.push(RequestDelta {
                id: *id,
                a_e2e_ms: ra.e2e_ms,
                b_e2e_ms: rb.e2e_ms,
                delta_ms: rb.e2e_ms - ra.e2e_ms,
                dominant_phase: dominant_of(&per_phase),
            });
        }
        let only_in_a = fa.keys().filter(|id| !fb.contains_key(id)).count();
        let only_in_b = fb.keys().filter(|id| !fa.contains_key(id)).count();

        let phase_deltas: Vec<PhaseDelta> = PHASE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| PhaseDelta {
                phase: (*name).to_owned(),
                a_ms: phase_tot[i][0],
                b_ms: phase_tot[i][1],
                delta_ms: phase_tot[i][1] - phase_tot[i][0],
            })
            .collect();
        let dominant_phase = dominant_of(
            &phase_deltas
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.delta_ms))
                .collect::<Vec<(usize, f64)>>(),
        );

        // Drop-reason shifts: union of reasons, kept only when any
        // reason's count moved.
        let count = |run: &Attribution, reason: &str| {
            run.drop_reasons
                .iter()
                .find(|d| d.reason == reason)
                .map_or(0, |d| d.count)
        };
        let mut reasons: Vec<&str> = a
            .drop_reasons
            .iter()
            .chain(b.drop_reasons.iter())
            .map(|d| d.reason.as_str())
            .collect();
        reasons.sort_unstable();
        reasons.dedup();
        let shifted = reasons.iter().any(|r| count(a, r) != count(b, r));
        let drop_shifts: Vec<DropShift> = if shifted {
            reasons
                .iter()
                .map(|r| DropShift {
                    reason: (*r).to_owned(),
                    a: count(a, r),
                    b: count(b, r),
                })
                .collect()
        } else {
            Vec::new()
        };

        pairs.sort_by(|x, y| {
            y.delta_ms
                .abs()
                .total_cmp(&x.delta_ms.abs())
                .then_with(|| x.id.cmp(&y.id))
        });
        pairs.truncate(TOP_REQUESTS);

        let zero_delta =
            exact && only_in_a == 0 && only_in_b == 0 && !shifted && a.dropped == b.dropped;

        DiffReport {
            schema: "flat-insight-diff/v1".to_owned(),
            matched,
            only_in_a,
            only_in_b,
            a_finished: a.finished,
            b_finished: b.finished,
            a_makespan_ms: a.makespan_ms,
            b_makespan_ms: b.makespan_ms,
            e2e_delta_ms: e2e_delta,
            phase_deltas,
            dominant_phase,
            drop_shifts,
            top_request_deltas: pairs,
            zero_delta,
        }
    }

    /// The report as pretty JSON — byte-deterministic for fixed inputs.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_telemetry::Event;

    fn run(decode_ms: f64, exposed_ms: f64) -> Attribution {
        let ms = 1e3;
        let mut events = vec![
            Event::begin("request", "request", 0.0, 0, 1),
            Event::begin("queued", "request", 0.0, 0, 1),
            Event::end("queued", "request", ms, 0, 1),
            Event::complete("prefill", "request", ms, 2.0 * ms, 0, 1).arg("tokens", 8u64),
            Event::complete("decode", "request", 3.0 * ms, decode_ms * ms, 0, 1)
                .arg("tokens", 4u64),
            Event::end("request", "request", (3.0 + decode_ms) * ms, 0, 1).arg("generated", 4u64),
        ];
        if exposed_ms > 0.0 {
            events.push(Event::complete(
                "exposed",
                "engine",
                (3.0 + decode_ms) * ms - exposed_ms * ms,
                exposed_ms * ms,
                0,
                0,
            ));
        }
        Attribution::of(&events)
    }

    #[test]
    fn identical_runs_are_zero_delta() {
        let d = DiffReport::of(&run(3.0, 0.0), &run(3.0, 0.0));
        assert!(d.zero_delta, "{d:?}");
        assert_eq!(d.dominant_phase, "none");
        assert_eq!(d.e2e_delta_ms, 0.0);
        assert!(d.phase_deltas.iter().all(|p| p.delta_ms == 0.0));
        assert!(d.drop_shifts.is_empty());
    }

    #[test]
    fn exposed_collective_shift_is_attributed() {
        // Run B is 1 ms slower, all of it exposed collective time.
        let d = DiffReport::of(&run(3.0, 0.0), &run(4.0, 1.0));
        assert!(!d.zero_delta);
        assert_eq!(d.dominant_phase, "collective_exposed");
        assert!((d.e2e_delta_ms - 1.0).abs() < 1e-9, "{}", d.e2e_delta_ms);
        assert_eq!(d.top_request_deltas[0].dominant_phase, "collective_exposed");
    }

    #[test]
    fn diff_json_is_deterministic() {
        let x = DiffReport::of(&run(3.0, 0.0), &run(4.0, 1.0)).to_json();
        let y = DiffReport::of(&run(3.0, 0.0), &run(4.0, 1.0)).to_json();
        assert_eq!(x, y);
        assert!(x.contains("flat-insight-diff/v1"));
    }
}
