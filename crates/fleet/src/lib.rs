//! `flat-fleet` — sustained-load traffic and its report, for the
//! `flat-serve` runtime.
//!
//! `flat-serve` answers "what does one burst of traffic cost?"; capacity
//! planning asks a different question: what does a *fleet* sustain over
//! hours of wall-clock under a traffic curve that breathes, with several
//! tenants competing under different SLOs, and a chip count that is
//! allowed to follow the load? This crate generates that traffic and
//! frames the result, entirely on the deterministic virtual clock; the
//! run itself is one [`serve_dist_elastic`](flat_serve::serve_dist_elastic)
//! call:
//!
//! * [`DiurnalCurve`] — a time-varying (non-homogeneous) Poisson arrival
//!   process: a base rate modulated by a sinusoidal day/night swing,
//!   sampled exactly via thinning;
//! * [`TenantLoad`] — one tenant's slice of the offered load: traffic
//!   share, fair-queueing weight, preemption priority, prompt/output
//!   shape, optional SLO, and an optional prompt-prefix template (system
//!   prompt / few-shot preamble) the engine's copy-on-write KV pool
//!   dedups across the tenant's requests;
//! * [`FleetSpec`] — the full experiment description, compiled by
//!   [`FleetSpec::generate`] into one merged, arrival-ordered request
//!   stream (10^5–10^6 requests is the intended scale; CI runs small);
//! * [`FleetMetrics`] — the run report, built by [`FleetMetrics::new`]
//!   from the stream, the [`EngineConfig`] and the [`DistServeMetrics`]
//!   that served it (per-tenant accounting, windowed goodput/occupancy
//!   trajectory, scale-event log) plus fleet-level framing and health
//!   findings, serialized to JSON for `flat fleet --json` and the bench
//!   snapshots.
//!
//! The engine holds every run knob: [`EngineConfig`] (prefix dedup,
//! trajectory windows), `DistServeConfig` (chips, topology), `ScalePlan`
//! (elastic resizes) and `FaultPlan` (seeded chaos). Everything is
//! seeded: same spec, same seed, same report — byte for byte. CI holds a
//! determinism smoke to that contract with chaos enabled.
//!
//! # Example
//!
//! ```
//! use flat_arch::Accelerator;
//! use flat_dist::Topology;
//! use flat_fleet::{FleetMetrics, FleetSpec};
//! use flat_serve::{serve_dist_elastic, DistServeConfig, EngineConfig, ScalePlan};
//! use flat_telemetry::NoopSink;
//! use flat_workloads::Model;
//!
//! let model = Model::by_name("bert").unwrap();
//! let accel = Accelerator::edge();
//! let mut spec = FleetSpec::sustained(64); // tiny for the doctest
//! spec.curve.base_rate_per_s = 400.0;
//! let workload = spec.generate(42).unwrap();
//! let mut cfg = EngineConfig::for_platform(&accel, &model, 42);
//! cfg.dedup = true;
//! cfg.window_ms = Some(1_000.0);
//! let one_chip = DistServeConfig::new(1, Topology::Ring);
//! let dist = serve_dist_elastic(
//!     &accel, &model, &workload, &cfg, &one_chip, &ScalePlan::default(), None, &mut NoopSink,
//! )
//! .unwrap();
//! let m = FleetMetrics::new(&workload, &cfg, dist);
//! assert_eq!(m.offered, 64);
//! assert_eq!(
//!     (m.dist.serve.finished + m.dist.serve.dropped),
//!     m.offered,
//!     "conservation"
//! );
//! assert!(!m.dist.serve.windows.is_empty(), "trajectory sampled");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Robustness contract: non-test code in this crate must not carry panic
// paths. The clippy CI step fails on any violation.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use flat_insight::InsightFinding;
use flat_serve::{merge_streams, DistServeMetrics, EngineConfig, RequestSpec, ServeError};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;

/// One tenant's slice of the fleet's offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantLoad {
    /// Tenant id stamped on every generated request.
    pub tenant: u32,
    /// Share of the offered arrivals, in milli-units. Shares are
    /// normalized over the mix, so `(500, 300, 200)` and `(5, 3, 2)`
    /// describe the same split.
    pub share_milli: u32,
    /// Weighted-fair-admission weight, milli-units (1000 = 1.0).
    pub weight_milli: u32,
    /// Preemption priority (higher survives KV pressure longer).
    pub priority: u8,
    /// Mean prompt length, tokens.
    pub prompt_mean: usize,
    /// Mean output length, tokens.
    pub output_mean: usize,
    /// Per-request SLO in milliseconds past arrival; `None` = best
    /// effort.
    pub slo_ms: Option<f64>,
    /// Prompt-prefix template id shared by all of this tenant's
    /// requests; the engine's copy-on-write pool dedups the shared
    /// blocks when [`EngineConfig::dedup`] is set.
    pub prefix_template: Option<u64>,
    /// Shared-prefix length in tokens (clamped per request to its
    /// prompt).
    pub prefix_tokens: usize,
}

/// A sinusoidal day/night arrival-rate curve: a non-homogeneous Poisson
/// process with rate `base · (1 + amplitude · sin(2π·t/period))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DiurnalCurve {
    /// Mean arrival rate, requests per second.
    pub base_rate_per_s: f64,
    /// Swing around the mean, in `[0, 1)`: 0 is flat Poisson, 0.8 means
    /// the peak offers 9x the trough.
    pub amplitude: f64,
    /// Period of one "day" in virtual milliseconds.
    pub period_ms: f64,
}

impl DiurnalCurve {
    /// Instantaneous arrival rate at virtual time `t_ms`, requests/s.
    #[must_use]
    pub fn rate_at(&self, t_ms: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t_ms / self.period_ms;
        self.base_rate_per_s * (1.0 + self.amplitude * phase.sin())
    }

    /// The curve's envelope — the majorizing rate thinning samples
    /// against.
    #[must_use]
    pub fn peak_rate_per_s(&self) -> f64 {
        self.base_rate_per_s * (1.0 + self.amplitude)
    }
}

/// A full sustained-load experiment: how many requests arrive, on what
/// curve, split across which tenants.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSpec {
    /// Total requests offered over the run.
    pub requests: usize,
    /// The arrival-rate curve.
    pub curve: DiurnalCurve,
    /// The tenant mix; must be non-empty with a positive total share.
    pub tenants: Vec<TenantLoad>,
}

impl FleetSpec {
    /// The default three-tenant mix at `requests` total offered load:
    /// an interactive tenant (half the traffic, tight SLO, high
    /// priority, a 96-token shared system prompt), a batch tenant
    /// (30%, long outputs, no SLO), and a background tenant (20%, low
    /// weight and priority). One virtual "day" is 60 s so diurnal
    /// effects show up inside CI-sized runs.
    #[must_use]
    pub fn sustained(requests: usize) -> Self {
        FleetSpec {
            requests,
            curve: DiurnalCurve {
                base_rate_per_s: 200.0,
                amplitude: 0.6,
                period_ms: 60_000.0,
            },
            tenants: vec![
                TenantLoad {
                    tenant: 0,
                    share_milli: 500,
                    weight_milli: 2000,
                    priority: 2,
                    prompt_mean: 128,
                    output_mean: 8,
                    slo_ms: Some(400.0),
                    prefix_template: Some(0xF1EE7),
                    prefix_tokens: 96,
                },
                TenantLoad {
                    tenant: 1,
                    share_milli: 300,
                    weight_milli: 1000,
                    priority: 1,
                    prompt_mean: 64,
                    output_mean: 24,
                    slo_ms: None,
                    prefix_template: None,
                    prefix_tokens: 0,
                },
                TenantLoad {
                    tenant: 2,
                    share_milli: 200,
                    weight_milli: 500,
                    priority: 0,
                    prompt_mean: 32,
                    output_mean: 12,
                    slo_ms: None,
                    prefix_template: None,
                    prefix_tokens: 0,
                },
            ],
        }
    }

    /// Rejects degenerate specs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidWorkload`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.requests == 0 {
            return Err(ServeError::InvalidWorkload(
                "fleet must offer at least one request".to_owned(),
            ));
        }
        if self.tenants.is_empty() {
            return Err(ServeError::InvalidWorkload(
                "fleet needs at least one tenant".to_owned(),
            ));
        }
        if self
            .tenants
            .iter()
            .map(|t| u64::from(t.share_milli))
            .sum::<u64>()
            == 0
        {
            return Err(ServeError::InvalidWorkload(
                "tenant shares must sum to a positive value".to_owned(),
            ));
        }
        for t in &self.tenants {
            if t.prompt_mean == 0 || t.output_mean == 0 {
                return Err(ServeError::InvalidWorkload(format!(
                    "tenant {} has a zero token mean",
                    t.tenant
                )));
            }
            if let Some(slo) = t.slo_ms {
                if !(slo.is_finite() && slo > 0.0) {
                    return Err(ServeError::InvalidWorkload(format!(
                        "tenant {} SLO must be finite and positive",
                        t.tenant
                    )));
                }
            }
        }
        let c = &self.curve;
        if !(c.base_rate_per_s.is_finite() && c.base_rate_per_s > 0.0) {
            return Err(ServeError::InvalidWorkload(
                "base arrival rate must be finite and positive".to_owned(),
            ));
        }
        if !(c.amplitude.is_finite() && (0.0..1.0).contains(&c.amplitude)) {
            return Err(ServeError::InvalidWorkload(
                "diurnal amplitude must lie in [0, 1)".to_owned(),
            ));
        }
        if !(c.period_ms.is_finite() && c.period_ms > 0.0) {
            return Err(ServeError::InvalidWorkload(
                "diurnal period must be finite and positive".to_owned(),
            ));
        }
        Ok(())
    }

    /// Compiles the spec into one merged, arrival-ordered request
    /// stream.
    ///
    /// Arrival instants are drawn from the diurnal curve by thinning:
    /// candidate gaps come from a homogeneous process at the curve's
    /// peak rate and each candidate survives with probability
    /// `rate(t)/peak`, which samples the non-homogeneous process
    /// exactly. Each accepted arrival is then assigned a tenant by a
    /// share-weighted draw and given prompt/output lengths uniform in
    /// `[mean/2, 3·mean/2]` (the same shape `flat-serve`'s
    /// single-tenant generator uses). Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetSpec::validate`].
    pub fn generate(&self, seed: u64) -> Result<Vec<RequestSpec>, ServeError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let peak = self.curve.peak_rate_per_s();
        let total_share: u64 = self.tenants.iter().map(|t| u64::from(t.share_milli)).sum();
        let mut now_ms = 0.0f64;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests {
            // Thinning: propose at the envelope rate, accept at the
            // instantaneous one.
            loop {
                let u: f64 = rng.gen();
                now_ms += -(1.0 - u).ln() / peak * 1e3;
                let accept: f64 = rng.gen();
                if accept * peak <= self.curve.rate_at(now_ms) {
                    break;
                }
            }
            let pick = rng.gen_range(0..total_share);
            let t = pick_tenant(&self.tenants, pick);
            let prompt_len = uniform_about(t.prompt_mean, &mut rng);
            out.push(RequestSpec {
                id,
                arrival_ms: now_ms,
                prompt_len,
                output_len: uniform_about(t.output_mean, &mut rng),
                deadline_ms: t.slo_ms.map(|slo| now_ms + slo),
                tenant: t.tenant,
                priority: t.priority,
                weight_milli: t.weight_milli,
                prefix_template: t.prefix_template,
                prefix_len: t.prefix_tokens.min(prompt_len),
            });
        }
        // Arrivals are already time-ordered; merge_streams re-checks the
        // ordering invariants and re-numbers ids the way the scheduler
        // expects.
        Ok(merge_streams(vec![out]))
    }
}

/// Share-weighted tenant lookup: `pick` is uniform in
/// `[0, total_share)`.
fn pick_tenant(tenants: &[TenantLoad], pick: u64) -> &TenantLoad {
    let mut acc = 0u64;
    for t in tenants {
        acc += u64::from(t.share_milli);
        if pick < acc {
            return t;
        }
    }
    // Unreachable for pick < total_share; the last tenant is a safe
    // fallback that keeps this panic-free.
    &tenants[tenants.len() - 1]
}

/// Uniform in `[mean/2, 3·mean/2]`, floored at 1 token — the same
/// length distribution `flat_serve::WorkloadSpec` draws from.
fn uniform_about(mean: usize, rng: &mut StdRng) -> usize {
    let lo = (mean / 2).max(1);
    let hi = (mean + mean / 2).max(lo + 1);
    rng.gen_range(lo..=hi)
}

/// The fleet run report: the distributed serving metrics plus
/// fleet-level framing.
#[derive(Debug, Clone, Serialize)]
pub struct FleetMetrics {
    /// Seed the run was served under (`EngineConfig::seed`); `flat
    /// fleet` generates its stream under the same seed.
    pub seed: u64,
    /// Requests offered (after any chaos spec corruption).
    pub offered: usize,
    /// Whether copy-on-write prefix dedup was enabled.
    pub dedup: bool,
    /// Virtual hours the run spanned (`makespan / 3600 s`).
    pub virtual_hours: f64,
    /// The full distributed serving report: per-tenant accounting,
    /// windowed trajectory, scale-event log, KV-pool stats.
    pub dist: DistServeMetrics,
    /// Health findings over the windowed trajectory: multi-window SLO
    /// burn-rate breaches and rolling anomalies (goodput dips,
    /// KV-occupancy spikes, drop-rate steps). Deterministic in the
    /// trajectory.
    pub findings: Vec<InsightFinding>,
}

impl FleetMetrics {
    /// Frames one [`serve_dist_elastic`](flat_serve::serve_dist_elastic)
    /// run of `workload` under `cfg`:
    /// the seed and dedup switch come from `cfg`, the offered count from
    /// `workload`, and the virtual hours and health findings from the
    /// served trajectory.
    #[must_use]
    pub fn new(workload: &[RequestSpec], cfg: &EngineConfig, dist: DistServeMetrics) -> Self {
        let virtual_hours = if dist.serve.makespan_ms.is_finite() {
            dist.serve.makespan_ms / 3.6e6
        } else {
            0.0
        };
        let findings =
            flat_insight::analyze_windows(&dist.serve.windows, flat_insight::DEFAULT_ERROR_BUDGET);
        FleetMetrics {
            seed: cfg.seed,
            offered: workload.len(),
            dedup: cfg.dedup,
            virtual_hours,
            dist,
            findings,
        }
    }

    /// Pretty JSON, schema-stable for the CLI and the bench snapshots.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_arch::Accelerator;
    use flat_dist::Topology;
    use flat_serve::{serve_dist_elastic, DistServeConfig, FaultPlan, ScalePlan};
    use flat_telemetry::NoopSink;
    use flat_workloads::Model;

    fn small_spec(requests: usize) -> FleetSpec {
        let mut spec = FleetSpec::sustained(requests);
        spec.curve.base_rate_per_s = 800.0;
        spec.curve.period_ms = 200.0;
        for t in &mut spec.tenants {
            t.prompt_mean = t.prompt_mean.min(48);
            t.output_mean = t.output_mean.min(6);
        }
        spec
    }

    #[test]
    fn diurnal_rate_swings_about_the_base() {
        let c = DiurnalCurve {
            base_rate_per_s: 100.0,
            amplitude: 0.5,
            period_ms: 1000.0,
        };
        assert!((c.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!((c.rate_at(250.0) - 150.0).abs() < 1e-9, "peak at T/4");
        assert!((c.rate_at(750.0) - 50.0).abs() < 1e-9, "trough at 3T/4");
        assert!((c.peak_rate_per_s() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn generate_is_deterministic_and_well_formed() {
        let spec = small_spec(500);
        let a = spec.generate(7).unwrap();
        let b = spec.generate(7).unwrap();
        assert_eq!(a, b, "same seed, same stream");
        let c = spec.generate(8).unwrap();
        assert_ne!(a, c, "the seed must matter");
        assert_eq!(a.len(), 500);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i, "ids are arrival-ordered");
            assert!(r.is_well_formed(), "request {i}");
            assert!(r.prefix_len <= r.prompt_len);
            if i > 0 {
                assert!(r.arrival_ms >= a[i - 1].arrival_ms);
            }
        }
    }

    #[test]
    fn generate_respects_the_tenant_mix() {
        let spec = small_spec(4000);
        let wl = spec.generate(11).unwrap();
        let mut counts = [0usize; 3];
        for r in &wl {
            counts[r.tenant as usize] += 1;
        }
        // Shares are 500/300/200 milli; allow generous sampling noise.
        let frac = |n: usize| n as f64 / wl.len() as f64;
        assert!((frac(counts[0]) - 0.5).abs() < 0.05, "{counts:?}");
        assert!((frac(counts[1]) - 0.3).abs() < 0.05, "{counts:?}");
        assert!((frac(counts[2]) - 0.2).abs() < 0.05, "{counts:?}");
        // The interactive tenant carries its prefix template.
        assert!(wl
            .iter()
            .filter(|r| r.tenant == 0)
            .all(|r| r.prefix_template == Some(0xF1EE7) && r.prefix_len > 0));
    }

    #[test]
    fn diurnal_arrivals_cluster_at_the_peak() {
        // With amplitude 0.9 the first quarter-period (rising toward the
        // peak) must receive visibly more arrivals than the third
        // (falling toward the trough).
        let spec = FleetSpec {
            requests: 2000,
            curve: DiurnalCurve {
                base_rate_per_s: 2000.0,
                amplitude: 0.9,
                period_ms: 500.0,
            },
            tenants: FleetSpec::sustained(1).tenants,
        };
        let wl = spec.generate(3).unwrap();
        let in_phase = |r: &RequestSpec, lo: f64, hi: f64| {
            let t = r.arrival_ms % 500.0;
            t >= lo && t < hi
        };
        let peak_half = wl.iter().filter(|r| in_phase(r, 0.0, 250.0)).count();
        let trough_half = wl.iter().filter(|r| in_phase(r, 250.0, 500.0)).count();
        assert!(
            peak_half > trough_half * 2,
            "peak half {peak_half} vs trough half {trough_half}"
        );
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut s = small_spec(10);
        s.requests = 0;
        assert!(s.validate().is_err());
        let mut s = small_spec(10);
        s.tenants.clear();
        assert!(s.validate().is_err());
        let mut s = small_spec(10);
        for t in &mut s.tenants {
            t.share_milli = 0;
        }
        assert!(s.validate().is_err());
        let mut s = small_spec(10);
        s.curve.amplitude = 1.0;
        assert!(s.validate().is_err(), "amplitude 1 stalls thinning");
        let mut s = small_spec(10);
        s.curve.base_rate_per_s = 0.0;
        assert!(s.validate().is_err());
        let mut s = small_spec(10);
        s.tenants[0].slo_ms = Some(f64::NAN);
        assert!(s.validate().is_err());
    }

    /// Serves `spec` on edge/bert as `flat fleet` does: dedup on,
    /// `window_ms` windows, a `chips`-chip ring resized by `scale`, and
    /// the workload corrupted under `chaos`.
    fn serve_fleet(
        spec: &FleetSpec,
        seed: u64,
        chips: usize,
        window_ms: f64,
        scale: &[(f64, usize)],
        chaos: Option<u64>,
    ) -> FleetMetrics {
        let (accel, model) = (Accelerator::edge(), Model::by_name("bert").unwrap());
        let mut workload = spec.generate(seed).unwrap();
        let faults = chaos.map(FaultPlan::chaos);
        if let Some(plan) = &faults {
            plan.corrupt_workload(&mut workload);
        }
        let mut cfg = EngineConfig::for_platform(&accel, &model, seed);
        cfg.dedup = true;
        cfg.window_ms = Some(window_ms);
        let dist = serve_dist_elastic(
            &accel,
            &model,
            &workload,
            &cfg,
            &DistServeConfig::new(chips, Topology::Ring),
            &ScalePlan::new(scale),
            faults,
            &mut NoopSink,
        )
        .unwrap();
        FleetMetrics::new(&workload, &cfg, dist)
    }

    #[test]
    fn fleet_run_conserves_requests_and_samples_windows() {
        let m = serve_fleet(&small_spec(96), 21, 1, 1_000.0, &[], None);
        assert_eq!(m.offered, 96);
        assert_eq!(m.seed, 21);
        assert!(m.dedup);
        let s = &m.dist.serve;
        assert_eq!(s.finished + s.dropped, m.offered, "conservation");
        assert_eq!(s.drops.total(), s.dropped as u64);
        assert!(!s.windows.is_empty(), "windowed trajectory present");
        assert!(!s.tenants.is_empty(), "per-tenant accounting present");
        assert!(m.virtual_hours > 0.0);
    }

    #[test]
    fn fleet_runs_are_byte_deterministic_even_under_chaos() {
        let spec = small_spec(64);
        let run = || serve_fleet(&spec, 9, 2, 1_000.0, &[(5.0, 4), (40.0, 2)], Some(0xC4A05));
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
        let s = &a.dist.serve;
        assert_eq!(s.finished + s.dropped, a.offered, "chaos conserves");
    }

    #[test]
    fn elastic_plan_is_applied_and_logged() {
        // Fine-grained windows so they straddle the resizes.
        let m = serve_fleet(&small_spec(80), 5, 2, 5.0, &[(2.0, 4), (30.0, 2)], None);
        assert_eq!(m.dist.chips, 2);
        assert!(!m.dist.scale_events.is_empty(), "resizes were applied");
        let up = &m.dist.scale_events[0];
        assert_eq!(up.to_chips, 4);
        assert!(up.applied_ms >= up.at_ms);
        // Scale-up re-stripes existing KV state over the fabric.
        assert!(m.dist.kv_migrated_bytes > 0.0, "migration was priced");
        assert!(m.dist.kv_migration_ms >= 0.0);
        // The window trajectory records the chip count as it changes.
        let chips_seen: std::collections::BTreeSet<usize> =
            m.dist.serve.windows.iter().map(|w| w.chips).collect();
        assert!(
            chips_seen.len() > 1,
            "trajectory spans more than one cluster size: {chips_seen:?}"
        );
    }

    #[test]
    fn dedup_offers_the_same_stream_as_no_dedup() {
        // Dedup must only change KV accounting, never the offered
        // workload: stream generation does not depend on
        // `EngineConfig::dedup`.
        let spec = small_spec(40);
        assert_eq!(spec.generate(13).unwrap(), spec.generate(13).unwrap());
    }

    #[test]
    fn fleet_metrics_serialize() {
        let json = serve_fleet(&small_spec(24), 2, 1, 1_000.0, &[], None).to_json();
        for key in [
            "\"seed\"",
            "\"offered\"",
            "\"dedup\"",
            "\"virtual_hours\"",
            "\"windows\"",
            "\"tenants\"",
            "\"scale_events\"",
            "\"findings\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
