//! `serve-longctx` and `fleet-churn`: the serving engine on two traffic
//! shapes that stress opposite ends of it. Long contexts make decode
//! attention over KV reads (and the per-call pool allocation) dominate;
//! short contexts under a tight KV budget make admission, scheduling,
//! KV writes, preemption and window sampling dominate.

use crate::harness::{debug_hash, Size, Tracer, Workload};
use flat::arch::Accelerator;
use flat::dist::Topology;
use flat::fleet::FleetSpec;
use flat::kernels::{decode_attention_with, MultiHeadInput};
use flat::serve::{
    serve, serve_dist_elastic, BlockTable, DistServeConfig, DistServeMetrics, EngineConfig,
    KvLayout, KvPool, RequestSpec, ScalePlan, ServeError, ServeMetrics, TenantMetrics,
    WorkloadSpec,
};
use flat::telemetry::NoopSink;
use flat::tensor::Bytes;
use flat::workloads::Model;
use std::hint::black_box;

/// Distinct request streams per run; op `i` serves stream `i mod 256`,
/// so a run rarely serves the same stream twice.
const STREAMS: usize = 256;
/// Streams the replay walks after the traced loop.
const REPLAY_STREAMS: usize = 4;

/// Per-layer metrics both serving workloads report.
const SERVE_LAYERS: &[(&str, &str)] = &[
    ("serve.call_ms", "ms"),
    ("serve.ticks", "count"),
    ("serve.prefill_tokens", "count"),
    ("serve.decode_tokens", "count"),
    ("serve.preemptions", "count"),
    ("serve.dropped", "count"),
    ("serve.recompute_ratio", "ratio"),
    ("serve.kv.dedup_hits", "count"),
    ("serve.kv.dedup_ratio", "ratio"),
    ("serve.host_us_per_tick", "us"),
    ("serve.host_us_per_sim_token", "us"),
    ("serve.remainder_ms", "ms"),
    ("serve.kv.pool_new_ms", "ms"),
    ("serve.kv.append_ms", "ms"),
    ("kernels.decode_ms", "ms"),
    ("kernels.decode_gb_per_s", "GB/s"),
    ("serve.sim.ttft_p99_ms", "modeled_ms"),
    ("serve.sim.makespan_ms", "modeled_ms"),
    ("serve.sim.goodput_tok_s", "modeled_tok/s"),
    ("serve.sim.checksum", "sum"),
];

/// Per-layer metrics only the cluster workload reports.
const DIST_LAYERS: &[(&str, &str)] = &[
    ("dist.fabric_busy_ms", "modeled_ms"),
    ("dist.kv_migrated_bytes", "bytes"),
    ("dist.scale_events", "count"),
];

/// Conservation and finiteness of one serving run's report.
fn check_serve(m: &ServeMetrics, offered: usize) -> Result<(), String> {
    if m.requests != offered || m.finished + m.dropped != offered {
        return Err(format!(
            "conservation: offered {offered}, reported {} = {} finished + {} dropped",
            m.requests, m.finished, m.dropped
        ));
    }
    for (name, p) in [("ttft", m.ttft), ("tpot", m.tpot), ("e2e", m.e2e)] {
        let values = [p.p50_ms, p.p95_ms, p.p99_ms, p.mean_ms, p.max_ms];
        if p.nonfinite > 0 || !values.iter().all(|x| x.is_finite()) {
            return Err(format!("{name} latencies are not finite: {p:?}"));
        }
    }
    if !(m.checksum.is_finite() && m.makespan_ms.is_finite()) {
        return Err(format!(
            "checksum {} or makespan {} is not finite",
            m.checksum, m.makespan_ms
        ));
    }
    Ok(())
}

/// Records the engine's own counts and modeled outputs for one op.
fn record_serve(tr: &mut Tracer, m: &ServeMetrics, stream: &[RequestSpec]) {
    let prompt: u64 = stream.iter().map(|r| r.prompt_len as u64).sum();
    tr.add("serve.ticks", m.ticks as f64);
    tr.add("serve.prefill_tokens", m.prefill_tokens as f64);
    tr.add("serve.decode_tokens", m.decode_tokens as f64);
    tr.add("serve.preemptions", m.preemptions as f64);
    tr.add("serve.dropped", m.dropped as f64);
    tr.add(
        "serve.recompute_ratio",
        m.prefill_tokens.saturating_sub(prompt) as f64 / m.prefill_tokens.max(1) as f64,
    );
    tr.add("serve.kv.dedup_hits", m.kv.dedup_hits as f64);
    tr.add(
        "serve.kv.dedup_ratio",
        m.kv.peak_logical_blocks as f64 / m.kv.peak_used_blocks.max(1) as f64,
    );
    tr.add("serve.sim.ttft_p99_ms", m.ttft.p99_ms);
    tr.add("serve.sim.makespan_ms", m.makespan_ms);
    tr.add("serve.sim.goodput_tok_s", m.goodput_tokens_per_s);
    tr.add("serve.sim.checksum", m.checksum);
}

/// Replays the engine's numeric plane for `stream` without its
/// scheduler: a fresh pool of `blocks`, then per request every prompt and
/// generated K/V row appended, and one decode at every context length the
/// engine decodes (the prompt-probe plus one per generated token).
fn kv_replay(tr: &mut Tracer, stream: &[RequestSpec], blocks: usize, cfg: &EngineConfig) {
    let mut pool = tr.span("serve.kv.pool_new_ms", |_| {
        KvPool::new(blocks, cfg.block_tokens, cfg.dk)
    });
    let rows = MultiHeadInput::random(1, 1, 1, 64, cfg.dk, cfg.seed)
        .k
        .remove(0);
    let scale = 1.0 / (cfg.dk as f32).sqrt();
    let (mut append_ms, mut decode_ms, mut bytes) = (0.0, 0.0, 0.0);
    for spec in stream {
        let total = spec.prompt_len + spec.output_len;
        let mut table = BlockTable::new();
        let (fits, ms) = tr.time("serve.kv.append", |_| {
            (0..total).all(|t| {
                let row = rows.row(t % rows.rows());
                pool.try_append(&mut table, row, row)
            })
        });
        append_ms += ms;
        assert!(fits, "the replay pool holds one request at a time");
        let q = rows.row(0);
        let ((), ms) = tr.time("kernels.decode", |_| {
            for ctx in spec.prompt_len..=total {
                black_box(decode_attention_with(
                    q,
                    pool.rows(&table).take(ctx),
                    scale,
                    cfg.precision,
                    cfg.softmax,
                ));
            }
        });
        decode_ms += ms;
        let ctx_rows: usize = (spec.prompt_len..=total).sum();
        bytes += (ctx_rows * 2 * cfg.dk * std::mem::size_of::<f32>()) as f64;
        pool.release(&mut table);
    }
    tr.add("serve.kv.append_ms", append_ms);
    tr.add("kernels.decode_ms", decode_ms);
    tr.add("kernels.decode_bytes", bytes);
}

/// [`SERVE_LAYERS`]'s values, in order.
fn serve_values(tr: &Tracer) -> Vec<f64> {
    let call_ms = tr.mean("serve.call_ms");
    let replayed = tr.mean("serve.kv.pool_new_ms")
        + tr.mean("serve.kv.append_ms")
        + tr.mean("kernels.decode_ms");
    let replay_call_ms = tr.mean("serve.replay_call_ms");
    let sim_tokens = tr.mean("serve.prefill_tokens") + tr.mean("serve.decode_tokens");
    SERVE_LAYERS
        .iter()
        .map(|&(name, _)| match name {
            "serve.host_us_per_tick" => call_ms * 1e3 / tr.mean("serve.ticks"),
            "serve.host_us_per_sim_token" => call_ms * 1e3 / sim_tokens,
            // Derived, not measured: what the replayed layers leave of
            // the call on the same streams.
            "serve.remainder_ms" => replay_call_ms - replayed,
            "kernels.decode_gb_per_s" => {
                tr.mean("kernels.decode_bytes") / (tr.mean("kernels.decode_ms") * 1e6)
            }
            _ => tr.mean(name),
        })
        .collect()
}

/// Pool blocks the engine allocates for `cfg` on `chips` chips.
fn pool_blocks(model: &Model, cfg: &EngineConfig, chips: usize) -> usize {
    KvLayout::for_model(model, cfg.block_tokens).blocks_in_budget(cfg.kv_budget) * chips
}

/// `serve-longctx`: `flat_serve::serve` on cloud/bert with the platform
/// defaults (f32, exact softmax, dedup off, the whole modeled DRAM as KV
/// pool) over 8 Poisson requests at 64 req/s with prompts of 512–1536
/// and outputs of 64–192 tokens.
pub struct ServeLongctx {
    accel: Accelerator,
    model: Model,
    cfg: EngineConfig,
    streams: Vec<Vec<RequestSpec>>,
}

impl ServeLongctx {
    fn call(&self, stream: &[RequestSpec]) -> Result<ServeMetrics, ServeError> {
        serve(&self.accel, &self.model, stream, &self.cfg)
    }
}

impl Workload for ServeLongctx {
    type Out = ServeMetrics;
    const NAME: &'static str = "serve-longctx";
    const TRACE_OPS: usize = 96;

    fn layers() -> Vec<(&'static str, &'static str)> {
        SERVE_LAYERS.to_vec()
    }

    fn setup(seed: u64, size: Size) -> Self {
        let accel = Accelerator::cloud();
        let model = Model::bert();
        let mut cfg = EngineConfig::for_platform(&accel, &model, seed);
        let mut spec = WorkloadSpec {
            requests: 8,
            arrival_rate_per_s: 64.0,
            prompt_mean: 1024,
            output_mean: 128,
            ..WorkloadSpec::default()
        };
        if size == Size::Smoke {
            cfg.kv_budget = Bytes::from_mib(8);
            spec.prompt_mean = 48;
            spec.output_mean = 6;
        }
        let streams = (0..STREAMS as u64)
            .map(|i| {
                spec.generate(seed.wrapping_add(i))
                    .expect("the stream spec is valid")
            })
            .collect();
        ServeLongctx {
            accel,
            model,
            cfg,
            streams,
        }
    }

    fn inputs(&self) -> usize {
        self.streams.len()
    }

    fn run(&self, input: usize, tr: &mut Tracer) -> Result<ServeMetrics, String> {
        tr.span("serve.call_ms", |_| self.call(&self.streams[input]))
            .map_err(|e| e.to_string())
    }

    fn check(&self, input: usize, m: &ServeMetrics, tr: &mut Tracer) -> Result<u64, String> {
        let stream = &self.streams[input];
        check_serve(m, stream.len())?;
        record_serve(tr, m, stream);
        Ok(debug_hash(m))
    }

    fn replay(&self, tr: &mut Tracer) {
        let blocks = pool_blocks(&self.model, &self.cfg, 1);
        for stream in &self.streams[..REPLAY_STREAMS] {
            // The traced loop already checked this stream's result.
            let _ = tr.span("serve.replay_call_ms", |_| self.call(stream));
            kv_replay(tr, stream, blocks, &self.cfg);
        }
    }

    fn layer_values(&self, tr: &Tracer) -> Vec<f64> {
        serve_values(tr)
    }
}

/// `fleet-churn`: `serve_dist_elastic` over the three-tenant sustained
/// fleet mix (1024 requests, diurnal 2000 req/s ± 60 % with a 200 ms
/// period) on a 2-chip ring that scales to 4 chips at 100 ms and back to
/// 2 at 300 ms, with prefix dedup, 10 ms windows and a 24 MiB KV budget.
pub struct FleetChurn {
    accel: Accelerator,
    model: Model,
    cfg: EngineConfig,
    dist: DistServeConfig,
    plan: ScalePlan,
    streams: Vec<Vec<RequestSpec>>,
}

impl FleetChurn {
    fn call(&self, stream: &[RequestSpec]) -> Result<DistServeMetrics, ServeError> {
        serve_dist_elastic(
            &self.accel,
            &self.model,
            stream,
            &self.cfg,
            &self.dist,
            &self.plan,
            None,
            &mut NoopSink,
        )
    }
}

impl Workload for FleetChurn {
    type Out = DistServeMetrics;
    const NAME: &'static str = "fleet-churn";
    const TRACE_OPS: usize = 64;

    fn layers() -> Vec<(&'static str, &'static str)> {
        [SERVE_LAYERS, DIST_LAYERS].concat()
    }

    fn setup(seed: u64, size: Size) -> Self {
        let accel = Accelerator::cloud();
        let model = Model::bert();
        let mut cfg = EngineConfig::for_platform(&accel, &model, seed);
        cfg.dedup = true;
        cfg.window_ms = Some(10.0);
        cfg.kv_budget = Bytes::from_mib(24);
        let requests = match size {
            Size::Full => 1024,
            Size::Smoke => 48,
        };
        let mut spec = FleetSpec::sustained(requests);
        spec.curve.base_rate_per_s = 2000.0;
        spec.curve.amplitude = 0.6;
        spec.curve.period_ms = 200.0;
        let streams = (0..STREAMS as u64)
            .map(|i| {
                spec.generate(seed.wrapping_add(i))
                    .expect("the fleet spec is valid")
            })
            .collect();
        FleetChurn {
            accel,
            model,
            cfg,
            dist: DistServeConfig::new(2, Topology::Ring),
            plan: ScalePlan::new(&[(100.0, 4), (300.0, 2)]),
            streams,
        }
    }

    fn inputs(&self) -> usize {
        self.streams.len()
    }

    fn run(&self, input: usize, tr: &mut Tracer) -> Result<DistServeMetrics, String> {
        tr.span("serve.call_ms", |_| self.call(&self.streams[input]))
            .map_err(|e| e.to_string())
    }

    fn check(&self, input: usize, m: &DistServeMetrics, tr: &mut Tracer) -> Result<u64, String> {
        let stream = &self.streams[input];
        let s = &m.serve;
        check_serve(s, stream.len())?;
        let sum = |f: fn(&TenantMetrics) -> u64| s.tenants.iter().map(f).sum::<u64>();
        let tenant_sums = [
            sum(|t| t.requests as u64),
            sum(|t| t.finished as u64),
            sum(|t| t.dropped as u64),
            sum(|t| t.decode_tokens),
        ];
        let totals =
            [s.requests, s.finished, s.dropped, s.decode_tokens as usize].map(|x| x as u64);
        if tenant_sums != totals {
            return Err(format!(
                "per-tenant sums {tenant_sums:?} differ from the totals {totals:?} \
                 (requests, finished, dropped, decode tokens)"
            ));
        }
        record_serve(tr, s, stream);
        tr.add("dist.fabric_busy_ms", m.fabric_busy_ms);
        tr.add("dist.kv_migrated_bytes", m.kv_migrated_bytes);
        tr.add("dist.scale_events", m.scale_events.len() as f64);
        Ok(debug_hash(m))
    }

    fn replay(&self, tr: &mut Tracer) {
        let blocks = pool_blocks(&self.model, &self.cfg, self.dist.chips);
        for stream in &self.streams[..REPLAY_STREAMS] {
            // The traced loop already checked this stream's result.
            let _ = tr.span("serve.replay_call_ms", |_| self.call(stream));
            kv_replay(tr, stream, blocks, &self.cfg);
        }
    }

    fn layer_values(&self, tr: &Tracer) -> Vec<f64> {
        let mut values = serve_values(tr);
        values.extend(DIST_LAYERS.iter().map(|&(name, _)| tr.mean(name)));
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = ServeLongctx::setup(7, Size::Smoke);
        let b = ServeLongctx::setup(7, Size::Smoke);
        let c = ServeLongctx::setup(8, Size::Smoke);
        assert_eq!(a.streams, b.streams);
        assert_ne!(a.streams[0], c.streams[0]);
        let f = FleetChurn::setup(7, Size::Smoke);
        let g = FleetChurn::setup(7, Size::Smoke);
        let h = FleetChurn::setup(8, Size::Smoke);
        assert_eq!(f.streams, g.streams);
        assert_ne!(f.streams[0], h.streams[0]);
    }
}
