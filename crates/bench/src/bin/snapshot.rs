//! `snapshot` — the benchmark-trajectory harness.
//!
//! Times the hot paths this repo optimizes — the blocked attention
//! kernels, the incremental parallel sweep engine, and the serving decode
//! path — against their naive baselines, and writes the results to a
//! `BENCH_<tag>.json` file at the repo root. One snapshot is committed
//! per performance PR, so the series of files records the performance
//! trajectory of the codebase over time.
//!
//! ```text
//! cargo run --release -p flat-bench --bin snapshot -- [--tag PR2] [--quick] [--out path]
//! ```
//!
//! Schema (`flat-bench-snapshot/v1`): a top-level object with the grid
//! configuration and an `entries` array; each entry carries `group`
//! (`kernel`, `sweep`, `serve`, or `engine`), `name`, `config`, rep
//! counts, `mean_ms` / `min_ms` wall times, and `speedup_vs_baseline`
//! (the baseline entry of each group has speedup 1.0, computed
//! min-over-min).

use flat_bench::args::Args;
use flat_bench::sweep::{buffer_sweep, buffer_sweep_serial};
use flat_dist::{CollectiveAlgo, Link, Partition, Sweep, Topology};
use flat_kernels::{
    decode_attention, flat_attention, flat_attention_with, naive_attention,
    parallel_flat_attention, ComputePrecision, Mask, Mat, MultiHeadInput,
};
use flat_serve::{BlockTable, EngineConfig, KvPool, WorkloadSpec};
use flat_tensor::SoftmaxKind;
use flat_workloads::Task;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Snapshot {
    schema: String,
    tag: String,
    pool_threads: usize,
    cpu_model: String,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Serialize)]
struct Entry {
    group: String,
    name: String,
    config: String,
    reps: u64,
    mean_ms: f64,
    min_ms: f64,
    speedup_vs_baseline: f64,
    /// Numeric deviation from the group's f32 reference output
    /// (max |diff| / max |reference|); `null` outside the precision group.
    max_rel_error: Option<f64>,
}

/// The CPU the wall times were measured on (`/proc/cpuinfo` model name;
/// `"unknown"` where that interface is absent).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Normalized max-abs deviation of `test` from `reference`:
/// `max |t - r| / max |r|` over every element of every head.
fn max_rel_error(test: &[Mat], reference: &[Mat]) -> f64 {
    let mut max_diff = 0f64;
    let mut max_ref = 0f64;
    for (t, r) in test.iter().zip(reference) {
        for i in 0..r.rows() {
            for (tv, rv) in t.row(i).iter().zip(r.row(i)) {
                max_diff = max_diff.max(f64::from(tv - rv).abs());
                max_ref = max_ref.max(f64::from(*rv).abs());
            }
        }
    }
    if max_ref == 0.0 {
        0.0
    } else {
        max_diff / max_ref
    }
}

/// Times `f` over `reps` repetitions (after one untimed warm-up run),
/// keeping a result alive so the work is not optimized out.
fn time<T>(group: &str, name: &str, config: &str, reps: u64, mut f: impl FnMut() -> T) -> Entry {
    let warmup = f();
    drop(warmup);
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(out);
        total += ms;
        min = min.min(ms);
    }
    let entry = Entry {
        group: group.to_owned(),
        name: name.to_owned(),
        config: config.to_owned(),
        reps,
        mean_ms: total / reps as f64,
        min_ms: min,
        speedup_vs_baseline: 1.0,
        max_rel_error: None,
    };
    println!(
        "{:<8} {:<28} mean {:>9.3} ms   min {:>9.3} ms   ({} reps)",
        entry.group, entry.name, entry.mean_ms, entry.min_ms, reps
    );
    entry
}

/// Fills in `speedup_vs_baseline` for a group: baseline min over each
/// entry's min.
fn with_speedups(mut group: Vec<Entry>) -> Vec<Entry> {
    let base = group[0].min_ms;
    for e in &mut group {
        e.speedup_vs_baseline = base / e.min_ms;
    }
    group
}

fn kernel_entries(args: &Args, quick: bool) -> Vec<Entry> {
    // At 4K the baseline's full logit matrix (seq² × 4 B = 64 MiB) falls
    // out of the cache hierarchy, while FLAT's row tile stays resident —
    // the memory-traffic gap the paper targets, visible on one core.
    let (default_seq, reps) = if quick { (256, 2) } else { (4096, 3) };
    let seq = args.get_u64("seq", default_seq) as usize;
    let tile = args.get_u64("tile", 64) as usize;
    let (batch, heads, dk) = (1, 4, 64);
    let config = format!("batch={batch} heads={heads} seq={seq} dk={dk} f32");
    let input = MultiHeadInput::random(batch, heads, seq, seq, dk, 0xF1A7);
    let entries = vec![
        time("kernel", "naive_attention", &config, reps, || {
            naive_attention(&input, Mask::None)
        }),
        time(
            "kernel",
            "flat_attention",
            &format!("{config} rows_per_tile={tile}"),
            reps,
            || flat_attention(&input, tile, Mask::None),
        ),
        time(
            "kernel",
            "parallel_flat_attention",
            &format!("{config} rows_per_tile={tile}"),
            reps,
            || parallel_flat_attention(&input, tile, Mask::None),
        ),
    ];
    with_speedups(entries)
}

/// The mixed-precision kernel family at the paper's 4K evaluation point:
/// bf16/f16 storage rounding ahead of the f32 walk and the exp/div-free
/// softmax variants, against the naive f32 baseline. Each reduced
/// precision entry also records its numeric deviation from that baseline
/// (`max_rel_error`), so the speedup and the accuracy cost are one
/// record.
fn precision_entries(args: &Args, quick: bool) -> Vec<Entry> {
    let (default_seq, reps) = if quick { (256, 2) } else { (4096, 3) };
    let seq = args.get_u64("seq", default_seq) as usize;
    let tile = args.get_u64("tile", 64) as usize;
    let (batch, heads, dk) = (1, 4, 64);
    let config = format!("batch={batch} heads={heads} seq={seq} dk={dk} rows_per_tile={tile}");
    let input = MultiHeadInput::random(batch, heads, seq, seq, dk, 0xF1A7);
    let reference = naive_attention(&input, Mask::None);
    let mut entries = vec![time("precision", "naive_f32", &config, reps, || {
        naive_attention(&input, Mask::None)
    })];
    for (name, precision, kind) in [
        ("flat_f32_exact", ComputePrecision::F32, SoftmaxKind::Exact),
        (
            "flat_bf16_flash_d",
            ComputePrecision::Bf16,
            SoftmaxKind::FlashD,
        ),
        (
            "flat_bf16_log_lut",
            ComputePrecision::Bf16,
            SoftmaxKind::LogLut,
        ),
        (
            "flat_f16_flash_d",
            ComputePrecision::F16,
            SoftmaxKind::FlashD,
        ),
        (
            "flat_int8_flash_d",
            ComputePrecision::Int8,
            SoftmaxKind::FlashD,
        ),
    ] {
        let mut e = time("precision", name, &config, reps, || {
            flat_attention_with(&input, tile, Mask::None, precision, kind)
        });
        let out = flat_attention_with(&input, tile, Mask::None, precision, kind);
        e.max_rel_error = Some(max_rel_error(&out, &reference));
        entries.push(e);
    }
    with_speedups(entries)
}

fn sweep_entries(quick: bool) -> Vec<Entry> {
    let reps = if quick { 1 } else { 2 };
    let platform = flat_bench::platform("edge");
    let model = flat_bench::model("bert");
    let seqs: Vec<u64> = if quick { vec![256] } else { vec![256, 512] };
    let sgs = flat_bench::sg_sweep(true);
    let config = format!("edge/bert seqs={:?} sg_points={}", seqs, sgs.len());
    let entries = vec![
        time("sweep", "buffer_sweep_serial", &config, reps, || {
            buffer_sweep_serial(&platform, &model, &seqs, &sgs)
        }),
        time("sweep", "buffer_sweep", &config, reps, || {
            buffer_sweep(&platform, &model, &seqs, &sgs)
        }),
    ];
    with_speedups(entries)
}

/// The serving decode path: generating `steps` tokens on top of a cached
/// prefix. The baseline recomputes the whole prefix's attention from
/// scratch every step (`O(L²)` per token — what a runtime without a KV
/// cache pays); the paged path appends one K/V row and folds it online
/// (`O(L)` per token), exactly what the `flat-serve` engine executes.
fn serve_entries(quick: bool) -> Vec<Entry> {
    let (ctx0, steps, dk, reps) = if quick {
        (64, 16, 64, 2)
    } else {
        (256, 64, 64, 3)
    };
    let total = ctx0 + steps;
    let input = MultiHeadInput::random(1, 1, total, total, dk, 0x5E17E);
    let scale = input.scale();
    let config = format!("context={ctx0} steps={steps} dk={dk} f32");
    let entries = vec![
        time("serve", "decode_recompute_naive", &config, reps, || {
            // No KV cache: every generated token re-runs full-prefix
            // causal attention and keeps only the last row.
            let mut last = Vec::new();
            for step in 0..steps {
                let len = ctx0 + step + 1;
                let mut prefix = MultiHeadInput::random(1, 1, 1, 1, dk, 0);
                prefix.seq_q = len;
                prefix.seq_kv = len;
                prefix.q[0] = input.q[0].row_slice(0, len);
                prefix.k[0] = input.k[0].row_slice(0, len);
                prefix.v[0] = input.v[0].row_slice(0, len);
                let out = naive_attention(&prefix, Mask::Causal);
                last = out[0].row(len - 1).to_vec();
            }
            last
        }),
        time("serve", "decode_attention_paged", &config, reps, || {
            // Paged KV cache: append one row per step, one online pass.
            let mut pool = KvPool::new(total.div_ceil(16), 16, dk);
            let mut table = BlockTable::new();
            for j in 0..ctx0 {
                assert!(pool.try_append(&mut table, input.k[0].row(j), input.v[0].row(j)));
            }
            let mut last = Vec::new();
            for step in 0..steps {
                let j = ctx0 + step;
                assert!(pool.try_append(&mut table, input.k[0].row(j), input.v[0].row(j)));
                last = decode_attention(input.q[0].row(j), pool.rows(&table), scale);
            }
            last
        }),
    ];
    with_speedups(entries)
}

/// End-to-end engine throughput: a full continuous-batching run (paged
/// cache, admission, mixed prefill/decode ticks). No baseline — the entry
/// tracks absolute wall time across PRs.
fn engine_entries(quick: bool) -> Vec<Entry> {
    let (requests, reps) = if quick { (16, 1) } else { (64, 2) };
    let accel = flat_bench::platform("cloud");
    let model = flat_bench::model("bert");
    let spec = WorkloadSpec {
        requests,
        arrival_rate_per_s: 256.0,
        prompt_mean: 128,
        output_mean: 16,
        slo_ms: None,
        ..WorkloadSpec::default()
    };
    let workload = spec.generate(0xF1A7).expect("benchmark workload is valid");
    let cfg = EngineConfig::for_platform(&accel, &model, 0xF1A7);
    let config = format!("cloud/bert requests={requests} prompt≈128 output≈16");
    with_speedups(vec![time("engine", "serve_engine", &config, reps, || {
        flat_serve::serve(&accel, &model, &workload, &cfg)
            .expect("benchmark workload must serve cleanly")
    })])
}

/// The distributed scaling trajectory: one attention layer of the
/// paper's 64K-token summarization preset, sharded head-parallel across
/// a chip sweep. Unlike the other groups these entries record *modeled*
/// layer latency (the `flat-dist` analytical cost, per-shard dataflow
/// re-searched at every cluster size), not wall time —
/// `speedup_vs_baseline` is therefore the modeled chip-scaling speedup
/// over the 1-chip point.
///
/// Two families: the PR 4 serial ring-algorithm entries on ring /
/// fully-connected fabrics (the pinned baseline), and per-chip
/// `joint-best` entries from the full topology × collective-algorithm
/// search under serial and overlapped tick pricing.
fn dist_entries(quick: bool) -> Vec<Entry> {
    let task = Task::Summarization;
    let seq = task.sequence_length();
    let accel = flat_bench::platform("cloud");
    let model = flat_bench::model("bert");
    let cfg = model.config(1, seq);
    let chips: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let topologies = [Topology::Ring, Topology::FullyConnected];
    let points = Sweep::new(accel.clone(), Link::cloud()).run(
        &cfg,
        chips,
        &topologies,
        &[Partition::HeadParallel],
    );
    // Baseline first: the ring series' 1-chip point (identical to the
    // fully-connected one — no fabric at one chip).
    let mut entries = Vec::new();
    let mut push = |name: String, config: String, total_ms: f64| {
        let entry = Entry {
            group: "dist".to_owned(),
            name,
            config,
            reps: 1,
            mean_ms: total_ms,
            min_ms: total_ms,
            speedup_vs_baseline: 1.0,
            max_rel_error: None,
        };
        println!(
            "{:<8} {:<28} mean {:>9.3} ms   min {:>9.3} ms   (modeled)",
            entry.group, entry.name, entry.mean_ms, entry.min_ms
        );
        entries.push(entry);
    };
    for topology in topologies {
        for p in flat_dist::series(
            &points,
            topology,
            CollectiveAlgo::Ring,
            Partition::HeadParallel,
        ) {
            push(
                format!("{topology}/head-parallel/{}chips", p.chips),
                format!(
                    "modeled cloud/bert task=summarization seq={seq} batch=1 dataflow={} fabric={:.0}%",
                    p.dataflow,
                    p.fabric_fraction * 100.0
                ),
                p.total_ms,
            );
        }
    }
    // The joint search: every topology × algorithm, overlap off and on.
    let joint = Sweep::new(accel, Link::cloud()).with_algos(CollectiveAlgo::all().to_vec());
    for (label, overlap) in [("serial", false), ("overlap", true)] {
        let pts = joint.clone().with_overlap(overlap).run(
            &cfg,
            chips,
            &Topology::all(),
            &[Partition::HeadParallel],
        );
        for &p in chips {
            let Some(w) = flat_dist::best_joint(&pts, p) else {
                continue;
            };
            push(
                format!("joint-best-{label}/head-parallel/{p}chips"),
                format!(
                    "modeled cloud/bert task=summarization seq={seq} batch=1 dataflow={} topology={} algo={} fabric={:.0}%",
                    w.dataflow,
                    w.topology,
                    w.algo,
                    w.fabric_fraction * 100.0
                ),
                w.total_ms,
            );
        }
    }
    with_speedups(entries)
}

/// The fleet-serving trajectory. Two claims, both *modeled* quantities
/// (like the `dist` group) rather than wall times:
///
/// * **Prefix-dedup capacity** — a shared-prefix workload (32
///   concurrent requests, 96 of 112 prompt tokens shared) served with
///   the copy-on-write pool off and on. The entries record *peak
///   physical KV blocks*, so `speedup_vs_baseline` on the dedup-on
///   entry is the per-request KV-occupancy reduction (≥ 2x when ≥ half
///   the resident tokens are shared).
/// * **Elastic goodput** — a sustained multi-tenant diurnal run with a
///   mid-run scale-up/scale-down; the entry records the modeled
///   makespan and carries the windowed goodput trajectory (with the
///   chip count per window) in its config string.
fn fleet_entries(quick: bool) -> Vec<Entry> {
    let accel = flat_bench::platform("cloud");
    let model = flat_bench::model("bert");
    // Prefix-dedup capacity pair.
    let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 32, 4000.0);
    spec.prompt_mean = 112;
    spec.output_mean = 8;
    spec.prefix_template = Some(0xF1EE7);
    spec.prefix_tokens = 96;
    let workload = spec.generate(0xF1A7).expect("benchmark workload is valid");
    let mut entries = Vec::new();
    let mut push = |name: String, config: String, value: f64| {
        let entry = Entry {
            group: "fleet".to_owned(),
            name,
            config,
            reps: 1,
            mean_ms: value,
            min_ms: value,
            speedup_vs_baseline: 1.0,
            max_rel_error: None,
        };
        println!(
            "{:<8} {:<28} mean {:>9.3}      min {:>9.3}      (modeled)",
            entry.group, entry.name, entry.mean_ms, entry.min_ms
        );
        entries.push(entry);
    };
    for (name, dedup) in [
        ("kv_peak_blocks_dedup_off", false),
        ("kv_peak_blocks_dedup_on", true),
    ] {
        let mut cfg = EngineConfig::for_platform(&accel, &model, 0xF1A7);
        cfg.dedup = dedup;
        let m = flat_serve::serve(&accel, &model, &workload, &cfg)
            .expect("benchmark workload must serve cleanly");
        push(
            name.to_owned(),
            format!(
                "modeled peak physical KV blocks (not ms); cloud/bert 32 requests prompt≈112 \
                 prefix=96 output≈8 dedup_hits={} peak_logical={}",
                m.kv.dedup_hits, m.kv.peak_logical_blocks
            ),
            m.kv.peak_occupancy * m.kv.total_blocks as f64,
        );
    }
    // Elastic goodput trajectory.
    let requests = if quick { 96 } else { 512 };
    let mut fspec = flat_fleet::FleetSpec::sustained(requests);
    fspec.curve.base_rate_per_s = 800.0;
    fspec.curve.period_ms = 200.0;
    let fcfg = flat_fleet::FleetConfig {
        chips: 2,
        window_ms: 10.0,
        scale: vec![(20.0, 4), (120.0, 2)],
        ..flat_fleet::FleetConfig::default()
    };
    let m = flat_fleet::run_fleet(
        &accel,
        &model,
        &fspec,
        &fcfg,
        0xF1A7,
        &mut flat_telemetry::NoopSink,
    )
    .expect("fleet benchmark must serve cleanly");
    let trajectory: Vec<String> = m
        .dist
        .serve
        .windows
        .iter()
        .map(|w| {
            format!(
                "({:.0}ms,{:.0}tok/s,{}ch)",
                w.end_ms, w.goodput_tokens_per_s, w.chips
            )
        })
        .collect();
    push(
        "elastic_goodput_makespan".to_owned(),
        format!(
            "modeled makespan ms; cloud/bert {} requests 3 tenants diurnal scale=2->4->2 \
             migrated_bytes={:.0} goodput_windows=[{}]",
            requests,
            m.dist.kv_migrated_bytes,
            trajectory.join(",")
        ),
        m.dist.serve.makespan_ms,
    );
    // Speedups only make sense within the dedup pair: the baseline is
    // the dedup-off peak, so the dedup-on entry's speedup is the
    // per-request KV-occupancy reduction. The makespan entry tracks an
    // absolute trajectory and keeps speedup 1.0.
    let trajectory_entry = entries.pop().expect("entry pushed above");
    let mut out = with_speedups(entries);
    out.push(trajectory_entry);
    out
}

/// The model-validation trajectory: the `flat-desim` event backend
/// cross-checking the closed-form cost model. Wall time records what the
/// cross-check itself costs next to the analytical pricing it validates;
/// `max_rel_error` reuses the deviation column for each configuration's
/// relative divergence — near zero on the uncontended config, large by
/// design on the contended one (one staging buffer; see EXPERIMENTS.md,
/// "Model validation").
fn validation_entries(quick: bool) -> Vec<Entry> {
    use flat_core::{CostModel, FusedDataflow, Granularity, LaExecution};
    use flat_desim::{agreement, simulate_la_event, EventOptions};
    let (seq, reps) = if quick { (512, 1) } else { (4096, 3) };
    let accel = flat_bench::platform("edge");
    let model = flat_bench::model("bert");
    let block = model.block(64, seq);
    let la = LaExecution::Fused(FusedDataflow::new(Granularity::Row(64)));
    let cm = CostModel::new(&accel);
    let config = format!("edge/bert seq={seq} dataflow=flat-r64");
    let mut entries = vec![time(
        "validation",
        "analytical_pricing",
        &config,
        reps,
        || cm.la_cost(&block, &la),
    )];
    for (name, buffers) in [("event_backend", 2u32), ("event_backend_contended", 1)] {
        let opts = EventOptions {
            buffers,
            ..Default::default()
        };
        let mut e = time(
            "validation",
            name,
            &format!("{config} buffers={buffers}"),
            reps,
            || simulate_la_event(&accel, &block, &la, opts).expect("wiring is sound"),
        );
        let a = agreement(&accel, &block, &la, opts).expect("wiring is sound");
        e.max_rel_error = Some(a.divergence.abs());
        entries.push(e);
    }
    with_speedups(entries)
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let tag = args.get("tag", "PR9");
    let out_path = args.get("out", &format!("BENCH_{tag}.json"));

    let mut entries = kernel_entries(&args, quick);
    entries.extend(precision_entries(&args, quick));
    entries.extend(sweep_entries(quick));
    entries.extend(serve_entries(quick));
    entries.extend(engine_entries(quick));
    entries.extend(dist_entries(quick));
    entries.extend(fleet_entries(quick));
    entries.extend(validation_entries(quick));

    let snapshot = Snapshot {
        schema: "flat-bench-snapshot/v1".to_owned(),
        tag,
        pool_threads: rayon::current_num_threads(),
        cpu_model: cpu_model(),
        entries,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out_path, json + "\n").expect("write snapshot file");
    println!("wrote {out_path}");
}
