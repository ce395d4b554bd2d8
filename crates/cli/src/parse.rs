//! Shared argument resolution for the CLI commands.

use flat_arch::Accelerator;
use flat_bench::args::Args;
use flat_core::BlockDataflow;
use flat_dse::{Objective, SpaceKind};
use flat_serve::{EngineConfig, FaultPlan, RequestSpec, WorkloadSpec};
use flat_tensor::Bytes;
use flat_workloads::{AttentionBlock, Model, Scope};

/// A resolved (accelerator, workload) pair.
pub struct Setup {
    pub accel: Accelerator,
    pub model: Model,
    pub block: AttentionBlock,
    pub batch: u64,
    pub seq: u64,
}

/// Resolves the platform/model/seq/batch arguments, applying overrides.
pub fn setup(args: &Args) -> Result<Setup, String> {
    let accel = accelerator(args)?;
    let model = if let Some(path) = optional(args, "model-json") {
        model_from_json(&path)?
    } else {
        let name = args.get("model", "bert");
        Model::by_name(&name).ok_or_else(|| format!("unknown model {name:?}"))?
    };
    let batch = positive_u64_arg(args, "batch", 64)?;
    let seq = positive_u64_arg(args, "seq", 4096)?;
    check_macs(&model, batch, seq)?;
    let block = model.block(batch, seq);
    Ok(Setup {
        accel,
        model,
        block,
        batch,
        seq,
    })
}

/// Most MACs a shape may count over all of the model's blocks: 2^60.
/// The cost model counts MACs, accesses and energy in `u64`, at up to a
/// few times the MAC count, so the largest accepted shape stays 8x clear
/// of overflow.
const MAX_MODEL_MACS: u64 = 1 << 60;

/// MACs over every block of `model` at `(batch, seq)`, or `None` past
/// `u64`. A block is `2·batch·seq·hidden·(seq + 2·hidden + ffn)`: the
/// L-A pair's `2·batch·seq²·hidden`, the four projections and the FFN.
fn model_macs(model: &Model, batch: u64, seq: u64) -> Option<u64> {
    let (hidden, ffn) = (model.hidden(), model.ffn_hidden());
    let width = seq.checked_add(hidden.checked_mul(2)?)?.checked_add(ffn)?;
    [batch, seq, hidden, width, model.blocks()]
        .into_iter()
        .try_fold(2u64, u64::checked_mul)
}

/// Rejects a shape past [`MAX_MODEL_MACS`] before any of its sizes is
/// multiplied out.
fn check_macs(model: &Model, batch: u64, seq: u64) -> Result<(), String> {
    match model_macs(model, batch, seq) {
        Some(macs) if macs <= MAX_MODEL_MACS => Ok(()),
        macs => Err(format!(
            "--seq {seq} at --batch {batch} is {} MACs for a {}-block model of hidden size {}, \
             past the 2^60 limit",
            macs.map_or_else(|| "over 2^64".to_owned(), |m| m.to_string()),
            model.blocks(),
            model.hidden()
        )),
    }
}

/// Integer value of `--key` with a one-line diagnostic instead of the
/// panic `Args::get_u64` carries — CLI input must never unwind.
pub fn u64_arg(args: &Args, key: &str, default: u64) -> Result<u64, String> {
    match optional(args, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key} expects a non-negative integer, got {raw:?}")),
    }
}

/// Like [`u64_arg`], but zero is a diagnostic too.
fn positive_u64_arg(args: &Args, key: &str, default: u64) -> Result<u64, String> {
    match u64_arg(args, key, default)? {
        0 => Err(format!("--{key} expects a positive integer, got 0")),
        v => Ok(v),
    }
}

/// Optional integer `--key`: `Ok(None)` when absent, a diagnostic when
/// present but malformed.
pub fn opt_u64_arg(args: &Args, key: &str) -> Result<Option<u64>, String> {
    match optional(args, key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("--{key} expects a non-negative integer, got {raw:?}")),
    }
}

/// Optional float `--key`: `Ok(None)` when absent, a diagnostic when
/// present but malformed or non-finite.
pub fn opt_f64_arg(args: &Args, key: &str) -> Result<Option<f64>, String> {
    match optional(args, key) {
        None => Ok(None),
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Some(v)),
            _ => Err(format!("--{key} expects a finite number, got {raw:?}")),
        },
    }
}

/// Loads a HuggingFace-style config file: `hidden_size`,
/// `num_attention_heads`, `num_hidden_layers`, `intermediate_size`
/// (falling back to `4 * hidden_size` when absent, as HF does for models
/// that omit it).
pub fn model_from_json(path: &str) -> Result<Model, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let get = |key: &str| -> Option<u64> { v.get(key).and_then(serde_json::Value::as_u64) };
    let hidden = get("hidden_size")
        .or_else(|| get("d_model"))
        .ok_or_else(|| format!("{path}: missing hidden_size/d_model"))?;
    let heads = get("num_attention_heads")
        .or_else(|| get("num_heads"))
        .ok_or_else(|| format!("{path}: missing num_attention_heads"))?;
    let blocks = get("num_hidden_layers")
        .or_else(|| get("num_layers"))
        .ok_or_else(|| format!("{path}: missing num_hidden_layers"))?;
    let ffn = get("intermediate_size")
        .or_else(|| get("d_ff"))
        .unwrap_or(hidden.saturating_mul(4));
    if hidden == 0 || heads == 0 || blocks == 0 || ffn == 0 {
        return Err(format!(
            "{path}: hidden size, heads, layers and FFN size must be positive \
             (got {hidden}, {heads}, {blocks}, {ffn})"
        ));
    }
    if hidden % heads != 0 {
        return Err(format!(
            "{path}: hidden_size {hidden} not divisible by {heads} heads"
        ));
    }
    Ok(Model::custom(blocks, heads, hidden, ffn))
}

/// Resolves the accelerator: a platform preset or a JSON file, plus knob
/// overrides.
pub fn accelerator(args: &Args) -> Result<Accelerator, String> {
    let mut accel = if let Some(path) = optional(args, "accel-json") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        match args.get("platform", "edge").as_str() {
            "edge" => Accelerator::edge(),
            "cloud" => Accelerator::cloud(),
            other => return Err(format!("unknown platform {other:?} (edge|cloud)")),
        }
    };
    if let Some(kib) = optional(args, "sg-kib") {
        let kib: u64 = kib
            .parse()
            .map_err(|_| "--sg-kib expects an integer".to_owned())?;
        let bytes = kib
            .checked_mul(1 << 10)
            .ok_or_else(|| format!("--sg-kib {kib} is past 2^64 bytes"))?;
        accel = accel.with_sg(Bytes::new(bytes));
    }
    if let Some(gbps) = optional(args, "offchip-gbps") {
        let gbps: f64 = gbps
            .parse()
            .map_err(|_| "--offchip-gbps expects a number".to_owned())?;
        accel = accel.with_offchip_bw(gbps * 1e9);
    }
    Ok(accel)
}

/// Parses a dataflow label (`base`, `base-m|b|h`, `flat-m|b|h`,
/// `flat-rN`, `flat-tBxHxrN`) via [`BlockDataflow`]'s `FromStr`.
pub fn dataflow(label: &str) -> Result<BlockDataflow, String> {
    label
        .parse()
        .map_err(|e: flat_core::ParseDataflowError| e.to_string())
}

/// Model-option flags shared by `cost`/`sim`/`trace`:
/// `--no-double-buffer`, `--serial-softmax`, `--softmax KIND`.
///
/// # Errors
///
/// Propagates an unrecognized `--softmax` value.
pub fn model_options(args: &Args) -> Result<flat_core::ModelOptions, String> {
    Ok(flat_core::ModelOptions {
        double_buffered: !args.flag("no-double-buffer"),
        overlap_softmax: !args.flag("serial-softmax"),
        softmax: softmax_kind(args)?,
    })
}

/// Parses `--softmax exact|flash-d|log-lut` (default `exact`).
///
/// # Errors
///
/// Lists the valid kinds when the value matches none.
pub fn softmax_kind(args: &Args) -> Result<flat_tensor::SoftmaxKind, String> {
    match optional(args, "softmax") {
        None => Ok(flat_tensor::SoftmaxKind::Exact),
        Some(s) => flat_tensor::SoftmaxKind::parse(&s),
    }
}

/// The workload half of the serving flags `flat serve` and `flat dist
/// --requests` share: `--arrival-rate`, `--task`, `--prompt`, `--output`,
/// `--slo-ms`. Returns the workload spec and the request stream it
/// generates under `seed`.
///
/// # Errors
///
/// A one-line diagnostic for any malformed value.
pub fn workload(
    args: &Args,
    requests: usize,
    seed: u64,
) -> Result<(WorkloadSpec, Vec<RequestSpec>), String> {
    let rate: f64 = args
        .get("arrival-rate", "64")
        .parse()
        .map_err(|_| "--arrival-rate expects a number (requests/s)".to_owned())?;
    if !(rate > 0.0 && rate.is_finite()) {
        return Err("--arrival-rate must be positive".to_owned());
    }
    let task = flat_serve::task_by_name(&args.get("task", "short-nlp"))?;
    let mut spec = WorkloadSpec::from_task(task, requests, rate);
    if let Some(prompt) = opt_u64_arg(args, "prompt")? {
        spec.prompt_mean = prompt as usize;
    }
    if let Some(output) = opt_u64_arg(args, "output")? {
        spec.output_mean = output as usize;
    }
    spec.slo_ms = opt_f64_arg(args, "slo-ms")?;
    let workload = spec.generate(seed).map_err(|e| e.to_string())?;
    Ok((spec, workload))
}

/// The engine half of the serving flags, shared by `flat serve`, `flat
/// dist --requests` and `flat fleet`: `--kv-mib`, `--block-tokens`,
/// `--chunk`, `--max-batch`, `--precision`, `--softmax`,
/// `--dedup`/`--no-dedup` (`--no-dedup` wins), `--window-ms` and
/// `--chaos SEED`.
///
/// `cfg` carries the command's defaults; each flag given overrides its
/// knob. Under `--chaos` the fault plan also corrupts `workload`, the one
/// place a served stream is corrupted.
///
/// # Errors
///
/// A one-line diagnostic for any malformed value.
pub fn engine(
    args: &Args,
    mut cfg: EngineConfig,
    workload: &mut [RequestSpec],
) -> Result<(EngineConfig, Option<FaultPlan>), String> {
    cfg.block_tokens = u64_arg(args, "block-tokens", cfg.block_tokens as u64)? as usize;
    cfg.prefill_chunk = u64_arg(args, "chunk", cfg.prefill_chunk as u64)? as usize;
    cfg.max_batch = u64_arg(args, "max-batch", cfg.max_batch as u64)? as usize;
    if let Some(mib) = opt_u64_arg(args, "kv-mib")? {
        let bytes = mib
            .checked_mul(1 << 20)
            .ok_or_else(|| format!("--kv-mib {mib} is past 2^64 bytes"))?;
        cfg.kv_budget = Bytes::new(bytes);
    }
    if let Some(p) = optional(args, "precision") {
        cfg.precision = flat_serve::ComputePrecision::parse(&p)?;
    }
    if let Some(s) = optional(args, "softmax") {
        cfg.softmax = flat_tensor::SoftmaxKind::parse(&s)?;
    }
    cfg.dedup = (cfg.dedup || args.flag("dedup")) && !args.flag("no-dedup");
    cfg.window_ms = opt_f64_arg(args, "window-ms")?.or(cfg.window_ms);
    let faults = opt_u64_arg(args, "chaos")?.map(FaultPlan::chaos);
    if let Some(plan) = &faults {
        plan.corrupt_workload(workload);
    }
    Ok((cfg, faults))
}

/// Parses a scope label.
pub fn scope(args: &Args) -> Result<Scope, String> {
    match args.get("scope", "la").as_str() {
        "la" | "l-a" => Ok(Scope::LogitAttend),
        "block" => Ok(Scope::Block),
        "model" => Ok(Scope::Model),
        other => Err(format!("unknown scope {other:?} (la|block|model)")),
    }
}

/// A `--space` value: a dataflow search space, or one of `flat dse`'s
/// two sweeps.
pub enum Space {
    Search(SpaceKind),
    Precision,
    Collective,
}

/// Parses a `--space` label (`base|base-m|fused|full|precision|collective`).
pub fn space(label: &str) -> Result<Space, String> {
    match label {
        "base" | "sequential" => Ok(Space::Search(SpaceKind::Sequential)),
        "base-m" => Ok(Space::Search(SpaceKind::SequentialMGran)),
        "fused" => Ok(Space::Search(SpaceKind::Fused)),
        "full" => Ok(Space::Search(SpaceKind::Full)),
        "precision" => Ok(Space::Precision),
        "collective" => Ok(Space::Collective),
        other => Err(format!(
            "unknown space {other:?} (base|base-m|fused|full|precision|collective)"
        )),
    }
}

/// Parses an objective label.
pub fn objective(args: &Args) -> Result<Objective, String> {
    match args.get("objective", "max-util").as_str() {
        "max-util" => Ok(Objective::MaxUtil),
        "min-energy" => Ok(Objective::MinEnergy),
        "min-edp" => Ok(Objective::MinEdp),
        "min-footprint" => Ok(Objective::MinFootprint),
        "util-per-footprint" => Ok(Objective::UtilPerFootprint),
        other => Err(format!("unknown objective {other:?}")),
    }
}

/// Which engine `flat sim` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBackend {
    /// The closed-form cost model only (the default).
    Analytical,
    /// The `flat-desim` discrete-event backend only.
    Event,
    /// Both, reporting per-configuration relative divergence.
    Both,
}

impl SimBackend {
    /// Parses a `--engine` value.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "analytical" => Ok(SimBackend::Analytical),
            "event" => Ok(SimBackend::Event),
            "both" => Ok(SimBackend::Both),
            other => Err(format!(
                "unknown engine '{other}' (expected analytical, event, or both)"
            )),
        }
    }
}

fn optional(args: &Args, key: &str) -> Option<String> {
    let v = args.get(key, "\u{0}");
    if v == "\u{0}" {
        None
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_macs_sum_the_block_operators() {
        for model in Model::suite() {
            for (batch, seq) in [(1, 1), (64, 4096), (3, 777)] {
                let block = model.block(batch, seq);
                assert_eq!(
                    model_macs(&model, batch, seq),
                    Some(block.total_macs() * model.blocks()),
                    "{model} batch {batch} seq {seq}"
                );
            }
        }
        assert_eq!(model_macs(&Model::bert(), u64::MAX, 1), None);
    }

    #[test]
    fn dataflow_labels_parse() {
        assert_eq!(dataflow("base").unwrap().label(), "Base");
        assert_eq!(dataflow("base-h").unwrap().label(), "Base-H");
        assert_eq!(dataflow("flat-r64").unwrap().label(), "FLAT-R64");
        assert_eq!(dataflow("FLAT-M").unwrap().label(), "FLAT-M");
        assert!(dataflow("base-r64").is_err());
        assert!(dataflow("nope").is_err());
    }

    #[test]
    fn accelerator_overrides_apply() {
        let args = flat_bench::args::Args::parse_from(
            [
                "--platform",
                "cloud",
                "--sg-kib",
                "1024",
                "--offchip-gbps",
                "100",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        let a = accelerator(&args).unwrap();
        assert_eq!(a.sg, Bytes::from_kib(1024));
        assert_eq!(a.mem.offchip_bytes_per_s, 100.0e9);
        assert_eq!(a.pe.count(), 65536);
    }

    #[test]
    fn hf_config_loads() {
        let path = std::env::temp_dir().join("flat_cli_test_model.json");
        std::fs::write(
            &path,
            r#"{"hidden_size": 4096, "num_attention_heads": 32, "num_hidden_layers": 32,
                "intermediate_size": 11008, "model_type": "llama"}"#,
        )
        .unwrap();
        let m = model_from_json(&path.display().to_string()).unwrap();
        assert_eq!(m.hidden(), 4096);
        assert_eq!(m.heads(), 32);
        assert_eq!(m.blocks(), 32);
        assert_eq!(m.ffn_hidden(), 11008);
    }

    #[test]
    fn hf_config_defaults_ffn_to_4x() {
        let path = std::env::temp_dir().join("flat_cli_test_model2.json");
        std::fs::write(
            &path,
            r#"{"d_model": 512, "num_heads": 8, "num_layers": 6}"#,
        )
        .unwrap();
        let m = model_from_json(&path.display().to_string()).unwrap();
        assert_eq!(m.ffn_hidden(), 2048);
    }

    #[test]
    fn zero_model_dimensions_are_diagnostics() {
        let path = std::env::temp_dir().join("flat_cli_test_zero_dims.json");
        for config in [
            r#"{"hidden_size": 768, "num_attention_heads": 0, "num_hidden_layers": 12}"#,
            r#"{"hidden_size": 0, "num_attention_heads": 12, "num_hidden_layers": 12}"#,
            r#"{"hidden_size": 768, "num_attention_heads": 12, "num_hidden_layers": 0}"#,
            r#"{"d_model": 512, "num_heads": 8, "num_layers": 6, "d_ff": 0}"#,
        ] {
            std::fs::write(&path, config).unwrap();
            let err = model_from_json(&path.display().to_string()).unwrap_err();
            assert!(err.contains("must be positive"), "{config}: {err}");
        }
    }

    #[test]
    fn malformed_numeric_args_are_diagnostics_not_panics() {
        let args = flat_bench::args::Args::parse_from(
            ["--seq", "lots", "--slo-ms", "soon"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        let err = u64_arg(&args, "seq", 1).unwrap_err();
        assert!(err.contains("--seq") && err.contains("lots"));
        assert!(!err.contains('\n'), "diagnostics are one line");
        let err = opt_f64_arg(&args, "slo-ms").unwrap_err();
        assert!(err.contains("--slo-ms"));
        assert_eq!(u64_arg(&args, "absent", 7).unwrap(), 7);
        assert_eq!(opt_u64_arg(&args, "absent").unwrap(), None);
    }

    #[test]
    fn engine_flags_override_the_command_defaults() {
        let args = |flags: &str| Args::parse_from(flags.split_whitespace().map(str::to_owned));
        let mut base = EngineConfig::for_platform(&Accelerator::edge(), &Model::bert(), 1);
        base.dedup = true;
        base.window_ms = Some(1_000.0);
        let (cfg, faults) = engine(&args(""), base, &mut []).unwrap();
        assert_eq!((cfg, faults), (base, None), "no flag keeps the defaults");
        let flags = args("--no-dedup --dedup --window-ms 10 --kv-mib 4");
        let (cfg, _) = engine(&flags, base, &mut []).unwrap();
        assert!(!cfg.dedup, "--no-dedup wins");
        assert_eq!(cfg.window_ms, Some(10.0));
        assert_eq!(cfg.kv_budget, Bytes::from_mib(4));
        let (cfg, faults) = engine(&args("--dedup --chaos 3"), base, &mut []).unwrap();
        assert!(cfg.dedup && faults.is_some());
        base.softmax = flat_tensor::SoftmaxKind::LogLut;
        let (cfg, _) = engine(&args(""), base, &mut []).unwrap();
        assert_eq!(
            cfg.softmax, base.softmax,
            "no --softmax keeps the base kind"
        );
        let (cfg, _) = engine(&args("--softmax exact"), base, &mut []).unwrap();
        assert_eq!(cfg.softmax, flat_tensor::SoftmaxKind::Exact);
    }

    #[test]
    fn backend_parses_all_three_engines() {
        assert_eq!(SimBackend::parse("analytical"), Ok(SimBackend::Analytical));
        assert_eq!(SimBackend::parse("event"), Ok(SimBackend::Event));
        assert_eq!(SimBackend::parse("both"), Ok(SimBackend::Both));
        let err = SimBackend::parse("magic").expect_err("rejects");
        assert!(err.contains("analytical, event, or both"), "{err}");
    }

    #[test]
    fn accel_json_round_trips() {
        let a = Accelerator::edge();
        let json = serde_json::to_string(&a).unwrap();
        let path = std::env::temp_dir().join("flat_cli_test_accel.json");
        std::fs::write(&path, json).unwrap();
        let args = flat_bench::args::Args::parse_from([
            "--accel-json".to_owned(),
            path.display().to_string(),
        ]);
        let b = accelerator(&args).unwrap();
        assert_eq!(a, b);
    }
}
