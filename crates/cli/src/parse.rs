//! Shared argument resolution for the CLI commands.

use flat_arch::Accelerator;
use flat_bench::args::Args;
use flat_core::BlockDataflow;
use flat_dse::Objective;
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
    let block = model.block(batch, seq);
    Ok(Setup {
        accel,
        model,
        block,
        batch,
        seq,
    })
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
        accel = accel.with_sg(Bytes::from_kib(kib));
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

/// Parses `--precision fp32|bf16|fp16|int8` (default `fp32`).
///
/// # Errors
///
/// Lists the valid precisions when the value matches none.
pub fn precision(args: &Args) -> Result<flat_serve::ComputePrecision, String> {
    match optional(args, "precision") {
        None => Ok(flat_serve::ComputePrecision::F32),
        Some(s) => flat_serve::ComputePrecision::parse(&s),
    }
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
