//! CLI smoke tests: malformed flags must come back as one-line
//! diagnostics on stderr with a nonzero exit — never a panic backtrace —
//! and a well-formed invocation must still succeed.

use std::process::{Command, Output};

fn flat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flat"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_seed_is_a_diagnostic_not_a_panic() {
    let out = flat(&["serve", "--requests", "4", "--seed", "abc"]);
    assert!(!out.status.success(), "malformed --seed must exit nonzero");
    let err = stderr(&out);
    assert!(
        err.contains("--seed") && err.contains("abc"),
        "diagnostic names the flag: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
}

#[test]
fn unknown_task_is_a_diagnostic() {
    let out = flat(&["serve", "--requests", "4", "--task", "mining"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("mining"),
        "diagnostic names the bad value: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
}

#[test]
fn bad_slo_and_chaos_values_are_diagnostics() {
    for (flag, value) in [
        ("--slo-ms", "soon"),
        ("--slo-ms", "inf"),
        ("--chaos", "maybe"),
    ] {
        let out = flat(&["serve", "--requests", "4", flag, value]);
        assert!(!out.status.success(), "{flag} {value} must exit nonzero");
        let err = stderr(&out);
        assert!(err.contains(flag), "diagnostic names {flag}: {err}");
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    }
}

#[test]
fn bad_width_and_target_milli_are_diagnostics() {
    let out = flat(&["trace", "--seq", "512", "--width", "wide"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--width"));
    let out = flat(&["bw", "--seq", "512", "--target-milli", "most"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--target-milli"));
}

#[test]
fn good_serve_run_emits_json() {
    let out = flat(&[
        "serve",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "8",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--seed",
        "3",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"finished\":8"),
        "all requests finish: {json}"
    );
    assert!(
        json.contains("\"drops\""),
        "drop counters are reported: {json}"
    );
}

/// The distributed-sweep determinism contract: the same seed and flags
/// produce byte-identical JSON, twice.
#[test]
fn dist_json_is_byte_identical_across_runs() {
    let args = [
        "dist",
        "--platform",
        "cloud",
        "--model",
        "bert",
        "--seq",
        "2048",
        "--batch",
        "4",
        "--chips",
        "1,2",
        "--topology",
        "ring,fc",
        "--partition",
        "head",
        "--seed",
        "7",
        "--json",
    ];
    let first = flat(&args);
    let second = flat(&args);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(
        first.stdout, second.stdout,
        "dist --json must be deterministic"
    );
    let json = String::from_utf8_lossy(&first.stdout).replace(char::is_whitespace, "");
    assert!(json.contains("\"points\""), "sweep points present: {json}");
    assert!(json.contains("\"knee_chips\""), "knees reported: {json}");
    assert!(json.contains("\"seed\":7"), "seed echoed: {json}");
}

/// Serving mode rides the same subcommand and stays deterministic too.
#[test]
fn dist_serve_mode_runs_and_reports_fabric_time() {
    let args = [
        "dist",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "8",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--chips",
        "1,2",
        "--topology",
        "fc",
        "--seed",
        "3",
        "--json",
    ];
    let first = flat(&args);
    let second = flat(&args);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(
        first.stdout, second.stdout,
        "dist serve mode must be deterministic"
    );
    let json = String::from_utf8_lossy(&first.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"fabric_busy_ms\""),
        "fabric metrics present: {json}"
    );
    assert!(
        json.contains("\"per_shard_kv_peak_occupancy\""),
        "shard occupancy present: {json}"
    );
}

/// `flat serve` and `flat dist --requests --chips 1` share one flag
/// parser and one engine path: with the same seed and engine flags the
/// serve metrics are `.runs[0].serve` of the dist report, and the traces
/// are byte-identical.
#[test]
fn serve_matches_a_one_chip_dist_run_under_engine_flags() {
    let dir = std::env::temp_dir();
    let serve_trace = dir.join("flat_cli_test_entry_serve.json");
    let dist_trace = dir.join("flat_cli_test_entry_dist.json");
    let shared = [
        "--platform",
        "edge",
        "--requests",
        "24",
        "--arrival-rate",
        "300",
        "--prompt",
        "40",
        "--output",
        "6",
        "--kv-mib",
        "8",
        "--max-batch",
        "4",
        "--chaos",
        "3",
        "--slo-ms",
        "40",
        "--dedup",
        "--seed",
        "7",
        "--json",
        "--trace",
    ];
    let mut serve = vec!["serve"];
    serve.extend(shared);
    serve.push(serve_trace.to_str().expect("utf-8 temp path"));
    let mut dist = vec!["dist", "--chips", "1", "--topology", "ring"];
    dist.extend(shared);
    dist.push(dist_trace.to_str().expect("utf-8 temp path"));
    let (s, d) = (flat(&serve), flat(&dist));
    assert!(s.status.success(), "serve: {}", stderr(&s));
    assert!(d.status.success(), "dist: {}", stderr(&d));
    let s: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&s.stdout)).expect("serve JSON");
    let d: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&d.stdout)).expect("dist JSON");
    let runs = d["runs"].as_array().expect("runs array");
    assert_eq!(runs.len(), 1);
    assert!(
        s["dropped"].as_u64() > Some(0),
        "chaos and the SLO shed work"
    );
    assert_eq!(s, runs[0]["serve"], "serve must equal the 1-chip dist run");
    let (a, b) = (
        std::fs::read(&serve_trace).expect("serve trace written"),
        std::fs::read(&dist_trace).expect("dist trace written"),
    );
    assert!(!a.is_empty());
    assert!(a == b, "traces must be byte-identical");
}

#[test]
fn bad_dist_flags_are_diagnostics() {
    for args in [
        ["dist", "--chips", "0,2"].as_slice(),
        &["dist", "--chips", "two"],
        &["dist", "--topology", "hypercube"],
        &["dist", "--partition", "expert"],
        &["dist", "--algo", "double-tree"],
        &["dist", "--link-gbps", "-3"],
        &["dist", "--link-us", "soon"],
    ] {
        let out = flat(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

/// Hostile `flat fleet` flags, and clusters past the 2^20-chip cap
/// (which used to abort on an 8 TB allocation), exit 1 with a one-line
/// diagnostic.
#[test]
fn bad_fleet_flags_and_huge_clusters_are_diagnostics() {
    for args in [
        ["fleet", "--requests", "16", "--rate", "-1"].as_slice(),
        &["fleet", "--requests", "16", "--amplitude", "1"],
        &["fleet", "--requests", "16", "--period-s", "0"],
        &["fleet", "--requests", "16", "--window-ms", "0"],
        &["fleet", "--requests", "16", "--scale", "x"],
        &["fleet", "--requests", "16", "--scale", "5:0"],
        &["fleet", "--requests", "16", "--chips", "0"],
        &["fleet", "--requests", "16", "--topology", "bogus"],
        &["fleet", "--requests", "16", "--chips", "1000000000000"],
        &["fleet", "--requests", "16", "--scale", "5:1000000000000"],
        &[
            "dist",
            "--requests",
            "4",
            "--chips",
            "1000000000000",
            "--topology",
            "ring",
        ],
    ] {
        let out = flat(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

/// `flat fleet` takes its engine flags through the parser `flat serve`
/// uses: a 4 MiB KV budget shrinks the served pool.
#[test]
fn fleet_engine_flags_reach_the_engine() {
    let total_blocks = |extra: &[&str]| {
        let mut args = vec!["fleet", "--requests", "16", "--rate", "800", "--seed", "7"];
        args.extend(extra);
        args.push("--json");
        let out = flat(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("fleet JSON");
        v["dist"]["serve"]["kv"]["total_blocks"]
            .as_u64()
            .expect("total_blocks")
    };
    let (default, small) = (total_blocks(&[]), total_blocks(&["--kv-mib", "4"]));
    assert!(small < default, "--kv-mib 4: {small} blocks vs {default}");
}

#[test]
fn chaos_flag_survives_end_to_end() {
    let out = flat(&[
        "serve",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "12",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--slo-ms",
        "50",
        "--chaos",
        "5",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "chaos runs must not panic: {}",
        stderr(&out)
    );
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"requests\":12"),
        "conservation visible in JSON: {json}"
    );
}

#[test]
fn bad_sim_engine_and_tolerance_are_diagnostics() {
    let out = flat(&["sim", "--seq", "512", "--engine", "magic"]);
    assert!(!out.status.success(), "bad --engine must exit nonzero");
    let err = stderr(&out);
    assert!(
        err.contains("magic") && err.contains("analytical, event, or both"),
        "diagnostic lists the valid engines: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");

    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--engine",
        "both",
        "--tolerance",
        "lots",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--tolerance"), "{}", stderr(&out));

    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--engine",
        "both",
        "--tolerance",
        "7",
    ]);
    assert!(!out.status.success(), "tolerance > 1 must be rejected");
    assert!(stderr(&out).contains("--tolerance"), "{}", stderr(&out));

    let out = flat(&["sim", "--seq", "512", "--engine", "event", "--buffers", "0"]);
    assert!(!out.status.success(), "--buffers 0 must be rejected");
    assert!(stderr(&out).contains("--buffers"), "{}", stderr(&out));

    let out = flat(&["sim", "--seq", "512", "--sweep"]);
    assert!(
        !out.status.success(),
        "--sweep without both must be rejected"
    );
    assert!(stderr(&out).contains("--engine both"), "{}", stderr(&out));
}

/// Zero dimensions, from flags or a model config, and a trace request
/// the closed form cannot honour are one-line diagnostics, never panics.
#[test]
fn hostile_sizes_and_analytical_trace_are_diagnostics() {
    let zero_heads = std::env::temp_dir().join("flat_cli_test_zero_heads.json");
    std::fs::write(
        &zero_heads,
        r#"{"hidden_size": 768, "num_attention_heads": 0, "num_hidden_layers": 12}"#,
    )
    .expect("write model config");
    let zero_heads = zero_heads.display().to_string();
    // 4 B per token per layer: 2^57 layers make a 32-token block 2^64 B.
    let deep = std::env::temp_dir().join("flat_cli_test_deep_model.json");
    std::fs::write(
        &deep,
        r#"{"hidden_size": 1, "num_attention_heads": 1, "num_hidden_layers": 144115188075855872, "intermediate_size": 1}"#,
    )
    .expect("write model config");
    let deep = deep.display().to_string();
    let trace = std::env::temp_dir().join("flat_cli_test_analytical_trace.json");
    let trace = trace.display().to_string();
    for (args, needle) in [
        (["sim", "--seq", "0"].as_slice(), "--seq"),
        (&["cost", "--batch", "0"], "--batch"),
        (&["cost", "--model-json", &zero_heads], "heads"),
        (
            &["sim", "--engine", "analytical", "--trace-json", &trace],
            "--trace-json",
        ),
        // 2^44 MiB is 2^64 bytes: the KV budget must not wrap to zero.
        (
            &["serve", "--requests", "4", "--kv-mib", "17592186044416"],
            "--kv-mib",
        ),
        (
            &["trace", "--seq", "512", "--width", "18446744073709551615"],
            "--width",
        ),
        // 2^54 KiB is 2^64 bytes: the SG buffer must not wrap to zero.
        (&["cost", "--sg-kib", "18014398509481984"], "--sg-kib"),
        // A KV block is allocated whole: its float count must neither
        // overflow nor ask for 512 GiB.
        (
            &[
                "serve",
                "--requests",
                "4",
                "--block-tokens",
                "18446744073709551615",
            ],
            "block_tokens",
        ),
        (
            &["serve", "--requests", "4", "--block-tokens", "4294967296"],
            "block_tokens",
        ),
        (
            &[
                "serve",
                "--requests",
                "2",
                "--model-json",
                &deep,
                "--seq",
                "1",
                "--batch",
                "1",
                "--block-tokens",
                "32",
            ],
            "overflows",
        ),
        // Per-chip blocks times the cluster size (or a scale target) must
        // not wrap the pool size.
        (
            &[
                "dist",
                "--requests",
                "4",
                "--chips",
                "65536",
                "--topology",
                "ring",
                "--kv-mib",
                "17592186044415",
                "--block-tokens",
                "1",
            ],
            "overflows",
        ),
        (
            &[
                "fleet",
                "--requests",
                "4",
                "--chips",
                "2",
                "--scale",
                "0:65536",
                "--kv-mib",
                "17592186044415",
                "--block-tokens",
                "1",
            ],
            "overflows",
        ),
    ] {
        let out = flat(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = stderr(&out);
        assert!(
            err.contains(needle),
            "{args:?}: diagnostic names {needle}: {err}"
        );
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

/// `flat run` resolves a job's `space` like `flat dse --space` does, and
/// a job key of the wrong type or an unknown space is a one-line
/// diagnostic naming the job, not a silent default.
#[test]
fn run_jobs_take_dse_spaces_and_reject_bad_fields() {
    let config = |name: &str, job: &str| {
        let path = std::env::temp_dir().join(format!("flat_cli_test_run_{name}.json"));
        let text =
            format!(r#"{{"jobs": [{{"platform": "edge", "model": "bert", "seq": 512}}, {job}]}}"#);
        std::fs::write(&path, text).expect("write run config");
        path.display().to_string()
    };
    let base_m = config("base_m", r#"{"seq": 512, "space": "base-m"}"#);
    let out = flat(&["run", "--config", &base_m]);
    assert!(out.status.success(), "{}", stderr(&out));
    let results: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("run prints JSON");
    let dataflow = results
        .as_array()
        .and_then(|jobs| jobs.get(1))
        .and_then(|job| job.get("dataflow"))
        .and_then(serde_json::Value::as_str);
    assert_eq!(
        dataflow,
        Some("Base"),
        "the base-m space holds only sequential dataflows"
    );
    for (name, job, needle) in [
        ("bogus", r#"{"seq": 512, "space": "bogus"}"#, "bogus"),
        (
            "sweep",
            r#"{"seq": 512, "space": "precision"}"#,
            "precision",
        ),
        ("seq", r#"{"seq": 512.5}"#, "\"seq\""),
        ("batch", r#"{"batch": -1}"#, "\"batch\""),
        ("sg_kib", r#"{"sg_kib": "big"}"#, "\"sg_kib\""),
    ] {
        let out = flat(&["run", "--config", &config(name, job)]);
        assert_eq!(out.status.code(), Some(1), "{job} must exit 1");
        let err = stderr(&out);
        assert!(
            err.contains("job 1") && err.contains(needle),
            "{job}: diagnostic names the job and {needle}: {err}"
        );
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

/// The largest accepted shape: BERT-base at batch 64 and seq 986,305 is
/// 12 blocks of 96,076,671,857,295,360 MACs, just under the 2^60 limit.
/// Every pricer must run it without a `u64` overflow, which panics in a
/// debug build.
#[test]
fn largest_accepted_shape_prices_clean() {
    for cmd in [
        ["cost", "--scope", "model"].as_slice(),
        &["dse"],
        &["sim", "--engine", "analytical"],
    ] {
        let out = flat(&[cmd, &["--batch", "64", "--seq", "986305"]].concat());
        assert!(out.status.success(), "{cmd:?}: {}", stderr(&out));
    }
}

/// One more token, or a model config with more layers, passes 2^60 MACs:
/// a one-line diagnostic and exit 1, as `--seq 0` gets.
#[test]
fn shapes_past_the_mac_limit_are_diagnostics() {
    let deep = std::env::temp_dir().join("flat_cli_test_deep_model.json");
    std::fs::write(
        &deep,
        r#"{"hidden_size": 768, "num_attention_heads": 12, "num_hidden_layers": 1099511627776}"#,
    )
    .expect("write model config");
    let deep = deep.display().to_string();
    for args in [
        ["cost", "--batch", "64", "--seq", "986306"].as_slice(),
        &["dse", "--batch", "64", "--seq", "986306"],
        &[
            "sim",
            "--engine",
            "analytical",
            "--batch",
            "64",
            "--seq",
            "986306",
        ],
        &["cost", "--seq", "1", "--batch", "18446744073709551615"],
        &["cost", "--model-json", &deep],
    ] {
        let out = flat(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = stderr(&out);
        assert!(
            err.contains("2^60"),
            "{args:?}: diagnostic names the limit: {err}"
        );
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

/// `flat sim --engine analytical --json` is the pure closed form: cycles,
/// utilization and the per-lane busy cycles its fold takes the `max` of.
#[test]
fn sim_analytical_json_reports_lanes() {
    let out = flat(&["sim", "--seq", "1024", "--engine", "analytical", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    for key in ["\"analytical_cycles\":", "\"util\":", "\"lanes\":[{"] {
        assert!(json.contains(key), "{key} missing: {json}");
    }
    for lane in ["dma", "pe", "sg", "sfu"] {
        assert!(
            json.contains(&format!("\"name\":\"{lane}\"")),
            "{lane}: {json}"
        );
    }
    assert!(!json.contains("simulated_cycles") && !json.contains("\"ratio\""));
}

/// `flat sim --engine both --json` is the CI validation smoke: it must
/// report a divergence field and agree within the default tolerance on
/// an uncontended config.
#[test]
fn sim_both_json_reports_divergence() {
    let out = flat(&[
        "sim",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--seq",
        "1024",
        "--dataflow",
        "flat-r64",
        "--engine",
        "both",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"divergence\":"),
        "divergence reported: {json}"
    );
    assert!(
        json.contains("\"within_tolerance\":true"),
        "uncontended config agrees: {json}"
    );
}

/// The event backend exports a Perfetto-loadable trace with per-lane
/// thread names and a counter track.
#[test]
fn sim_event_trace_is_perfetto_shaped() {
    let path = std::env::temp_dir().join("flat_cli_test_desim_trace.json");
    let path_str = path.display().to_string();
    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--dataflow",
        "flat-r64",
        "--engine",
        "event",
        "--trace-json",
        &path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let trace = std::fs::read_to_string(&path).expect("trace written");
    assert!(trace.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"name\":\"flat-desim\"",
        "\"name\":\"pe\"",
        "\"name\":\"dma\"",
        "\"ph\":\"X\"",
        "\"ph\":\"C\"",
        "tiles in flight",
    ] {
        assert!(trace.contains(needle), "{needle} missing from trace");
    }
}

/// `flat trace` prices with the model-option flags `flat cost` takes:
/// the makespan it prints is the cost's cycle count under each.
#[test]
fn trace_honours_the_model_option_flags() {
    for flags in [
        &["--no-double-buffer"][..],
        &["--serial-softmax", "--dataflow", "base"],
        &["--softmax", "log-lut", "--no-double-buffer"],
    ] {
        let args = [&["--seq", "4096"][..], flags].concat();
        let cost = flat(&[&["cost", "--json"][..], &args].concat());
        assert!(cost.status.success(), "stderr: {}", stderr(&cost));
        let cost: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&cost.stdout)).expect("cost JSON");
        let cycles = cost["cycles"].as_f64().expect("cycles");
        let trace = flat(&[&["trace"][..], &args].concat());
        assert!(trace.status.success(), "stderr: {}", stderr(&trace));
        let text = String::from_utf8_lossy(&trace.stdout);
        let want = format!("# makespan {cycles:.4e} cycles");
        assert!(text.contains(&want), "{flags:?}: want {want:?} in {text}");
    }
}

/// `--trace-json` records the run it writes and changes no result: the
/// stdout of `flat sim` is byte-identical with and without it.
#[test]
fn trace_json_does_not_change_sim_results() {
    let path = std::env::temp_dir().join(format!(
        "flat_cli_test_sim_trace_{}.json",
        std::process::id()
    ));
    let path_str = path.display().to_string();
    for args in [
        &[
            "sim", "--seq", "1024", "--engine", "both", "--sweep", "--json",
        ][..],
        &["sim", "--seq", "1024", "--engine", "event", "--json"],
    ] {
        let plain = flat(args);
        assert!(plain.status.success(), "stderr: {}", stderr(&plain));
        let traced = flat(&[args, &["--trace-json", &path_str]].concat());
        assert!(traced.status.success(), "stderr: {}", stderr(&traced));
        assert!(
            plain.stdout == traced.stdout,
            "{args:?} moved with --trace-json"
        );
    }
    let _ = std::fs::remove_file(&path);
}
