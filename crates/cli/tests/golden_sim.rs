//! Golden `flat sim` corpus: fixed configurations of the closed form,
//! the event backend and the agreement harness, byte-diffed against
//! committed output.
//!
//! Each case pins, under `tests/golden/sim/`, the `--json` stdout of
//! `flat sim --engine analytical|event|both` and of `flat cost`; the
//! sweep case pins `--engine both --sweep --json`, the trace cases pin
//! the FNV-1a hash and event count of a `--trace-json` document, and
//! the timeline cases pin the stdout of `flat trace`. Set
//! `FLAT_BLESS=1` to rewrite them after an intentional change.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(case, flags)`: every wiring the executor builds — fused with and
/// without double buffering, a single staging buffer, and the two- and
/// three-phase sequential baselines — at one run past the iteration cap
/// (extrapolated) and one small enough to simulate every iteration.
const CASES: &[(&str, &[&str])] = &[
    ("r64-seq1024", &["--seq", "1024"]),
    ("r64-seq1024-batch1", &["--seq", "1024", "--batch", "1"]),
    ("r64-buffers1", &["--seq", "1024", "--buffers", "1"]),
    (
        "r64-no-double-buffer",
        &["--seq", "1024", "--no-double-buffer"],
    ),
    ("base-seq1024", &["--seq", "1024", "--dataflow", "base"]),
    (
        "base-serial-softmax",
        &["--seq", "1024", "--dataflow", "base", "--serial-softmax"],
    ),
];

/// `(case, flags)` of the `flat trace` timelines: the fused walk at
/// README's example, at seq 4096 and on the cloud chip; the sequential
/// baseline with its softmax pipelined into A, serialized, and
/// unbuffered; and a staged baseline and a coarse fused granularity.
const TIMELINES: &[(&str, &[&str])] = &[
    ("r64-seq512", &["--seq", "512", "--dataflow", "flat-r64"]),
    ("base-seq4096", &["--seq", "4096", "--dataflow", "base"]),
    (
        "base-seq4096-serial-softmax",
        &["--seq", "4096", "--dataflow", "base", "--serial-softmax"],
    ),
    (
        "base-seq4096-no-double-buffer",
        &["--seq", "4096", "--dataflow", "base", "--no-double-buffer"],
    ),
    ("base-h-seq4096", &["--seq", "4096", "--dataflow", "base-h"]),
    ("flat-m-seq4096", &["--seq", "4096", "--dataflow", "flat-m"]),
    (
        "r64-seq4096-no-double-buffer",
        &[
            "--seq",
            "4096",
            "--dataflow",
            "flat-r64",
            "--no-double-buffer",
        ],
    ),
    (
        "cloud-xlm-r256-seq16384",
        &[
            "--platform",
            "cloud",
            "--model",
            "xlm",
            "--seq",
            "16384",
            "--dataflow",
            "flat-r256",
        ],
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sim")
}

/// 64-bit FNV-1a over the trace document.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares (or, under `FLAT_BLESS=1`, rewrites) one pinned file.
fn pin(path: &Path, text: &str) {
    if std::env::var_os("FLAT_BLESS").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, text).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with FLAT_BLESS=1)", path.display()));
    assert!(text == want, "output drifted from {}", path.display());
}

/// Runs `flat <command> <args>` and returns its stdout.
fn flat(command: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flat"))
        .arg(command)
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "flat {command} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs `flat sim <args>` and returns its stdout.
fn sim(args: &[&str]) -> String {
    flat("sim", args)
}

#[test]
fn event_and_agreement_json_are_pinned() {
    for (case, flags) in CASES {
        for engine in ["event", "both"] {
            let json = sim(&[&["--engine", engine, "--json"], *flags].concat());
            pin(&golden_dir().join(format!("{case}.{engine}.json")), &json);
        }
    }
}

#[test]
fn analytical_and_cost_json_are_pinned() {
    for (case, flags) in CASES {
        let json = sim(&[&["--engine", "analytical", "--json"], *flags].concat());
        pin(&golden_dir().join(format!("{case}.analytical.json")), &json);
        let json = flat("cost", &[&["--json"], *flags].concat());
        pin(&golden_dir().join(format!("{case}.cost.json")), &json);
    }
}

#[test]
fn trace_timelines_are_pinned() {
    for (case, flags) in TIMELINES {
        let text = flat("trace", flags);
        pin(&golden_dir().join(format!("timeline-{case}.txt")), &text);
    }
}

#[test]
fn agreement_sweep_json_is_pinned() {
    let json = sim(&["--engine", "both", "--sweep", "--json"]);
    pin(&golden_dir().join("sweep.both.json"), &json);
}

#[test]
fn trace_documents_are_pinned() {
    for (case, dataflow) in [("r64-seq512", "flat-r64"), ("base-seq512", "base")] {
        let path = std::env::temp_dir().join(format!(
            "flat_golden_sim_{case}_{}.json",
            std::process::id()
        ));
        let path_str = path.display().to_string();
        sim(&[
            "--seq",
            "512",
            "--dataflow",
            dataflow,
            "--engine",
            "event",
            "--trace-json",
            &path_str,
        ]);
        let doc = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let pinned = format!(
            "fnv1a64 {:016x}\nevents {}\n",
            fnv1a(&doc),
            doc.matches("\"ph\":").count()
        );
        pin(&golden_dir().join(format!("{case}.trace")), &pinned);
    }
}
