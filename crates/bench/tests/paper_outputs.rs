//! The paper outputs stay pinned: every results binary that
//! `scripts/run_all.sh` runs, with the script's flags, must print its
//! committed `results/*.txt` file byte for byte.

use std::process::Command;

/// Runs `bin` with `args` and byte-diffs its stdout against
/// `results/<file>`.
fn check(bin: &str, args: &[&str], file: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        // The first differing line, or the first line one side lacks.
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{bin} {args:?} differs from results/{file} at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// One test per output file: `name: bin [flags] => file`.
macro_rules! paper_outputs {
    ($($name:ident: $bin:literal [$($arg:literal),*] => $file:literal;)*) => {$(
        #[test]
        fn $name() {
            check(env!(concat!("CARGO_BIN_EXE_", $bin)), &[$($arg),*], $file);
        }
    )*};
}

paper_outputs! {
    table1: "table1" [] => "table1.txt";
    table2: "table2" [] => "table2.txt";
    fig2_edge: "fig2_roofline" [] => "fig2_edge.txt";
    fig2_cloud: "fig2_roofline" ["--platform", "cloud"] => "fig2_cloud.txt";
    fig8_edge_bert: "fig8" ["--platform", "edge"] => "fig8_edge_bert.txt";
    fig9_edge_bert: "fig9" ["--platform", "edge"] => "fig9_edge_bert.txt";
    fig11_edge_bert: "fig11" ["--platform", "edge"] => "fig11_edge_bert.txt";
    fig8_cloud_xlm: "fig8" ["--platform", "cloud"] => "fig8_cloud_xlm.txt";
    fig9_cloud_xlm: "fig9" ["--platform", "cloud"] => "fig9_cloud_xlm.txt";
    fig11_cloud_xlm: "fig11" ["--platform", "cloud"] => "fig11_cloud_xlm.txt";
    fig10_space: "fig10_space" [] => "fig10_space.txt";
    fig12a: "fig12a" [] => "fig12a.txt";
    fig12b: "fig12b" [] => "fig12b.txt";
    ablation_edge: "ablation" [] => "ablation_edge.txt";
    ablation_cloud: "ablation" ["--platform", "cloud", "--model", "xlm", "--seq", "16384"]
        => "ablation_cloud.txt";
    quantization: "quantization" [] => "quantization.txt";
    tasks_cloud_bert: "tasks" [] => "tasks_cloud_bert.txt";
    area_provisioning: "area_provisioning" [] => "area_provisioning.txt";
    sensitivity: "sensitivity" [] => "sensitivity.txt";
    hierarchy: "hierarchy" [] => "hierarchy.txt";
    lra_edge_bert: "lra" [] => "lra_edge_bert.txt";
    gpu_flat: "gpu_flat" [] => "gpu_flat.txt";
}
