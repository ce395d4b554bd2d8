#!/usr/bin/env bash
# Regenerates every experiment output under results/, the test log, and
# runs the same-run perf ratio gate.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results

echo "== building =="
cargo build --workspace --release

echo "== tables =="
cargo run -q --release -p flat-bench --bin table1 > results/table1.txt
cargo run -q --release -p flat-bench --bin table2 > results/table2.txt

echo "== figures =="
cargo run -q --release -p flat-bench --bin fig2_roofline > results/fig2_edge.txt
cargo run -q --release -p flat-bench --bin fig2_roofline -- --platform cloud > results/fig2_cloud.txt
for p in edge cloud; do
    m=$([ "$p" = edge ] && echo bert || echo xlm)
    cargo run -q --release -p flat-bench --bin fig8  -- --platform "$p" > "results/fig8_${p}_${m}.txt"
    cargo run -q --release -p flat-bench --bin fig9  -- --platform "$p" > "results/fig9_${p}_${m}.txt"
    cargo run -q --release -p flat-bench --bin fig11 -- --platform "$p" > "results/fig11_${p}_${m}.txt"
done
cargo run -q --release -p flat-bench --bin fig10_space > results/fig10_space.txt
cargo run -q --release -p flat-bench --bin fig12a > results/fig12a.txt
cargo run -q --release -p flat-bench --bin fig12b > results/fig12b.txt

echo "== extensions =="
cargo run -q --release -p flat-bench --bin ablation > results/ablation_edge.txt
cargo run -q --release -p flat-bench --bin ablation -- --platform cloud --model xlm --seq 16384 > results/ablation_cloud.txt
cargo run -q --release -p flat-bench --bin quantization > results/quantization.txt
cargo run -q --release -p flat-bench --bin tasks > results/tasks_cloud_bert.txt
cargo run -q --release -p flat-bench --bin area_provisioning > results/area_provisioning.txt
cargo run -q --release -p flat-bench --bin sensitivity > results/sensitivity.txt

cargo run -q --release -p flat-bench --bin hierarchy > results/hierarchy.txt
cargo run -q --release -p flat-bench --bin lra > results/lra_edge_bert.txt
cargo run -q --release -p flat-bench --bin gpu_flat > results/gpu_flat.txt

echo "== tests =="
cargo test --workspace 2>&1 | tee test_output.txt

echo "== perf ratio gate =="
cargo run -q --release -p flat-bench --bin perf_gate

echo "done — outputs in results/ and test_output.txt"
