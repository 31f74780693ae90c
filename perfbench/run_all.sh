#!/bin/sh
# Runs every workload once, untraced and then traced, from the root of the
# repository: every end-to-end and per-layer metric, by name and unit, with
# the output checks. Usage: sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-30}
for workload in service_e2 e12_campaign huge_cseek_1e6; do
    for trace in 0 1; do
        cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
