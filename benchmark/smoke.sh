#!/usr/bin/env bash
# Quick local check: every workload for 1 s, untraced and traced, plus the
# unit tests. Not a measurement — rounds of 1/6 s are far too short for the
# numbers to mean anything; it shows that the four workloads still run,
# answer correctly and print every metric.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --quiet --release --offline --manifest-path benchmark/Cargo.toml
run=(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml --)
for trace in 0 1; do
    for workload in scan_heavy fanout_tcp open_udp ingest_reconfig; do
        echo "== $workload --trace $trace"
        "${run[@]}" --workload "$workload" --seed 13 --seconds 1 --trace "$trace" \
            | grep -E '^(set-ups|ops_attempted|trace:|\{)' | cut -c1-240
    done
done
echo "smoke: ok"
