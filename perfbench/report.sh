#!/bin/sh
# Every end-to-end and per-layer metric for every workload, from the root of
# a checkout:  sh perfbench/report.sh [SEED] [SECONDS]
set -e
for workload in single-qfi distribution two-walker; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
            --seconds "${2:-30}" --trace "$trace"
    done
done
