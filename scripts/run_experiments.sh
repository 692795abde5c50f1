#!/usr/bin/env bash
# Regenerates every table of the paper (scripts/figures.txt) into results/.
# Usage: scripts/run_experiments.sh [paper|mini]
#
# TAO_WORKERS controls how many threads the parallel sweeps use
# (default: all cores). Every table is byte-identical for any value —
# per-task seeds derive from the master seed and task index, never from
# scheduling order — so parallelism only changes wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."
export TAO_SCALE="${1:-paper}"
export TAO_WORKERS="${TAO_WORKERS:-$(nproc 2>/dev/null || echo 1)}"
cargo build --release -p tao-bench
mkdir -p results
echo "# Wall-clock milliseconds per experiment binary, TAO_SCALE=$TAO_SCALE TAO_WORKERS=$TAO_WORKERS (history: PERF_LOG.md)." > results/timings.txt
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
total_start=$(now_ms)
# The tables: scripts/figures.txt, shared with the drift gate of ci.sh.
for b in $(grep -v '^#' scripts/figures.txt); do
  echo ">>> $b (TAO_SCALE=$TAO_SCALE TAO_WORKERS=$TAO_WORKERS)"
  start=$(now_ms)
  ./target/release/"$b" 2> "results/$b.err" | tee "results/$b.txt"
  echo "$b: $(( $(now_ms) - start ))ms" >> results/timings.txt
done
echo "TOTAL: $(( $(now_ms) - total_start ))ms" >> results/timings.txt
echo "ALL_DONE" >> results/timings.txt
