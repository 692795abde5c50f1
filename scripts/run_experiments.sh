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
{
  echo "# Wall-clock per experiment binary, TAO_SCALE=$TAO_SCALE TAO_WORKERS=$TAO_WORKERS."
  echo "# Pre-PR4 sequential baseline (TAO_SCALE=paper, fig02 capped at 8,192 nodes):"
  echo "#   fig02 13s  fig03_06 3s  fig10_13 79s  fig14_15 179s  fig16 10s  sec1 0s"
  echo "#   sec52 6s  sec54 8s  sec6 2s  ablation_sfc 5s  ablation_lvi 7s  -- ~312s total"
  echo "# Before PR 16 (RTT through the per-source Dijkstra cache; recorded pre-PR-12):"
  echo "#   fig02 33s  fig03_06 5s  fig10_13 66s  fig14_15 85s  fig16 10s  sec1 0s"
  echo "#   sec52 4s  sec54_gap 14s  sec6 8s  ablation_sfc 4s  ablation_lvi 5s"
  echo "#   generality 11s  related 0s  join_cost 2s  sec54_opt 2s  -- 249s total"
  echo "# Before PR 17 (every box of every node listed; build_on built a random eCAN first):"
  echo "#   fig02 29s  fig03_06 1s  fig10_13 5s  fig14_15 10s  fig16 1s  sec1 0s"
  echo "#   sec52 1s  sec54_gap 6s  sec6 4s  ablation_sfc 1s  ablation_lvi 1s"
  echo "#   generality 1s  related 0s  join_cost 0s  sec54_opt 2s  -- 62s total"
  echo "# Before PR 21 (a hosted lookup walked its host's fragment per querier):"
  echo "#   fig02 1s  fig03_06 1s  fig10_13 4s  fig14_15 4s  fig16 0s  sec1 1s"
  echo "#   sec52 0s  sec54_gap 7s  sec6 3s  ablation_sfc 1s  ablation_lvi 0s"
  echo "#   generality 1s  related 1s  join_cost 0s  sec54_opt 2s  -- 26s total"
  echo "# PR 22 (eCAN membership) is on none of these tables' paths; its companion,"
  echo "#   fig02_million_churn, is timed in EXPERIMENTS.md (mini scale runs in ci.sh)."
} > results/timings.txt
total_start=$SECONDS
# The tables: scripts/figures.txt, shared with the drift gate of ci.sh.
for b in $(grep -v '^#' scripts/figures.txt); do
  echo ">>> $b (TAO_SCALE=$TAO_SCALE TAO_WORKERS=$TAO_WORKERS)"
  start=$SECONDS
  ./target/release/"$b" 2> "results/$b.err" | tee "results/$b.txt"
  echo "$b: $((SECONDS - start))s" >> results/timings.txt
done
echo "TOTAL: $((SECONDS - total_start))s" >> results/timings.txt
echo "ALL_DONE" >> results/timings.txt
