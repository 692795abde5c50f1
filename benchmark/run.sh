#!/usr/bin/env bash
# The benchmark's one command. Builds the package (release, offline,
# path dependencies only) and runs it.
#
#   benchmark/run.sh                       all four workloads, then their traces
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#                    [--scale full|smoke] [--out DIR]
#   benchmark/run.sh --compare DIR_A DIR_B
#
# With --workload it is exactly what the builder's contract runs: one
# workload in one fresh process, `workload metric value unit` lines, and
# the result object as the last line of standard output. Without it, each
# workload runs in its own process untraced (--trace 0), then traced
# (--trace 1), with the remaining arguments passed through.
#
# Fails (non-zero, nothing on standard output) where the runtime crates
# are missing: the build needs ../crates.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own output goes to standard error: standard output is results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/tao-benchmark"

case " $* " in
    *" --compare "*) exec "$bin" "$@" ;;
    *" --out "*) out=() ;;
    *) out=(--out "$here/out") ;;
esac

case " $* " in
    *" --workload "*) exec "$bin" "$@" ${out[@]+"${out[@]}"} ;;
esac

trace_given=0
case " $* " in *" --trace "*) trace_given=1 ;; esac
for workload in fig_build route_replay churn_mix scale_churn; do
    if [ "$trace_given" = 1 ]; then
        "$bin" --workload "$workload" "$@" ${out[@]+"${out[@]}"}
    else
        "$bin" --workload "$workload" --trace 0 "$@" ${out[@]+"${out[@]}"}
        "$bin" --workload "$workload" --trace 1 "$@" ${out[@]+"${out[@]}"}
    fi
done
