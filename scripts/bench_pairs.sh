#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
#
#   scripts/bench_pairs.sh PARENT CHANGE WORKLOAD METRIC PAIRS [FIRST_SEED [RUN_ARGS...]]
#
# PARENT and CHANGE are git revisions of this repository. Each is exported
# with `git archive` into a sibling directory of a fresh work directory;
# the two names have equal length, because the checkout's path alone has
# moved a workload by ≈ 15 % (PERF_LOG.md). Each side's benchmark is built
# once. Pair k runs seed FIRST_SEED + k - 1 (default 101) on both
# sides, alternately: an odd seed starts with the parent, an even one with
# the change. RUN_ARGS go to `benchmark/run.sh` (default `--seconds 20
# --trace 0`). Each run writes its result files into a directory of its
# own, out-parent/seed-S and out-change/seed-S, the layout
# `benchmark/run.sh --compare` reads.
#
# Prints each pair's change / parent ratio for METRIC, how many pairs the
# change won (by the metric's `better` direction in BENCHMARK.json), both
# sides' median and quartile distance (Python's `statistics.quantiles`, as
# `--compare` computes them), then ends with `benchmark/run.sh --compare`
# over the untraced runs (it needs at least five pairs). Exits non-zero
# when a run reports failed operations, or `--compare` finds this
# workload's metric `outside` its bound or a round fingerprint differing.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,23p' "$0" >&2
    exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 metric=$4 pairs=$5
first_seed=${6:-101}
shift $(($# < 6 ? $# : 6))
run_args=("$@")
[ ${#run_args[@]} -gt 0 ] || run_args=(--seconds 20 --trace 0)

repo="$(cd "$(dirname "$0")/.." && pwd)"
better=$(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(next((m["better"] for m in spec["end_to_end"] + spec["per_layer"]
            if m["name"] == sys.argv[2]), "?"))' "$repo/BENCHMARK.json" "$metric")
if [ "$better" = "?" ]; then
    echo "bench_pairs: $metric is not a metric of BENCHMARK.json" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
echo "bench_pairs: work directory $work" >&2
for side in parent change; do
    rev=$parent_rev
    [ "$side" = change ] && rev=$change_rev
    mkdir -p "$work/$side" "$work/out-$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

# One run: its last standard-output line is the result object.
run() {
    local side=$1 seed=$2
    (cd "$work/$side" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        "${run_args[@]}" --out "$work/out-$side/seed-$seed") | tail -n 1 \
        > "$work/out-$side/seed-$seed.line"
}

for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    if ((seed % 2 == 1)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    echo "bench_pairs: seed $seed done" >&2
done

python3 - "$work" "$metric" "$better" "$first_seed" "$pairs" <<'EOF'
import json, statistics, sys

work, metric, better, first, pairs = sys.argv[1:]
seeds = range(int(first), int(first) + int(pairs))

def read(side, seed):
    line = json.loads(open(f"{work}/out-{side}/seed-{seed}.line").read())
    return line["metrics"][metric]["value"], line.get("failed", 0)

failed, wins, values = 0, 0, {"parent": [], "change": []}
print(f"{'seed':>6} {'parent':>14} {'change':>14} {'ratio':>8}")
for seed in seeds:
    (p, pf), (c, cf) = read("parent", seed), read("change", seed)
    failed += pf + cf
    values["parent"].append(p)
    values["change"].append(c)
    wins += (c > p) if better == "higher" else (c < p)
    print(f"{seed:>6} {p:>14.6g} {c:>14.6g} {c / p if p else float('nan'):>8.3f}")
print(f"{metric} ({better} is better): change won {wins} of {len(seeds)} pairs")
for side, v in values.items():
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
    print(f"{side:>7}: median {med:.6g}, quartile distance {q3 - q1:.6g} ({(q3 - q1) / med:.1%})")
gap = statistics.median(values["change"]) - statistics.median(values["parent"])
print(f"median ratio {statistics.median(values['change']) / statistics.median(values['parent']):.3f}, gap {gap:.6g}")
print(f"failed operations: {failed}")
sys.exit(1 if failed else 0)
EOF

# `--compare` fails on any workload with fewer than five runs a side, so
# its verdict is read off this workload's rows and the fingerprint line.
if [ "$pairs" -ge 5 ] && [[ " ${run_args[*]} " != *" --trace 1 "* ]]; then
    verdicts=$(bash "$repo/benchmark/run.sh" --compare "$work/out-parent" "$work/out-change" || true)
    printf '%s\n' "$verdicts" | grep -E "^(workload|$workload|fingerprints)"
    if printf '%s\n' "$verdicts" | grep -qE "^$workload .* outside$|disagree"; then
        exit 1
    fi
fi
