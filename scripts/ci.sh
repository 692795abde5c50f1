#!/usr/bin/env bash
# Hermetic CI: the whole workspace must build and test OFFLINE, from a
# clean checkout, with an empty cargo cache. See DESIGN.md § "Hermetic
# build policy".
set -euo pipefail
cd "$(dirname "$0")/.."

# ---- Guard: no registry dependencies may ever come back. -------------------
# Every [dependencies]/[dev-dependencies] entry must be a tao-* path crate.
# The grep looks for the crate names we intentionally removed plus anything
# with a version requirement, which only registry deps carry.
banned='rand|proptest|criterion|crossbeam|parking_lot|bytes|serde'
if grep -rnE "^[[:space:]]*(${banned})[[:space:]]*[.=]" --include=Cargo.toml crates Cargo.toml; then
    echo "FAIL: registry dependency reintroduced (see matches above)." >&2
    echo "The hermetic build policy allows only in-tree tao-* path deps;" >&2
    echo "add the functionality to crates/util instead." >&2
    exit 1
fi
# Member manifests may only reference workspace deps; any literal version
# requirement ("0.8", { version = ... }) marks a registry dependency.
if grep -rnE 'version[[:space:]]*=[[:space:]]*"[0-9^~]' crates/*/Cargo.toml; then
    echo "FAIL: versioned (registry) dependency in a member crate." >&2
    exit 1
fi
# Every [workspace.dependencies] entry must be an in-tree path dependency.
if sed -n '/^\[workspace.dependencies\]/,/^\[/p' Cargo.toml \
    | grep -vE '^\[|^#|^[[:space:]]*$' \
    | grep -v 'path = "crates/'; then
    echo "FAIL: non-path entry in [workspace.dependencies]." >&2
    exit 1
fi
echo "dependency guard: OK (tao-* path dependencies only)"

# ---- Build + test, fully offline, warnings are errors. ----------------------
RUSTFLAGS="-D warnings" cargo build --release --offline
# benchmark/ drives only the public API: an API change that breaks it fails
# here in seconds, not after the lint, fault and fingerprint stages.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline

# ---- Lint stage: structural + taint + hot-path analysis, baseline-gated. ---
# The whole workspace is held to rustfmt and clippy. benchmark/ is its own
# cargo workspace, so neither command reaches it. clippy also carries the
# three token-level determinism guards: clippy.toml's disallowed-types
# (std HashMap/HashSet) and disallowed-methods (Instant/SystemTime::now),
# and the crate roots' unwrap_used/expect_used, each waived only by an
# `#[expect(…, reason = "…")]` that rustc fails once it goes stale.
cargo fmt --all --check
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "workspace fmt + clippy: OK"
# tao-lint derives the file set from the workspace manifests (its own crate
# included), enforces bad-pragma, the three structural source rules
# (panic-reachability, seed-discipline, unused-waiver), crate-layering over
# the member manifests, determinism-taint, and the two hot-path rules
# scoped to `// tao-lint: hot` closures (alloc-reachability, arith-safety), writes
# the stable JSON report to target/tao-lint.json (not committed: its
# messages carry line numbers, so it moved with every PR while the gate is
# the line-free baseline), and diffs it against the committed baseline:
# any finding not in lint-baseline.txt fails CI, and so does a stale
# baseline entry — the baseline only shrinks, never grows. The run is held
# to a 10s wall-time budget so the cost of the analysis itself is
# ratcheted along with its findings.
lint_start_ns=$(date +%s%N)
cargo run --release --offline -p tao-lint -- --workspace \
    --json target/tao-lint.json --baseline lint-baseline.txt
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
if [ "$lint_elapsed_ms" -ge 10000 ]; then
    echo "FAIL: workspace lint run took ${lint_elapsed_ms}ms (budget: <10000ms)." >&2
    exit 1
fi
echo "lint stage: OK (matches lint-baseline.txt, ${lint_elapsed_ms}ms < 10s budget)"

# Negative smokes: the gates must reject an injected violation of each
# analysis family.
#   smoke CHECK WHAT FILE [ANCHOR] <<'EOF' … EOF
# Without ANCHOR, stdin becomes the new file FILE; with it, stdin is
# inserted after the one line of FILE that equals ANCHOR. CHECK must then
# succeed. Either way FILE is back as it was on every exit path, with a
# fresh mtime so no build keeps what was compiled from the injection.
smoke() {
    local check=$1 what=$2 file=$3 anchor=${4-} restore="rm -f $3" caught=0
    if [ -n "$anchor" ]; then
        cp "$file" "$file.ci_bak"
        restore="mv -f $file.ci_bak $file && touch $file"
    fi
    trap "$restore" EXIT
    python3 -c '
import sys
path, anchor, text = sys.argv[1], sys.argv[2], sys.stdin.read()
if anchor:
    src = open(path).read()
    assert src.count(anchor + "\n") == 1, f"smoke: anchor not found once in {path}"
    text = src.replace(anchor + "\n", anchor + "\n" + text)
open(path, "w").write(text)
' "$file" "$anchor"
    if $check; then
        caught=1
    fi
    eval "$restore"
    trap - EXIT
    if [ "$caught" -eq 0 ]; then
        echo "FAIL: injected $what was not caught by the lint stage." >&2
        exit 1
    fi
    echo "lint negative smoke: OK (injected $what fails the gate)"
}

# The tao-lint run never compiles the workspace, so code injected for it
# only has to lex. It runs the binary built above: `cargo run` would
# re-resolve a manifest the layering smoke edits and rewrite Cargo.lock.
# Its JSON goes to a scratch path so target/tao-lint.json stays the report
# of the honest run.
lint_rejects() {
    ! target/release/tao-lint --workspace --json target/tao-lint-smoke.json \
        --baseline lint-baseline.txt >/dev/null 2>&1
}
# clippy must fail and name every lint the injection breaks.
clippy_rejects() {
    local out lint
    if out=$(cargo clippy -q --offline -p tao-util --lib -- -D warnings 2>&1); then
        return 1
    fi
    for lint in disallowed_types disallowed_methods expect_used \
        unfulfilled_lint_expectations allow_attributes_without_reason; do
        if ! grep -q "${lint//_/[-_]}" <<<"$out"; then
            echo "clippy smoke: the output names no $lint" >&2
            return 1
        fi
    done
}

# The three guards clippy took over from tao-lint, and rustc's check of
# their waivers: a std HashMap, a wall-clock read, a bare `.expect(`, a
# stale `#[expect]` and one without a reason, in one tao-util file.
smoke clippy_rejects "HashMap + Instant::now + .expect( + stale and reasonless #[expect]" \
    crates/util/src/det.rs "pub type DetSet<T> = std::collections::BTreeSet<T>;" <<'EOF'
/// The clippy negative smoke's injection.
pub fn ci_clippy_smoke(slot: Option<u64>) -> u64 {
    let mut seen = std::collections::HashMap::new();
    seen.insert(0u64, std::time::Instant::now());
    #[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")]
    let n = seen.len() as u64;
    #[expect(clippy::expect_used)]
    let first = slot.expect("reasonless expectation");
    first + n + slot.expect("bare")
}
EOF

# crate-layering: overlay's manifest reaching up into the engine.
smoke lint_rejects "layering violation" crates/overlay/Cargo.toml "[dependencies]" <<'EOF'
tao-sim.workspace = true
EOF

# determinism-taint: an unwaived env read flowing into a fingerprint function.
smoke lint_rejects "env-read→fingerprint taint" crates/core/src/ci_taint_smoke.rs <<'EOF'
pub fn smoke_fingerprint(state: &[u64]) -> u64 {
    let bias = std::env::var("TAO_SMOKE").map(|v| v.len() as u64).unwrap_or(0);
    let mut acc = bias;
    for v in state {
        acc = acc.wrapping_mul(31).wrapping_add(*v);
    }
    acc
}
EOF

# alloc-reachability: a Vec::push in the CAN routing fast path —
# `route_append` sits inside the hot closure of the `// tao-lint: hot`
# entry `route_into`.
smoke lint_rejects "hot-path Vec::push" crates/overlay/src/can.rs \
    "        scratch.mark(start.index());" <<'EOF'
        let mut ci_smoke_trace: Vec<u64> = Vec::new();
        ci_smoke_trace.push(0u64);
EOF

# seed-discipline: an RNG seeded from the process id, which differs from
# run to run; no other rule sees a seed.
smoke lint_rejects "process-id RNG seed" crates/core/src/ci_seed_smoke.rs <<'EOF'
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;
pub fn smoke() -> StdRng {
    StdRng::seed_from_u64(u64::from(std::process::id()))
}
EOF

# arith-safety (time-arith): an unguarded, wrapping `+` in the timing
# wheel's cursor math — `place` sits inside the hot closure of `pop`.
smoke lint_rejects "wrapping cursor add" crates/sim/src/event.rs \
    "        let delta = e.at - self.cursor;" <<'EOF'
        let ci_smoke_tick = self.cursor + delta;
EOF

# JSON-shape check: the report from the honest run must expose all rules in
# its per-rule summary (a missing key means a pass silently stopped running)
# and carry the structural fields downstream tooling relies on.
python3 - <<'EOF'
import json, sys
with open("target/tao-lint.json") as fh:
    report = json.load(fh)
for field in ("version", "files_checked", "findings", "summary"):
    if field not in report:
        sys.exit(f"lint.json missing top-level field `{field}`")
expected_rules = [
    "bad-pragma", "panic-reachability", "crate-layering", "seed-discipline",
    "unused-waiver", "determinism-taint",
    "alloc-reachability", "arith-safety",
]
missing = [r for r in expected_rules if r not in report["summary"]]
if missing:
    sys.exit(f"lint.json summary missing rule(s): {missing}")
for f in report["findings"]:
    for field in ("rule", "path", "line", "col", "key", "message"):
        if field not in f:
            sys.exit(f"lint.json finding missing field `{field}`: {f}")
print(f"lint JSON shape: OK ({len(expected_rules)} rules in summary, "
      f"{len(report['findings'])} findings)")
EOF

# ---- Determinism spot-check: same seed, byte-identical output. -------------
# (The end_to_end suite asserts this in-process too; this catches any
# cross-process nondeterminism such as hash-order leakage.)
strip_timing() { sed 's/finished in [0-9.]*s//'; }
out1=$(cargo test -q --offline -p tao-core --test end_to_end deterministic 2>&1 | strip_timing)
out2=$(cargo test -q --offline -p tao-core --test end_to_end deterministic 2>&1 | strip_timing)
if [ "$out1" != "$out2" ]; then
    echo "FAIL: two identical seeded runs produced different output." >&2
    exit 1
fi
echo "determinism spot-check: OK"

# ---- Faults stage: fault injection + soft-state convergence. ----------------
cargo test -q --offline -p tao-core --test fault_injection
cargo test -q --offline -p tao-core --test softstate_convergence

# Cross-process determinism of the three pinned in-test fingerprints: each
# test prints one `<PREFIX> …` line, and two separate processes must print
# the same one. (Each test also holds its digest to a pinned constant.)
#   two_process_fingerprint TEST_FILE TEST_NAME LINE_PREFIX MISSING DIVERGED OK
two_process_fingerprint() {
    local fp1 fp2
    fp1=$(cargo test -q --offline -p tao-core --test "$1" "$2" -- --nocapture 2>&1 | grep "^$3" || true)
    fp2=$(cargo test -q --offline -p tao-core --test "$1" "$2" -- --nocapture 2>&1 | grep "^$3" || true)
    if [ -z "$fp1" ]; then
        echo "FAIL: $4 fingerprint test produced no fingerprint line." >&2
        exit 1
    fi
    if [ "$fp1" != "$fp2" ]; then
        echo "FAIL: $5 diverged across processes." >&2
        echo "  run 1: $fp1" >&2
        echo "  run 2: $fp2" >&2
        exit 1
    fi
    echo "$6: OK ($fp1)"
}
# The canonical fault scenario (seeded FaultPlan: loss + jitter + duplicates
# + partition + crashes): delivery log digest, final clock, NetStats.
two_process_fingerprint fault_injection fault_fingerprint_for_ci FAULT_FINGERPRINT \
    "fault" "same seed + fault plan" "fault determinism"
# A fixed lookup / refresh / expire / remove / churn script on a seeded
# N = 256 system, digested in order. The constant was taken before the
# store was rebuilt around a slab (PR 14), so a change to candidate
# ranking, tie-breaking, hosting classification or expiry fails here
# instead of silently moving figures.
two_process_fingerprint softstate_store softstate_fingerprint_for_ci SOFTSTATE_FINGERPRINT \
    "soft-state" "soft-state fingerprint" "soft-state store determinism"
# Every hop of fixed-seed routes on CAN, TA-CAN (landmark-binned joins)
# and eCAN — join-only,
# churned-and-repaired and churned-unrepaired arenas, d = 2 and 3. The
# constant was taken before the hop kernel (PR 24) replaced the two
# per-candidate sqrt loops, so a change to the torus gap, the candidate
# filter or the (distance, id) tie-break fails here before it moves a
# figure's stretch column.
two_process_fingerprint route_fingerprint route_fingerprint_for_ci ROUTE_FINGERPRINT \
    "route" "route fingerprint" "routing determinism"

# Smoke: the churn example runs its bonus simulation under a lossy plan.
cargo run -q --release --offline --example churn_and_pubsub > /dev/null
echo "faults stage: OK"

# ---- Benchmark contract: benchmark/ still builds and runs clean. -----------
# benchmark/ is its own cargo package (own [workspace] and lock file), so
# the workspace build above never compiles it; it drives the public API of
# the runtime crates, and a signature change there must fail here rather
# than in the next benchmark run. Smoke scale, one second per workload:
# all four workloads, untraced then traced. Every run ends with a result
# line, and each must report zero failed operations.
bench_out=$(bash benchmark/run.sh --scale smoke --seconds 1)
bench_results=$(printf '%s\n' "$bench_out" | grep '^{"correct"' || true)
if [ -z "$bench_results" ] || printf '%s\n' "$bench_results" | grep -qv '"failed": 0'; then
    echo "FAIL: benchmark smoke run: no result line, or one without \"failed\": 0." >&2
    printf '%s\n' "$bench_results" | cut -c1-160 >&2
    exit 1
fi
echo "benchmark contract: OK (4 workloads, untraced + traced, 0 failed ops)"

# ---- Replay determinism: fingerprint stable across worker counts. -----------
# The §6 replay harness must print the same report fingerprint no matter
# how many workers fan the requests out, in separate processes. (The
# binary additionally asserts serial-vs-parallel equality in-process.)
replay_fingerprint() {
    TAO_SCALE=mini TAO_WORKERS="$1" cargo run -q --release --offline \
        -p tao-bench --bin sec6_replay 2>/dev/null | grep '^REPLAY_FINGERPRINT'
}
rfp1=$(replay_fingerprint 1)
rfp8=$(replay_fingerprint 8)
if [ -z "$rfp1" ] || [ -z "$rfp8" ]; then
    echo "FAIL: sec6_replay produced no REPLAY_FINGERPRINT line." >&2
    exit 1
fi
if [ "$rfp1" != "$rfp8" ]; then
    echo "FAIL: replay fingerprint diverged across worker counts." >&2
    echo "  TAO_WORKERS=1: $rfp1" >&2
    echo "  TAO_WORKERS=8: $rfp8" >&2
    exit 1
fi
echo "replay determinism: OK ($rfp1)"

# ---- Incremental eCAN membership: the pinned mini-scale event log. ----------
# fig02_million_churn at mini scale (32,768 nodes, 400 churn ops through
# the simulator, ~0.5 s) aborts unless its event-log fingerprint is the one
# pinned in the binary. With ROUTE_FINGERPRINT's churned-and-repaired arena
# it pins join_and_select / depart_and_repair and the SampledRandomSelector
# stream, so a change to the O(depth) relabel, the heap-free box pick or
# the in-place table repair that moves one pick fails here.
churn_fp=$(TAO_SCALE=mini cargo run -q --release --offline -p tao-bench \
    --bin fig02_million_churn 2>/dev/null | grep -o '0x7b3b8bead9f16acf' || true)
if [ -z "$churn_fp" ]; then
    echo "FAIL: TAO_SCALE=mini fig02_million_churn did not reach its pinned fingerprint." >&2
    exit 1
fi
# The repair re-checks only the entries that name the changed node; the
# oracle that re-checks every entry of every dependent must leave tables,
# reverse index and selector stream identical over generated histories.
# A filter that matched nothing would pass too, hence the count.
repair_out=$(TAO_PT_CASES=512 cargo test -q --release --offline -p tao-overlay --lib \
    repairing_the_changed_node_equals_rechecking_every_entry 2>&1 || true)
if [[ "$repair_out" != *"test result: ok. 1 passed"* ]]; then
    echo "FAIL: eCAN repair diverged from the full re-check at TAO_PT_CASES=512." >&2
    exit 1
fi
# The split tree stores child links only: each walk derives a split's axis
# from its depth and its midpoint from the coordinates it carries. Its four
# properties hold every walk to a geometric oracle over generated churned
# overlays, dims 1-5; all four must run, hence the count.
tree_out=$(TAO_PT_CASES=512 cargo test -q --release --offline -p tao-overlay --lib -- \
    sample_in_equals_the_recursive_walk_coin_for_coin \
    nodes_in_equals_the_brute_force_member_set \
    cover_is_the_cube_or_a_leaf_holding_it \
    owner_at_equals_a_scan_of_every_live_zone 2>&1 || true)
if [[ "$tree_out" != *"test result: ok. 4 passed"* ]]; then
    echo "FAIL: a split-tree walk diverged from its oracle at TAO_PT_CASES=512." >&2
    exit 1
fi
echo "incremental membership: OK (mini fig02_million_churn at $churn_fp; repair ≡ full re-check over 512 histories; split-tree walks ≡ oracles over 512 overlays each)"

# ---- Figure drift: every committed table, byte for byte. --------------------
# "Every results/*.txt byte-identical" used to be checked by hand once per
# PR, then here for four tables; all fifteen take ~25 s together, so the
# gate runs the list scripts/run_experiments.sh regenerates them from.
# fig02 drives the RandomSelector stream through the pass's member-list
# memo at 1 K–32 K nodes; fig10_13 … ablation_lvi make a GlobalState build
# (remembered host fragments, membership-tested candidates, listed
# fallbacks) per cell under every budget, size, condense rate, curve and
# vector index the paper sweeps; sec52 selects against maps that have all
# expired; sec1 is the TA-CAN baseline on the same CAN; generality is all
# three strategies of the one id-keyed system on Chord and on Pastry. One
# worker: the tables are identical for any count, the committed ones were
# recorded with one.
figures=$(grep -v '^#' scripts/figures.txt)
for fig in $figures; do
    if ! TAO_SCALE=paper TAO_WORKERS=1 cargo run -q --release --offline \
        -p tao-bench --bin "$fig" 2>/dev/null | cmp - "results/$fig.txt"; then
        echo "FAIL: $fig at TAO_SCALE=paper no longer reproduces results/$fig.txt." >&2
        exit 1
    fi
done
echo "figure drift: OK ($(echo $figures | wc -w) tables of scripts/figures.txt byte-identical to results/)"

# ---- Wall clock: the library crates read none, waived or not. ---------------
# clippy's disallowed-methods fails an unwaived read anywhere, and an
# `#[expect]` without a reason; this gate is the stronger property: under
# the eight runtime crates no waiver is left to audit. The one site that
# remains in the workspace is crates/bench/src/replay.rs, which prints
# wall-clock columns beside its simulated ones by design.
if grep -rnE 'Instant::now|SystemTime' \
    crates/{util,sim,topology,landmark,overlay,softstate,proximity,core}/src; then
    echo "FAIL: wall-clock read (or mention of one) in a library crate, see above." >&2
    exit 1
fi
echo "wall clock: OK (no Instant::now / SystemTime under the library crates)"

echo "CI: all green (offline)"
