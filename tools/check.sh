#!/usr/bin/env bash
# One-command verification gate: configure + build the plain tree and the
# three sanitizer trees, run the full test suite in each, build and test
# the standalone perfbench project, and finish with every --smoke bench
# (self-checking, non-zero exit on violation) from the plain tree.
#
#   tools/check.sh              # everything (slow: four builds + suites)
#   CHECK_TREES=plain tools/check.sh        # just the tier-1 gate
#   CHECK_TREES="plain asan" JOBS=8 tools/check.sh
#
# Trees land in build-check-<name>/ next to the source tree, away from the
# default build/ so a developer's incremental tree is never clobbered.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
CHECK_TREES="${CHECK_TREES:-plain asan tsan ubsan}"

cmake_flags_for() {
  case "$1" in
    plain) echo "" ;;
    asan)  echo "-DRULETRIS_ASAN=ON" ;;
    tsan)  echo "-DRULETRIS_TSAN=ON" ;;
    ubsan) echo "-DRULETRIS_UBSAN=ON" ;;
    *) echo "unknown tree: $1" >&2; exit 2 ;;
  esac
}

for tree in $CHECK_TREES; do
  dir="$ROOT/build-check-$tree"
  echo "=== [$tree] configure + build -> $dir"
  # shellcheck disable=SC2046  # word-splitting the flags is intended
  cmake -S "$ROOT" -B "$dir" $(cmake_flags_for "$tree") \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$dir.configure.log" 2>&1 \
    || { tail -20 "$dir.configure.log"; exit 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir.build.log" 2>&1 \
    || { tail -30 "$dir.build.log"; exit 1; }
  echo "=== [$tree] ctest"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
done

# The standalone perfbench project is never compiled by the trees above:
# build it and run its own tests, so a rename of anything it names
# (ShardedController, FleetSpec, FleetReport, SwitchTask) fails here.
dir="$ROOT/build-check-perfbench"
echo "=== [perfbench] configure + build -> $dir"
cmake -S "$ROOT/perfbench" -B "$dir" > "$dir.configure.log" 2>&1 \
  || { tail -20 "$dir.configure.log"; exit 1; }
cmake --build "$dir" -j "$JOBS" > "$dir.build.log" 2>&1 \
  || { tail -30 "$dir.build.log"; exit 1; }
echo "=== [perfbench] ctest"
(cd "$dir" && ctest --output-on-failure -j "$JOBS")

first_tree="${CHECK_TREES%% *}"
bench_dir="$ROOT/build-check-$first_tree/bench"
echo "=== smoke benches ($first_tree tree)"
for bench in chaos_recovery composition_scaling dag_extraction \
             fleet_throughput netplan recovery_latency runtime_scaling \
             tcam_scheduler traffic_engine warm_boot; do
  echo "--- $bench --smoke"
  "$bench_dir/$bench" --smoke > /dev/null \
    || { echo "SMOKE FAILED: $bench"; exit 1; }
done

# Perf gate: the fleet harness is virtual-time deterministic, so a smoke
# sweep must reproduce the committed baseline rows (same geometry cells)
# within float-printing noise. Drift means the modelled system changed —
# regenerate BENCH_fleet.json with `fleet_throughput --json` and commit it
# with the change that moved the numbers.
echo "=== fleet perf gate (smoke sweep vs committed BENCH_fleet.json)"
fleet_fresh="$ROOT/build-check-$first_tree/BENCH_fleet.smoke.json"
"$bench_dir/fleet_throughput" --smoke --json "$fleet_fresh" > /dev/null \
  || { echo "SMOKE FAILED: fleet_throughput (gate run)"; exit 1; }
python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_fleet.json" "$fleet_fresh" \
  || { echo "PERF GATE FAILED: fleet_throughput drifted from baseline"; exit 1; }

# Same gate for the chaos harness (fingerprint-exact, 2% numeric drift):
# clean rows prove the fault layer costs nothing when unused, chaos rows
# pin the recovery counters and latencies. Regenerate BENCH_chaos.json with
# `chaos_recovery --json` when the modelled system legitimately moves.
echo "=== chaos perf gate (vs committed BENCH_chaos.json)"
chaos_fresh="$ROOT/build-check-$first_tree/BENCH_chaos.smoke.json"
"$bench_dir/chaos_recovery" --smoke --json "$chaos_fresh" > /dev/null \
  || { echo "SMOKE FAILED: chaos_recovery (gate run)"; exit 1; }
python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_chaos.json" "$chaos_fresh" \
  || { echo "PERF GATE FAILED: chaos_recovery drifted from baseline"; exit 1; }

echo "=== all checks passed (trees: $CHECK_TREES)"
