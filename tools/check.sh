#!/usr/bin/env bash
# One-command verification gate: configure + build the plain tree and the
# three sanitizer trees, run the full test suite in each, build and test
# the standalone perfbench project, and finish with every --smoke bench
# (self-checking, non-zero exit on violation) from the plain tree. Each
# tree's suite already runs the smoke benches bench/CMakeLists.txt
# registers (traffic_engine_smoke among them: batched lookups on 3 shards),
# so every sanitizer sees their multi-thread paths.
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
for bench in chaos_recovery composition_scaling dag_extraction fig9_parallel \
             fig10_sequential fleet_throughput netplan recovery_latency \
             runtime_scaling tcam_scheduler traffic_engine warm_boot; do
  echo "--- $bench --smoke"
  "$bench_dir/$bench" --smoke > /dev/null \
    || { echo "SMOKE FAILED: $bench"; exit 1; }
done

# Perf gate: the fleet harness is virtual-time deterministic, so the full
# sweep must reproduce every committed baseline row within float-printing
# noise and every fingerprint exactly. The full grid (8 cells, up to 1,280
# switches, a few seconds) is gated rather than the two smoke cells, so a
# compile-path change that reorders output only at fleet scale fails here.
# Drift means the modelled system changed — regenerate BENCH_fleet.json with
# `fleet_throughput --json` and commit it with the change that moved it.
echo "=== fleet perf gate (full sweep vs committed BENCH_fleet.json)"
fleet_fresh="$ROOT/build-check-$first_tree/BENCH_fleet.fresh.json"
"$bench_dir/fleet_throughput" --json "$fleet_fresh" > /dev/null \
  || { echo "BENCH FAILED: fleet_throughput (gate run)"; exit 1; }
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

# Same gate for the crash-recovery harness (full run, ~1 s): every crash
# point is one seeded Bernoulli draw at a crash-hook consultation, so a
# firmware change that adds, drops or reorders a consultation moves the
# rollback/roll-forward split and the recovered writes. The host-timed
# firmware_cpu_ms and *_overhead_pct columns are skipped (bench_gate.py
# PROFILE_IGNORE). Regenerate BENCH_recovery.json with
# `recovery_latency --json` when the modelled system legitimately moves.
echo "=== recovery perf gate (vs committed BENCH_recovery.json)"
recovery_fresh="$ROOT/build-check-$first_tree/BENCH_recovery.fresh.json"
"$bench_dir/recovery_latency" --json "$recovery_fresh" > /dev/null \
  || { echo "BENCH FAILED: recovery_latency (gate run)"; exit 1; }
python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_recovery.json" "$recovery_fresh" \
  || { echo "PERF GATE FAILED: recovery_latency drifted from baseline"; exit 1; }

# Same gate for the CacheFlow figure: its FIB DAG comes from
# dag::build_min_dag and drives the DAG firmware's swaps, so a builder change
# that moved an edge shows in the swap and TCAM-latency columns. The
# firmware_* wall-clock columns are skipped (bench_gate.py PROFILE_IGNORE).
echo "=== fig11 perf gate (vs committed BENCH_fig11.json)"
fig11_fresh="$ROOT/build-check-$first_tree/BENCH_fig11.fresh.json"
"$bench_dir/fig11_cacheflow" --json "$fig11_fresh" > /dev/null \
  || { echo "BENCH FAILED: fig11_cacheflow (gate run)"; exit 1; }
python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_fig11.json" "$fig11_fresh" \
  || { echo "PERF GATE FAILED: fig11_cacheflow drifted from baseline"; exit 1; }

# Same gate for the paper's composition figures (Fig. 9 parallel, Fig. 10
# sequential), full sweep as recorded: their tcam_* columns are the modelled
# TCAM write latency per update and channel_* the modelled control-channel
# time, so a compile or firmware change that costs RuleTris (or the
# baselines) an entry write fails here. The wall-clock compile_*,
# firmware_* and total_* columns are skipped (bench_gate.py PROFILE_IGNORE).
for fig in fig9_parallel:fig9 fig10_sequential:fig10; do
  bench="${fig%%:*}"
  name="${fig##*:}"
  echo "=== $name perf gate (vs committed BENCH_$name.json)"
  fresh="$ROOT/build-check-$first_tree/BENCH_$name.fresh.json"
  "$bench_dir/$bench" --json "$fresh" > /dev/null \
    || { echo "BENCH FAILED: $bench (gate run)"; exit 1; }
  python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_$name.json" "$fresh" \
    || { echo "PERF GATE FAILED: $bench drifted from baseline"; exit 1; }
done

# Same gate for the TCAM scheduler sweep: its chain columns (chain_ops,
# total_moves, max_chain), occupancy and the cached-vs-legacy verdicts are
# modelled, so a firmware change that moves one entry fails here. The
# wall-clock *_ms, speedup and threads_effective columns are skipped
# (bench_gate.py PROFILE_IGNORE).
echo "=== tcam perf gate (vs committed BENCH_tcam.json)"
tcam_fresh="$ROOT/build-check-$first_tree/BENCH_tcam.fresh.json"
"$bench_dir/tcam_scheduler" --threads 4 --json "$tcam_fresh" > /dev/null \
  || { echo "BENCH FAILED: tcam_scheduler (gate run)"; exit 1; }
python3 "$ROOT/tools/bench_gate.py" "$ROOT/BENCH_tcam.json" "$tcam_fresh" \
  || { echo "PERF GATE FAILED: tcam_scheduler drifted from baseline"; exit 1; }

echo "=== all checks passed (trees: $CHECK_TREES)"
