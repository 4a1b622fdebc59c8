// Chaos recovery harness — clean vs chaos fleet throughput and the cost of
// surviving: shard kills with blob-replay failover, agent blackouts with
// quarantine + warm-boot re-admission, brownout wires with adaptive
// retransmit backoff.
//
// Cells (all virtual-time deterministic, so rows are bit-exact):
//   * mode=clean   — the PR-9 fleet geometry, no faults: the baseline the
//     degradation is measured against;
//   * mode=chaos   — same geometry under a full ChaosSchedule (two shard
//     kills, two agent blackouts) on brownout wires with firmware crashes;
//   * mode=fixed_timer / mode=adaptive — retry-policy ablation under
//     sustained >= 0.3 drop with brownout windows, same fault seed.
//
// Self-checks (exit non-zero on violation):
//   * determinism — cells sharing (mode, switches, shards) but differing
//     in threads must produce identical fleet/delta/layout fingerprints;
//   * recovery — every cell must pass FleetReport::self_checks_ok()
//     (converged, replay and failover verified, every quarantined switch
//     re-admitted with a clean catch-up and rejoin audit), and the chaos
//     run's final TCAM layouts and delta chains must be bit-identical to
//     the clean run's;
//   * coverage — shard kills, failovers and quarantines all actually fired
//     (a chaos bench that exercises nothing is a bug);
//   * backoff — the adaptive cell's total retransmits must be strictly
//     below the fixed-timer cell's.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/report_fields.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace ruletris;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  (void)smoke;  // the sweep is small; smoke and full mode run the same cells
  bench::init_json(argc, argv, "chaos_recovery");
  util::set_log_level(util::LogLevel::kOff);

  constexpr size_t kSwitches = 8;
  constexpr size_t kShards = 3;
  constexpr size_t kUpdates = 16;

  const auto base_spec = [] {
    runtime::FleetSpec spec;
    spec.n_switches = kSwitches;
    spec.n_shards = kShards;
    spec.updates_per_switch = kUpdates;
    spec.seed = 21;
    spec.fault_seed = 9;
    spec.audit_stride = 2;
    spec.tcam_capacity = 1024;
    return spec;
  };
  const auto chaos_schedule = [] {
    runtime::ChaosSchedule chaos;
    // Shards 1 and 2 die early on their compile clocks; shard 0 adopts
    // their five orphaned switches in kill order.
    chaos.shard_kills.push_back({1, 0.3});
    chaos.shard_kills.push_back({2, 0.8});
    // Two agents go dark past the quarantine escalation, then return.
    chaos.blackouts.push_back({1, {30.0, 400.0}});
    chaos.blackouts.push_back({4, {60.0, 300.0}});
    return chaos;
  };
  // Retry ablation wire: >= 0.3 sustained drop everywhere, 0.9 inside the
  // brownout windows — the profile the escalation is sized against.
  const auto lossy_wire = [] {
    runtime::FaultSpec f;
    f.drop_p = 0.3;
    f.brownout_drop_p = 0.9;
    f.brownout_period_ms = 400.0;
    f.brownout_duty = 0.5;
    return f;
  };

  struct Cell {
    const char* mode;
    size_t threads;
  };
  const std::vector<Cell> cells = {
      {"clean", 1},       {"clean", 2},   {"chaos", 1}, {"chaos", 2},
      {"fixed_timer", 1}, {"adaptive", 1},
  };

  if (auto* j = bench::json()) {
    j->meta("workload", "per-switch mon||rtr, bursty churn on mon");
    j->meta("updates_per_switch", static_cast<double>(kUpdates));
    j->meta("chaos", "2 shard kills + 2 agent blackouts, brownout wire");
    j->meta("quarantine_after", 3.0);
    j->meta("ablation_drop_p", 0.3);
  }

  std::printf("\n=== Chaos recovery: clean vs chaos fleet (%zu switches, "
              "%zu shards) ===\n", kSwitches, kShards);
  std::printf("%-12s %-8s | %-11s %-12s | %-6s %-9s %-8s | %-10s | %-6s\n",
              "mode", "threads", "updates/s", "makespan ms", "kills",
              "failovers", "active", "rejoin p99", "ok");

  bool all_ok = true;
  const auto check = [&all_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      all_ok = false;
    }
    return ok;
  };

  // First-seen report per mode, for the determinism check and the
  // chaos==clean recovery check.
  std::map<std::string, runtime::FleetReport> first;

  for (const Cell& cell : cells) {
    runtime::FleetSpec spec = base_spec();
    spec.n_threads = cell.threads;
    const std::string mode = cell.mode;
    if (mode == "chaos") {
      spec.chaos = chaos_schedule();
      spec.knobs.faults = runtime::FaultSpec::brownout();
      spec.knobs.retry.quarantine_after = 3;
    } else if (mode == "fixed_timer" || mode == "adaptive") {
      spec.knobs.faults = lossy_wire();
      spec.knobs.retry.adaptive = mode == "adaptive";
    }

    const runtime::FleetReport report = runtime::Controller(spec).run_compiled(spec);

    const auto [it, fresh] = first.try_emplace(mode, report);
    const bool deterministic =
        fresh || it->second.fingerprints() == report.fingerprints();
    const bool ok = report.self_checks_ok() && deterministic;
    check(ok, (mode + " cell failed its run-level checks").c_str());

    std::printf("%-12s %-8zu | %-11.0f %-12.1f | %-6zu %-9zu %-8zu | %-10.1f | "
                "%s%s\n",
                cell.mode, cell.threads, report.updates_per_s(),
                report.makespan_ms, report.shard_kills, report.failovers,
                report.active_switches,
                runtime::percentile_or0(report.runtime.rejoin_ms, 99.0),
                ok ? "yes" : "NO",
                deterministic ? "" : " [fingerprint mismatch]");
    std::fflush(stdout);

    if (auto* j = bench::json()) {
      j->begin_row();
      j->field("mode", mode);
      j->fields(report);
      j->field("deterministic", deterministic ? 1.0 : 0.0);
    }
  }

  const runtime::FleetReport& clean = first.at("clean");
  const runtime::FleetReport& chaos = first.at("chaos");
  check(clean.shard_kills == 0 && clean.runtime.quarantines == 0,
        "clean cell saw fault-layer activity");
  check(chaos.shard_kills > 0, "no shard kill fired");
  check(chaos.failovers > 0, "no switch was adopted");
  check(chaos.runtime.quarantines > 0, "no session quarantined");
  // The recovery guarantee: chaos final layouts and delta chains must be
  // bit-identical to the never-failed run's.
  check(chaos.layout_fingerprint == clean.layout_fingerprint,
        "chaos TCAM layouts diverged from the clean run");
  check(chaos.delta_fingerprint == clean.delta_fingerprint,
        "chaos delta chains diverged from the clean run");

  const runtime::FleetReport& fixed = first.at("fixed_timer");
  const runtime::FleetReport& adaptive = first.at("adaptive");
  check(adaptive.runtime.retransmits < fixed.runtime.retransmits,
        "adaptive backoff did not reduce retransmits under >= 0.3 drop");
  check(adaptive.layout_fingerprint == fixed.layout_fingerprint,
        "retry ablation changed the converged layouts");
  std::printf("\nbackoff ablation: fixed=%zu retransmits, adaptive=%zu "
              "(%.0f%% of fixed)\n",
              fixed.runtime.retransmits, adaptive.runtime.retransmits,
              100.0 * static_cast<double>(adaptive.runtime.retransmits) /
                  static_cast<double>(fixed.runtime.retransmits));
  std::printf("chaos degradation: clean %.0f updates/s -> chaos %.0f "
              "updates/s (active switches only)\n",
              clean.updates_per_s(), chaos.updates_per_s());

  bench::write_json();
  std::printf("%s\n", all_ok ? "chaos recovery: all checks passed"
                             : "chaos recovery: CHECK FAILURES");
  return all_ok ? 0 : 1;
}
