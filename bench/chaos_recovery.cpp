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
//   * recovery — the chaos run must converge with failover_ok, zero
//     re-admission failures, zero rejoin audit violations, and its final
//     TCAM layouts and delta chains bit-identical to the clean run's;
//   * coverage — shard kills, failovers, quarantines and re-admissions all
//     actually fired (a chaos bench that exercises nothing is a bug);
//   * backoff — the adaptive cell's total retransmits must be strictly
//     below the fixed-timer cell's.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/sharded_controller.h"
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
  std::printf("%-12s %-8s | %-11s %-12s | %-6s %-9s %-6s %-7s | %-7s %-9s | %-6s\n",
              "mode", "threads", "updates/s", "makespan ms", "kills",
              "failovers", "quar", "readmit", "retx", "rejoin p99", "ok");

  // Clean cells have empty recovery histograms; report 0 instead of
  // throwing on an empty percentile set.
  const auto p_or0 = [](const util::Histogram& h, double q) {
    return h.count() == 0 ? 0.0 : h.percentile(q);
  };

  bool all_ok = true;
  const auto check = [&all_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      all_ok = false;
    }
    return ok;
  };

  // (mode, threads==first-seen) fingerprints for the determinism check and
  // the chaos==clean recovery check.
  std::map<std::string, std::tuple<uint64_t, uint64_t, uint64_t>> seen;
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

    bool deterministic = true;
    const auto prints = std::make_tuple(report.fleet_fingerprint,
                                        report.delta_fingerprint,
                                        report.layout_fingerprint);
    if (auto it = seen.find(mode); it != seen.end()) {
      deterministic = it->second == prints;
    } else {
      seen.emplace(mode, prints);
      first.emplace(mode, report);
    }
    const bool ok = report.runtime.all_converged && report.replay_ok &&
                    report.failover_ok &&
                    report.runtime.readmit_failures == 0 &&
                    report.runtime.rejoin_audit_violations == 0 &&
                    deterministic;
    check(ok, (mode + " cell failed its run-level checks").c_str());

    std::printf("%-12s %-8zu | %-11.0f %-12.1f | %-6zu %-9zu %-6zu %-7zu | "
                "%-7zu %-9.1f | %s%s\n",
                cell.mode, cell.threads, report.updates_per_s(),
                report.makespan_ms, report.shard_kills, report.failovers,
                report.runtime.quarantines, report.runtime.readmissions,
                report.runtime.retransmits,
                p_or0(report.runtime.rejoin_ms, 99.0),
                ok ? "yes" : "NO",
                deterministic ? "" : " [fingerprint mismatch]");
    std::fflush(stdout);

    if (auto* j = bench::json()) {
      j->begin_row();
      j->field("mode", mode);
      j->field("switches", static_cast<double>(kSwitches));
      j->field("shards", static_cast<double>(kShards));
      j->field("threads", static_cast<double>(cell.threads));
      j->field("rule_ops", static_cast<double>(report.rule_ops));
      j->field("updates_per_s", report.updates_per_s());
      j->field("makespan_ms", report.makespan_ms);
      j->field("compile_vt_ms", report.compile_vt_ms);
      j->field("shard_kills", static_cast<double>(report.shard_kills));
      j->field("failovers", static_cast<double>(report.failovers));
      j->field("failover_epochs", static_cast<double>(report.failover_epochs));
      j->field("quarantines",
               static_cast<double>(report.runtime.quarantines));
      j->field("readmissions",
               static_cast<double>(report.runtime.readmissions));
      j->field("retransmits", static_cast<double>(report.runtime.retransmits));
      j->field("probe_sends", static_cast<double>(report.runtime.probe_sends));
      j->field("blackout_drops",
               static_cast<double>(report.runtime.blackout_drops));
      j->field("failover_p50_ms", p_or0(report.failover_ms, 50.0));
      j->field("rejoin_p50_ms", p_or0(report.runtime.rejoin_ms, 50.0));
      j->field("rejoin_p99_ms", p_or0(report.runtime.rejoin_ms, 99.0));
      j->field("fleet_fingerprint",
               util::strfmt("%016llx", static_cast<unsigned long long>(
                                           report.fleet_fingerprint)));
      j->field("delta_fingerprint",
               util::strfmt("%016llx", static_cast<unsigned long long>(
                                           report.delta_fingerprint)));
      j->field("layout_fingerprint",
               util::strfmt("%016llx", static_cast<unsigned long long>(
                                           report.layout_fingerprint)));
      j->field("converged", report.runtime.all_converged ? 1.0 : 0.0);
      j->field("deterministic", deterministic ? 1.0 : 0.0);
      // Host-dependent diagnostics; the perf gate ignores these fields.
      j->field("wall_ms", report.wall_ms);
      j->field("steals", static_cast<double>(report.steals));
      j->field("starved_pumps", static_cast<double>(report.starved_pumps));
    }
  }

  const runtime::FleetReport& clean = first.at("clean");
  const runtime::FleetReport& chaos = first.at("chaos");
  check(clean.shard_kills == 0 && clean.runtime.quarantines == 0,
        "clean cell saw fault-layer activity");
  check(chaos.shard_kills > 0, "no shard kill fired");
  check(chaos.failovers > 0, "no switch was adopted");
  check(chaos.runtime.quarantines > 0, "no session quarantined");
  check(chaos.runtime.readmissions == chaos.runtime.quarantines,
        "a quarantined switch never rejoined");
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
