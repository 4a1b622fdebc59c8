// Fleet throughput harness — the cbench analogue for the sharded pipeline.
//
// Sweeps switches × compile shards × dispatch threads over the compiled
// fleet (Controller::run_compiled): every switch runs its own bursty churn stream, every
// shard compiles its switches' epochs incrementally under a modelled
// per-epoch cost, and sessions consume sealed epochs through lock-free
// publication rings while later epochs are still compiling. Reported
// throughput is *virtual-time* sustained aggregate rule-updates/s — every
// compiled rule-level operation over the slowest switch's commit time — so
// the number measures the modelled system (0.6 ms TCAM writes, channel
// costs, windowed sessions), not the host's core count, and is bit-exact
// reproducible.
//
// Self-checks (exit non-zero on violation):
//   * determinism — cells sharing (switches, shards) but differing in
//     threads must produce identical fleet and delta fingerprints;
//   * RTDZ replay — every audited switch's delta chain must reproduce its
//     final compile image;
//   * full mode only: aggregate updates/s must scale monotonically in the
//     switch count and the top cell must sustain >= 1e6 updates/s.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
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
  bench::init_json(argc, argv, "fleet_throughput");
  util::set_log_level(util::LogLevel::kOff);

  struct Cell {
    size_t switches, shards, threads;
  };
  // The two smallest cells are shared between smoke and full mode so the
  // perf gate (tools/bench_gate.py) can diff a smoke run against the
  // committed full baseline row-by-row.
  std::vector<Cell> cells = {{8, 2, 1}, {8, 2, 2}};
  if (!smoke) {
    cells.insert(cells.end(), {{64, 8, 1},
                               {64, 8, 2},
                               {256, 32, 1},
                               {256, 32, 2},
                               {1280, 64, 1},
                               {1280, 64, 2}});
  }

  // One workload shape for every cell: per-switch monitor ∥ router policies
  // under bursty locality-heavy churn (geometric bursts, correlated
  // teardown). Fixed — the sweep varies only the fleet geometry, so rows
  // are comparable across modes and commits.
  constexpr size_t kUpdates = 24;

  if (auto* j = bench::json()) {
    j->meta("workload", "per-switch mon||rtr, bursty churn on mon");
    j->meta("updates_per_switch", static_cast<double>(kUpdates));
    j->meta("burst_continue_p", 0.75);
    j->meta("burst_delete_p", 0.25);
    j->meta("window", 8.0);
    j->meta("target_updates_per_s", 1e6);
  }

  std::printf("\n=== Fleet throughput: sharded compile + %zu-update bursty churn"
              " per switch ===\n", kUpdates);
  std::printf("%-9s %-7s %-8s | %-13s %-12s %-11s | %-9s %-9s | %-7s %-8s %-6s\n",
              "switches", "shards", "threads", "updates/s", "makespan ms",
              "compile ms", "ack p50", "ack p99", "steals", "starved", "ok");

  bool all_ok = true;
  // (switches, shards) -> fingerprints of the first run; later thread
  // counts must reproduce them bit-for-bit.
  std::map<std::pair<size_t, size_t>, std::pair<uint64_t, uint64_t>> seen;
  // threads==1 throughput per switch count, for the monotonicity check.
  std::map<size_t, double> curve;

  for (const Cell& cell : cells) {
    runtime::FleetSpec spec;
    spec.n_switches = cell.switches;
    spec.n_shards = cell.shards;
    spec.n_threads = cell.threads;
    spec.updates_per_switch = kUpdates;
    spec.seed = 42;
    spec.fault_seed = 7;
    spec.knobs.window = 8;

    const runtime::FleetReport report =
        runtime::Controller(spec).run_compiled(spec);

    const auto key = std::make_pair(cell.switches, cell.shards);
    bool deterministic = true;
    const auto prints =
        std::make_pair(report.fleet_fingerprint, report.delta_fingerprint);
    if (auto it = seen.find(key); it != seen.end()) {
      deterministic = it->second == prints;
    } else {
      seen.emplace(key, prints);
    }
    const bool ok = report.runtime.all_converged && report.replay_ok &&
                    deterministic;
    all_ok = all_ok && ok;

    std::printf("%-9zu %-7zu %-8zu | %-13.0f %-12.1f %-11.1f | %-9.2f %-9.2f | "
                "%-7zu %-8zu %s%s%s\n",
                cell.switches, cell.shards, cell.threads,
                report.updates_per_s(), report.makespan_ms,
                report.compile_vt_ms, report.runtime.ack_ms.median(),
                report.runtime.ack_ms.p99(), report.steals,
                report.starved_pumps, ok ? "yes" : "NO",
                deterministic ? "" : " [fingerprint mismatch]",
                report.replay_ok ? "" : " [replay failed]");
    std::fflush(stdout);

    if (cell.threads == 1) curve[cell.switches] = report.updates_per_s();

    if (auto* j = bench::json()) {
      j->begin_row();
      j->field("switches", static_cast<double>(cell.switches));
      j->field("shards", static_cast<double>(cell.shards));
      j->field("threads", static_cast<double>(cell.threads));
      j->field("rule_ops", static_cast<double>(report.rule_ops));
      j->field("updates_per_s", report.updates_per_s());
      j->field("makespan_ms", report.makespan_ms);
      j->field("compile_vt_ms", report.compile_vt_ms);
      j->field("ack_p50_ms", report.runtime.ack_ms.median());
      j->field("ack_p99_ms", report.runtime.ack_ms.p99());
      j->field("entry_writes", static_cast<double>(report.runtime.entry_writes));
      j->field("shard_steps", static_cast<double>(report.shard_steps));
      j->field("replay_audits", static_cast<double>(report.replay_audits));
      j->field("fleet_fingerprint",
               util::strfmt("%016llx", static_cast<unsigned long long>(
                                           report.fleet_fingerprint)));
      j->field("delta_fingerprint",
               util::strfmt("%016llx", static_cast<unsigned long long>(
                                           report.delta_fingerprint)));
      j->field("converged", report.runtime.all_converged ? 1.0 : 0.0);
      j->field("deterministic", deterministic ? 1.0 : 0.0);
      // Host-dependent diagnostics; the perf gate ignores these fields.
      j->field("wall_ms", report.wall_ms);
      j->field("steals", static_cast<double>(report.steals));
      j->field("starved_pumps", static_cast<double>(report.starved_pumps));
    }
  }

  if (!smoke) {
    double prev = 0.0;
    for (const auto& [switches, ups] : curve) {
      if (ups <= prev) {
        std::printf("FAIL: updates/s not monotone in switches (%zu switches: "
                    "%.0f <= %.0f)\n", switches, ups, prev);
        all_ok = false;
      }
      prev = ups;
    }
    const double top = curve.empty() ? 0.0 : curve.rbegin()->second;
    std::printf("\ntop sustained aggregate: %.3g updates/s (target 1e6)\n", top);
    if (top < 1e6) {
      std::printf("FAIL: top cell below 1e6 updates/s\n");
      all_ok = false;
    }
  }

  bench::write_json();
  std::printf("%s\n", all_ok ? "fleet throughput: all checks passed"
                             : "fleet throughput: CHECK FAILURES");
  return all_ok ? 0 : 1;
}
