// Runtime scaling: fleet throughput and ack latency of the asynchronous
// control-plane runtime, sweeping switch count (1 -> 64) x in-flight window
// (1 / 4 / 16) under a mild fault mix.
//
// What the sweep shows:
//   * window  — with window=1 every epoch pays a full round trip (send,
//     apply, ack) before the next may leave the controller; window>1
//     pipelines batches behind unacked barriers and hides the channel.
//   * switches — sessions are independent event loops fanned across a
//     thread pool; virtual-time throughput scales with the fleet while the
//     per-switch latency distribution stays flat.
// Every cell self-checks: all switches must converge to the controller
// snapshot or the bench exits non-zero, so protocol regressions fail
// tier-1 via the smoke test.
//
// Flags: --smoke       tiny sweep for ctest
//        --threads N   session worker threads (default: hardware)
//        --json PATH   machine-readable report -> BENCH_runtime.json
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/report_fields.h"
#include "runtime/workload.h"
#include "util/logging.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  using compiler::PolicySpec;
  using flowspace::FlowTable;

  bool smoke = false;
  size_t threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atol(argv[i + 1]));
    }
  }
  bench::init_json(argc, argv, "runtime_scaling");
  util::set_log_level(util::LogLevel::kOff);

  // One workload, compiled once, shared by every cell: a monitor+router
  // composition churned on the monitor leaf.
  util::Rng rng(2024);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(smoke ? 25 : 60, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(smoke ? 20 : 50, rng)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  runtime::ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = smoke ? 40 : 200;
  churn.seed = 99;

  util::Stopwatch compile_watch;
  const runtime::CompiledWorkload workload =
      runtime::compile_churn_workload(spec, tables, churn);
  std::printf("\n=== Runtime scaling: %zu epochs, compiled in %.1f ms ===\n",
              workload.epochs.size(), compile_watch.elapsed_ms());

  // Mild fault mix: enough loss/reordering that the retry and resync
  // machinery is exercised in every cell, not so much that retransmission
  // noise swamps the window effect.
  runtime::FaultSpec faults;
  faults.drop_p = 0.02;
  faults.duplicate_p = 0.02;
  faults.delay_p = 0.10;
  faults.delay_ms = 2.0;
  faults.restart_every_ms = 2000.0;

  if (auto* j = bench::json()) {
    j->meta("workload", "monitor+router, churn on monitor");
    j->meta("epochs", static_cast<double>(workload.epochs.size()));
    j->meta("threads", static_cast<double>(threads));
    j->meta("drop_p", faults.drop_p);
    j->meta("delay_p", faults.delay_p);
  }

  const std::vector<size_t> switch_counts =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16, 64};
  const std::vector<size_t> windows = {1, 4, 16};

  std::printf("%-9s %-7s | %-12s %-13s | %-10s %-10s | %-9s\n",
              "switches", "window", "makespan ms", "updates/s", "ack p50",
              "ack p99", "converged");

  bool all_ok = true;
  // makespan per (switches, window) for the window>1 sanity check.
  std::map<std::pair<size_t, size_t>, double> makespans;

  for (const size_t n_switches : switch_counts) {
    for (const size_t window : windows) {
      runtime::RuntimeConfig cfg;
      cfg.n_switches = n_switches;
      cfg.knobs.window = window;
      cfg.n_threads = threads;
      cfg.knobs.faults = faults;
      cfg.fault_seed = 7;
      cfg.tcam_capacity = workload.suggested_capacity();

      runtime::Controller controller(cfg);
      const runtime::RuntimeReport report =
          controller.run(workload.epochs, workload.final_rules);
      makespans[{n_switches, window}] = report.makespan_ms;
      all_ok = all_ok && report.all_converged;

      std::printf("%-9zu %-7zu | %-12.2f %-13.0f | %-10.3f %-10.3f | %-9s\n",
                  n_switches, window, report.makespan_ms,
                  report.updates_per_s(), report.ack_ms.median(),
                  report.ack_ms.p99(), report.all_converged ? "yes" : "NO");

      if (auto* j = bench::json()) {
        j->begin_row();
        j->fields(report);
        j->field("window", static_cast<double>(window));
      }
    }
  }
  bench::write_json();

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: some sessions did not converge\n");
    return 1;
  }
  // The point of the window: at the largest fleet, pipelining must beat
  // stop-and-wait on virtual makespan.
  const size_t largest = switch_counts.back();
  if (makespans[{largest, 4}] >= makespans[{largest, 1}]) {
    std::fprintf(stderr,
                 "FAIL: window=4 (%.2f ms) not faster than window=1 (%.2f ms) "
                 "at %zu switches\n",
                 makespans[{largest, 4}], makespans[{largest, 1}], largest);
    return 1;
  }
  std::printf("\nOK: all sessions converged; window=4 beats window=1 at %zu "
              "switches (%.2f vs %.2f ms)\n",
              largest, makespans[{largest, 4}], makespans[{largest, 1}]);
  return 0;
}
