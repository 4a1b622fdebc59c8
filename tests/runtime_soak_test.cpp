// Deterministic runtime soak (satellite c): 8 concurrent switch sessions
// replicating a randomized insert/delete/modify stream over a chaotic wire
// (drops, duplicates, reordering delays, agent restarts). Every switch TCAM
// must converge to the controller's compile snapshot, and the entire report
// must be bit-identical across runs and across thread counts. Registered as
// a ctest smoke test; the same binary runs under RULETRIS_ASAN and
// RULETRIS_TSAN configurations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/workload.h"
#include "util/rng.h"

#include "test_util.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using flowspace::FlowTable;
using runtime::ChurnSpec;
using runtime::CompiledWorkload;
using runtime::compile_churn_workload;
using runtime::Controller;
using runtime::FaultSpec;
using runtime::RuntimeConfig;
using runtime::RuntimeReport;
using runtime::SessionStats;
using testutil::expect_reports_identical;

CompiledWorkload soak_workload(uint64_t seed) {
  util::Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(30, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(25, rng)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = 120;
  churn.seed = seed * 1000 + 17;
  return compile_churn_workload(spec, tables, churn);
}

RuntimeReport run_soak(const CompiledWorkload& wl, uint64_t fault_seed,
                       size_t threads) {
  RuntimeConfig cfg;
  cfg.n_switches = 8;
  cfg.knobs.window = 4;
  cfg.n_threads = threads;
  cfg.knobs.faults = FaultSpec::chaos();
  cfg.fault_seed = fault_seed;
  Controller controller(cfg);
  return controller.run(wl.epochs, wl.final_rules);
}

TEST(RuntimeSoak, EightSwitchChaosConvergesAtFixedSeeds) {
  for (uint64_t fault_seed : {1ull, 7ull, 1234ull}) {
    const CompiledWorkload wl = soak_workload(fault_seed);
    const RuntimeReport report = run_soak(wl, fault_seed, 8);

    EXPECT_TRUE(report.all_converged) << "fault_seed " << fault_seed;
    EXPECT_EQ(report.apply_failures, 0u) << "fault_seed " << fault_seed;
    for (const SessionStats& s : report.sessions) {
      EXPECT_TRUE(s.completed);
      EXPECT_TRUE(s.converged);
    }
    // Chaos must actually bite: drops, retries and restarts all occurred
    // somewhere in the fleet, and convergence survived them.
    size_t dropped = 0;
    for (const SessionStats& s : report.sessions) dropped += s.wire.dropped;
    EXPECT_GT(dropped, 0u) << "fault_seed " << fault_seed;
    EXPECT_GT(report.retransmits + report.resync_replays, 0u)
        << "fault_seed " << fault_seed;
    EXPECT_EQ(report.ack_ms.count(), report.sessions.size() * report.epochs);
  }
}

TEST(RuntimeSoak, ReportBitIdenticalAcrossRunsAndThreadCounts) {
  const CompiledWorkload wl = soak_workload(3);
  const RuntimeReport serial = run_soak(wl, 3, 1);
  EXPECT_TRUE(serial.all_converged);

  for (size_t threads : {2ul, 8ul}) {
    const RuntimeReport threaded = run_soak(wl, 3, threads);
    expect_reports_identical(serial, threaded);
  }
  // Same thread count, fresh run: still bit-identical.
  expect_reports_identical(serial, run_soak(wl, 3, 8));
}

TEST(RuntimeSoak, AgentRestartsTriggerResyncAndStillConverge) {
  const CompiledWorkload wl = soak_workload(5);
  // Aggressive restarts, mild other faults: isolates the resync path.
  RuntimeConfig cfg;
  cfg.n_switches = 8;
  cfg.knobs.window = 4;
  cfg.n_threads = 8;
  cfg.knobs.faults.drop_p = 0.02;
  cfg.knobs.faults.delay_p = 0.10;
  cfg.knobs.faults.delay_ms = 3.0;
  cfg.knobs.faults.restart_every_ms = 40.0;
  cfg.fault_seed = 5;
  Controller controller(cfg);
  const RuntimeReport report = controller.run(wl.epochs, wl.final_rules);

  EXPECT_TRUE(report.all_converged);
  EXPECT_GT(report.restarts, 0u);
  EXPECT_GT(report.resyncs, 0u);
}

}  // namespace
}  // namespace ruletris
