// Parameterized stress sweeps: long churn streams against both firmwares at
// several capacities and loads, with full semantic cross-checks. These are
// the failure-injection & endurance companions to the per-module suites.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_set>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "flowspace/rule.h"
#include "tcam/dag_scheduler.h"
#include "tcam/priority_firmware.h"
#include "test_util.h"
#include "util/logging.h"

namespace ruletris {
namespace {

using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using tcam::DagScheduler;
using tcam::PriorityFirmware;
using tcam::Tcam;
using util::Rng;

// (tcam capacity, fill fraction, rng seed)
using StressParam = std::tuple<size_t, double, uint64_t>;

class FirmwareStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(FirmwareStressTest, BothFirmwaresStayEquivalentUnderChurn) {
  const auto [capacity, fill, seed] = GetParam();
  util::set_log_level(util::LogLevel::kOff);
  Rng rng(seed);

  // A shared logical table drives both firmwares.
  const FlowTable fib{classbench::generate_router(capacity * 3, rng)};
  const auto graph = build_min_dag(fib);
  std::vector<RuleId> all;
  for (const Rule& r : fib.rules()) all.push_back(r.id);

  Tcam dag_tcam(capacity);
  DagScheduler dag_fw(dag_tcam);
  dag_fw.load(graph);
  Tcam prio_tcam(capacity);
  PriorityFirmware prio_fw(prio_tcam);

  // Fill both to the target load with the same subset. Install order:
  // dependencies first for the DAG firmware.
  std::vector<RuleId> cached;
  {
    std::unordered_set<RuleId> chosen;
    while (chosen.size() < static_cast<size_t>(fill * capacity)) {
      chosen.insert(all[rng.next_below(all.size())]);
    }
    for (RuleId id : graph.topo_order_high_to_low()) {
      if (!chosen.count(id)) continue;
      ASSERT_TRUE(dag_fw.insert(fib.rule(id)));
      ASSERT_TRUE(prio_fw.insert(fib.rule(id)));
      cached.push_back(id);
    }
  }

  size_t dag_writes = 0, prio_writes = 0;
  const auto dag_base = dag_tcam.stats().entry_writes;
  const auto prio_base = prio_tcam.stats().entry_writes;

  for (int step = 0; step < 300; ++step) {
    // Swap a random cached rule for a random uncached one. The DAG firmware
    // needs every dependency present, so swap in only rules whose direct
    // dependencies are cached or absent from both (consistent pair).
    const size_t out_idx = rng.next_below(cached.size());
    RuleId in = all[rng.next_below(all.size())];
    int guard = 0;
    bool viable = false;
    while (guard++ < 300) {
      in = all[rng.next_below(all.size())];
      if (dag_tcam.contains(in) || in == cached[out_idx]) continue;
      viable = true;
      break;
    }
    if (!viable) continue;

    // evict() keeps the vertex and its edges for a later reinsert.
    dag_fw.evict(cached[out_idx]);
    prio_fw.remove(cached[out_idx]);

    ASSERT_TRUE(dag_fw.insert(fib.rule(in)));
    ASSERT_TRUE(prio_fw.insert(fib.rule(in)));
    cached[out_idx] = in;

    ASSERT_TRUE(dag_fw.layout_valid());
    ASSERT_TRUE(prio_fw.layout_sorted());

    // Cross-equivalence on sampled traffic: both TCAMs hold the same rule
    // set, so every lookup must agree.
    for (int k = 0; k < 10; ++k) {
      flowspace::Packet p;
      p.set(flowspace::FieldId::kDstIp, rng.next_u32());
      const Rule* a = dag_tcam.lookup(p);
      const Rule* b = prio_tcam.lookup(p);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(a->id, b->id) << "firmwares diverged at step " << step;
      }
    }
  }

  dag_writes = dag_tcam.stats().entry_writes - dag_base;
  prio_writes = prio_tcam.stats().entry_writes - prio_base;
  // The whole point: same workload, strictly less TCAM work with the DAG.
  EXPECT_LE(dag_writes, prio_writes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FirmwareStressTest,
    ::testing::Values(StressParam{64, 0.7, 1}, StressParam{64, 0.9, 2},
                      StressParam{256, 0.8, 3}, StressParam{256, 0.95, 4},
                      StressParam{512, 0.9, 5}),
    [](const auto& info) {
      return "cap" + std::to_string(std::get<0>(info.param)) + "_fill" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// DAG scheduler keeps working when the graph is a long chain (every rule
// depends on the next): worst case for chain search.
TEST(FirmwareStress, DeepDependencyChain) {
  util::set_log_level(util::LogLevel::kOff);
  constexpr size_t kDepth = 24;
  std::vector<Rule> rules;
  for (size_t i = 0; i < kDepth; ++i) {
    flowspace::TernaryMatch m;
    m.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000,
                 static_cast<uint32_t>(8 + i));
    rules.push_back(Rule::make(m, flowspace::ActionList{flowspace::Action::forward(1)},
                               static_cast<int32_t>(kDepth - i)));
  }
  const FlowTable table{rules};
  const auto graph = build_min_dag(table);
  ASSERT_EQ(graph.edge_count(), kDepth - 1) << "must be a pure chain";

  Tcam tcam(kDepth + 2);
  DagScheduler scheduler(tcam);
  scheduler.load(graph);
  // Install most-general-first (reverse dependency order) to force maximal
  // repositioning pressure.
  for (size_t i = rules.size(); i-- > 0;) {
    ASSERT_TRUE(scheduler.insert(table.rules()[i]));
    ASSERT_TRUE(scheduler.layout_valid());
  }
  // Chain layout: every rule strictly above its dependant.
  for (size_t i = 0; i + 1 < table.rules().size(); ++i) {
    EXPECT_GT(tcam.address_of(table.rules()[i].id),
              tcam.address_of(table.rules()[i + 1].id));
  }
}

// Full-table torture: fill to 100%, then verify the scheduler fails cleanly
// and recovers after a delete.
TEST(FirmwareStress, FullTableFailThenRecover) {
  util::set_log_level(util::LogLevel::kOff);
  Rng rng(77);
  const FlowTable fib{classbench::generate_router(64, rng)};
  const auto graph = build_min_dag(fib);
  Tcam tcam(32);
  DagScheduler scheduler(tcam);
  scheduler.load(graph);

  std::vector<RuleId> installed;
  for (RuleId id : graph.topo_order_high_to_low()) {
    if (tcam.occupied() == tcam.capacity()) break;
    ASSERT_TRUE(scheduler.insert(fib.rule(id)));
    installed.push_back(id);
  }
  ASSERT_EQ(tcam.occupied(), tcam.capacity());

  // One more insert must fail without corrupting the layout.
  Rule extra = Rule::make(flowspace::TernaryMatch::wildcard(),
                          flowspace::ActionList{flowspace::Action::drop()}, 0);
  EXPECT_FALSE(scheduler.insert(extra));
  scheduler.remove(extra.id);
  EXPECT_TRUE(scheduler.layout_valid());

  // Delete something, and the same insert succeeds.
  scheduler.remove(installed.back());
  Rule retry = Rule::make(flowspace::TernaryMatch::wildcard(),
                          flowspace::ActionList{flowspace::Action::drop()}, 0);
  EXPECT_TRUE(scheduler.insert(retry));
  EXPECT_TRUE(scheduler.layout_valid());
}

}  // namespace
}  // namespace ruletris
