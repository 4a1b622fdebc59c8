// End-to-end pipeline: compiler -> protocol encode/decode -> switch firmware
// -> TCAM, for all three compilers, verifying identical data-plane behaviour
// and the expected cost asymmetries.
#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "compiler/baseline.h"
#include "compiler/covisor.h"
#include "compiler/ruletris_compiler.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "test_util.h"

namespace ruletris {
namespace {

using compiler::BaselineCompiler;
using compiler::CovisorCompiler;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using switchsim::FirmwareMode;
using switchsim::SimulatedSwitch;
using switchsim::to_messages;
using testutil::random_rule;
using util::Rng;


/// CoVisor's priority algebra (like the real system) assumes overlapping
/// rules within one member table carry distinct priorities; draw without
/// replacement.
struct DistinctPriorities {
  std::unordered_set<int32_t> used;
  int32_t draw(Rng& rng) {
    for (;;) {
      const int32_t p = 1 + static_cast<int32_t>(rng.next_below(4096));
      if (used.insert(p).second) return p;
    }
  }
};

std::vector<Rule> random_table_rules(Rng& rng, int n, DistinctPriorities& prios) {
  std::vector<Rule> rules;
  for (int i = 0; i < n; ++i) {
    rules.push_back(random_rule(rng, prios.draw(rng)));
  }
  return rules;
}

/// Installs a RuleTris compiler's full current state onto a DAG switch.
void install_ruletris(RuleTrisCompiler& compiler, SimulatedSwitch& sw) {
  const auto metrics = sw.deliver(to_messages(full_install(compiler.root())));
  ASSERT_TRUE(metrics.ok);
}

TEST(SwitchSim, EndToEndThreeCompilersAgree) {
  Rng rng(21);
  for (int trial = 0; trial < 4; ++trial) {
    DistinctPriorities prios;
    auto t1 = random_table_rules(rng, 5, prios);
    auto t2 = random_table_rules(rng, 5, prios);
    std::map<std::string, FlowTable> tables;
    tables.emplace("a", FlowTable{t1});
    tables.emplace("b", FlowTable{t2});
    const PolicySpec spec =
        PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b"));

    RuleTrisCompiler ruletris(spec, tables);
    CovisorCompiler covisor(spec, tables);
    BaselineCompiler baseline(spec, tables);

    SimulatedSwitch sw_ruletris(FirmwareMode::kDag, 128);
    SimulatedSwitch sw_covisor(FirmwareMode::kPriority, 128);
    SimulatedSwitch sw_baseline(FirmwareMode::kPriority, 128);

    install_ruletris(ruletris, sw_ruletris);
    {
      compiler::PrioritizedUpdate initial;
      for (const Rule& r : covisor.compiled()) {
        initial.push_back(compiler::PrioritizedOp::add(r));
      }
      ASSERT_TRUE(sw_covisor.deliver(to_messages(initial)).ok);
    }
    {
      compiler::PrioritizedUpdate initial;
      for (const Rule& r : baseline.compiled()) {
        initial.push_back(compiler::PrioritizedOp::add(r));
      }
      ASSERT_TRUE(sw_baseline.deliver(to_messages(initial)).ok);
    }

    // Mixed update stream applied through all three pipelines.
    std::vector<RuleId> live;
    for (const Rule& r : t1) live.push_back(r.id);
    for (int step = 0; step < 12; ++step) {
      if (!live.empty() && rng.next_bool(0.4)) {
        const size_t pick = rng.next_below(live.size());
        const RuleId id = live[pick];
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
        ASSERT_TRUE(sw_ruletris.deliver(to_messages(ruletris.remove("a", id))).ok);
        ASSERT_TRUE(sw_covisor.deliver(to_messages(covisor.remove("a", id))).ok);
        ASSERT_TRUE(sw_baseline.deliver(to_messages(baseline.remove("a", id))).ok);
      } else {
        Rule r = random_rule(rng, prios.draw(rng));
        live.push_back(r.id);
        ASSERT_TRUE(sw_ruletris.deliver(to_messages(ruletris.insert("a", r))).ok);
        ASSERT_TRUE(sw_covisor.deliver(to_messages(covisor.insert("a", r))).ok);
        ASSERT_TRUE(sw_baseline.deliver(to_messages(baseline.insert("a", r))).ok);
      }

      // All three TCAMs classify identically (by actions).
      for (int k = 0; k < 100; ++k) {
        const auto p = testutil::random_packet(rng);
        const Rule* a = sw_ruletris.tcam().lookup(p);
        const Rule* b = sw_covisor.tcam().lookup(p);
        const Rule* c = sw_baseline.tcam().lookup(p);
        ASSERT_EQ(a == nullptr, b == nullptr);
        ASSERT_EQ(a == nullptr, c == nullptr);
        if (a != nullptr) {
          EXPECT_EQ(a->actions, b->actions);
          EXPECT_EQ(a->actions, c->actions);
        }
      }
    }
  }
}

TEST(SwitchSim, DagFirmwareUsesFewerWritesThanBaselinePipeline) {
  Rng rng(22);
  DistinctPriorities prios;
  auto t1 = random_table_rules(rng, 8, prios);
  auto t2 = random_table_rules(rng, 8, prios);
  std::map<std::string, FlowTable> tables;
  tables.emplace("a", FlowTable{t1});
  tables.emplace("b", FlowTable{t2});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b"));

  RuleTrisCompiler ruletris(spec, tables);
  BaselineCompiler baseline(spec, tables);
  SimulatedSwitch sw_dag(FirmwareMode::kDag, 256);
  SimulatedSwitch sw_prio(FirmwareMode::kPriority, 256);
  install_ruletris(ruletris, sw_dag);
  {
    compiler::PrioritizedUpdate initial;
    for (const Rule& r : baseline.compiled()) {
      initial.push_back(compiler::PrioritizedOp::add(r));
    }
    ASSERT_TRUE(sw_prio.deliver(to_messages(initial)).ok);
  }

  size_t dag_writes = 0, prio_writes = 0;
  for (int step = 0; step < 10; ++step) {
    Rule r = random_rule(rng, prios.draw(rng));
    auto m1 = sw_dag.deliver(to_messages(ruletris.insert("a", r)));
    auto m2 = sw_prio.deliver(to_messages(baseline.insert("a", r)));
    ASSERT_TRUE(m1.ok);
    ASSERT_TRUE(m2.ok);
    dag_writes += m1.entry_writes;
    prio_writes += m2.entry_writes;
  }
  EXPECT_LT(dag_writes, prio_writes);
}

TEST(SwitchSim, MetricsDecomposition) {
  SimulatedSwitch sw(FirmwareMode::kDag, 16);
  Rng rng(1);
  TableUpdate update;
  Rule r = random_rule(rng, 5);
  update.added.push_back(r);
  update.dag.added_vertices.push_back(r.id);
  const auto metrics = sw.deliver(to_messages(update));
  EXPECT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.entry_writes, 1u);
  EXPECT_DOUBLE_EQ(metrics.tcam_ms, tcam::kEntryWriteMs);
  EXPECT_GT(metrics.channel_ms, 0.0);
  EXPECT_GE(metrics.total_ms(), metrics.tcam_ms + metrics.channel_ms);
}

TEST(SwitchSim, WrongFirmwareAccessorThrows) {
  SimulatedSwitch dag_switch(FirmwareMode::kDag, 8);
  SimulatedSwitch prio_switch(FirmwareMode::kPriority, 8);
  EXPECT_THROW(dag_switch.priority_firmware(), std::logic_error);
  EXPECT_THROW(prio_switch.dag_firmware(), std::logic_error);
  EXPECT_NO_THROW(dag_switch.dag_firmware());
  EXPECT_NO_THROW(prio_switch.priority_firmware());
}

}  // namespace
}  // namespace ruletris
