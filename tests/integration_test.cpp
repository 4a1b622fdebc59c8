// Whole-pipeline integration: deep policy trees, churn on every leaf,
// redundancy-eliminated installation, and the parsed-policy entry path.
#include <gtest/gtest.h>

#include <map>

#include "classbench/generator.h"
#include "compiler/baseline.h"
#include "compiler/policy_parser.h"
#include "compiler/ruletris_compiler.h"
#include "dag/builder.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "tcam/redundancy.h"
#include "test_util.h"
#include "util/logging.h"

namespace ruletris {
namespace {

using compiler::parse_policy;
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

std::vector<Rule> random_table_rules(Rng& rng, int n) {
  std::vector<Rule> rules;
  for (int i = 0; i < n; ++i) {
    rules.push_back(random_rule(rng, 1 + static_cast<int>(rng.next_below(30))));
  }
  return rules;
}

/// Root visible state must stay oracle-exact and reference-equivalent.
void validate_root(RuleTrisCompiler& compiler, const PolicySpec& spec,
                   const std::map<std::string, FlowTable>& tables, Rng& rng) {
  const auto visible = compiler.root().visible_rules_in_order();
  const auto reference = compiler::compose_from_scratch(spec, tables);
  ASSERT_EQ(visible.size(), reference.size());
  ASSERT_TRUE(testutil::semantically_equal(visible, reference, rng, 300));
  ASSERT_EQ(compiler.root().visible_graph(), dag::build_min_dag(FlowTable{visible}));
}

TEST(Integration, DeepTreeWithChurnOnEveryLeaf) {
  Rng rng(404);
  for (int trial = 0; trial < 2; ++trial) {
    std::map<std::string, FlowTable> tables;
    for (const char* name : {"mon", "fw", "router", "fallback"}) {
      tables.emplace(name, FlowTable{random_table_rules(rng, 4)});
    }
    // ((mon + fw) > router) $ fallback — every operator in one tree.
    const PolicySpec spec = parse_policy("(mon + fw) > router $ fallback");
    RuleTrisCompiler compiler(spec, tables);
    validate_root(compiler, spec, tables, rng);

    std::map<std::string, std::vector<RuleId>> live;
    for (const auto& [name, table] : tables) {
      for (const Rule& r : table.rules()) live[name].push_back(r.id);
    }

    const char* leaves[] = {"mon", "fw", "router", "fallback"};
    for (int step = 0; step < 24; ++step) {
      const char* leaf = leaves[rng.next_below(4)];
      auto& ids = live[leaf];
      if (!ids.empty() && rng.next_bool(0.45)) {
        const size_t pick = rng.next_below(ids.size());
        compiler.remove(leaf, ids[pick]);
        tables.at(leaf).erase(ids[pick]);
        ids.erase(ids.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        Rule r = random_rule(rng, 1 + static_cast<int>(rng.next_below(30)));
        ids.push_back(r.id);
        tables.at(leaf).insert(r);
        compiler.insert(leaf, std::move(r));
      }
      validate_root(compiler, spec, tables, rng);
    }
  }
}

TEST(Integration, UpdatesStreamedToSwitchStayConsistent) {
  util::set_log_level(util::LogLevel::kOff);
  Rng rng(505);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(20, rng)});
  tables.emplace("router", FlowTable{classbench::generate_router(60, rng)});
  const PolicySpec spec = parse_policy("mon + router");
  RuleTrisCompiler compiler(spec, tables);

  SimulatedSwitch sw(FirmwareMode::kDag, 256);
  ASSERT_TRUE(sw.deliver(to_messages(full_install(compiler.root()))).ok);

  std::vector<RuleId> live;
  for (const Rule& r : tables.at("mon").rules()) live.push_back(r.id);

  for (int step = 0; step < 40; ++step) {
    const size_t pick = rng.next_below(live.size());
    const Rule fresh = classbench::random_monitor_rule(20, rng);
    ASSERT_TRUE(sw.deliver(to_messages(compiler.remove("mon", live[pick]))).ok);
    ASSERT_TRUE(sw.deliver(to_messages(compiler.insert("mon", fresh))).ok);
    live[pick] = fresh.id;

    // The switch's TCAM must mirror the compiler's visible table exactly.
    ASSERT_TRUE(sw.dag_firmware().layout_valid());
    const auto visible = compiler.root().visible_rules_in_order();
    ASSERT_EQ(sw.tcam().occupied(), visible.size());
    for (int k = 0; k < 50; ++k) {
      const auto p = testutil::random_packet(rng);
      const Rule* truth = testutil::lookup_ordered(visible, p);
      const Rule* got = sw.tcam().lookup(p);
      ASSERT_EQ(truth == nullptr, got == nullptr);
      if (truth != nullptr) {
        ASSERT_EQ(truth->id, got->id) << "switch diverged at step " << step;
      }
    }
  }
}

TEST(Integration, RedundancyEliminatedInstallIsEquivalentAndSmaller) {
  Rng rng(606);
  std::map<std::string, FlowTable> tables;
  tables.emplace("fw", FlowTable{classbench::generate_firewall(30, rng)});
  tables.emplace("router", FlowTable{classbench::generate_router(50, rng)});
  const PolicySpec spec = parse_policy("fw + router");
  RuleTrisCompiler compiler(spec, tables);

  const auto full = compiler.root().visible_rules_in_order();
  const auto reduced =
      tcam::eliminate_redundancy(full, compiler.root().visible_graph());
  EXPECT_LE(reduced.kept.size(), full.size());

  // Equivalent semantics, and the reduced DAG installs cleanly.
  for (int k = 0; k < 400; ++k) {
    const auto p = testutil::random_packet(rng);
    const Rule* a = testutil::lookup_ordered(full, p);
    const Rule* b = testutil::lookup_ordered(reduced.kept, p);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      ASSERT_EQ(a->actions, b->actions);
    }
  }

  SimulatedSwitch sw(FirmwareMode::kDag, reduced.kept.size() + 32);
  TableUpdate initial;
  initial.added = reduced.kept;
  for (const Rule& r : reduced.kept) initial.dag.added_vertices.push_back(r.id);
  initial.dag.added_edges = reduced.graph.edges();
  ASSERT_TRUE(sw.deliver(to_messages(initial)).ok);
  ASSERT_TRUE(sw.dag_firmware().layout_valid());
  for (int k = 0; k < 200; ++k) {
    const auto p = testutil::random_packet(rng);
    const Rule* truth = testutil::lookup_ordered(reduced.kept, p);
    const Rule* got = sw.tcam().lookup(p);
    ASSERT_EQ(truth == nullptr, got == nullptr);
    if (truth != nullptr) {
      ASSERT_EQ(truth->id, got->id);
    }
  }
}

TEST(Integration, ParsedPolicyDrivesThePipeline) {
  Rng rng(707);
  std::map<std::string, FlowTable> tables;
  tables.emplace("a", FlowTable{random_table_rules(rng, 5)});
  tables.emplace("b", FlowTable{random_table_rules(rng, 5)});
  tables.emplace("c", FlowTable{random_table_rules(rng, 5)});

  // The same policy expressed textually and programmatically must produce
  // identical compositions.
  const PolicySpec parsed = parse_policy("a + b $ c");
  const PolicySpec built = PolicySpec::priority(
      PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b")),
      PolicySpec::leaf("c"));
  RuleTrisCompiler from_text(parsed, tables);
  RuleTrisCompiler from_code(built, tables);
  EXPECT_TRUE(testutil::semantically_equal(from_text.root().visible_rules_in_order(),
                                           from_code.root().visible_rules_in_order(),
                                           rng));
}

}  // namespace
}  // namespace ruletris
