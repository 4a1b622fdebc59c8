// LeafNode: incremental minimum-DAG maintenance must exactly match the
// brute-force oracle after every update, and the leaf order must stay the
// order a FlowTable fed the same churn keeps.
#include <gtest/gtest.h>

#include "compiler/leaf.h"
#include "dag/builder.h"
#include "test_util.h"

namespace ruletris {
namespace {

using compiler::LeafNode;
using compiler::TableUpdate;
using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using testutil::random_rule;
using util::Rng;

TEST(LeafNode, BulkLoadMatchesOracle) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Rule> rules;
    const int n = 5 + static_cast<int>(rng.next_below(15));
    for (int i = 0; i < n; ++i) rules.push_back(random_rule(rng, n - i));
    LeafNode leaf{FlowTable{rules}};
    EXPECT_EQ(leaf.visible_graph(), build_min_dag(FlowTable{leaf.visible_rules_in_order()}));
  }
}

TEST(LeafNode, CoverOverflowIsCountedThroughPolicyNode) {
  // Same shape as the maintainer's overflow test, in priority order: the
  // (10/8, wildcard) cover test needs one fragment more than a budget of 1.
  flowspace::TernaryMatch wide, narrow;
  wide.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000u, 8);
  narrow.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000u, 9);
  for (const size_t limit : {size_t{1}, flowspace::kDefaultFragmentLimit}) {
    LeafNode leaf{FlowTable{}};
    leaf.set_fragment_limit(limit);
    const flowspace::ActionList fwd{flowspace::Action::forward(1)};
    leaf.insert(Rule::make(wide, fwd, 30));
    leaf.insert(Rule::make(narrow, fwd, 20));
    leaf.insert(Rule::make(flowspace::TernaryMatch::wildcard(), fwd, 10));
    const compiler::PolicyNode& node = leaf;
    EXPECT_EQ(node.cover_overflows() > 0, limit == 1) << "limit " << limit;
    EXPECT_EQ(leaf.visible_graph(), build_min_dag(FlowTable{leaf.visible_rules_in_order()}));
  }
}

TEST(LeafNode, InsertKeepsMinimumDag) {
  Rng rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    LeafNode leaf{FlowTable{}};
    for (int i = 0; i < 25; ++i) {
      leaf.insert(random_rule(rng, 1 + static_cast<int>(rng.next_below(30))));
      ASSERT_EQ(leaf.visible_graph(), build_min_dag(FlowTable{leaf.visible_rules_in_order()}))
          << "after insert " << i << " in trial " << trial;
    }
  }
}

TEST(LeafNode, MixedInsertDeleteKeepsMinimumDag) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    LeafNode leaf{FlowTable{}};
    std::vector<RuleId> live;
    for (int step = 0; step < 60; ++step) {
      if (!live.empty() && rng.next_bool(0.4)) {
        const size_t pick = rng.next_below(live.size());
        leaf.remove(live[pick]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        Rule r = random_rule(rng, 1 + static_cast<int>(rng.next_below(30)));
        live.push_back(r.id);
        leaf.insert(std::move(r));
      }
      ASSERT_EQ(leaf.visible_graph(), build_min_dag(FlowTable{leaf.visible_rules_in_order()}))
          << "after step " << step << " in trial " << trial;
    }
  }
}

TEST(LeafNode, UpdateDeltasReplayToSameGraph) {
  // Applying the emitted DagDeltas to a shadow graph must reproduce the
  // leaf's own graph (this is what the composed nodes consume).
  Rng rng(4);
  LeafNode leaf{FlowTable{}};
  dag::DependencyGraph shadow;
  std::vector<RuleId> live;
  for (int step = 0; step < 80; ++step) {
    TableUpdate update;
    if (!live.empty() && rng.next_bool(0.4)) {
      const size_t pick = rng.next_below(live.size());
      update = leaf.remove(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      Rule r = random_rule(rng, 1 + static_cast<int>(rng.next_below(30)));
      live.push_back(r.id);
      update = leaf.insert(std::move(r));
    }
    shadow.apply(update.dag);
    ASSERT_EQ(shadow, leaf.visible_graph()) << "delta replay diverged at step " << step;
  }
}

std::vector<RuleId> ids_of(const std::vector<Rule>& rules) {
  std::vector<RuleId> ids;
  ids.reserve(rules.size());
  for (const Rule& r : rules) ids.push_back(r.id);
  return ids;
}

/// Insert/erase churn over few distinct priorities (so most inserts tie),
/// applied to the leaf and to a shadow FlowTable; after every step the
/// leaf's order must be the table's order.
void churn_against_flow_table(LeafNode& leaf, FlowTable& shadow, Rng& rng,
                              int steps) {
  for (int step = 0; step < steps; ++step) {
    const auto& rules = shadow.rules();
    if (!rules.empty() && rng.next_bool(0.35)) {
      const RuleId id = rules[rng.next_below(rules.size())].id;
      leaf.remove(id);
      shadow.erase(id);
    } else {
      Rule r = random_rule(rng, static_cast<int32_t>(rng.next_below(4)));
      shadow.insert(r);
      leaf.insert(std::move(r));
    }
    ASSERT_EQ(ids_of(leaf.visible_rules_in_order()), ids_of(shadow.rules()))
        << "leaf order diverged from FlowTable at step " << step;
  }
}

TEST(LeafNode, OrderMatchesFlowTableUnderTiedChurn) {
  Rng rng(6);
  std::vector<Rule> initial;
  for (int i = 0; i < 30; ++i) {
    initial.push_back(random_rule(rng, static_cast<int32_t>(rng.next_below(4))));
  }
  FlowTable shadow{initial};
  LeafNode leaf{shadow};
  ASSERT_EQ(ids_of(leaf.visible_rules_in_order()), ids_of(shadow.rules()));
  churn_against_flow_table(leaf, shadow, rng, 200);
  ASSERT_EQ(leaf.visible_graph(), build_min_dag(shadow));

  // The leaf keeps no pointer to itself: it survives being moved into a
  // vector that then reallocates, and keeps ordering by the same rule.
  std::vector<LeafNode> leaves;
  leaves.push_back(std::move(leaf));
  for (int i = 0; i < 8; ++i) leaves.emplace_back(FlowTable{});
  churn_against_flow_table(leaves.front(), shadow, rng, 200);
  EXPECT_EQ(leaves.front().visible_graph(), build_min_dag(shadow));
}

TEST(LeafNode, RejectedInsertChangesNothing) {
  Rng rng(7);
  LeafNode leaf{FlowTable{}};
  Rule first = random_rule(rng, 5);
  leaf.insert(first);
  leaf.insert(random_rule(rng, 3));
  const size_t size = leaf.visible_size();
  const dag::DependencyGraph graph = leaf.visible_graph();

  Rule duplicate = random_rule(rng, 4);
  duplicate.id = first.id;
  EXPECT_THROW(leaf.insert(duplicate), std::invalid_argument);
  Rule invalid = random_rule(rng, 4);
  invalid.id = flowspace::kInvalidRuleId;
  EXPECT_THROW(leaf.insert(invalid), std::invalid_argument);

  EXPECT_EQ(leaf.visible_size(), size);
  EXPECT_EQ(leaf.visible_graph(), graph);
  EXPECT_EQ(leaf.visible_actions(first.id), first.actions);
}

TEST(LeafNode, RemoveMissingIsNoop) {
  LeafNode leaf{FlowTable{}};
  EXPECT_TRUE(leaf.remove(12345).empty());
}

TEST(LeafNode, VisibleInterface) {
  Rng rng(5);
  LeafNode leaf{FlowTable{}};
  Rule r = random_rule(rng, 10);
  const RuleId id = r.id;
  const auto update = leaf.insert(std::move(r));
  ASSERT_EQ(update.added.size(), 1u);
  EXPECT_EQ(update.added[0].id, id);
  EXPECT_TRUE(leaf.has_visible(id));
  EXPECT_EQ(leaf.visible_size(), 1u);
  std::vector<RuleId> overlapping{7, 8, 9};  // stale content is replaced
  leaf.visible_overlapping(leaf.visible_match(id), overlapping);
  ASSERT_EQ(overlapping.size(), 1u);
}

}  // namespace
}  // namespace ruletris
