// LeafNode: incremental minimum-DAG maintenance must exactly match the
// brute-force oracle after every update.
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
    EXPECT_EQ(leaf.visible_graph(), build_min_dag(leaf.table()));
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
    EXPECT_EQ(leaf.visible_graph(), build_min_dag(leaf.table()));
  }
}

TEST(LeafNode, InsertKeepsMinimumDag) {
  Rng rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    LeafNode leaf{FlowTable{}};
    for (int i = 0; i < 25; ++i) {
      leaf.insert(random_rule(rng, 1 + static_cast<int>(rng.next_below(30))));
      ASSERT_EQ(leaf.visible_graph(), build_min_dag(leaf.table()))
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
      ASSERT_EQ(leaf.visible_graph(), build_min_dag(leaf.table()))
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
  const auto overlapping = leaf.visible_overlapping(leaf.visible_match(id));
  ASSERT_EQ(overlapping.size(), 1u);
}

}  // namespace
}  // namespace ruletris
