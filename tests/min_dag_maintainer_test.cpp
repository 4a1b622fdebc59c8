// MinDagMaintainer: exactness against the brute-force oracle under random
// update streams, plus rank-renumbering and bulk-load paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dag/builder.h"
#include "dag/min_dag_maintainer.h"
#include "flowspace/rule.h"
#include "test_util.h"

namespace ruletris {
namespace {

using dag::build_min_dag;
using dag::MinDagMaintainer;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using util::Rng;

/// Test fixture keeping a priority-ordered shadow table; the maintainer's
/// comparator follows the shadow's priorities (ties: existing first).
struct Shadow {
  std::vector<Rule> rules;  // unsorted; FlowTable orders them

  FlowTable table() const { return FlowTable{rules}; }

  int32_t priority_of(RuleId id) const {
    for (const Rule& r : rules) {
      if (r.id == id) return r.priority;
    }
    throw std::out_of_range("shadow: unknown id");
  }

  /// Insert predicate for `incoming`: present rules of equal or higher
  /// priority stay before it.
  auto before(const Rule& incoming) const {
    return [this, p = incoming.priority](RuleId existing) {
      return priority_of(existing) >= p;
    };
  }
};

/// Insert predicates for orders that ignore priorities.
bool always_back(RuleId) { return true; }
bool always_front(RuleId) { return false; }

TEST(MinDagMaintainer, InsertStreamMatchesOracle) {
  Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    Shadow shadow;
    MinDagMaintainer dag;
    for (int step = 0; step < 30; ++step) {
      Rule r = testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(20)));
      shadow.rules.push_back(r);
      dag.insert(r.id, r.match, shadow.before(r));
      ASSERT_EQ(dag.graph(), build_min_dag(shadow.table()))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(MinDagMaintainer, MixedStreamMatchesOracle) {
  Rng rng(32);
  for (int trial = 0; trial < 8; ++trial) {
    Shadow shadow;
    MinDagMaintainer dag;
    for (int step = 0; step < 50; ++step) {
      if (!shadow.rules.empty() && rng.next_bool(0.4)) {
        const size_t pick = rng.next_below(shadow.rules.size());
        const RuleId id = shadow.rules[pick].id;
        dag.remove(id);
        shadow.rules.erase(shadow.rules.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        Rule r = testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(20)));
        shadow.rules.push_back(r);
        dag.insert(r.id, r.match, shadow.before(r));
      }
      ASSERT_EQ(dag.graph(), build_min_dag(shadow.table()))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(MinDagMaintainer, DeltasReplayConsistently) {
  Rng rng(33);
  Shadow shadow;
  MinDagMaintainer dag;
  dag::DependencyGraph replay;
  for (int step = 0; step < 60; ++step) {
    dag::DagDelta delta;
    if (!shadow.rules.empty() && rng.next_bool(0.4)) {
      const size_t pick = rng.next_below(shadow.rules.size());
      delta = dag.remove(shadow.rules[pick].id);
      shadow.rules.erase(shadow.rules.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      Rule r = testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(20)));
      shadow.rules.push_back(r);
      delta = dag.insert(r.id, r.match, shadow.before(r));
    }
    replay.apply(delta);
    ASSERT_EQ(replay, dag.graph()) << "delta replay diverged at step " << step;
  }
}

TEST(MinDagMaintainer, BulkLoadEqualsIncremental) {
  Rng rng(34);
  for (int trial = 0; trial < 10; ++trial) {
    Shadow shadow;
    for (int i = 0; i < 25; ++i) {
      shadow.rules.push_back(
          testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(20))));
    }
    const FlowTable table = shadow.table();

    MinDagMaintainer bulk;
    std::vector<std::pair<RuleId, TernaryMatch>> ordered;
    for (const Rule& r : table.rules()) ordered.emplace_back(r.id, r.match);
    bulk.bulk_load(ordered);

    ASSERT_EQ(bulk.graph(), build_min_dag(table));
    ASSERT_EQ(bulk.order().size(), table.size());
  }
}

TEST(MinDagMaintainer, OrderIsMaintained) {
  Shadow shadow;
  MinDagMaintainer dag;
  Rng rng(35);
  for (int i = 0; i < 40; ++i) {
    Rule r = testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(10)));
    shadow.rules.push_back(r);
    dag.insert(r.id, r.match, shadow.before(r));
  }
  const auto& order = dag.order();
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(shadow.priority_of(order[i - 1]), shadow.priority_of(order[i]));
  }
}

TEST(MinDagMaintainer, RenumberUnderAdversarialInsertions) {
  // Repeatedly insert at the very front to exhaust rank gaps and force the
  // renumber path.
  std::vector<RuleId> ids;
  MinDagMaintainer dag;
  TernaryMatch m;  // all rules overlap (wildcard) -> chain DAG
  for (int i = 0; i < 64; ++i) {
    const RuleId id = flowspace::next_rule_id();
    ids.push_back(id);
    dag.insert(id, m, always_front);
  }
  // Every later-inserted rule sits earlier; the DAG must be the chain
  // last-inserted <- ... <- first-inserted.
  ASSERT_EQ(dag.graph().edge_count(), ids.size() - 1);
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_TRUE(dag.graph().has_edge(ids[i], ids[i + 1]))
        << "identical matches must form a front-insertion chain";
  }
}

TEST(MinDagMaintainer, DuplicateInsertThrows) {
  MinDagMaintainer dag;
  dag.insert(7, TernaryMatch::wildcard(), always_back);
  EXPECT_THROW(dag.insert(7, TernaryMatch::wildcard(), always_back),
               std::invalid_argument);
  EXPECT_THROW(dag.insert(flowspace::kInvalidRuleId, TernaryMatch::wildcard(), always_back),
               std::invalid_argument);
  EXPECT_EQ(dag.size(), 1u);
  EXPECT_EQ(dag.graph().vertex_count(), 1u);
}

TEST(MinDagMaintainer, BeforeIsARankCompare) {
  MinDagMaintainer dag;
  dag.insert(5, TernaryMatch::wildcard(), always_back);
  dag.insert(9, TernaryMatch::wildcard(), always_front);
  dag.insert(2, TernaryMatch::wildcard(), always_back);  // order: 9 5 2
  EXPECT_TRUE(dag.before(9, 5));
  EXPECT_TRUE(dag.before(5, 2));
  EXPECT_FALSE(dag.before(2, 9));
  // Dead ids fall back to the stable arbitrary order a < b.
  EXPECT_TRUE(dag.before(2, 100));
  EXPECT_FALSE(dag.before(100, 2));
}

TEST(MinDagMaintainer, CoverOverflowIsCounted) {
  // 10/8, then 10.0/9, then a wildcard: the (10/8, wildcard) cover test
  // must subtract 10.0/9, one fragment more than a budget of 1 allows.
  for (const size_t limit : {size_t{1}, flowspace::kDefaultFragmentLimit}) {
    MinDagMaintainer dag;
    dag.set_fragment_limit(limit);
    TernaryMatch wide, narrow;
    wide.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000u, 8);
    narrow.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000u, 9);
    dag.insert(1, wide, always_back);
    dag.insert(2, narrow, always_back);
    dag.insert(3, TernaryMatch::wildcard(), always_back);
    EXPECT_TRUE(dag.graph().has_edge(3, 1));  // kept either way
    if (limit == 1) {
      EXPECT_GT(dag.cover_overflows(), 0u);
    } else {
      EXPECT_EQ(dag.cover_overflows(), 0u);
    }
  }
}

TEST(MinDagMaintainer, DroppedEdgesKeepOrderAndIndex) {
  // A maintainer that dropped its edges must keep the same order, rank
  // compare and overlap index as one that did not, under the same stream,
  // while its deltas carry vertices only and graph() throws.
  Rng rng(37);
  Shadow shadow;
  MinDagMaintainer full, bare;
  dag::OrderedRules initial;
  for (int i = 0; i < 20; ++i) {
    shadow.rules.push_back(testutil::random_rule(rng, 20 - i));
    initial.emplace_back(shadow.rules.back().id, shadow.rules.back().match);
  }
  full.bulk_load(initial);
  bare.bulk_load(initial);
  bare.drop_edges();
  EXPECT_THROW((void)bare.graph(), std::logic_error);
  for (int step = 0; step < 80; ++step) {
    dag::DagDelta delta;
    if (shadow.rules.size() > 3 && rng.next_bool(0.4)) {
      const size_t pick = rng.next_below(shadow.rules.size());
      const RuleId id = shadow.rules[pick].id;
      full.remove(id);
      delta = bare.remove(id);
      shadow.rules.erase(shadow.rules.begin() + static_cast<ptrdiff_t>(pick));
      EXPECT_EQ(delta.removed_vertices, std::vector<RuleId>{id});
    } else {
      Rule r = testutil::random_rule(rng, 1 + static_cast<int>(rng.next_below(20)));
      shadow.rules.push_back(r);
      full.insert(r.id, r.match, shadow.before(r));
      delta = bare.insert(r.id, r.match, shadow.before(r));
      EXPECT_EQ(delta.added_vertices, std::vector<RuleId>{r.id});
    }
    ASSERT_TRUE(delta.added_edges.empty() && delta.removed_edges.empty())
        << "step " << step;
    ASSERT_EQ(bare.order(), full.order()) << "step " << step;
    const RuleId a = full.order()[rng.next_below(full.size())];
    const RuleId b = full.order()[rng.next_below(full.size())];
    ASSERT_EQ(bare.before(a, b), full.before(a, b)) << "step " << step;
    const TernaryMatch probe = testutil::random_match(rng);
    std::vector<RuleId> got, want;
    bare.overlapping(probe, got);
    full.overlapping(probe, want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "step " << step;
  }
  EXPECT_EQ(full.graph(), build_min_dag(shadow.table()));
  EXPECT_THROW((void)bare.graph(), std::logic_error);
}

TEST(MinDagMaintainer, RemoveMissingIsNoop) {
  MinDagMaintainer dag;
  EXPECT_TRUE(dag.remove(42).empty());
}

}  // namespace
}  // namespace ruletris
