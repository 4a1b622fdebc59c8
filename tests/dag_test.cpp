// Tests for the dependency graph structure and the brute-force minimum-DAG
// builder (the oracle for all compositional DAG construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "dag/adjacency_list.h"
#include "dag/builder.h"
#include "dag/dependency_graph.h"
#include "flowspace/rule.h"
#include "test_util.h"

namespace ruletris {
namespace {

using dag::build_min_dag;
using dag::DagDelta;
using dag::DependencyGraph;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using testutil::lookup_ordered;
using testutil::random_dag_linearization;
using util::Rng;

TEST(DependencyGraph, BasicEdges) {
  DependencyGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.successors(1).size(), 2u);
  EXPECT_EQ(g.predecessors(2).size(), 1u);
}

TEST(DependencyGraph, SelfEdgeRejected) {
  DependencyGraph g;
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(DependencyGraph, DuplicateEdgeIdempotent) {
  DependencyGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DependencyGraph, RemoveVertexDropsIncidentEdges) {
  DependencyGraph g;
  g.add_edge(1, 2);
  g.add_edge(3, 2);
  g.add_edge(2, 4);
  g.remove_vertex(2);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_TRUE(g.successors(1).empty());
}

TEST(DependencyGraph, TopoOrderHighToLow) {
  DependencyGraph g;
  // 3 depends on 2 depends on 1: matched order must be 1, 2, 3.
  g.add_edge(3, 2);
  g.add_edge(2, 1);
  const auto order = g.topo_order_high_to_low();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
}

TEST(DependencyGraph, CycleDetected) {
  DependencyGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.would_create_cycle(3, 1));
  EXPECT_FALSE(g.would_create_cycle(1, 3));
  g.add_edge(3, 1);
  EXPECT_THROW(g.topo_order_high_to_low(), std::runtime_error);
}

TEST(DependencyGraph, Reachability) {
  DependencyGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_vertex(4);
  EXPECT_TRUE(g.reaches(1, 3));
  EXPECT_FALSE(g.reaches(3, 1));
  EXPECT_FALSE(g.reaches(1, 4));
}

TEST(DependencyGraph, ApplyDelta) {
  DependencyGraph g;
  g.add_edge(1, 2);
  DagDelta delta;
  delta.removed_edges.emplace_back(1, 2);
  delta.added_vertices.push_back(3);
  delta.added_edges.emplace_back(3, 1);
  g.apply(delta);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(3, 1));
}

TEST(DependencyGraph, EqualityIgnoresInsertionOrder) {
  DependencyGraph a, b;
  a.add_edge(1, 2);
  a.add_edge(3, 2);
  b.add_edge(3, 2);
  b.add_edge(1, 2);
  EXPECT_EQ(a, b);
  b.add_vertex(9);
  EXPECT_FALSE(a == b);
}

// --- brute-force builder ----------------------------------------------------

FlowTable paper_fig2_table() {
  // Rules from Fig. 2: 00*, **0, 0*1, **1, *** on a 3-bit field (we embed the
  // 3 bits in the top of dst_ip).
  auto mk = [](uint32_t value, uint32_t mask, int prio) {
    TernaryMatch m;
    m.set_ternary(FieldId::kDstIp, value << 29, mask << 29);
    return Rule::make(m, ActionList{Action::forward(static_cast<uint32_t>(prio))}, prio);
  };
  std::vector<Rule> rules;
  rules.push_back(mk(0b000, 0b110, 20));  // Rule 1: 00*
  rules.push_back(mk(0b000, 0b001, 15));  // Rule 2: **0
  rules.push_back(mk(0b001, 0b101, 15));  // Rule 3: 0*1  (value 0*1)
  rules.push_back(mk(0b001, 0b001, 10));  // Rule 4: **1
  rules.push_back(mk(0b000, 0b000, 5));   // Rule 5: ***
  return FlowTable(std::move(rules));
}

TEST(DagBuilder, PaperFig2Structure) {
  const FlowTable table = paper_fig2_table();
  const auto& r = table.rules();
  ASSERT_EQ(r.size(), 5u);
  const DependencyGraph g = build_min_dag(table);

  const auto id = [&](size_t i) { return r[i].id; };
  // Rule indexes in priority order: 0=Rule1(00*), 1=Rule2(**0), 2=Rule3(0*1),
  // 3=Rule4(**1), 4=Rule5(***).
  EXPECT_TRUE(g.has_edge(id(1), id(0)));  // **0 depends on 00*
  EXPECT_TRUE(g.has_edge(id(2), id(0)));  // 0*1 depends on 00* (overlap 001)
  EXPECT_TRUE(g.has_edge(id(3), id(2)));  // **1 depends on 0*1
  EXPECT_TRUE(g.has_edge(id(4), id(1)));  // *** depends on **0
  EXPECT_TRUE(g.has_edge(id(4), id(3)));  // *** depends on **1
  // **1 ∩ 00* = 001 is fully covered by 0*1 in between: no direct edge.
  EXPECT_FALSE(g.has_edge(id(3), id(0)));
  // *** ∩ 00* is covered by **0 and 0*1; *** ∩ 0*1 is covered by **1.
  EXPECT_FALSE(g.has_edge(id(4), id(0)));
  EXPECT_FALSE(g.has_edge(id(4), id(2)));
  EXPECT_EQ(g.edge_count(), 5u);
}

TEST(DagBuilder, NestedPrefixChain) {
  // /24 ⊂ /16 ⊂ /8: the minimum DAG is a chain, not a triangle.
  TernaryMatch p8, p16, p24;
  p8.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  p16.set_prefix(FieldId::kDstIp, 0x0a0a0000, 16);
  p24.set_prefix(FieldId::kDstIp, 0x0a0a0a00, 24);
  std::vector<Rule> rules;
  rules.push_back(Rule::make(p24, ActionList{Action::forward(1)}, 30));
  rules.push_back(Rule::make(p16, ActionList{Action::forward(2)}, 20));
  rules.push_back(Rule::make(p8, ActionList{Action::forward(3)}, 10));
  const FlowTable table{std::move(rules)};
  const auto& r = table.rules();
  const DependencyGraph g = build_min_dag(table);
  EXPECT_TRUE(g.has_edge(r[1].id, r[0].id));
  EXPECT_TRUE(g.has_edge(r[2].id, r[1].id));
  EXPECT_FALSE(g.has_edge(r[2].id, r[0].id)) << "transitively covered edge must be absent";
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(DagBuilder, DisjointRulesNoEdges) {
  TernaryMatch a, b;
  a.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  b.set_prefix(FieldId::kDstIp, 0x0b000000, 8);
  std::vector<Rule> rules;
  rules.push_back(Rule::make(a, ActionList{Action::drop()}, 2));
  rules.push_back(Rule::make(b, ActionList{Action::drop()}, 1));
  const DependencyGraph g = build_min_dag(FlowTable{std::move(rules)});
  EXPECT_EQ(g.edge_count(), 0u);
}

/// Property: any linearization respecting the minimum DAG classifies
/// packets exactly like the original priority order.
TEST(DagBuilder, DagConstraintsSufficientForSemantics) {
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Rule> rules;
    const int n = 6 + static_cast<int>(rng.next_below(10));
    for (int i = 0; i < n; ++i) {
      rules.push_back(testutil::random_rule(rng, n - i));
    }
    const FlowTable table{rules};
    const DependencyGraph g = build_min_dag(table);

    for (int reorder = 0; reorder < 5; ++reorder) {
      const auto layout = random_dag_linearization(table.rules(), g, rng);
      ASSERT_EQ(layout.size(), table.rules().size());
      for (int k = 0; k < 50; ++k) {
        const auto p = testutil::random_packet(rng);
        const Rule* expect = table.lookup(p);
        const Rule* got = lookup_ordered(layout, p);
        ASSERT_EQ(expect == nullptr, got == nullptr);
        if (expect != nullptr) {
          EXPECT_EQ(expect->id, got->id)
              << "DAG-respecting layout diverged from priority order";
        }
      }
    }
  }
}

/// Property: every DAG edge is necessary — flipping the two endpoint rules
/// (keeping everything else fixed) changes semantics for some packet in
/// their overlap. This is the *minimality* direction.
TEST(DagBuilder, EdgesAreDirectDependencies) {
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Rule> rules;
    const int n = 5 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n; ++i) rules.push_back(testutil::random_rule(rng, n - i));
    const FlowTable table{rules};
    const DependencyGraph g = build_min_dag(table);
    const auto& ordered = table.rules();

    for (const auto& [u, v] : g.edges()) {
      // v is matched before u; their overlap must not be fully covered by
      // the rules strictly between them.
      const size_t pv = table.position(v);
      const size_t pu = table.position(u);
      ASSERT_LT(pv, pu);
      auto overlap = ordered[pu].match.intersect(ordered[pv].match);
      ASSERT_TRUE(overlap.has_value());
      std::vector<TernaryMatch> between;
      for (size_t k = pv + 1; k < pu; ++k) between.push_back(ordered[k].match);
      EXPECT_FALSE(flowspace::is_covered_by(*overlap, between))
          << "edge exists although fully covered -> not minimal";
    }
  }
}

TEST(OrderRespectsDag, DetectsViolation) {
  DependencyGraph g;
  std::vector<Rule> rules;
  rules.push_back(Rule::make(TernaryMatch::wildcard(), ActionList{Action::drop()}, 2));
  rules.push_back(Rule::make(TernaryMatch::wildcard(), ActionList{Action::forward(1)}, 1));
  g.add_edge(rules[1].id, rules[0].id);
  EXPECT_TRUE(dag::order_respects_dag(rules, g));
  std::swap(rules[0], rules[1]);
  EXPECT_FALSE(dag::order_respects_dag(rules, g));
}

TEST(DependencyGraph, BulkLoadRejectsMalformedInputAndStaysEmpty) {
  const std::vector<RuleId> ids{11, 12, 13};
  using Edges = std::vector<std::pair<uint32_t, uint32_t>>;
  for (const Edges& bad : {Edges{{0, 1}, {2, 1}, {0, 1}}, Edges{{1, 1}}, Edges{{0, 3}}}) {
    DependencyGraph g;
    EXPECT_THROW(g.bulk_load_indexed(ids, bad), std::invalid_argument);
    EXPECT_EQ(g.vertex_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
  }
  DependencyGraph g;
  EXPECT_THROW(g.bulk_load_indexed({11, 12, 11}, {}), std::invalid_argument);
  EXPECT_THROW(g.bulk_load_indexed({11, ~RuleId{0}}, {}), std::invalid_argument);
  g.bulk_load_indexed(ids, {{0, 1}, {2, 1}, {0, 2}});
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(std::vector<RuleId>(g.successors(11).begin(), g.successors(11).end()),
            (std::vector<RuleId>{12, 13}));
  EXPECT_EQ(std::vector<RuleId>(g.predecessors(12).begin(), g.predecessors(12).end()),
            (std::vector<RuleId>{11, 13}));
  EXPECT_THROW(g.bulk_load_indexed(ids, {}), std::invalid_argument);  // not empty
}

// ---------------------------------------------------------------------------
// AdjacencyList: the per-vertex list backing DependencyGraph
// ---------------------------------------------------------------------------

/// Differential fuzz against std::unordered_set: a long random stream of
/// insert/erase/contains/clear must agree op-for-op, and iteration must
/// visit exactly the reference elements. A vector with swap-remove shadows
/// the documented order. The id universe lets the list cross every storage
/// threshold both ways: inline, heap block, hub position index.
TEST(AdjacencyList, MatchesUnorderedSetUnderRandomChurn) {
  util::Rng rng(0x1d5e7);
  dag::AdjacencyList set;
  std::unordered_set<RuleId> ref;
  std::vector<RuleId> order;
  size_t peak = 0;
  for (int op = 0; op < 20000; ++op) {
    // Small id universe => erases of present ids and re-inserts of
    // just-erased ids.
    const RuleId id = 1 + rng.next_below(512);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const bool fresh = ref.insert(id).second;
        EXPECT_EQ(set.insert(id), fresh);
        if (fresh) order.push_back(id);
        break;
      }
      case 2: {
        const bool present = ref.erase(id) != 0;
        EXPECT_EQ(set.erase(id), present);
        if (present) {
          *std::find(order.begin(), order.end(), id) = order.back();
          order.pop_back();
        }
        break;
      }
      default:
        EXPECT_EQ(set.contains(id), ref.count(id) != 0);
        break;
    }
    peak = std::max(peak, set.size());
    ASSERT_TRUE(std::equal(set.begin(), set.end(), order.begin(), order.end()))
        << "order diverged at op " << op;
    if (op % 4096 == 0) {
      set.clear();
      ref.clear();
      order.clear();
    }
  }
  EXPECT_GT(peak, dag::AdjacencyList::kHubDegree);
  ASSERT_EQ(set.size(), ref.size());
  std::unordered_set<RuleId> seen;
  for (RuleId id : set) EXPECT_TRUE(seen.insert(id).second) << "duplicate " << id;
  EXPECT_EQ(seen, ref);
}

TEST(AdjacencyList, EqualityIsOrderIndependentAndReserveKeepsElements) {
  dag::AdjacencyList a;
  dag::AdjacencyList b;
  for (RuleId id = 1; id <= 100; ++id) a.insert(id);
  for (RuleId id = 100; id >= 1; --id) b.insert(id);
  EXPECT_EQ(a, b);
  b.erase(57);
  EXPECT_NE(a, b);
  a.reserve(4096);  // force a reallocation well past the current block
  EXPECT_EQ(a.size(), 100u);
  for (RuleId id = 1; id <= 100; ++id) EXPECT_TRUE(a.contains(id));
  dag::AdjacencyList c = a;  // copies stay independent
  c.erase(1);
  EXPECT_TRUE(a.contains(1));
  EXPECT_FALSE(c.contains(1));
}

}  // namespace
}  // namespace ruletris
