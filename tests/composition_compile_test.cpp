// Compile-strategy equivalence for ComposedNode's full compile.
//
// full_rebuild has two interchangeable execution strategies — serial and
// the thread-pool sharded compose fan-out — plus the incremental path that
// reaches the same state one child update at a time. All of them must agree
// on the id-independent CompileSnapshot: member entries by provenance,
// key-vertex representatives, and the visible minimum-DAG edge set.
//
// Also holds the collision smoke test for util::hash_pair, which backs the
// update builder's EdgeKey hash: rule ids arrive in consecutive runs from
// the global counter, exactly the structured grids the old multiply-add
// combiners degraded on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "dag/builder.h"
#include "test_util.h"
#include "util/hash.h"

namespace ruletris {
namespace {

using compiler::CompileOptions;
using compiler::CompileSnapshot;
using compiler::ComposedNode;
using compiler::LeafNode;
using compiler::OpKind;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using util::Rng;

constexpr OpKind kAllOps[] = {OpKind::kParallel, OpKind::kSequential,
                              OpKind::kPriority};

/// Like testutil::random_actions, but sometimes adds a header rewrite so the
/// sequential operator's match-rewrite machinery is actually exercised.
ActionList random_actions(Rng& rng) {
  if (rng.next_bool(0.3)) {
    return ActionList{Action::set_field(FieldId::kDstIp,
                                        static_cast<uint32_t>(rng.next_below(4)) << 30),
                      Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
  }
  return testutil::random_actions(rng);
}

std::vector<Rule> random_table_rules(Rng& rng, size_t n) {
  std::vector<Rule> rules;
  rules.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rules.push_back(Rule::make(testutil::random_match(rng), random_actions(rng),
                               static_cast<int32_t>(n - i)));
  }
  return rules;
}

ComposedNode make_node(OpKind op, const std::vector<Rule>& t1,
                       const std::vector<Rule>& t2, const CompileOptions& opts) {
  return ComposedNode{op, std::make_unique<LeafNode>(FlowTable{t1}),
                      std::make_unique<LeafNode>(FlowTable{t2}), opts};
}

/// RAII guard for the process-wide default compile options (the nested-tree
/// tests build whole trees under one strategy via the defaulted ctor).
class DefaultOptionsGuard {
 public:
  explicit DefaultOptionsGuard(const CompileOptions& opts)
      : saved_(compiler::default_compile_options()) {
    compiler::set_default_compile_options(opts);
  }
  ~DefaultOptionsGuard() { compiler::set_default_compile_options(saved_); }

 private:
  CompileOptions saved_;
};

class CompileStrategies : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompileStrategies, SerialLegacyAndParallelSnapshotsAgree) {
  Rng rng(GetParam());
  for (const OpKind op : kAllOps) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto t1 = random_table_rules(rng, 8 + rng.next_below(16));
      const auto t2 = random_table_rules(rng, 8 + rng.next_below(16));

      const CompileSnapshot serial =
          make_node(op, t1, t2, CompileOptions{}).snapshot();

      for (const size_t threads : {2ul, 4ul}) {
        CompileOptions par;
        par.n_threads = threads;
        par.parallel_cutoff = 0;  // force the sharded path on tiny tables
        EXPECT_EQ(make_node(op, t1, t2, par).snapshot(), serial)
            << compiler::op_name(op) << " parallel diverged, threads=" << threads;
      }
    }
  }
}

TEST_P(CompileStrategies, IncrementalStateMatchesFullRebuildSnapshot) {
  // Drive a node through random child inserts/removals, then recompile the
  // same node from scratch: entries, representatives, and the visible DAG
  // must land in the identical state (under every strategy).
  Rng rng(GetParam() ^ 0x1ac5);
  for (const OpKind op : kAllOps) {
    auto t1 = random_table_rules(rng, 5);
    auto t2 = random_table_rules(rng, 5);
    auto left = std::make_unique<LeafNode>(FlowTable{t1});
    auto right = std::make_unique<LeafNode>(FlowTable{t2});
    LeafNode* lp = left.get();
    LeafNode* rp = right.get();
    ComposedNode node{op, std::move(left), std::move(right), CompileOptions{}};

    std::vector<RuleId> live_l, live_r;
    for (const Rule& r : t1) live_l.push_back(r.id);
    for (const Rule& r : t2) live_r.push_back(r.id);

    for (int step = 0; step < 24; ++step) {
      const bool use_left = rng.next_bool(0.5);
      LeafNode* leaf = use_left ? lp : rp;
      auto& live = use_left ? live_l : live_r;
      if (!live.empty() && rng.next_bool(0.4)) {
        const size_t pick = rng.next_below(live.size());
        node.apply_child_update(use_left, leaf->remove(live[pick]));
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        Rule r = Rule::make(testutil::random_match(rng), random_actions(rng),
                            1 + static_cast<int32_t>(rng.next_below(30)));
        live.push_back(r.id);
        node.apply_child_update(use_left, leaf->insert(std::move(r)));
      }
    }

    const CompileSnapshot incremental = node.snapshot();
    node.full_rebuild();
    EXPECT_EQ(node.snapshot(), incremental)
        << compiler::op_name(op) << " serial rebuild diverged from incremental";

    CompileOptions par;
    par.n_threads = 4;
    par.parallel_cutoff = 0;
    node.set_compile_options(par);
    node.full_rebuild();
    EXPECT_EQ(node.snapshot(), incremental)
        << compiler::op_name(op) << " parallel rebuild diverged from incremental";
  }
}

TEST_P(CompileStrategies, NestedTwoLevelPoliciesAgreeAcrossStrategies) {
  // (a op1 b) op2 c — the inner composed node is itself a child, so the
  // outer compile consumes a composed visible table/DAG, not a leaf's.
  Rng rng(GetParam() ^ 0x2b1d);
  for (const OpKind op1 : kAllOps) {
    for (const OpKind op2 : kAllOps) {
      const auto ta = random_table_rules(rng, 6 + rng.next_below(6));
      const auto tb = random_table_rules(rng, 6 + rng.next_below(6));
      const auto tc = random_table_rules(rng, 6 + rng.next_below(6));

      auto build = [&](const CompileOptions& opts) {
        DefaultOptionsGuard guard(opts);
        auto inner = std::make_unique<ComposedNode>(
            op1, std::make_unique<LeafNode>(FlowTable{ta}),
            std::make_unique<LeafNode>(FlowTable{tb}));
        ComposedNode root{op2, std::move(inner),
                          std::make_unique<LeafNode>(FlowTable{tc})};
        // The inner node's entry ids come from the process-global counter and
        // differ per build, so the root's raw provenance snapshot is not
        // comparable across builds. Canonicalize each source id to its rank
        // in the child's visible order (deterministic given the same leaf
        // tables), keeping the snapshot comparison id-independent.
        const CompileSnapshot s = root.snapshot();
        auto ranks = [](const compiler::PolicyNode& n) {
          std::unordered_map<RuleId, size_t> m;
          const auto rules = n.visible_rules_in_order();
          for (size_t i = 0; i < rules.size(); ++i) m[rules[i].id] = i + 1;
          return m;
        };
        const auto lrank = ranks(root.left());
        const auto rrank = ranks(root.right());
        auto canon = [&](const CompileSnapshot::Prov& p) {
          return std::pair<size_t, size_t>{p.first ? lrank.at(p.first) : 0,
                                           p.second ? rrank.at(p.second) : 0};
        };
        std::vector<std::tuple<size_t, size_t, TernaryMatch, ActionList>> entries;
        for (const auto& [l, r, m, a] : s.entries) {
          const auto [cl, cr] = canon({l, r});
          entries.emplace_back(cl, cr, m, a);
        }
        std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
          if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
          return std::get<1>(a) < std::get<1>(b);
        });
        std::vector<std::pair<size_t, size_t>> reps;
        for (const auto& p : s.reps) reps.push_back(canon(p));
        std::sort(reps.begin(), reps.end());
        std::vector<std::pair<std::pair<size_t, size_t>, std::pair<size_t, size_t>>>
            edges;
        for (const auto& [u, v] : s.visible_edges) edges.emplace_back(canon(u), canon(v));
        std::sort(edges.begin(), edges.end());
        return std::make_tuple(entries, reps, edges);
      };

      const auto serial = build(CompileOptions{});
      CompileOptions par;
      par.n_threads = 4;
      par.parallel_cutoff = 0;
      EXPECT_EQ(build(par), serial) << compiler::op_name(op1) << " then "
                                    << compiler::op_name(op2) << " (parallel)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileStrategies,
                         ::testing::Values(1u, 0xbeefu, 0x5eedu));

TEST(ComposedNodeChildren, KeepNoDagEdges) {
  // A composed node demotes its children: they keep order and index but no
  // edges, so reading a child's DAG throws, its updates carry no edge
  // deltas, and the parent's visible DAG stays the brute-force minimum.
  Rng rng(0xc41d);
  for (const OpKind op : kAllOps) {
    auto left = std::make_unique<LeafNode>(FlowTable{random_table_rules(rng, 12)});
    auto right = std::make_unique<LeafNode>(FlowTable{random_table_rules(rng, 12)});
    LeafNode* lp = left.get();
    EXPECT_NO_THROW((void)lp->visible_graph()) << "a node starts as a root";
    ComposedNode node{op, std::move(left), std::move(right), CompileOptions{}};
    EXPECT_THROW((void)lp->visible_graph(), std::logic_error);
    EXPECT_THROW((void)node.right().visible_graph(), std::logic_error);
    for (int step = 0; step < 10; ++step) {
      Rule r = Rule::make(testutil::random_match(rng), random_actions(rng),
                          1 + static_cast<int32_t>(rng.next_below(30)));
      const compiler::TableUpdate up = lp->insert(std::move(r));
      EXPECT_TRUE(up.dag.added_edges.empty() && up.dag.removed_edges.empty());
      node.apply_child_update(true, up);
    }
    const FlowTable visible{node.visible_rules_in_order()};
    EXPECT_EQ(node.visible_graph(), dag::build_min_dag(visible)) << compiler::op_name(op);
  }
}

TEST(PairHash, NoCollisionsOnConsecutiveIdGrids) {
  // Rule ids are handed out consecutively, so PairKeys form dense integer
  // grids. The old h(l)*C + h(r) combiner kept grid structure in the low
  // bits; the 128-bit mix must give distinct values and balanced buckets.
  constexpr uint64_t kBase = 1000;
  constexpr size_t kSide = 256;
  std::unordered_set<size_t> seen;
  seen.reserve(kSide * kSide);
  std::vector<size_t> buckets(4096, 0);
  for (uint64_t l = kBase; l < kBase + kSide; ++l) {
    for (uint64_t r = kBase; r < kBase + kSide; ++r) {
      const size_t h = util::hash_pair(l, r);
      seen.insert(h);
      ++buckets[h & 0xfff];
    }
  }
  EXPECT_EQ(seen.size(), kSide * kSide);  // no full-width collisions at all
  // Low bits drive unordered_map bucket choice: demand near-uniform spread
  // (expected 16 per bucket; 4x headroom).
  for (const size_t count : buckets) EXPECT_LE(count, 64u);
  // Ordered pairs are directional.
  EXPECT_NE(util::hash_pair(1, 2), util::hash_pair(2, 1));
}

}  // namespace
}  // namespace ruletris
