// Compile-strategy equivalence for ComposedNode's full compile.
//
// full_rebuild bulk-builds the root's visible minimum DAG on
// dag::default_build_threads() workers, and the incremental path reaches
// the same state one child update at a time. A compile on one thread, on
// four, and the incremental path must agree on the id-independent
// CompileSnapshot (member entries by provenance, key-vertex
// representatives, the visible minimum-DAG edge set), and the two thread
// counts on every update the root emits under churn. The classbench trees
// (the composition bench's shapes) are large enough that the DAG builder
// really shards.
//
// Also holds the collision smoke test for util::hash_pair, which backs the
// update builder's EdgeKey hash: rule ids arrive in consecutive runs from
// the global counter, exactly the structured grids the old multiply-add
// combiners degraded on.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "compiler/ruletris_compiler.h"
#include "dag/builder.h"
#include "test_util.h"
#include "util/hash.h"

namespace ruletris {
namespace {

using compiler::CompileSnapshot;
using compiler::ComposedNode;
using compiler::LeafNode;
using compiler::OpKind;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
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

/// RAII guard for the process-wide DAG build thread count, the one thread
/// knob of a full compile.
class DagThreadsGuard {
 public:
  explicit DagThreadsGuard(size_t n) : saved_(dag::default_build_threads()) {
    dag::set_default_build_threads(n);
  }
  ~DagThreadsGuard() { dag::set_default_build_threads(saved_); }
  DagThreadsGuard(const DagThreadsGuard&) = delete;
  DagThreadsGuard& operator=(const DagThreadsGuard&) = delete;

 private:
  size_t saved_;
};

/// Left-table size of the classbench trees: every root below holds enough
/// visible rules that its full compile on four DAG threads runs the
/// builder's threaded row loop (builds_threaded).
constexpr size_t kBigLeft = 1000;

/// True iff a root of `visible` rules bulk-builds its DAG on the builder's
/// threaded row loop when the compile runs on four DAG threads.
bool builds_threaded(size_t visible) {
  dag::MinDagBuildOptions opts;
  opts.n_threads = 4;
  return dag::uses_parallel_path(visible, opts);
}

/// A classbench table for a leaf of the trees below, named by profile:
/// "rtr" is `router` itself (the composition bench's router(128)), "nat"
/// targets it, "mon" and "fw" are monitor and firewall tables.
std::vector<Rule> classbench_table(const std::string& leaf,
                                   const std::vector<Rule>& router, Rng& rng) {
  if (leaf == "rtr") return router;
  if (leaf == "nat") return classbench::generate_nat(kBigLeft, router, rng);
  if (leaf == "mon") return classbench::generate_monitor(kBigLeft, rng);
  return classbench::generate_firewall(kBigLeft, rng);
}

/// A fresh rule of the leaf's profile, for churn.
Rule classbench_rule(const std::string& leaf, const std::vector<Rule>& router,
                     Rng& rng) {
  if (leaf == "rtr") return classbench::generate_router(1, rng).front();
  if (leaf == "nat") return classbench::random_nat_rule(router, kBigLeft, rng);
  return classbench::random_monitor_rule(kBigLeft, rng);
}

PolicySpec flat_tree(OpKind op) {
  switch (op) {
    case OpKind::kParallel:
      return PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
    case OpKind::kSequential:
      return PolicySpec::sequential(PolicySpec::leaf("nat"), PolicySpec::leaf("rtr"));
    case OpKind::kPriority:
      break;
  }
  return PolicySpec::priority(PolicySpec::leaf("fw"), PolicySpec::leaf("rtr"));
}

/// (fw $ mon) + rtr: the root compiles against a composed child.
PolicySpec nested_tree() {
  return PolicySpec::parallel(
      PolicySpec::priority(PolicySpec::leaf("fw"), PolicySpec::leaf("mon")),
      PolicySpec::leaf("rtr"));
}

/// TableUpdate as a comparable value (Rule has no equality operator).
auto update_image(const TableUpdate& u) {
  std::vector<std::tuple<RuleId, TernaryMatch, ActionList, int32_t>> added;
  for (const Rule& r : u.added) added.emplace_back(r.id, r.match, r.actions, r.priority);
  return std::make_tuple(u.removed, added, u.dag.removed_vertices, u.dag.removed_edges,
                         u.dag.added_vertices, u.dag.added_edges);
}

/// What one compile of a classbench tree produced: the root's state after
/// the initial compile, every update it emitted under a seeded churn, its
/// state after the churn, and its state after a full_rebuild from there.
struct CompileTrace {
  CompileSnapshot initial;
  std::vector<decltype(update_image(TableUpdate{}))> updates;
  CompileSnapshot incremental;
  CompileSnapshot rebuilt;
};

/// Compiles `spec` through RuleTrisCompiler with `threads` DAG build
/// threads, churns random leaves, then rebuilds the root. Rule ids come from
/// a private namespace, so traces of one seed compare id for id.
CompileTrace compile_and_churn(const PolicySpec& spec, uint64_t seed, size_t threads) {
  DagThreadsGuard guard(threads);
  RuleId counter = RuleId{1} << 40;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  Rng rng(seed);
  const std::vector<Rule> router = classbench::generate_router(128, rng);
  std::map<std::string, FlowTable> tables;
  std::map<std::string, std::vector<RuleId>> live;
  for (const std::string& leaf : spec.leaf_names()) {
    const std::vector<Rule> rules = classbench_table(leaf, router, rng);
    for (const Rule& r : rules) live[leaf].push_back(r.id);
    tables.emplace(leaf, FlowTable{rules});
  }
  RuleTrisCompiler frontend(spec, std::move(tables));
  auto& root = dynamic_cast<ComposedNode&>(frontend.root());
  EXPECT_TRUE(builds_threaded(root.visible_size())) << root.visible_size();

  CompileTrace trace;
  trace.initial = root.snapshot();
  const std::vector<std::string> leaves = spec.leaf_names();
  for (int step = 0; step < 40; ++step) {
    const std::string& leaf = leaves[rng.next_below(leaves.size())];
    std::vector<RuleId>& ids = live[leaf];
    if (ids.size() > 1 && rng.next_bool(0.5)) {
      const size_t victim = rng.next_below(ids.size());
      trace.updates.push_back(update_image(frontend.remove(leaf, ids[victim])));
      ids.erase(ids.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      Rule fresh = classbench_rule(leaf, router, rng);
      ids.push_back(fresh.id);
      trace.updates.push_back(update_image(frontend.insert(leaf, std::move(fresh))));
    }
  }
  trace.incremental = root.snapshot();
  root.full_rebuild();
  trace.rebuilt = root.snapshot();
  return trace;
}

void expect_same_trace(const CompileTrace& a, const CompileTrace& b, const char* what) {
  EXPECT_EQ(a.initial, b.initial) << what << ": initial compile";
  EXPECT_TRUE(a.updates == b.updates) << what << ": root update stream";
  EXPECT_EQ(a.incremental, b.incremental) << what << ": state after churn";
  EXPECT_EQ(a.rebuilt, b.rebuilt) << what << ": full_rebuild after churn";
}

class CompileStrategies : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompileStrategies, OneAndFourDagThreadsAgree) {
  // The root's visible DAG is bulk-built on dag::default_build_threads()
  // workers; its edges, and so every later incremental update, must not
  // depend on the count.
  for (const OpKind op : kAllOps) {
    expect_same_trace(compile_and_churn(flat_tree(op), GetParam(), 1),
                      compile_and_churn(flat_tree(op), GetParam(), 4),
                      compiler::op_name(op));
  }
}

TEST_P(CompileStrategies, IncrementalStateMatchesFullRebuildSnapshot) {
  // Drive a node through random child inserts/removals, then recompile the
  // same node from scratch: entries, representatives, and the visible DAG
  // must land in the identical state (at one and at four DAG threads).
  Rng rng(GetParam() ^ 0x1ac5);
  for (const OpKind op : kAllOps) {
    auto t1 = random_table_rules(rng, 5);
    auto t2 = random_table_rules(rng, 5);
    auto left = std::make_unique<LeafNode>(FlowTable{t1});
    auto right = std::make_unique<LeafNode>(FlowTable{t2});
    LeafNode* lp = left.get();
    LeafNode* rp = right.get();
    ComposedNode node{op, std::move(left), std::move(right)};

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

    // Classbench roots, large enough that the rebuild's DAG build shards.
    const CompileTrace big = compile_and_churn(flat_tree(op), GetParam(), 4);
    EXPECT_EQ(big.rebuilt, big.incremental)
        << compiler::op_name(op) << " 4-thread rebuild diverged from incremental";
  }
}

TEST_P(CompileStrategies, NestedTwoLevelPoliciesAgreeAcrossStrategies) {
  // (fw $ mon) + rtr: the root compiles against a composed child's visible
  // table, and the inner node's full compile runs on the same knob.
  const CompileTrace serial = compile_and_churn(nested_tree(), GetParam(), 1);
  expect_same_trace(serial, compile_and_churn(nested_tree(), GetParam(), 4),
                    "(fw $ mon) + rtr");
  EXPECT_EQ(serial.rebuilt, serial.incremental) << "nested rebuild diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileStrategies,
                         ::testing::Values(1u, 0xbeefu, 0x5eedu));

TEST(ComposedNodeChildren, KeepNoDagEdges) {
  // A composed node demotes its children: they keep order and index but no
  // edges, so reading a child's DAG throws, its updates carry no edge
  // deltas, and the parent's visible DAG stays the minimum DAG (serial
  // builder as the oracle) whether it was bulk-built on one or four threads.
  for (const size_t threads : {1ul, 4ul}) {
    const DagThreadsGuard guard(threads);
    Rng rng(0xc41d);
    const std::vector<Rule> router = classbench::generate_router(128, rng);
    for (const OpKind op : kAllOps) {
      const std::string lname = flat_tree(op).leaf_names().front();
      auto left = std::make_unique<LeafNode>(
          FlowTable{classbench_table(lname, router, rng)});
      auto right = std::make_unique<LeafNode>(FlowTable{router});
      LeafNode* lp = left.get();
      EXPECT_NO_THROW((void)lp->visible_graph()) << "a node starts as a root";
      ComposedNode node{op, std::move(left), std::move(right)};
      EXPECT_TRUE(builds_threaded(node.visible_size())) << node.visible_size();
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
      EXPECT_EQ(node.visible_graph(), dag::build_min_dag(visible))
          << compiler::op_name(op) << ", threads=" << threads;
    }
  }
}

/// Eight rules whose bulk min-DAG build overflows the default fragment
/// budget exactly once: the pair (in_port=1 rule, match-all rule) has four
/// exact-field rules between them that fragment the overlap ~32*32*16*16
/// ways before the two dst halves cover it. So a node's cover_overflows()
/// tells whether its bulk build ran.
std::vector<Rule> overflowing_table() {
  std::vector<TernaryMatch> m(8);
  m[1].set_exact(FieldId::kSrcIp, 0x0a000001);
  m[2].set_exact(FieldId::kDstIp, 0x0b000001);
  m[3].set_exact(FieldId::kSrcPort, 1234);
  m[4].set_exact(FieldId::kDstPort, 80);
  m[5].set_prefix(FieldId::kDstIp, 0, 1);
  m[6].set_prefix(FieldId::kDstIp, 0x80000000u, 1);
  m[7].set_exact(FieldId::kInPort, 1);
  std::vector<Rule> rules;
  for (size_t i = 0; i < m.size(); ++i) {
    rules.push_back(Rule::make(m[i], ActionList{Action::forward(1)},
                               static_cast<int32_t>(m.size() - i)));
  }
  return rules;
}

TEST(ComposedNodeChildren, CompilerBuildsNoDagBelowTheRoot) {
  const std::vector<Rule> rules = overflowing_table();
  const std::vector<Rule> pass{
      Rule::make(TernaryMatch::wildcard(), ActionList{Action::count(1)}, 1)};

  // Directly constructed nodes start as roots with their exact DAG, so the
  // overflowing bulk build runs; a node built as a child skips it.
  EXPECT_EQ(LeafNode(FlowTable{rules}).cover_overflows(), 1u);
  const LeafNode child(FlowTable{rules}, compiler::NodeRole::kChild);
  EXPECT_EQ(child.cover_overflows(), 0u);
  EXPECT_THROW((void)child.visible_graph(), std::logic_error);
  ComposedNode direct{OpKind::kParallel, std::make_unique<LeafNode>(FlowTable{rules}),
                      std::make_unique<LeafNode>(FlowTable{pass})};
  EXPECT_EQ(direct.left().cover_overflows(), 1u) << "built, then demoted";
  EXPECT_EQ(direct.cover_overflows(), 2u) << "the visible table overflows too";

  // RuleTrisCompiler builds every node below the root as a child: neither
  // the leaves nor the inner composed node run a bulk build, and the root
  // still holds the exact visible DAG.
  const PolicySpec spec = PolicySpec::parallel(
      PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b")),
      PolicySpec::leaf("c"));
  RuleTrisCompiler frontend(
      spec, {{"a", FlowTable{rules}}, {"b", FlowTable{pass}}, {"c", FlowTable{pass}}});
  auto& root = dynamic_cast<ComposedNode&>(frontend.root());
  EXPECT_EQ(frontend.leaf("a").cover_overflows(), 0u);
  EXPECT_EQ(root.left().cover_overflows(), 0u);
  EXPECT_THROW((void)root.left().visible_graph(), std::logic_error);
  EXPECT_EQ(root.cover_overflows(), 1u) << "only the root's own bulk build runs";
  EXPECT_EQ(root.visible_graph(),
            dag::build_min_dag(FlowTable{root.visible_rules_in_order()}));

  // A single-leaf policy's leaf is the root and keeps its DAG.
  RuleTrisCompiler single(PolicySpec::leaf("a"), {{"a", FlowTable{rules}}});
  EXPECT_EQ(single.leaf("a").cover_overflows(), 1u);
  EXPECT_NO_THROW((void)single.root().visible_graph());
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
