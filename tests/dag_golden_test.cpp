// Golden output of the bulk minimum-DAG builder.
//
// CacheFlow reads a DependencyGraph's adjacency in list order, so the
// builder promises more than "the minimum DAG": every vertex's
// successors() and predecessors() ascend by row (build-input position), on
// any thread count. Each case below checks that order, hashes (FNV-1a) the
// adjacency vertex by vertex in the table's row order, and hashes the
// build's sorted edge set (edges() is ascending). The tables are classbench
// router, monitor and firewall tables, built serially and on four threads.
// An optimisation of the builder must leave both constants unchanged.
// Rule ids come from a private ScopedRuleIdNamespace, so they do not depend
// on what else the process allocated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using dag::DependencyGraph;
using dag::MinDagBuildOptions;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void word(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint8_t>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
};

uint64_t fnv_edges(const std::vector<std::pair<RuleId, RuleId>>& edges) {
  Fnv f;
  f.word(edges.size());
  for (const auto& [u, v] : edges) {
    f.word(u);
    f.word(v);
  }
  return f.h;
}

/// What CacheFlow walks: per vertex (in row order), its successors and then
/// its predecessors, each in list order.
uint64_t fnv_adjacency(const FlowTable& table, const DependencyGraph& graph) {
  Fnv f;
  for (const Rule& r : table.rules()) {
    for (const auto list : {graph.successors(r.id), graph.predecessors(r.id)}) {
      f.word(list.size());
      for (RuleId id : list) f.word(id);
    }
  }
  return f.h;
}

/// Number of vertices with a list out of row order (0 when every
/// successors() and predecessors() list ascends by row).
size_t lists_out_of_row_order(const FlowTable& table, const DependencyGraph& graph) {
  std::unordered_map<RuleId, size_t> row;
  for (const Rule& r : table.rules()) row.emplace(r.id, row.size());
  const auto ascending = [&](std::span<const RuleId> list) {
    return std::is_sorted(list.begin(), list.end(),
                          [&](RuleId a, RuleId b) { return row.at(a) < row.at(b); });
  };
  size_t bad = 0;
  for (const Rule& r : table.rules()) {
    bad += !ascending(graph.successors(r.id)) || !ascending(graph.predecessors(r.id));
  }
  return bad;
}

struct GoldenCase {
  const char* profile;
  size_t rules;
  uint64_t adjacency;  // hash of the adjacency in list order
  uint64_t sorted;    // hash of the sorted edge set
  size_t edges;
};

FlowTable golden_table(const GoldenCase& c) {
  RuleId counter = RuleId{1} << 40;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  util::Rng rng(0x901d + c.rules);
  const std::string profile = c.profile;
  if (profile == "router") return FlowTable{classbench::generate_router(c.rules, rng)};
  if (profile == "monitor") return FlowTable{classbench::generate_monitor(c.rules, rng)};
  return FlowTable{classbench::generate_firewall(c.rules, rng)};
}

constexpr GoldenCase kCases[] = {
    {"router", 500, 0x71580a576339264full, 0x3b36ff62acec4c32ull, 499},
    {"router", 5000, 0xd50767aa6ad64fafull, 0xc27b6cc5053fb67bull, 4999},
    {"router", 20000, 0xd902cc43793b8599ull, 0x580a9966f1e9ce89ull, 19999},
    {"monitor", 500, 0xbafbc74149771352ull, 0x13eb1703d7627181ull, 588},
    {"monitor", 5000, 0x9dcf2da11a167644ull, 0x59435d5f53e4e0c2ull, 16681},
    {"firewall", 500, 0x43990bbc6b8a77b3ull, 0x65977261d68e40cdull, 621},
    {"firewall", 5000, 0x5d629a3c810679beull, 0xd6a326ccabf82360ull, 16428},
};

TEST(DagGolden, BuildsKeepTheirEdgeSequence) {
  for (const GoldenCase& c : kCases) {
    const FlowTable table = golden_table(c);
    ASSERT_EQ(table.size(), c.rules);
    for (const size_t threads : {1ul, 4ul}) {
      MinDagBuildOptions opts;
      opts.n_threads = threads;
      const DependencyGraph graph = dag::build_min_dag_parallel(table, opts);
      const auto edges = graph.edges();
      EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
      const uint64_t adjacency = fnv_adjacency(table, graph);
      const uint64_t sorted = fnv_edges(edges);
      const std::string tag = std::string(c.profile) + "(" + std::to_string(c.rules) +
                              "), threads=" + std::to_string(threads);
      EXPECT_EQ(edges.size(), c.edges) << tag;
      EXPECT_EQ(lists_out_of_row_order(table, graph), 0u) << tag;
      EXPECT_EQ(adjacency, c.adjacency) << tag << ": adjacency 0x" << std::hex << adjacency;
      EXPECT_EQ(sorted, c.sorted) << tag << ": sorted 0x" << std::hex << sorted;
    }
  }
}

}  // namespace
}  // namespace ruletris
