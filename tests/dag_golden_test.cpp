// Golden output of the bulk minimum-DAG builder.
//
// CacheFlow and the DAG firmware read a DependencyGraph's adjacency in its
// iteration order, and that order follows the graph's add_vertex/add_edge
// sequence. So the builder promises more than "the minimum DAG": the same
// input gives the same call sequence, on any thread count. Each case below
// hashes (FNV-1a) a build's unsorted edges() sequence, which depends on
// that sequence, and its sorted edge set. The tables are classbench router,
// monitor and firewall tables, built serially and on four threads. The
// constants were computed before the builder's candidate index was
// replaced, so an optimisation of the builder must leave them unchanged.
// Rule ids come from a private ScopedRuleIdNamespace, so they do not depend
// on what else the process allocated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
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

uint64_t fnv_edges(const std::vector<std::pair<RuleId, RuleId>>& edges) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto word = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint8_t>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  };
  word(edges.size());
  for (const auto& [u, v] : edges) {
    word(u);
    word(v);
  }
  return h;
}

struct GoldenCase {
  const char* profile;
  size_t rules;
  uint64_t unsorted;  // hash of edges() in iteration order
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
    {"router", 500, 0xa7e0b722dfd750aaull, 0x3b36ff62acec4c32ull, 499},
    {"router", 5000, 0x186d14b58b99bc33ull, 0xc27b6cc5053fb67bull, 4999},
    {"router", 20000, 0xe61bfc15c80044e1ull, 0x580a9966f1e9ce89ull, 19999},
    {"monitor", 500, 0x5e1ff7634d6130cdull, 0x13eb1703d7627181ull, 588},
    {"monitor", 5000, 0x6f08d0b109b51f66ull, 0x59435d5f53e4e0c2ull, 16681},
    {"firewall", 500, 0x92b2f5607e812a75ull, 0x65977261d68e40cdull, 621},
    {"firewall", 5000, 0xbd17d78fffe6eef4ull, 0xd6a326ccabf82360ull, 16428},
};

TEST(DagGolden, BuildsKeepTheirEdgeSequence) {
  for (const GoldenCase& c : kCases) {
    const FlowTable table = golden_table(c);
    ASSERT_EQ(table.size(), c.rules);
    for (const size_t threads : {1ul, 4ul}) {
      MinDagBuildOptions opts;
      opts.n_threads = threads;
      const DependencyGraph graph = dag::build_min_dag_parallel(table, opts);
      auto edges = graph.edges();
      const uint64_t unsorted = fnv_edges(edges);
      std::sort(edges.begin(), edges.end());
      const uint64_t sorted = fnv_edges(edges);
      const std::string tag = std::string(c.profile) + "(" + std::to_string(c.rules) +
                              "), threads=" + std::to_string(threads);
      EXPECT_EQ(edges.size(), c.edges) << tag;
      EXPECT_EQ(unsorted, c.unsorted) << tag << ": unsorted 0x" << std::hex << unsorted;
      EXPECT_EQ(sorted, c.sorted) << tag << ": sorted 0x" << std::hex << sorted;
    }
  }
}

}  // namespace
}  // namespace ruletris
