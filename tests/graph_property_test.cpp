// DependencyGraph under randomized op streams, cross-checked against a
// naive shadow implementation (ordered adjacency lists, a handle free list,
// recomputed queries).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dag/dependency_graph.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using dag::DependencyGraph;
using flowspace::RuleId;
using util::Rng;

/// The graph's documented model, kept naively: handles reused last freed
/// first, lists in insertion order with swap-remove on erase.
struct ShadowGraph {
  std::set<RuleId> vertices;
  std::set<std::pair<RuleId, RuleId>> edges;
  std::map<RuleId, std::vector<RuleId>> out, in;
  std::vector<RuleId> handle_ids;  // 0 marks a free handle
  std::vector<size_t> free_handles;

  static void swap_remove(std::vector<RuleId>& list, RuleId id) {
    const auto it = std::find(list.begin(), list.end(), id);
    if (it == list.end()) return;
    *it = list.back();
    list.pop_back();
  }

  void add_vertex(RuleId v) {
    if (!vertices.insert(v).second) return;
    out[v];
    in[v];
    if (free_handles.empty()) {
      handle_ids.push_back(v);
    } else {
      handle_ids[free_handles.back()] = v;
      free_handles.pop_back();
    }
  }
  void remove_vertex(RuleId v) {
    if (!vertices.erase(v)) return;
    for (RuleId s : out[v]) swap_remove(in[s], v);
    for (RuleId p : in[v]) swap_remove(out[p], v);
    out.erase(v);
    in.erase(v);
    for (auto it = edges.begin(); it != edges.end();) {
      it = (it->first == v || it->second == v) ? edges.erase(it) : std::next(it);
    }
    const size_t h = std::find(handle_ids.begin(), handle_ids.end(), v) - handle_ids.begin();
    handle_ids[h] = 0;
    free_handles.push_back(h);
  }
  void add_edge(RuleId u, RuleId v) {
    add_vertex(u);
    add_vertex(v);
    if (!edges.insert({u, v}).second) return;
    out[u].push_back(v);
    in[v].push_back(u);
  }
  void remove_edge(RuleId u, RuleId v) {
    if (!edges.erase({u, v})) return;
    swap_remove(out[u], v);
    swap_remove(in[v], u);
  }
  std::vector<RuleId> vertex_order() const {
    std::vector<RuleId> order;
    for (RuleId id : handle_ids) {
      if (id != 0) order.push_back(id);
    }
    return order;
  }

  bool reaches(RuleId from, RuleId to) const {
    if (!vertices.count(from) || !vertices.count(to)) return false;
    std::set<RuleId> seen{from};
    std::vector<RuleId> stack{from};
    while (!stack.empty()) {
      const RuleId cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (const auto& [u, v] : edges) {
        if (u == cur && seen.insert(v).second) stack.push_back(v);
      }
    }
    return false;
  }
};

std::vector<RuleId> as_vector(std::span<const RuleId> s) { return {s.begin(), s.end()}; }

/// `graph` holds exactly the shadow's vertices (in handle order), edges and
/// lists (in order).
void expect_matches(const DependencyGraph& graph, const ShadowGraph& shadow) {
  ASSERT_EQ(graph.vertex_count(), shadow.vertices.size());
  ASSERT_EQ(graph.edge_count(), shadow.edges.size());
  const auto edges = graph.edges();
  using EdgeSet = std::set<std::pair<RuleId, RuleId>>;
  ASSERT_EQ(EdgeSet(edges.begin(), edges.end()), shadow.edges);
  ASSERT_EQ(graph.vertices(), shadow.vertex_order());
  for (RuleId v : shadow.vertices) {
    ASSERT_EQ(as_vector(graph.successors(v)), shadow.out.at(v)) << "successors of " << v;
    ASSERT_EQ(as_vector(graph.predecessors(v)), shadow.in.at(v)) << "predecessors of " << v;
  }
}

/// bulk_load_indexed over the graph's own vertices and edges (vertex by
/// vertex in handle order, each successor list in order) equals per-edge
/// add_edge() calls in the same order: same sets, same lists.
void expect_bulk_load_matches_add_edge(const DependencyGraph& graph) {
  const std::vector<RuleId> vertices = graph.vertices();
  std::map<RuleId, uint32_t> index;
  for (RuleId v : vertices) index.emplace(v, static_cast<uint32_t>(index.size()));
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  DependencyGraph stepwise;
  for (RuleId v : vertices) stepwise.add_vertex(v);
  for (RuleId u : vertices) {
    for (RuleId v : graph.successors(u)) {
      edges.emplace_back(index.at(u), index.at(v));
      stepwise.add_edge(u, v);
    }
  }
  DependencyGraph bulk;
  bulk.bulk_load_indexed(vertices, edges);
  ASSERT_EQ(bulk, graph);
  ASSERT_EQ(bulk, stepwise);
  ASSERT_EQ(bulk.vertices(), stepwise.vertices());
  for (RuleId v : vertices) {
    ASSERT_EQ(as_vector(bulk.successors(v)), as_vector(stepwise.successors(v)));
    ASSERT_EQ(as_vector(bulk.predecessors(v)), as_vector(stepwise.predecessors(v)));
  }
}

/// Small universes: arbitrary edge directions (kept acyclic by a
/// reachability check), frequent vertex removals and handle reuse.
void run_small_trial(Rng& rng) {
  DependencyGraph graph;
  ShadowGraph shadow;
  constexpr RuleId kUniverse = 12;

  for (int step = 0; step < 400; ++step) {
    const RuleId u = 1 + rng.next_below(kUniverse);
    const RuleId v = 1 + rng.next_below(kUniverse);
    switch (rng.next_below(5)) {
      case 0:
        graph.add_vertex(u);
        shadow.add_vertex(u);
        break;
      case 1:
        graph.remove_vertex(u);
        shadow.remove_vertex(u);
        break;
      case 2:
        if (u != v && !shadow.reaches(v, u)) {  // keep it a DAG
          graph.add_edge(u, v);
          shadow.add_edge(u, v);
        }
        break;
      case 3:
        graph.remove_edge(u, v);
        shadow.remove_edge(u, v);
        break;
      case 4:
        ASSERT_NO_FATAL_FAILURE(expect_matches(graph, shadow));
        break;
    }
    // Spot queries every step.
    ASSERT_EQ(graph.has_edge(u, v), shadow.edges.count({u, v}) != 0);
    ASSERT_EQ(graph.reaches(u, v), shadow.reaches(u, v));
    if (shadow.vertices.count(u)) {
      ASSERT_EQ(as_vector(graph.successors(u)), shadow.out.at(u));
      ASSERT_EQ(as_vector(graph.predecessors(u)), shadow.in.at(u));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(graph, shadow));
  ASSERT_NO_FATAL_FAILURE(expect_bulk_load_matches_add_edge(graph));

  // The stream kept the graph acyclic, so a topological order must exist
  // and respect every edge.
  const auto order = graph.topo_order_high_to_low();
  ASSERT_EQ(order.size(), graph.vertex_count());
  std::map<RuleId, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& [u, v] : graph.edges()) {
    EXPECT_LT(pos.at(v), pos.at(u)) << "dependency must be matched first";
  }
}

/// Hub trials: edges run from the larger id to the smaller (acyclic by
/// construction) and half of them touch one of two hubs, the lowest id (a
/// predecessor-list hub) and the highest (a successor-list hub). Both hub
/// lists grow past AdjacencyList::kHubDegree, then shrink to nothing edge
/// by edge, so every list crosses inline -> heap block -> position index and
/// back down, and removed vertices' handles are reused.
void run_hub_trial(Rng& rng) {
  DependencyGraph graph;
  ShadowGraph shadow;
  constexpr RuleId kUniverse = 200;
  constexpr RuleId kLowHub = 1;
  constexpr RuleId kHighHub = kUniverse;
  const auto touch = [&](RuleId a, RuleId b) {
    for (RuleId x : {a, b}) {
      if (!shadow.vertices.count(x)) {
        ASSERT_FALSE(graph.has_vertex(x));
        continue;
      }
      ASSERT_EQ(as_vector(graph.successors(x)), shadow.out.at(x)) << "successors of " << x;
      ASSERT_EQ(as_vector(graph.predecessors(x)), shadow.in.at(x)) << "predecessors of " << x;
    }
    ASSERT_EQ(graph.has_edge(a, b), shadow.edges.count({a, b}) != 0);
  };
  const auto random_edge = [&] {
    RuleId a = 1 + rng.next_below(kUniverse);
    RuleId b = 1 + rng.next_below(kUniverse);
    if (rng.next_bool(0.5)) {
      (rng.next_bool(0.5) ? a : b) = rng.next_bool(0.5) ? kLowHub : kHighHub;
    }
    return std::pair{std::max(a, b), std::min(a, b)};
  };

  size_t peak = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool growing = step < 1500;
    const auto [u, v] = random_edge();
    const uint64_t dice = rng.next_below(100);
    if (dice < 2) {
      // Never a hub, so the hubs' lists only move edge by edge.
      const RuleId x = 2 + rng.next_below(kUniverse - 2);
      graph.remove_vertex(x);
      shadow.remove_vertex(x);
    } else if (dice < 4) {
      const RuleId x = 2 + rng.next_below(kUniverse - 2);
      graph.add_vertex(x);
      shadow.add_vertex(x);
    } else if (u != v && dice < (growing ? 75 : 25)) {
      graph.add_edge(u, v);
      shadow.add_edge(u, v);
    } else {
      graph.remove_edge(u, v);
      shadow.remove_edge(u, v);
    }
    ASSERT_NO_FATAL_FAILURE(touch(u, v));
    peak = std::max({peak, graph.predecessors(kLowHub).size(),
                     graph.successors(kHighHub).size()});
    if (step % 250 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_matches(graph, shadow));
    }
  }
  EXPECT_GT(peak, dag::AdjacencyList::kHubDegree);
  ASSERT_NO_FATAL_FAILURE(expect_matches(graph, shadow));
  ASSERT_NO_FATAL_FAILURE(expect_bulk_load_matches_add_edge(graph));

  // Drain both hubs edge by edge, in random order.
  std::vector<std::pair<RuleId, RuleId>> hub_edges;
  for (const auto& e : shadow.edges) {
    if (e.second == kLowHub || e.first == kHighHub) hub_edges.push_back(e);
  }
  for (size_t i = hub_edges.size(); i > 1; --i) {
    std::swap(hub_edges[i - 1], hub_edges[rng.next_below(i)]);
  }
  for (const auto& [u, v] : hub_edges) {
    ASSERT_TRUE(graph.remove_edge(u, v));
    shadow.remove_edge(u, v);
    ASSERT_NO_FATAL_FAILURE(touch(u, v));
  }
  EXPECT_TRUE(graph.predecessors(kLowHub).empty());
  EXPECT_TRUE(graph.successors(kHighHub).empty());
  ASSERT_NO_FATAL_FAILURE(expect_matches(graph, shadow));
}

TEST(GraphProperty, RandomOpStreamMatchesShadow) {
  Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE("small trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(run_small_trial(rng));
  }
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("hub trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(run_hub_trial(rng));
  }
}

TEST(GraphProperty, SourcesAndSinksPartitionCorrectly) {
  Rng rng(23);
  DependencyGraph graph;
  for (int i = 0; i < 60; ++i) {
    const RuleId u = 1 + rng.next_below(20);
    const RuleId v = 1 + rng.next_below(20);
    if (u != v && !graph.reaches(v, u)) graph.add_edge(u, v);
  }
  for (RuleId s : graph.sources()) EXPECT_TRUE(graph.successors(s).empty());
  for (RuleId s : graph.sinks()) EXPECT_TRUE(graph.predecessors(s).empty());
}

}  // namespace
}  // namespace ruletris
