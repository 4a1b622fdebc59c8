// The rule dependency graph (DAG) — RuleTris's central abstraction.
//
// Vertices are rule ids. A directed edge u -> v means "u depends on v":
// v must be matched before u, i.e. v must sit at a higher-priority TCAM
// address than u (paper Sec. II-b). The *minimum* DAG contains an edge only
// where swapping the two rules would change classification semantics; all
// construction algorithms in src/compiler and src/dag produce minimum DAGs.
//
// Storage is flat and indexed by dense vertex handles: one RuleIdMap takes
// a rule id to its handle, and handle-indexed arrays hold each vertex's id
// and its successor and predecessor AdjacencyList. A removed vertex's handle
// goes on a free list and is reused by the next vertex created, last freed
// first. On the 100 k-rule FIB DAG this is about 96 bytes per vertex. Ids
// 0 (flowspace::kInvalidRuleId) and ~0 cannot be vertices.
//
// Observable orders, none of which depends on id values:
//  * successors() and predecessors() are in insertion order, with
//    swap-remove on erase (AdjacencyList). bulk_load_indexed inserts in the
//    order of its edge list, and the bulk builder (dag/builder.h) emits its
//    edges in row order: both lists of every vertex ascend by build-input
//    position;
//  * vertices(), sources(), sinks() and topo_order_high_to_low()'s ties
//    follow handle order;
//  * edges() is ascending.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dag/adjacency_list.h"
#include "flowspace/rule.h"
#include "util/rule_id_map.h"

namespace ruletris::dag {

using flowspace::RuleId;

/// Incremental change to a DAG, produced by the front-end compilers and
/// shipped to the back-end alongside rule updates (Sec. III-B).
struct DagDelta {
  std::vector<RuleId> removed_vertices;
  std::vector<std::pair<RuleId, RuleId>> removed_edges;
  std::vector<RuleId> added_vertices;
  std::vector<std::pair<RuleId, RuleId>> added_edges;  // (u, v) for u -> v

  bool empty() const {
    return removed_vertices.empty() && removed_edges.empty() &&
           added_vertices.empty() && added_edges.empty();
  }
  void clear() {
    removed_vertices.clear();
    removed_edges.clear();
    added_vertices.clear();
    added_edges.clear();
  }
};

class DependencyGraph {
 public:
  DependencyGraph() = default;

  size_t vertex_count() const { return handles_.size(); }
  size_t edge_count() const { return edge_count_; }

  bool has_vertex(RuleId v) const { return handles_.contains(v); }
  bool has_edge(RuleId u, RuleId v) const;

  /// Returns true when the vertex was created (false: already present).
  bool add_vertex(RuleId v);

  /// Removes the vertex and all incident edges.
  void remove_vertex(RuleId v);

  /// What an add_edge call actually changed — the journaled scheduler
  /// needs this to log exactly the mutations a rollback must invert,
  /// without paying separate existence probes on the apply fast path.
  struct EdgeAdd {
    bool added = false;      // the edge itself was new
    bool created_u = false;  // endpoint u was created implicitly
    bool created_v = false;  // endpoint v was created implicitly
  };

  /// Adds u -> v ("v must be matched before u"). Adds missing vertices.
  /// No-op if the edge exists. Self-edges are rejected.
  EdgeAdd add_edge(RuleId u, RuleId v);

  /// Bulk-bootstrap for restore paths: loads `vertices` plus `edges` whose
  /// endpoints index into `vertices` (edge (i, j) means vertices[i] ->
  /// vertices[j]). The graph must be empty. Vertex i gets handle i; one
  /// degree-counting pass sizes every list exactly and one pass fills them
  /// in edge order, so the result equals per-edge add_edge() calls in that
  /// order, lists included, without a hash probe per edge. Throws
  /// std::invalid_argument on out-of-range indices, duplicate vertex ids or
  /// edges, self-edges, or a non-empty graph.
  void bulk_load_indexed(const std::vector<RuleId>& vertices,
                         const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// Returns true when the edge existed and was removed.
  bool remove_edge(RuleId u, RuleId v);

  /// Out-neighbours of u: the rules u depends on (placed above u). Empty
  /// for an unknown vertex. The span is valid until the graph next changes.
  std::span<const RuleId> successors(RuleId u) const;

  /// In-neighbours of u: the rules depending on u (placed below u).
  std::span<const RuleId> predecessors(RuleId u) const;

  /// Every vertex, in handle order.
  std::vector<RuleId> vertices() const;

  /// Vertices with no successors (may be matched last / sit anywhere low).
  std::vector<RuleId> sources() const;
  /// Vertices with no predecessors (nothing forces anything below them).
  std::vector<RuleId> sinks() const;

  /// Topological order from high match-priority to low: v appears before u
  /// whenever edge u -> v exists. Throws std::runtime_error on a cycle.
  std::vector<RuleId> topo_order_high_to_low() const;

  /// True iff adding u -> v would create a cycle.
  bool would_create_cycle(RuleId u, RuleId v) const;

  /// True iff v is reachable from u along dependency edges.
  bool reaches(RuleId u, RuleId v) const;

  /// Applies a delta: removals first, then additions.
  void apply(const DagDelta& delta);

  /// Every edge (u, v), ascending.
  std::vector<std::pair<RuleId, RuleId>> edges() const;

  bool operator==(const DependencyGraph& other) const;

  std::string to_string() const;

 private:
  static constexpr RuleId kFree = flowspace::kInvalidRuleId;  // ids_ of a free handle

  /// The handle of `v`, created when absent; second is true when created.
  std::pair<uint32_t, bool> claim(RuleId v);
  uint32_t handle(RuleId v) const { return handles_.at(v); }

  util::RuleIdMap<uint32_t> handles_;  // rule id -> handle
  std::vector<RuleId> ids_;            // handle -> rule id, kFree when free
  std::vector<AdjacencyList> out_;     // handle -> successors
  std::vector<AdjacencyList> in_;      // handle -> predecessors
  std::vector<uint32_t> free_;         // free handles, last freed on top
  size_t edge_count_ = 0;
};

}  // namespace ruletris::dag
