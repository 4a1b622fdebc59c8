// Incrementally maintained dependency caps for the DAG scheduler.
//
// Algorithm 1's chain search probes, for the entry at address a, the lowest
// installed-successor address (upward landing cap) and the highest
// installed-predecessor address (downward cap). Scanning the graph on every
// probe costs O(degree) — fatal when a default-like rule has degree O(n).
// This index keeps two address-indexed cell arrays (lo_succ_/hi_pred_) that
// are *always exact* for installed entries, so every BFS probe is one array
// load (O(1)).
//
// The graph side is cheap to walk: DependencyGraph hands out each vertex's
// successors and predecessors as one contiguous span (dag::AdjacencyList,
// ids inline or in one heap block; ~96 bytes per vertex in all on the
// 100 k-rule FIB), so a neighbour scan is one handle lookup and an array
// read.
//
// Per-vertex sorted neighbour-address lists back the cells, but they are
// hydrated lazily: a vertex's set is built from the graph + TCAM the first
// time an operation actually needs it (a cap can *decrease* — erase, move,
// edge removal — or insert bounds are requested for the vertex), and is
// maintained incrementally from then on. Operations that only tighten a cap
// (writes, edge additions) fold the new address into the cells directly and
// touch only already-hydrated lists. The cells read only a list's first and
// last address, so a list is a sorted vector (one allocation, no tree
// nodes): an update costs O(log degree) to find its place plus a shift.
// rebuild() — and the warm-boot restore path, which adopts externally
// computed cells via load_cells() — stays allocation-free O(V + E) instead
// of an O(E log) full list construction.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dag/dependency_graph.h"
#include "tcam/tcam.h"
#include "util/rule_id_map.h"

namespace ruletris::tcam {

class CapIndex {
 public:
  explicit CapIndex(size_t capacity);

  /// Recomputes the cells from scratch and drops all hydrated per-vertex
  /// state — used when the scheduler loads a whole graph, and by tests as
  /// the oracle for the live cells. O(V + E), no per-edge allocation.
  void rebuild(const Tcam& tcam, const dag::DependencyGraph& graph);

  /// Warm-boot fast path: adopts externally computed cap cells (e.g. derived
  /// from a frozen layout's flat index/address arrays) and drops all
  /// hydrated per-vertex state. Both vectors must have exactly `capacity`
  /// entries; free slots use the sentinels (capacity, -1).
  void load_cells(std::vector<long long> lo_succ, std::vector<long long> hi_pred);

  /// Lowest installed-successor address of the entry at `addr`
  /// (capacity sentinel when unconstrained). The entry must be installed.
  long long lo_succ_at(size_t addr) const { return lo_succ_[addr]; }
  /// Highest installed-predecessor address of the entry at `addr`
  /// (-1 sentinel when unconstrained).
  long long hi_pred_at(size_t addr) const { return hi_pred_[addr]; }

  /// Exclusive insert bounds (highest predecessor, lowest successor) for a
  /// rule that may or may not be installed. Hydrates the rule's set, so a
  /// follow-up evict + reinsert answers in O(1).
  std::pair<long long, long long> bounds_of(flowspace::RuleId id,
                                            const dag::DependencyGraph& graph,
                                            const Tcam& tcam);

  // Entry lifecycle — call AFTER the corresponding Tcam mutation.
  void on_write(flowspace::RuleId id, size_t addr,
                const dag::DependencyGraph& graph, const Tcam& tcam);
  void on_move(size_t from, size_t to, const dag::DependencyGraph& graph,
               const Tcam& tcam);
  void on_erase(flowspace::RuleId id, size_t addr,
                const dag::DependencyGraph& graph, const Tcam& tcam);

  // Graph deltas. Safe to call just before or just after the graph mutation
  // itself (hydration folds the delta in idempotently); the scheduler calls
  // them after.
  void on_add_edge(flowspace::RuleId u, flowspace::RuleId v,
                   const dag::DependencyGraph& graph, const Tcam& tcam);
  void on_remove_edge(flowspace::RuleId u, flowspace::RuleId v,
                      const dag::DependencyGraph& graph, const Tcam& tcam);
  /// Call after the entry was erased (if installed) and the graph vertex
  /// removed; drops the per-vertex record.
  void on_remove_vertex(flowspace::RuleId v) { caps_.erase(v); }

 private:
  /// A sorted, duplicate-free address list.
  class AddrSet {
   public:
    bool empty() const { return addrs_.empty(); }
    size_t min() const { return addrs_.front(); }
    size_t max() const { return addrs_.back(); }
    void insert(size_t addr);
    void erase(size_t addr);

   private:
    std::vector<size_t> addrs_;
  };

  struct VertexCaps {
    AddrSet succ_addrs;  // addresses of installed successors
    AddrSet pred_addrs;  // addresses of installed predecessors
  };

  /// Returns the vertex's caps, building them from the graph + TCAM on
  /// first touch. Presence in caps_ == hydrated. The reference is valid
  /// until the next hydration or on_remove_vertex.
  VertexCaps& hydrate(flowspace::RuleId id, const dag::DependencyGraph& graph,
                      const Tcam& tcam);

  /// Refreshes the cells for `id` from its hydrated caps, if installed.
  void refresh_cells(flowspace::RuleId id, const VertexCaps& caps,
                     const Tcam& tcam);
  void refresh_cells_at(size_t addr, const VertexCaps& caps);

  size_t capacity_;
  util::RuleIdMap<VertexCaps> caps_;
  std::vector<long long> lo_succ_;  // per address; capacity_ when unconstrained
  std::vector<long long> hi_pred_;  // per address; -1 when unconstrained
};

}  // namespace ruletris::tcam
