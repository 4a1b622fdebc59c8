// Chronological update recorder with net-effect normalization.
//
// A single child update can make a composed node's visible state churn: a
// key vertex's representative may be demoted and later restored, an edge
// added and then removed again. Parents and the back-end consume
// *normalized* TableUpdates (removals, then additions), so this builder
// records mutation events in order and emits only the net difference
// between the pre- and post-update visible state.
//
// A builder lives for one update, so its three hash tables draw their nodes
// and bucket arrays from a builder-local monotonic arena that starts in
// inline storage: a typical compile step allocates nothing on the heap here.
// The tables are the same std hash tables with the same rehash policy, so
// build() emits in the same order whatever the allocator. The builder is
// neither copyable nor movable (the tables point into its own arena).
#pragma once

#include <cstddef>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>

#include "compiler/update.h"
#include "util/hash.h"

namespace ruletris::compiler {

class UpdateBuilder {
 public:
  UpdateBuilder() = default;
  UpdateBuilder(const UpdateBuilder&) = delete;
  UpdateBuilder& operator=(const UpdateBuilder&) = delete;

  /// Records that visible rule `rule.id` became visible.
  void add_rule(const Rule& rule) {
    cancelled_.erase(rule.id);  // an id may come back after cancelling out
    auto it = verts_.find(rule.id);
    if (it == verts_.end()) {
      verts_.emplace(rule.id, VertexState{false, true, rule});
    } else {
      it->second.present_now = true;
      it->second.rule = rule;
    }
  }

  /// Records that visible rule `id` is no longer visible.
  void remove_rule(RuleId id) {
    auto it = verts_.find(id);
    if (it == verts_.end()) {
      verts_.emplace(id, VertexState{true, false, Rule{}});
    } else if (!it->second.present_before) {
      // Added earlier in this very update: cancels out entirely.
      verts_.erase(it);
      cancelled_.insert(id);
    } else {
      it->second.present_now = false;
    }
  }

  void add_edge(RuleId u, RuleId v) { bump_edge(u, v, +1); }
  void remove_edge(RuleId u, RuleId v) { bump_edge(u, v, -1); }

  /// Emits the net update. Edge changes implied by vertex removal are
  /// omitted (DagDelta vertex removal removes incident edges), and edges
  /// touching cancelled or removed vertices are dropped.
  TableUpdate build() const {
    // Size every list first, so each takes one allocation.
    size_t n_removed = 0, n_added = 0, n_edges_added = 0, n_edges_removed = 0;
    for (const auto& [id, st] : verts_) {
      n_removed += st.present_before;
      n_added += st.present_now;
    }
    for (const auto& [key, net] : edges_) {
      n_edges_added += net > 0;
      n_edges_removed += net < 0;
    }
    TableUpdate out;
    out.removed.reserve(n_removed);
    out.dag.removed_vertices.reserve(n_removed);
    out.added.reserve(n_added);
    out.dag.added_vertices.reserve(n_added);
    out.dag.added_edges.reserve(n_edges_added);
    out.dag.removed_edges.reserve(n_edges_removed);
    for (const auto& [id, st] : verts_) {
      if (st.present_before && !st.present_now) {
        out.removed.push_back(id);
        out.dag.removed_vertices.push_back(id);
      } else if (st.present_now) {
        if (st.present_before) {
          // Removed and re-added within the update: surface as both so the
          // consumer refreshes match/actions.
          out.removed.push_back(id);
          out.dag.removed_vertices.push_back(id);
        }
        out.added.push_back(st.rule);
        out.dag.added_vertices.push_back(id);
      }
    }
    for (const auto& [key, net] : edges_) {
      if (net == 0) continue;
      if (!endpoint_live(key.first) || !endpoint_live(key.second)) continue;
      if (net > 0) {
        out.dag.added_edges.emplace_back(key.first, key.second);
      } else {
        // A net-removed edge between two still-visible rules.
        out.dag.removed_edges.emplace_back(key.first, key.second);
      }
    }
    return out;
  }

 private:
  struct VertexState {
    bool present_before;
    bool present_now;
    Rule rule;
  };
  struct EdgeKey {
    RuleId first, second;
    bool operator==(const EdgeKey&) const = default;
  };
  // Full 128-bit mix (util/hash.h): rule ids come in consecutive runs from
  // the global counter, and the multiply-add combiner collided on exactly
  // those structured grids.
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return util::hash_pair(k.first, k.second);
    }
  };

  bool endpoint_live(RuleId id) const {
    if (cancelled_.count(id)) return false;
    auto it = verts_.find(id);
    return it == verts_.end() || it->second.present_now;
  }

  void bump_edge(RuleId u, RuleId v, int delta) {
    const EdgeKey key{u, v};
    auto [it, inserted] = edges_.try_emplace(key, 0);
    it->second += delta;
    if (it->second == 0) edges_.erase(it);
  }

  // Enough for the vertices and edges of a few dozen visible changes.
  static constexpr size_t kInlineBytes = 4096;
  alignas(std::max_align_t) std::byte inline_[kInlineBytes];
  std::pmr::monotonic_buffer_resource arena_{inline_, kInlineBytes};

  std::pmr::unordered_map<RuleId, VertexState> verts_{&arena_};
  std::pmr::unordered_set<RuleId> cancelled_{&arena_};
  std::pmr::unordered_map<EdgeKey, int, EdgeKeyHash> edges_{&arena_};
};

}  // namespace ruletris::compiler
