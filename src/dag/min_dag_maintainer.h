// Exact incremental minimum-DAG maintenance over an ordered rule list.
//
// Maintains, under rule inserts and removals, the minimum dependency DAG of
// a totally ordered rule list (matched-first order): edge u -> v (v earlier)
// iff overlap(u, v) is not entirely covered by the rules strictly between
// them. Each update recomputes direct-dependency only for the pairs whose
// "between" set changed, found through an overlap index, so the graph equals
// the brute-force minimum DAG after every operation at incremental cost.
//
// It is the one incremental min-DAG in the repository and serves three
// places:
//  * leaf tables (compiler::LeafNode: extracting and maintaining DAGs for
//    dependency-unaware applications, Sec. III-B and IV-C);
//  * the visible level of composed tables. The paper derives the visible
//    DAG by projecting member-level (cross-product / mega-resolution) edges
//    onto key-vertex representatives; we found that projection unsound when
//    ordering chains pass through *obscured* equal-match members (the
//    nested key vertices of Sec. IV-B1), so the visible DAG is instead
//    maintained exactly here. See DESIGN.md "Deviations";
//  * the surviving rules of tcam::eliminate_redundancy.
// Bulk loads go through the builder's row loop (dag/builder.h).
//
// A policy-tree child needs only the order and the overlap index, so
// drop_edges() turns the maintainer into an ordered, indexed rule set: no
// edges, no cover tests, deltas that list vertices only.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dag/builder.h"
#include "dag/dependency_graph.h"
#include "flowspace/rule_index.h"
#include "flowspace/ternary.h"
#include "util/rule_id_map.h"

namespace ruletris::dag {

using flowspace::RuleId;
using flowspace::TernaryMatch;

class MinDagMaintainer {
 public:
  size_t size() const { return order_.size(); }
  bool contains(RuleId id) const { return slots_.contains(id); }
  /// The minimum DAG; throws std::logic_error after drop_edges().
  const DependencyGraph& graph() const {
    if (!keep_edges_) throw std::logic_error("MinDagMaintainer: edges were dropped");
    return graph_;
  }
  const TernaryMatch& match(RuleId id) const { return slots_.at(id).match; }

  /// Replaces `out` with the rules overlapping `m`, in the overlap index's
  /// visit order (callers reuse `out` across calls).
  void overlapping(const TernaryMatch& m, std::vector<RuleId>& out) const {
    out.clear();
    index_.for_each_overlapping(
        m, [&out](RuleId id, const TernaryMatch&) { out.push_back(id); });
  }

  /// Rule ids in matched-first order.
  const std::vector<RuleId>& order() const { return order_; }

  /// True iff `a` is matched before `b` (a rank compare). Ids not present
  /// (e.g. mid-deletion in a propagating update) get the stable arbitrary
  /// order a < b.
  bool before(RuleId a, RuleId b) const {
    const Slot* sa = slots_.find(a);
    const Slot* sb = slots_.find(b);
    if (sa == nullptr || sb == nullptr) return a < b;
    return sa->rank < sb->rank;
  }

  /// Inserts after every present rule `before(existing)` holds for — a
  /// predicate partitioning order() (true on a prefix) that says whether
  /// `existing` is matched before the incoming rule. Returns the exact delta
  /// (one added vertex plus edge additions/removals). Throws
  /// std::invalid_argument, changing nothing, on a present or invalid id.
  ///
  /// The returned delta (of insert and remove alike) lives in this
  /// maintainer and is reused, so the update path allocates no fresh
  /// delta per call: it is valid until the next insert or remove.
  template <typename Before>
  const DagDelta& insert(RuleId id, TernaryMatch match, Before&& before) {
    const auto it = std::partition_point(order_.begin(), order_.end(), before);
    return insert_at(static_cast<size_t>(it - order_.begin()), id, std::move(match));
  }

  /// Removes; the delta contains the removed vertex, its (implied) removed
  /// edges, and the verified patch edges between former neighbours.
  const DagDelta& remove(RuleId id);

  /// Cover tests that hit the fragment limit and kept a conservative edge.
  size_t cover_overflows() const { return cover_overflows_; }
  /// Fragment budget of the incremental cover tests (tests lower it to
  /// force the conservative-edge fallback).
  void set_fragment_limit(size_t limit) { fragment_limit_ = limit; }

  /// Replaces all content with `rules` already in matched-first order and
  /// builds the DAG with the builder's row loop on `n_threads` workers
  /// (cheaper than n incremental inserts).
  void bulk_load(const OrderedRules& rules, size_t n_threads = 1);

  /// Stops maintaining edges for good: frees the graph, and every later
  /// insert, remove and bulk load keeps only the order, ranks and index.
  void drop_edges() {
    keep_edges_ = false;
    graph_ = DependencyGraph();
  }

 private:
  const DagDelta& insert_at(size_t idx, RuleId id, TernaryMatch match);

  /// Direct-dependency test for (earlier `hi`, later `lo`): overlap not
  /// covered by in-between rules (prefiltered through the overlap index).
  bool is_direct(RuleId hi, RuleId lo) const;

  uint64_t rank(RuleId id) const { return slots_.at(id).rank; }
  void renumber();

  static constexpr uint64_t kRankGap = uint64_t{1} << 20;

  struct Slot {
    TernaryMatch match;
    uint64_t rank = 0;  // sparse, order-consistent
  };

  std::vector<RuleId> order_;  // matched-first
  util::RuleIdMap<Slot> slots_;
  flowspace::RuleIndex index_;
  DependencyGraph graph_;
  bool keep_edges_ = true;

  // Reusable cover-test arenas: is_direct sits on every update path, so its
  // between-set and fragment buffers must not reallocate at steady state.
  // The same holds for the returned delta, the overlap candidates of
  // insert_at and remove and the successor copy insert_at walks while it
  // removes edges.
  DagDelta delta_;
  std::vector<RuleId> candidates_scratch_;
  std::vector<RuleId> below_scratch_;
  std::vector<RuleId> succ_scratch_;
  mutable std::vector<TernaryMatch> between_scratch_;
  mutable flowspace::CoverScratch cover_scratch_;
  size_t fragment_limit_ = flowspace::kDefaultFragmentLimit;
  mutable size_t cover_overflows_ = 0;
};

}  // namespace ruletris::dag
