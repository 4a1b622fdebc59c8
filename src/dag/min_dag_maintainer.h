// Exact incremental minimum-DAG maintenance over an ordered rule list.
//
// Maintains, under rule inserts and removals, the minimum dependency DAG of
// a totally ordered rule list (matched-first order): edge u -> v (v earlier)
// iff overlap(u, v) is not entirely covered by the rules strictly between
// them. Each update recomputes direct-dependency only for the pairs whose
// "between" set changed, found through an overlap index, so the graph equals
// the brute-force minimum DAG after every operation at incremental cost.
//
// This powers two places:
//  * leaf tables (extracting DAGs from dependency-unaware applications,
//    Sec. III-B), and
//  * the visible level of composed tables. The paper derives the visible
//    DAG by projecting member-level (cross-product / mega-resolution) edges
//    onto key-vertex representatives; we found that projection unsound when
//    ordering chains pass through *obscured* equal-match members (the
//    nested key vertices of Sec. IV-B1), so the visible DAG is instead
//    maintained exactly here. See DESIGN.md "Deviations".
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "dag/dependency_graph.h"
#include "flowspace/rule_index.h"
#include "flowspace/ternary.h"

namespace ruletris::dag {

using flowspace::RuleId;
using flowspace::TernaryMatch;

class MinDagMaintainer {
 public:
  /// `before(existing, incoming)`: true iff the already-present rule
  /// `existing` is matched before the rule being inserted. Only ever called
  /// with the incoming id as second argument, so tie-breaking "existing
  /// first" is expressible for priority-ordered leaves.
  using BeforeFn = std::function<bool(RuleId existing, RuleId incoming)>;

  explicit MinDagMaintainer(BeforeFn before);

  size_t size() const { return order_.size(); }
  bool contains(RuleId id) const { return ranks_.count(id) != 0; }
  const DependencyGraph& graph() const { return graph_; }
  const TernaryMatch& match(RuleId id) const { return matches_.at(id); }

  /// Rules overlapping `m`, in no particular order.
  std::vector<RuleId> overlapping(const TernaryMatch& m) const {
    return index_.find_overlapping(m);
  }

  /// Rule ids in matched-first order.
  const std::vector<RuleId>& order() const { return order_; }

  /// Inserts at the position determined by the comparator; returns the
  /// exact delta (one added vertex plus edge additions/removals).
  DagDelta insert(RuleId id, TernaryMatch match);

  /// Removes; the delta contains the removed vertex, its (implied) removed
  /// edges, and the verified patch edges between former neighbours.
  DagDelta remove(RuleId id);

  /// Cover tests that hit the fragment limit and kept a conservative edge.
  size_t cover_overflows() const { return cover_overflows_; }
  /// Fragment budget of the incremental cover tests (tests lower it to
  /// force the conservative-edge fallback).
  void set_fragment_limit(size_t limit) { fragment_limit_ = limit; }

  /// Replaces all content with `rules` already in matched-first order and
  /// builds the DAG pairwise (cheaper than n incremental inserts).
  void bulk_load(const std::vector<std::pair<RuleId, TernaryMatch>>& rules);

 private:
  /// Direct-dependency test for (earlier `hi`, later `lo`): overlap not
  /// covered by in-between rules (prefiltered through the overlap index).
  bool is_direct(RuleId hi, RuleId lo) const;

  uint64_t rank(RuleId id) const { return ranks_.at(id); }
  void renumber();

  static constexpr uint64_t kRankGap = uint64_t{1} << 20;

  BeforeFn before_;
  std::vector<RuleId> order_;                    // matched-first
  std::unordered_map<RuleId, uint64_t> ranks_;   // sparse, order-consistent
  std::unordered_map<RuleId, TernaryMatch> matches_;
  flowspace::RuleIndex index_;
  DependencyGraph graph_;

  // Reusable cover-test arenas: is_direct sits on every update path, so its
  // between-set and fragment buffers must not reallocate at steady state.
  mutable std::vector<TernaryMatch> between_scratch_;
  mutable flowspace::CoverScratch cover_scratch_;
  size_t fragment_limit_ = flowspace::kDefaultFragmentLimit;
  mutable size_t cover_overflows_ = 0;
};

}  // namespace ruletris::dag
