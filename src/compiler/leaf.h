// Leaf table node: a prioritized member flow table with incrementally
// maintained minimum DAG.
//
// Applications and guest controllers are not required to be dependency-aware
// (Sec. III-B): they populate ordinary prioritized tables, and the leaf node
// extracts and incrementally maintains the minimum DAG. The per-update
// maintenance here is exact — it recomputes direct-dependency only for the
// pairs whose "between" set changed, found via the overlap index — so the
// leaf DAG always equals the brute-force minimum DAG (tested).
#pragma once

#include "compiler/node.h"
#include "compiler/update.h"
#include "flowspace/rule_index.h"

namespace ruletris::compiler {

class LeafNode final : public PolicyNode {
 public:
  LeafNode() = default;

  /// Bulk-loads an initial prioritized table and builds its DAG.
  explicit LeafNode(flowspace::FlowTable table);

  /// Inserts a prioritized rule; returns the visible update (the rule plus
  /// the DAG delta: new direct dependencies and edges it now covers).
  TableUpdate insert(Rule rule);

  /// Removes a rule by id; returns the visible update.
  TableUpdate remove(RuleId id);

  const flowspace::FlowTable& table() const { return table_; }

  // PolicyNode interface.
  std::vector<Rule> visible_rules_in_order() const override;
  const DependencyGraph& visible_graph() const override { return graph_; }
  bool has_visible(RuleId id) const override { return table_.contains(id); }
  const TernaryMatch& visible_match(RuleId id) const override {
    return table_.rule(id).match;
  }
  const ActionList& visible_actions(RuleId id) const override {
    return table_.rule(id).actions;
  }
  size_t visible_size() const override { return table_.size(); }
  bool visible_before(RuleId a, RuleId b) const override {
    // Dead ids (mid-deletion in a propagating update) get a stable
    // arbitrary order; see ComposedNode::entry_before.
    if (!table_.contains(a) || !table_.contains(b)) return a < b;
    return table_.position(a) < table_.position(b);
  }
  std::vector<RuleId> visible_overlapping(const TernaryMatch& m) const override {
    return index_.find_overlapping(m);
  }
  size_t cover_overflows() const override { return cover_overflows_; }

  /// Fragment budget of the incremental cover tests (tests lower it to
  /// force the conservative-edge fallback).
  void set_fragment_limit(size_t limit) { fragment_limit_ = limit; }

 private:
  /// True iff the pair (lo_pos, hi_pos) is a *direct* dependency: their
  /// overlap is not entirely covered by the rules strictly between them
  /// (prefiltered through the overlap index; fragment-budget overflow keeps
  /// a conservative edge — see flowspace::kDefaultFragmentLimit).
  bool is_direct(size_t hi_pos, size_t lo_pos) const;

  flowspace::FlowTable table_;
  DependencyGraph graph_;
  flowspace::RuleIndex index_;

  // Reusable cover-test arenas for is_direct (hot on every update).
  mutable std::vector<TernaryMatch> between_scratch_;
  mutable flowspace::CoverScratch cover_scratch_;
  size_t fragment_limit_ = flowspace::kDefaultFragmentLimit;
  mutable size_t cover_overflows_ = 0;
};

}  // namespace ruletris::compiler
