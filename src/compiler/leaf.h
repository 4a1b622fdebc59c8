// Leaf table node: a prioritized member flow table with incrementally
// maintained minimum DAG.
//
// Applications and guest controllers are not required to be dependency-aware
// (Sec. III-B): they populate ordinary prioritized tables, and the leaf node
// extracts and incrementally maintains the minimum DAG (Sec. IV-C). Both
// jobs belong to one dag::MinDagMaintainer, which also holds every match;
// the leaf adds only each rule's actions and priority, and the ordering
// rule: priority descending, ties in insertion order — the order a
// flowspace::FlowTable fed the same inserts and erases keeps (tested).
#pragma once

#include "compiler/node.h"
#include "compiler/update.h"
#include "dag/min_dag_maintainer.h"
#include "util/rule_id_map.h"

namespace ruletris::compiler {

class LeafNode final : public PolicyNode {
 public:
  LeafNode() = default;

  /// Bulk-loads an initial prioritized table; a root also builds its DAG.
  explicit LeafNode(const flowspace::FlowTable& table, NodeRole role = NodeRole::kRoot);

  /// Inserts a prioritized rule; returns the visible update (the rule plus
  /// the DAG delta: new direct dependencies and edges it now covers; no
  /// edges once demoted to a child).
  /// Throws std::invalid_argument, changing nothing, on a present or
  /// invalid id.
  TableUpdate insert(Rule rule);

  /// Removes a rule by id; returns the visible update.
  TableUpdate remove(RuleId id);

  // PolicyNode interface. Rules come back with their original priorities.
  std::vector<Rule> visible_rules_in_order() const override;
  const DependencyGraph& visible_graph() const override { return dag_.graph(); }
  bool has_visible(RuleId id) const override { return dag_.contains(id); }
  const TernaryMatch& visible_match(RuleId id) const override {
    return dag_.match(id);
  }
  const ActionList& visible_actions(RuleId id) const override {
    return meta_.at(id).actions;
  }
  size_t visible_size() const override { return dag_.size(); }
  bool visible_before(RuleId a, RuleId b) const override { return dag_.before(a, b); }
  void visible_overlapping(const TernaryMatch& m,
                           std::vector<RuleId>& out) const override {
    dag_.overlapping(m, out);
  }
  size_t cover_overflows() const override { return dag_.cover_overflows(); }
  void demote_to_child() override { dag_.drop_edges(); }

  /// Fragment budget of the incremental cover tests (tests lower it to
  /// force the conservative-edge fallback).
  void set_fragment_limit(size_t limit) { dag_.set_fragment_limit(limit); }

 private:
  struct Meta {
    ActionList actions;
    int32_t priority = 0;
  };

  dag::MinDagMaintainer dag_;
  util::RuleIdMap<Meta> meta_;
};

}  // namespace ruletris::compiler
