// Policy-tree node interface.
//
// A RuleTris policy is a binary tree of composition operators over named
// leaf tables, e.g. (monitor + router) or (nat > router). Every node
// maintains the *visible* result of its subtree — a set of rules in match
// order, with an overlap index over them — and can apply incremental
// updates arriving from a child. Only the root also keeps the minimum
// dependency DAG over its rules: that is what the back-end installs, while
// a parent reads nothing of a child's DAG.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compiler/update.h"
#include "dag/dependency_graph.h"
#include "flowspace/rule.h"

namespace ruletris::compiler {

using dag::DependencyGraph;
using flowspace::ActionList;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;

/// Where a node is built in a policy tree. A root keeps the exact minimum
/// DAG over its visible rules. A child is demoted (PolicyNode::
/// demote_to_child) before its initial bulk load, so it never builds a DAG
/// that its parent would only drop.
enum class NodeRole { kRoot, kChild };

class PolicyNode {
 public:
  virtual ~PolicyNode() = default;

  /// Visible rules in the node's canonical match order (matched-first
  /// first), usable directly as a prioritized table: a leaf returns its
  /// rules' original priorities, a composed node descending positions.
  virtual std::vector<Rule> visible_rules_in_order() const = 0;

  /// The minimum DAG over the visible rules. Throws std::logic_error on a
  /// node demoted to a child (demote_to_child).
  virtual const DependencyGraph& visible_graph() const = 0;

  virtual bool has_visible(RuleId id) const = 0;
  virtual const TernaryMatch& visible_match(RuleId id) const = 0;
  virtual const ActionList& visible_actions(RuleId id) const = 0;
  virtual size_t visible_size() const = 0;

  /// Canonical-order comparator: true iff visible rule `a` is matched before
  /// visible rule `b`. Total order; used for representative selection in
  /// parent key vertices and for canonical linearization.
  virtual bool visible_before(RuleId a, RuleId b) const = 0;

  /// Replaces `out` with the ids of visible rules whose match overlaps `m`,
  /// in the node's overlap-index visit order. Taking the caller's vector
  /// lets a parent reuse one scratch buffer for every probe.
  virtual void visible_overlapping(const TernaryMatch& m,
                                   std::vector<RuleId>& out) const = 0;

  /// Cover tests in this subtree's min-DAG construction (a node's bulk
  /// build, then incremental maintenance) that hit the fragment limit and
  /// kept a conservative edge instead (the visible DAG may then carry an
  /// edge the minimum DAG would not). A demoted node runs no more cover
  /// tests, so its count stops at the demotion; a node built as a child
  /// (NodeRole::kChild, as RuleTrisCompiler builds every non-root node)
  /// runs none and counts 0.
  virtual size_t cover_overflows() const = 0;

  /// Makes this node a child. A node built as a root starts with its exact
  /// DAG; from this call on it keeps only its order and overlap index, which
  /// is all a parent reads: its edges are dropped, updates run no cover
  /// tests and carry no edge deltas, and visible_graph() throws.
  /// ComposedNode's constructor calls it on both children (a no-op on a
  /// node built as NodeRole::kChild). Not reversible.
  virtual void demote_to_child() = 0;
};

/// The update that installs `node`'s whole visible table on an empty
/// switch: its rules in match order, one added vertex per rule, then its
/// visible DAG edges. `Update` is TableUpdate, or tcam::BackendUpdate for a
/// caller that feeds a scheduler directly (both carry `added` and `dag`).
/// Throws std::logic_error on a demoted node, like visible_graph().
template <class Update = TableUpdate>
Update full_install(const PolicyNode& node) {
  Update update;
  update.added = node.visible_rules_in_order();
  for (const Rule& r : update.added) update.dag.added_vertices.push_back(r.id);
  update.dag.added_edges = node.visible_graph().edges();
  return update;
}

}  // namespace ruletris::compiler
