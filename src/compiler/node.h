// Policy-tree node interface.
//
// A RuleTris policy is a binary tree of composition operators over named
// leaf tables, e.g. (monitor + router) or (nat > router). Every node
// maintains the *visible* result of its subtree: a set of rules (no
// priorities) plus the minimum dependency DAG over them, and can apply
// incremental updates arriving from a child.
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

class PolicyNode {
 public:
  virtual ~PolicyNode() = default;

  /// Visible rules in the node's canonical match order (matched-first
  /// first), usable directly as a prioritized table: a leaf returns its
  /// rules' original priorities, a composed node descending positions.
  virtual std::vector<Rule> visible_rules_in_order() const = 0;

  /// The minimum DAG over the visible rules.
  virtual const DependencyGraph& visible_graph() const = 0;

  virtual bool has_visible(RuleId id) const = 0;
  virtual const TernaryMatch& visible_match(RuleId id) const = 0;
  virtual const ActionList& visible_actions(RuleId id) const = 0;
  virtual size_t visible_size() const = 0;

  /// Canonical-order comparator: true iff visible rule `a` is matched before
  /// visible rule `b`. Total order; used for representative selection in
  /// parent key vertices and for canonical linearization.
  virtual bool visible_before(RuleId a, RuleId b) const = 0;

  /// Ids of visible rules whose match overlaps `m` (uses the node's index).
  virtual std::vector<RuleId> visible_overlapping(const TernaryMatch& m) const = 0;

  /// Cover tests in this subtree's min-DAG construction (a leaf's bulk
  /// build, then incremental maintenance) that hit the fragment limit and
  /// kept a conservative edge instead (the visible DAG may then carry an
  /// edge the minimum DAG would not).
  virtual size_t cover_overflows() const = 0;
};

}  // namespace ruletris::compiler
