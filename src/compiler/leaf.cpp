#include "compiler/leaf.h"

#include <algorithm>

#include "dag/builder.h"

namespace ruletris::compiler {

LeafNode::LeafNode(const flowspace::FlowTable& table, NodeRole role) {
  if (role == NodeRole::kChild) demote_to_child();
  dag::OrderedRules ordered;
  ordered.reserve(table.size());
  meta_.reserve(table.size());
  for (const Rule& r : table.rules()) {
    ordered.emplace_back(r.id, r.match);
    meta_.insert(r.id, Meta{r.actions, r.priority});
  }
  // Bulk extraction (skipped by a child) honours the process-wide thread
  // knob (serial when 0/1); its overflow fallbacks count with the
  // incremental ones.
  dag_.bulk_load(ordered, dag::default_build_threads());
}

std::vector<Rule> LeafNode::visible_rules_in_order() const {
  std::vector<Rule> out;
  out.reserve(dag_.size());
  for (RuleId id : dag_.order()) {
    const Meta& m = meta_.at(id);
    out.push_back(Rule{id, dag_.match(id), m.actions, m.priority});
  }
  return out;
}

// A root emits its delta's edges ascending, as a composed root does.
static void sort_edges(dag::DagDelta& delta) {
  std::sort(delta.added_edges.begin(), delta.added_edges.end());
  std::sort(delta.removed_edges.begin(), delta.removed_edges.end());
}

TableUpdate LeafNode::insert(Rule rule) {
  TableUpdate update;
  // Priority descending, ties in insertion order: the incoming rule goes
  // after every present rule of equal or higher priority.
  const int32_t priority = rule.priority;
  update.dag = dag_.insert(rule.id, rule.match, [&](RuleId existing) {
    return meta_.at(existing).priority >= priority;
  });
  sort_edges(update.dag);
  meta_.insert(rule.id, Meta{rule.actions, priority});
  update.added.push_back(std::move(rule));
  return update;
}

TableUpdate LeafNode::remove(RuleId id) {
  TableUpdate update;
  if (!dag_.contains(id)) return update;
  update.dag = dag_.remove(id);
  sort_edges(update.dag);
  meta_.erase(id);
  update.removed.push_back(id);
  return update;
}

}  // namespace ruletris::compiler
