#include "compiler/leaf.h"

#include <algorithm>

#include "dag/builder.h"

namespace ruletris::compiler {

using flowspace::FlowTable;

LeafNode::LeafNode(FlowTable table) : table_(std::move(table)) {
  // Bulk extraction honours the process-wide thread knob (serial when 0/1);
  // its overflow fallbacks count with the incremental ones.
  dag::MinDagBuildOptions opts;
  opts.n_threads = dag::default_build_threads();
  dag::MinDagBuildStats stats;
  graph_ = dag::build_min_dag_parallel(table_, opts, &stats);
  cover_overflows_ = stats.cover_overflows;
  for (const Rule& r : table_.rules()) index_.insert(r.id, r.match);
}

std::vector<Rule> LeafNode::visible_rules_in_order() const {
  return table_.rules();
}

bool LeafNode::is_direct(size_t hi_pos, size_t lo_pos) const {
  const auto& rules = table_.rules();
  auto overlap = rules[hi_pos].match.intersect(rules[lo_pos].match);
  if (!overlap) return false;
  // Only rules overlapping the overlap region can cover any of it; pull them
  // from the index instead of copying every match between the positions.
  auto& between = between_scratch_;
  between.clear();
  index_.for_each_overlapping(*overlap,
                              [&](flowspace::RuleId id, const TernaryMatch& m) {
                                const size_t p = table_.position(id);
                                if (p > hi_pos && p < lo_pos) between.push_back(m);
                              });
  std::sort(between.begin(), between.end(),
            [](const TernaryMatch& a, const TernaryMatch& b) {
              return a.specified_bits() < b.specified_bits();
            });
  switch (flowspace::try_cover(*overlap, {between.data(), between.size()},
                               cover_scratch_, fragment_limit_)) {
    case flowspace::CoverResult::kCovered: return false;
    case flowspace::CoverResult::kNotCovered: return true;
    case flowspace::CoverResult::kOverflow: break;
  }
  ++cover_overflows_;
  return true;  // conservative: keep the edge on fragment overflow
}

TableUpdate LeafNode::insert(Rule rule) {
  TableUpdate update;
  const RuleId id = rule.id;
  const TernaryMatch match = rule.match;

  // Overlap candidates *before* insertion: only pairs among these can gain
  // or lose direct-dependency status when `rule` enters the order.
  const std::vector<RuleId> candidates = index_.find_overlapping(match);

  table_.insert(std::move(rule));
  index_.insert(id, match);
  graph_.add_vertex(id);
  update.added.push_back(table_.rule(id));
  update.dag.added_vertices.push_back(id);

  const size_t rpos = table_.position(id);

  // New edges incident to the inserted rule.
  for (RuleId other : candidates) {
    const size_t opos = table_.position(other);
    if (opos < rpos) {
      if (is_direct(opos, rpos)) {
        graph_.add_edge(id, other);
        update.dag.added_edges.emplace_back(id, other);
      }
    } else {
      if (is_direct(rpos, opos)) {
        graph_.add_edge(other, id);
        update.dag.added_edges.emplace_back(other, id);
      }
    }
  }

  // Existing edges that the inserted rule may now cover: pairs (u, s) with
  // s above `rule` above u, both overlapping `rule`.
  for (RuleId u : candidates) {
    const size_t upos = table_.position(u);
    if (upos <= rpos) continue;
    for (RuleId s : graph_.successors(u)) {
      if (s == id) continue;
      const size_t spos = table_.position(s);
      if (spos >= rpos) continue;
      if (!match.overlaps(table_.rule(s).match)) continue;
      if (!is_direct(spos, upos)) {
        update.dag.removed_edges.emplace_back(u, s);
      }
    }
  }
  for (const auto& [u, s] : update.dag.removed_edges) graph_.remove_edge(u, s);

  return update;
}

TableUpdate LeafNode::remove(RuleId id) {
  TableUpdate update;
  if (!table_.contains(id)) return update;

  const size_t rpos = table_.position(id);
  const TernaryMatch match = table_.rule(id).match;

  // Pairs that may become direct once `id` stops covering them: both ends
  // overlap `id` and straddle its position.
  std::vector<RuleId> candidates = index_.find_overlapping(match);
  std::vector<RuleId> above, below;
  for (RuleId c : candidates) {
    if (c == id) continue;
    (table_.position(c) < rpos ? above : below).push_back(c);
  }

  for (RuleId succ : graph_.successors(id)) update.dag.removed_edges.emplace_back(id, succ);
  for (RuleId pred : graph_.predecessors(id)) update.dag.removed_edges.emplace_back(pred, id);
  graph_.remove_vertex(id);
  index_.erase(id);
  table_.erase(id);
  update.removed.push_back(id);
  update.dag.removed_vertices.push_back(id);

  for (RuleId u : below) {
    const size_t upos = table_.position(u);
    for (RuleId s : above) {
      if (graph_.has_edge(u, s)) continue;
      const size_t spos = table_.position(s);
      if (!table_.rule(u).match.overlaps(table_.rule(s).match)) continue;
      if (is_direct(spos, upos)) {
        graph_.add_edge(u, s);
        update.dag.added_edges.emplace_back(u, s);
      }
    }
  }
  return update;
}

}  // namespace ruletris::compiler
