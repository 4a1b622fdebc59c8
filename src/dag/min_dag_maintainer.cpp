#include "dag/min_dag_maintainer.h"

#include <algorithm>
#include <stdexcept>

#include "dag/builder.h"

namespace ruletris::dag {

MinDagMaintainer::MinDagMaintainer(BeforeFn before) : before_(std::move(before)) {}

bool MinDagMaintainer::is_direct(RuleId hi, RuleId lo) const {
  auto overlap = matches_.at(hi).intersect(matches_.at(lo));
  if (!overlap) return false;
  const uint64_t hi_rank = rank(hi);
  const uint64_t lo_rank = rank(lo);
  // Only rules overlapping the overlap region can cover any of it.
  auto& between = between_scratch_;
  between.clear();
  index_.for_each_overlapping(
      *overlap, [&](RuleId c, const TernaryMatch& m) {
        if (c == hi || c == lo) return;
        const uint64_t r = rank(c);
        if (r > hi_rank && r < lo_rank) between.push_back(m);
      });
  // Most-general covers first: they erase whole fragment families at once,
  // which keeps the subtraction from fragmenting on wide tables.
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
  // Fragment blow-up: treat the pair as direct. A spurious edge is a
  // harmless (consistent) extra constraint; a missing edge would not be.
  ++cover_overflows_;
  return true;
}

void MinDagMaintainer::renumber() {
  for (size_t i = 0; i < order_.size(); ++i) {
    ranks_[order_[i]] = (static_cast<uint64_t>(i) + 1) * kRankGap;
  }
}

DagDelta MinDagMaintainer::insert(RuleId id, TernaryMatch match) {
  if (contains(id)) throw std::invalid_argument("MinDagMaintainer: duplicate id");
  DagDelta delta;

  // Position: after every existing rule the comparator places before `id`.
  const auto it = std::partition_point(
      order_.begin(), order_.end(),
      [this, id](RuleId existing) { return before_(existing, id); });
  const size_t idx = static_cast<size_t>(it - order_.begin());

  // Sparse rank between the neighbours; renumber when the gap is exhausted.
  const uint64_t lo_rank = idx > 0 ? rank(order_[idx - 1]) : 0;
  uint64_t new_rank;
  if (idx == order_.size()) {
    new_rank = lo_rank + kRankGap;
  } else {
    const uint64_t hi_rank = rank(order_[idx]);
    new_rank = lo_rank + (hi_rank - lo_rank) / 2;
    if (new_rank == lo_rank) {
      order_.insert(order_.begin() + static_cast<ptrdiff_t>(idx), id);
      ranks_[id] = 0;
      renumber();
      new_rank = rank(id);
    }
  }
  if (!contains(id)) {
    order_.insert(order_.begin() + static_cast<ptrdiff_t>(idx), id);
    ranks_[id] = new_rank;
  }
  matches_.emplace(id, match);
  index_.insert(id, match);
  graph_.add_vertex(id);
  delta.added_vertices.push_back(id);

  const uint64_t my_rank = rank(id);
  const std::vector<RuleId> candidates = index_.find_overlapping(match);

  // New direct dependencies incident to `id`.
  for (RuleId c : candidates) {
    if (c == id) continue;
    if (rank(c) < my_rank) {
      if (is_direct(c, id)) {
        graph_.add_edge(id, c);
        delta.added_edges.emplace_back(id, c);
      }
    } else {
      if (is_direct(id, c)) {
        graph_.add_edge(c, id);
        delta.added_edges.emplace_back(c, id);
      }
    }
  }

  // Existing edges that `id` now covers: pairs straddling it that both
  // overlap it.
  for (RuleId u : candidates) {
    if (u == id || rank(u) < my_rank) continue;
    std::vector<RuleId> succs(graph_.successors(u).begin(), graph_.successors(u).end());
    for (RuleId s : succs) {
      if (s == id || rank(s) > my_rank) continue;
      if (!match.overlaps(matches_.at(s))) continue;
      if (!is_direct(s, u)) {
        graph_.remove_edge(u, s);
        delta.removed_edges.emplace_back(u, s);
      }
    }
  }
  return delta;
}

DagDelta MinDagMaintainer::remove(RuleId id) {
  DagDelta delta;
  auto mit = matches_.find(id);
  if (mit == matches_.end()) return delta;
  const TernaryMatch match = mit->second;

  std::vector<RuleId> above, below;
  for (RuleId c : index_.find_overlapping(match)) {
    if (c == id) continue;
    (rank(c) < rank(id) ? above : below).push_back(c);
  }

  for (RuleId s : graph_.successors(id)) delta.removed_edges.emplace_back(id, s);
  for (RuleId p : graph_.predecessors(id)) delta.removed_edges.emplace_back(p, id);
  graph_.remove_vertex(id);
  delta.removed_vertices.push_back(id);

  order_.erase(std::find(order_.begin(), order_.end(), id));
  ranks_.erase(id);
  matches_.erase(mit);
  index_.erase(id);

  // Pairs the removed rule used to cover may become direct.
  for (RuleId u : below) {
    for (RuleId s : above) {
      if (graph_.has_edge(u, s)) continue;
      if (!matches_.at(u).overlaps(matches_.at(s))) continue;
      if (is_direct(s, u)) {
        graph_.add_edge(u, s);
        delta.added_edges.emplace_back(u, s);
      }
    }
  }
  return delta;
}

void MinDagMaintainer::bulk_load(
    const std::vector<std::pair<RuleId, TernaryMatch>>& rules) {
  order_.clear();
  ranks_.clear();
  matches_.clear();
  index_.clear();
  graph_ = DependencyGraph();

  order_.reserve(rules.size());
  for (const auto& [id, match] : rules) {
    order_.push_back(id);
    matches_.emplace(id, match);
    index_.insert(id, match);
    graph_.add_vertex(id);
  }
  renumber();

  // Per-row residue walk through the shared builder kernel: one subtraction
  // chain per rule (index-pruned candidates) instead of one cover test per
  // overlapping pair.
  std::unordered_map<RuleId, size_t> pos;
  pos.reserve(order_.size());
  std::vector<const TernaryMatch*> ordered_matches;
  ordered_matches.reserve(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    pos[order_[i]] = i;
    ordered_matches.push_back(&matches_.at(order_[i]));
  }
  const MinDagBuildOptions opts;
  MinDagRowScratch scratch;
  std::vector<size_t> cand_pos;
  std::vector<const TernaryMatch*> cands;
  std::vector<size_t> edges;
  for (size_t i = 1; i < order_.size(); ++i) {
    cand_pos.clear();
    index_.for_each_overlapping(*ordered_matches[i],
                                [&](RuleId id, const TernaryMatch&) {
                                  const size_t p = pos.at(id);
                                  if (p < i) cand_pos.push_back(p);
                                });
    std::sort(cand_pos.begin(), cand_pos.end());
    cands.clear();
    for (size_t p : cand_pos) cands.push_back(ordered_matches[p]);
    row_direct_dependencies(*ordered_matches[i], cands, opts, scratch, edges);
    for (size_t e : edges) graph_.add_edge(order_[i], order_[cand_pos[e]]);
  }
  cover_overflows_ += scratch.cover_overflows();
}

}  // namespace ruletris::dag
