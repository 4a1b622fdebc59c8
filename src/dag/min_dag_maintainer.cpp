#include "dag/min_dag_maintainer.h"

#include <stdexcept>

namespace ruletris::dag {

bool MinDagMaintainer::is_direct(RuleId hi, RuleId lo) const {
  auto overlap = match(hi).intersect(match(lo));
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
    slots_.at(order_[i]).rank = (static_cast<uint64_t>(i) + 1) * kRankGap;
  }
}

const DagDelta& MinDagMaintainer::insert_at(size_t idx, RuleId id, TernaryMatch match) {
  if (id == flowspace::kInvalidRuleId) {
    throw std::invalid_argument("MinDagMaintainer: invalid id");
  }
  if (contains(id)) throw std::invalid_argument("MinDagMaintainer: duplicate id");
  DagDelta& delta = delta_;
  delta.clear();

  // Sparse rank between the neighbours (one gap past the last rule);
  // renumber when the gap is exhausted.
  const uint64_t lo_rank = idx > 0 ? rank(order_[idx - 1]) : 0;
  const uint64_t hi_rank =
      idx < order_.size() ? rank(order_[idx]) : lo_rank + 2 * kRankGap;
  const uint64_t new_rank = lo_rank + (hi_rank - lo_rank) / 2;
  order_.insert(order_.begin() + static_cast<ptrdiff_t>(idx), id);
  slots_.insert(id, Slot{match, new_rank});
  if (new_rank == lo_rank) renumber();
  index_.insert(id, match);
  delta.added_vertices.push_back(id);
  if (!keep_edges_) return delta;
  graph_.add_vertex(id);

  const uint64_t my_rank = rank(id);
  std::vector<RuleId>& candidates = candidates_scratch_;
  overlapping(match, candidates);

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
    std::vector<RuleId>& succs = succ_scratch_;  // remove_edge edits the list
    const auto current = graph_.successors(u);
    succs.assign(current.begin(), current.end());
    for (RuleId s : succs) {
      if (s == id || rank(s) > my_rank) continue;
      if (!match.overlaps(slots_.at(s).match)) continue;
      if (!is_direct(s, u)) {
        graph_.remove_edge(u, s);
        delta.removed_edges.emplace_back(u, s);
      }
    }
  }
  return delta;
}

const DagDelta& MinDagMaintainer::remove(RuleId id) {
  DagDelta& delta = delta_;
  delta.clear();
  const Slot* slot = slots_.find(id);
  if (slot == nullptr) return delta;
  delta.removed_vertices.push_back(id);

  // Overlapping rules matched before (above) and after (below) the removed
  // one, each in index visit order.
  std::vector<RuleId>& above = candidates_scratch_;
  std::vector<RuleId>& below = below_scratch_;
  above.clear();
  below.clear();
  if (keep_edges_) {
    const uint64_t my_rank = slot->rank;
    index_.for_each_overlapping(slot->match, [&](RuleId c, const TernaryMatch&) {
      if (c == id) return;
      (rank(c) < my_rank ? above : below).push_back(c);
    });
    for (RuleId s : graph_.successors(id)) delta.removed_edges.emplace_back(id, s);
    for (RuleId p : graph_.predecessors(id)) delta.removed_edges.emplace_back(p, id);
    graph_.remove_vertex(id);
  }

  order_.erase(std::find(order_.begin(), order_.end(), id));
  slots_.erase(id);
  index_.erase(id);

  // Pairs the removed rule used to cover may become direct.
  for (RuleId u : below) {
    for (RuleId s : above) {
      if (graph_.has_edge(u, s)) continue;
      if (!match(u).overlaps(match(s))) continue;
      if (is_direct(s, u)) {
        graph_.add_edge(u, s);
        delta.added_edges.emplace_back(u, s);
      }
    }
  }
  return delta;
}

void MinDagMaintainer::bulk_load(const OrderedRules& rules, size_t n_threads) {
  order_.clear();
  slots_.clear();
  index_.clear();

  order_.reserve(rules.size());
  slots_.reserve(rules.size());
  for (const auto& [id, match] : rules) {
    order_.push_back(id);
    slots_.insert(id, Slot{match, 0});
    index_.insert(id, match);
  }
  renumber();
  if (!keep_edges_) return;

  MinDagBuildOptions opts;
  opts.n_threads = n_threads;
  MinDagBuildStats stats;
  graph_ = build_min_dag_ordered(rules, opts, &stats);
  cover_overflows_ += stats.cover_overflows;
}

}  // namespace ruletris::dag
