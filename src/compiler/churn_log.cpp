#include "compiler/churn_log.h"

#include <algorithm>
#include <stdexcept>

namespace ruletris::compiler {

namespace {

/// The netting routine: sorts `events[from, end)` by (key, log position)
/// and calls `fn(key, before, now, last)` once per key in ascending key
/// order, where `before` says the key's first event removes it, `now` that
/// its last event adds it, and `last` is that last event. With `strict`,
/// throws std::logic_error unless the key's events alternate.
template <typename Event, typename Fn>
void net_events(std::vector<Event>& events, size_t from, bool strict, Fn&& fn) {
  std::sort(events.begin() + static_cast<std::ptrdiff_t>(from), events.end(),
            [](const Event& a, const Event& b) {
              return a.key != b.key ? a.key < b.key : a.seq < b.seq;
            });
  for (size_t i = from; i < events.size();) {
    int sum = 0;
    size_t j = i;
    for (; j < events.size() && events[j].key == events[i].key; ++j) sum += events[j].sign;
    const bool before = events[i].sign < 0;
    const bool now = events[j - 1].sign > 0;
    if (strict && sum != int{now} - int{before}) {
      throw std::logic_error("ChurnLog: events do not net to a set change");
    }
    fn(events[i].key, before, now, events[j - 1]);
    i = j;
  }
}

}  // namespace

void ChurnLog::append(const TableUpdate& update) {
  for (const auto& [u, v] : update.dag.removed_edges) remove_edge(u, v);
  for (RuleId id : update.removed) remove_rule(id);
  for (const Rule& r : update.added) add_rule(r);
  for (const auto& [u, v] : update.dag.added_edges) add_edge(u, v);
}

TableUpdate ChurnLog::build(const Mark& from) {
  touched_.clear();
  size_t n_removed = 0, n_added = 0;
  net_events(visible_, from.visible, false,
             [&](RuleId id, bool before, bool now, const Event<RuleId>& last) {
               touched_.push_back({id, before, now, last.rule});
               n_removed += before;
               n_added += now;
             });
  TableUpdate out;  // each list sized once
  out.removed.reserve(n_removed);
  out.added.reserve(n_added);
  out.dag.added_vertices.reserve(n_added);
  for (const Touched& t : touched_) {
    if (t.before) out.removed.push_back(t.id);
    if (!t.now) continue;
    out.added.push_back(rules_[t.rule]);
    out.dag.added_vertices.push_back(t.id);
  }
  out.dag.removed_vertices = out.removed;
  // touched_ is ascending: look an endpoint up by binary search.
  const auto find = [this](RuleId id) -> const Touched* {
    auto it = std::lower_bound(touched_.begin(), touched_.end(), id,
                               [](const Touched& t, RuleId x) { return t.id < x; });
    return it != touched_.end() && it->id == id ? &*it : nullptr;
  };
  netted_edges_.clear();  // (edge, added), to size the two lists once
  size_t n_edges_added = 0;
  net_events(edges_, from.edges, false,
             [&](const Edge& e, bool before, bool now, const Event<Edge>&) {
               const Touched* u = find(e.first);
               const Touched* v = find(e.second);
               if ((u && !u->now) || (v && !v->now)) return;  // endpoint gone
               // A refreshed endpoint (removed, then visible again) lost its
               // edges at the consumer, so the edge counts as absent before.
               const bool was = before && !(u && u->before) && !(v && v->before);
               if (was == now) return;
               netted_edges_.emplace_back(e, now);
               n_edges_added += now;
             });
  out.dag.added_edges.reserve(n_edges_added);
  out.dag.removed_edges.reserve(netted_edges_.size() - n_edges_added);
  for (const auto& [e, added] : netted_edges_) {
    (added ? out.dag.added_edges : out.dag.removed_edges).push_back(e);
  }
  return out;
}

ChurnLog::Net ChurnLog::take() {
  Net net;
  const auto split = [](auto& removed, auto& added) {
    return [&removed, &added](const auto& key, bool before, bool now, const auto&) {
      if (before && !now) removed.push_back(key);
      if (!before && now) added.push_back(key);
    };
  };
  net_events(entries_, 0, true, split(net.entries_removed, net.entries_added));
  net_events(visible_, 0, true, split(net.visible_removed, net.visible_added));
  net_events(edges_, 0, true, split(net.edges_removed, net.edges_added));
  clear();
  return net;
}

void ChurnLog::clear() {
  visible_.clear();
  edges_.clear();
  entries_.clear();
  rules_.clear();
}

}  // namespace ruletris::compiler
