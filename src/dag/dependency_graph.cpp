#include "dag/dependency_graph.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "util/strfmt.h"

namespace ruletris::dag {

std::pair<uint32_t, bool> DependencyGraph::claim(RuleId v) {
  if (const uint32_t* h = handles_.find(v)) return {*h, false};
  if (AdjacencyList::reserved(v)) throw std::invalid_argument("DependencyGraph: reserved id");
  uint32_t h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
    ids_[h] = v;
  } else {
    if (ids_.size() >= UINT32_MAX) throw std::length_error("DependencyGraph: too many vertices");
    h = static_cast<uint32_t>(ids_.size());
    ids_.push_back(v);
    out_.emplace_back();
    in_.emplace_back();
  }
  handles_.insert(v, h);
  return {h, true};
}

bool DependencyGraph::has_edge(RuleId u, RuleId v) const {
  const uint32_t* h = handles_.find(u);
  return h != nullptr && out_[*h].contains(v);
}

bool DependencyGraph::add_vertex(RuleId v) { return claim(v).second; }

void DependencyGraph::bulk_load_indexed(
    const std::vector<RuleId>& vertices,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  if (vertex_count() != 0) {
    throw std::invalid_argument("DependencyGraph: bulk_load needs an empty graph");
  }
  *this = DependencyGraph();  // drops free handles: vertex i gets handle i
  if (vertices.size() >= UINT32_MAX || edges.size() >= UINT32_MAX) {
    throw std::length_error("DependencyGraph: bulk load too large");
  }
  const uint32_t n = static_cast<uint32_t>(vertices.size());
  try {
    handles_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (AdjacencyList::reserved(vertices[i])) {
        throw std::invalid_argument("DependencyGraph: reserved id");
      }
      if (!handles_.insert(vertices[i], i)) {
        throw std::invalid_argument("DependencyGraph: duplicate vertex");
      }
    }
    ids_ = vertices;
    out_.resize(n);
    in_.resize(n);
    // Group the heads by tail (a counting sort that keeps edge order), so
    // one pass of per-head stamps finds a duplicate edge and no list is
    // probed while it fills.
    // Tail u's heads are heads[start[u], start[u + 1]).
    std::vector<uint32_t> start(size_t{n} + 1, 0);
    std::vector<uint32_t> in_deg(n, 0);
    for (const auto& [u, v] : edges) {
      if (u >= n || v >= n) {
        throw std::invalid_argument("DependencyGraph: edge index out of range");
      }
      if (u == v) throw std::invalid_argument("DependencyGraph: self edge");
      ++start[u + 1];
      ++in_deg[v];
    }
    for (uint32_t i = 0; i < n; ++i) start[i + 1] += start[i];
    std::vector<uint32_t> heads(edges.size());
    {
      std::vector<uint32_t> next(start.begin(), start.end() - 1);
      for (const auto& [u, v] : edges) heads[next[u]++] = v;
    }
    std::vector<uint32_t> seen(n, UINT32_MAX);  // the last tail that reached each head
    for (uint32_t u = 0; u < n; ++u) {
      out_[u].reserve(start[u + 1] - start[u]);
      in_[u].reserve(in_deg[u]);
      for (uint32_t k = start[u]; k < start[u + 1]; ++k) {
        if (seen[heads[k]] == u) throw std::invalid_argument("DependencyGraph: duplicate edge");
        seen[heads[k]] = u;
        out_[u].append(vertices[heads[k]]);
      }
    }
    for (const auto& [u, v] : edges) in_[v].append(vertices[u]);
  } catch (...) {
    *this = DependencyGraph();
    throw;
  }
  edge_count_ = edges.size();
}

void DependencyGraph::remove_vertex(RuleId v) {
  const uint32_t* found = handles_.find(v);
  if (found == nullptr) return;
  const uint32_t h = *found;
  for (RuleId succ : out_[h]) in_[handle(succ)].erase(v);
  for (RuleId pred : in_[h]) out_[handle(pred)].erase(v);
  edge_count_ -= out_[h].size() + in_[h].size();
  out_[h].clear();
  in_[h].clear();
  ids_[h] = kFree;
  free_.push_back(h);
  handles_.erase(v);
}

DependencyGraph::EdgeAdd DependencyGraph::add_edge(RuleId u, RuleId v) {
  if (u == v) throw std::invalid_argument("DependencyGraph: self edge");
  EdgeAdd result;
  const auto [hu, created_u] = claim(u);
  const auto [hv, created_v] = claim(v);
  result.created_u = created_u;
  result.created_v = created_v;
  if (out_[hu].insert(v)) {
    in_[hv].insert(u);
    ++edge_count_;
    result.added = true;
  }
  return result;
}

bool DependencyGraph::remove_edge(RuleId u, RuleId v) {
  const uint32_t* hu = handles_.find(u);
  if (hu == nullptr || !out_[*hu].erase(v)) return false;
  in_[handle(v)].erase(u);
  --edge_count_;
  return true;
}

std::span<const RuleId> DependencyGraph::successors(RuleId u) const {
  const uint32_t* h = handles_.find(u);
  return h == nullptr ? std::span<const RuleId>{} : out_[*h].ids();
}

std::span<const RuleId> DependencyGraph::predecessors(RuleId u) const {
  const uint32_t* h = handles_.find(u);
  return h == nullptr ? std::span<const RuleId>{} : in_[*h].ids();
}

std::vector<RuleId> DependencyGraph::vertices() const {
  std::vector<RuleId> out;
  out.reserve(handles_.size());
  for (RuleId id : ids_) {
    if (id != kFree) out.push_back(id);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::sources() const {
  std::vector<RuleId> out;
  for (size_t h = 0; h < ids_.size(); ++h) {
    if (ids_[h] != kFree && out_[h].empty()) out.push_back(ids_[h]);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::sinks() const {
  std::vector<RuleId> out;
  for (size_t h = 0; h < ids_.size(); ++h) {
    if (ids_[h] != kFree && in_[h].empty()) out.push_back(ids_[h]);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::topo_order_high_to_low() const {
  // Kahn's algorithm peeling vertices with no unprocessed *successors*:
  // a vertex may be emitted once everything it must sit below is emitted.
  // `order` doubles as the FIFO of ready vertices.
  std::vector<size_t> remaining_out(ids_.size());
  std::vector<RuleId> order;
  order.reserve(handles_.size());
  for (size_t h = 0; h < ids_.size(); ++h) {
    if (ids_[h] == kFree) continue;
    remaining_out[h] = out_[h].size();
    if (out_[h].empty()) order.push_back(ids_[h]);
  }
  for (size_t next = 0; next < order.size(); ++next) {
    for (RuleId pred : in_[handle(order[next])]) {
      if (--remaining_out[handle(pred)] == 0) order.push_back(pred);
    }
  }
  if (order.size() != handles_.size()) {
    throw std::runtime_error("DependencyGraph: cycle detected");
  }
  // A vertex with no (unprocessed) successors depends on nothing left, so it
  // may be matched first: the peel order is already matched-first.
  return order;
}

bool DependencyGraph::reaches(RuleId u, RuleId v) const {
  if (!has_vertex(u) || !has_vertex(v)) return false;
  std::unordered_set<RuleId> seen{u};
  std::deque<RuleId> queue{u};
  while (!queue.empty()) {
    const RuleId cur = queue.front();
    queue.pop_front();
    if (cur == v) return true;
    for (RuleId next : out_[handle(cur)]) {
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

bool DependencyGraph::would_create_cycle(RuleId u, RuleId v) const {
  // Adding u -> v creates a cycle iff u is already reachable from v.
  return reaches(v, u);
}

void DependencyGraph::apply(const DagDelta& delta) {
  for (const auto& [u, v] : delta.removed_edges) remove_edge(u, v);
  for (RuleId v : delta.removed_vertices) remove_vertex(v);
  for (RuleId v : delta.added_vertices) add_vertex(v);
  for (const auto& [u, v] : delta.added_edges) add_edge(u, v);
}

std::vector<std::pair<RuleId, RuleId>> DependencyGraph::edges() const {
  std::vector<std::pair<RuleId, RuleId>> out;
  out.reserve(edge_count_);
  for (size_t h = 0; h < ids_.size(); ++h) {
    for (RuleId succ : out_[h]) out.emplace_back(ids_[h], succ);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DependencyGraph::operator==(const DependencyGraph& other) const {
  if (handles_.size() != other.handles_.size() || edge_count_ != other.edge_count_) {
    return false;
  }
  for (size_t h = 0; h < ids_.size(); ++h) {
    if (ids_[h] == kFree) continue;
    const uint32_t* oh = other.handles_.find(ids_[h]);
    if (oh == nullptr || out_[h] != other.out_[*oh]) return false;
  }
  return true;
}

std::string DependencyGraph::to_string() const {
  std::string out = util::strfmt("DAG(%zu vertices, %zu edges)\n", handles_.size(), edge_count_);
  auto ids = vertices();
  std::sort(ids.begin(), ids.end());
  const auto edge_list = edges();  // ascending, so grouped by tail
  auto e = edge_list.begin();
  for (RuleId id : ids) {
    out += util::strfmt("  %llu ->", static_cast<unsigned long long>(id));
    for (; e != edge_list.end() && e->first == id; ++e) {
      out += util::strfmt(" %llu", static_cast<unsigned long long>(e->second));
    }
    out += "\n";
  }
  return out;
}

}  // namespace ruletris::dag
