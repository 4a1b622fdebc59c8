#include "dag/dependency_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <stdexcept>

#include "util/strfmt.h"

namespace ruletris::dag {

namespace {
const IdSet kEmptySet;
}

bool DependencyGraph::has_edge(RuleId u, RuleId v) const {
  auto it = nodes_.find(u);
  return it != nodes_.end() && it->second.out.count(v) != 0;
}

bool DependencyGraph::add_vertex(RuleId v) {
  return nodes_.try_emplace(v).second;
}

void DependencyGraph::bulk_load_indexed(
    const std::vector<RuleId>& vertices,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  if (!nodes_.empty()) {
    throw std::invalid_argument("DependencyGraph: bulk_load needs an empty graph");
  }
  const size_t n = vertices.size();
  nodes_.reserve(n);
  std::vector<Node*> at(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, fresh] = nodes_.try_emplace(vertices[i]);
    if (!fresh) throw std::invalid_argument("DependencyGraph: duplicate vertex");
    at[i] = &it->second;
  }
  std::vector<uint32_t> out_deg(n, 0);
  std::vector<uint32_t> in_deg(n, 0);
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n) {
      throw std::invalid_argument("DependencyGraph: edge index out of range");
    }
    if (u == v) throw std::invalid_argument("DependencyGraph: self edge");
    ++out_deg[u];
    ++in_deg[v];
  }
  for (size_t i = 0; i < n; ++i) {
    if (out_deg[i] != 0) at[i]->out.reserve(out_deg[i]);
    if (in_deg[i] != 0) at[i]->in.reserve(in_deg[i]);
  }
  for (const auto& [u, v] : edges) {
    if (at[u]->out.insert(vertices[v])) {
      at[v]->in.insert(vertices[u]);
      ++edge_count_;
    }
  }
}

void DependencyGraph::remove_vertex(RuleId v) {
  auto it = nodes_.find(v);
  if (it == nodes_.end()) return;
  for (RuleId succ : it->second.out) {
    nodes_[succ].in.erase(v);
    --edge_count_;
  }
  for (RuleId pred : it->second.in) {
    nodes_[pred].out.erase(v);
    --edge_count_;
  }
  nodes_.erase(it);
}

DependencyGraph::EdgeAdd DependencyGraph::add_edge(RuleId u, RuleId v) {
  if (u == v) throw std::invalid_argument("DependencyGraph: self edge");
  EdgeAdd result;
  result.created_u = nodes_.try_emplace(u).second;
  result.created_v = nodes_.try_emplace(v).second;
  if (nodes_[u].out.insert(v)) {
    nodes_[v].in.insert(u);
    ++edge_count_;
    result.added = true;
  }
  return result;
}

bool DependencyGraph::remove_edge(RuleId u, RuleId v) {
  auto it = nodes_.find(u);
  if (it == nodes_.end()) return false;
  if (it->second.out.erase(v)) {
    nodes_[v].in.erase(u);
    --edge_count_;
    return true;
  }
  return false;
}

const DependencyGraph::Node& DependencyGraph::node(RuleId v) const {
  auto it = nodes_.find(v);
  if (it == nodes_.end()) throw std::out_of_range("DependencyGraph: unknown vertex");
  return it->second;
}

const IdSet& DependencyGraph::successors(RuleId u) const {
  auto it = nodes_.find(u);
  return it == nodes_.end() ? kEmptySet : it->second.out;
}

const IdSet& DependencyGraph::predecessors(RuleId u) const {
  auto it = nodes_.find(u);
  return it == nodes_.end() ? kEmptySet : it->second.in;
}

std::vector<RuleId> DependencyGraph::vertices() const {
  std::vector<RuleId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) {
    (void)n;
    out.push_back(id);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::sources() const {
  std::vector<RuleId> out;
  for (const auto& [id, n] : nodes_) {
    if (n.out.empty()) out.push_back(id);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::sinks() const {
  std::vector<RuleId> out;
  for (const auto& [id, n] : nodes_) {
    if (n.in.empty()) out.push_back(id);
  }
  return out;
}

std::vector<RuleId> DependencyGraph::topo_order_high_to_low() const {
  // Kahn's algorithm peeling vertices with no unprocessed *successors*:
  // a vertex may be emitted once everything it must sit below is emitted.
  std::unordered_map<RuleId, size_t> remaining_out;
  std::deque<RuleId> ready;
  for (const auto& [id, n] : nodes_) {
    remaining_out[id] = n.out.size();
    if (n.out.empty()) ready.push_back(id);
  }
  std::vector<RuleId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const RuleId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (RuleId pred : node(v).in) {
      if (--remaining_out[pred] == 0) ready.push_back(pred);
    }
  }
  if (order.size() != nodes_.size()) {
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
    for (RuleId next : node(cur).out) {
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
  for (const auto& [id, n] : nodes_) {
    for (RuleId succ : n.out) out.emplace_back(id, succ);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DependencyGraph::operator==(const DependencyGraph& other) const {
  if (nodes_.size() != other.nodes_.size() || edge_count_ != other.edge_count_) {
    return false;
  }
  for (const auto& [id, n] : nodes_) {
    auto it = other.nodes_.find(id);
    if (it == other.nodes_.end() || it->second.out != n.out) return false;
  }
  return true;
}

std::string DependencyGraph::to_string() const {
  std::string out = util::strfmt("DAG(%zu vertices, %zu edges)\n", nodes_.size(), edge_count_);
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
