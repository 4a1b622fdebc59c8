#include "netplan/materialize.h"

#include <unordered_set>

#include "compiler/update.h"
#include "dag/builder.h"
#include "switchsim/adapters.h"

namespace ruletris::netplan {

using compiler::TableUpdate;
using dag::DagDelta;
using dag::DependencyGraph;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;

namespace {

/// Minimum-DAG delta between two table states: removed vertices mirror the
/// removed rules, removed edges only name surviving endpoints (removing a
/// vertex drops its incident edges implicitly), added edges cover both new
/// vertices and re-wired survivors.
DagDelta dag_delta(const DependencyGraph& before, const DependencyGraph& after,
                   const std::vector<RuleId>& removed,
                   const std::vector<Rule>& added) {
  DagDelta delta;
  delta.removed_vertices = removed;
  for (const Rule& r : added) delta.added_vertices.push_back(r.id);

  std::unordered_set<RuleId> gone(removed.begin(), removed.end());
  for (const auto& [u, v] : before.edges()) {
    if (gone.count(u) || gone.count(v)) continue;
    if (!after.has_edge(u, v)) delta.removed_edges.emplace_back(u, v);
  }
  for (const auto& [u, v] : after.edges()) {
    if (!before.has_edge(u, v)) delta.added_edges.emplace_back(u, v);
  }
  return delta;
}

}  // namespace

std::vector<SwitchScript> materialize(const Topology& topo,
                                      const UpdatePlan& plan) {
  const size_t n = topo.switch_count();
  std::vector<SwitchScript> scripts(n);

  // Round deltas re-indexed per switch (rounds touch sparse switch sets).
  std::vector<std::vector<const SwitchDelta*>> per_switch(
      n, std::vector<const SwitchDelta*>(plan.rounds.size(), nullptr));
  for (size_t r = 0; r < plan.rounds.size(); ++r) {
    for (const SwitchDelta& delta : plan.rounds[r].deltas) {
      per_switch[delta.sw][r] = &delta;
    }
  }

  for (size_t sw = 0; sw < n; ++sw) {
    SwitchScript& script = scripts[sw];

    std::vector<Rule> rules;
    rules.reserve(plan.initial[sw].size());
    for (const ProjectedRule& pr : plan.initial[sw]) rules.push_back(pr.rule);
    FlowTable table(std::move(rules));
    DependencyGraph graph = dag::build_min_dag(table);

    // Epoch 1: full install.
    TableUpdate install;
    install.added = table.rules();
    for (const Rule& r : install.added) install.dag.added_vertices.push_back(r.id);
    install.dag.added_edges = graph.edges();
    script.epochs.push_back(switchsim::to_messages(install));

    // Epoch 1 + r: round r's delta (possibly a barrier-only no-op).
    for (size_t r = 0; r < plan.rounds.size(); ++r) {
      const SwitchDelta* delta = per_switch[sw][r];
      TableUpdate update;
      if (delta) {
        update.removed = delta->removes;
        for (const ProjectedRule& pr : delta->adds) update.added.push_back(pr.rule);
        FlowTable next = table;
        for (RuleId id : delta->removes) next.erase(id);
        for (const Rule& r2 : update.added) next.insert(r2);
        DependencyGraph next_graph = dag::build_min_dag(next);
        update.dag = dag_delta(graph, next_graph, update.removed, update.added);
        table = std::move(next);
        graph = std::move(next_graph);
      }
      script.epochs.push_back(switchsim::to_messages(update));
    }

    script.expected = table.rules();
  }
  return scripts;
}

std::vector<runtime::SwitchWorkload> to_workloads(
    const std::vector<SwitchScript>& scripts) {
  std::vector<runtime::SwitchWorkload> fleet;
  fleet.reserve(scripts.size());
  for (const SwitchScript& script : scripts) {
    fleet.push_back({runtime::encode_log(script.epochs), script.expected});
  }
  return fleet;
}

}  // namespace ruletris::netplan
