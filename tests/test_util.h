// Shared helpers for the test suites: random flow-space objects, semantic
// equivalence checks between rule lists, DAG-respecting linearizations, and
// the runtime report-equality check.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "dag/dependency_graph.h"
#include "flowspace/action.h"
#include "flowspace/rule.h"
#include "runtime/controller.h"
#include "util/rng.h"

namespace ruletris::testutil {

using dag::DependencyGraph;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using util::Rng;

/// Random ternary match over a small universe (so overlaps are frequent):
/// constrains a random subset of fields with short prefixes / tiny exact
/// domains.
inline TernaryMatch random_match(Rng& rng) {
  TernaryMatch m;
  if (rng.next_bool(0.5)) {
    m.set_prefix(FieldId::kDstIp, static_cast<uint32_t>(rng.next_below(4)) << 30,
                 static_cast<uint32_t>(rng.next_below(4)));
  }
  if (rng.next_bool(0.4)) {
    m.set_prefix(FieldId::kSrcIp, static_cast<uint32_t>(rng.next_below(4)) << 30,
                 static_cast<uint32_t>(rng.next_below(3)));
  }
  if (rng.next_bool(0.4)) {
    m.set_exact(FieldId::kIpProto, 6 + static_cast<uint32_t>(rng.next_below(2)));
  }
  if (rng.next_bool(0.3)) {
    m.set_exact(FieldId::kDstPort, 80 + static_cast<uint32_t>(rng.next_below(3)));
  }
  return m;
}

inline ActionList random_actions(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return ActionList{Action::drop()};
    case 1: return ActionList{Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
    case 2: return ActionList{Action::count(static_cast<uint32_t>(rng.next_below(4)))};
    default: return ActionList{Action::to_controller()};
  }
}

inline Rule random_rule(Rng& rng, int32_t priority) {
  return Rule::make(random_match(rng), random_actions(rng), priority);
}

/// Random packet drawn from the same small universe as random_match.
inline Packet random_packet(Rng& rng) {
  Packet p;
  p.set(FieldId::kDstIp, static_cast<uint32_t>(rng.next_below(4)) << 30 |
                             static_cast<uint32_t>(rng.next_u32() & 0x3fffffff));
  p.set(FieldId::kSrcIp, static_cast<uint32_t>(rng.next_below(4)) << 30 |
                             static_cast<uint32_t>(rng.next_u32() & 0x3fffffff));
  p.set(FieldId::kIpProto, 6 + static_cast<uint32_t>(rng.next_below(2)));
  p.set(FieldId::kDstPort, 80 + static_cast<uint32_t>(rng.next_below(3)));
  p.set(FieldId::kSrcPort, static_cast<uint32_t>(rng.next_below(1024)));
  p.set(FieldId::kEthType, 0x0800);
  p.set(FieldId::kInPort, static_cast<uint32_t>(rng.next_below(8)));
  return p;
}

/// First-match lookup over an ordered rule list (index 0 matched first).
inline const Rule* lookup_ordered(const std::vector<Rule>& rules, const Packet& p) {
  for (const Rule& r : rules) {
    if (r.match.matches(p)) return &r;
  }
  return nullptr;
}

/// True iff the two ordered rule lists classify `n` random packets (plus
/// every rule-corner sample packet from both lists) identically, comparing
/// the winning rule's ACTIONS (ids may differ across compilers).
inline bool semantically_equal(const std::vector<Rule>& a, const std::vector<Rule>& b,
                               Rng& rng, size_t n = 500) {
  auto check = [&](const Packet& p) {
    const Rule* ra = lookup_ordered(a, p);
    const Rule* rb = lookup_ordered(b, p);
    if ((ra == nullptr) != (rb == nullptr)) return false;
    if (ra != nullptr && !(ra->actions == rb->actions)) return false;
    return true;
  };
  for (size_t i = 0; i < n; ++i) {
    if (!check(random_packet(rng))) return false;
  }
  for (const auto* list : {&a, &b}) {
    for (const Rule& r : *list) {
      if (!check(r.match.sample_packet())) return false;
    }
  }
  return true;
}

/// A random linearization of `rules` that respects every DAG edge
/// (dependencies placed earlier). Used to check that the DAG's constraint
/// set is sufficient: ANY consistent layout must classify like the
/// canonical one.
inline std::vector<Rule> random_dag_linearization(const std::vector<Rule>& rules,
                                                  const DependencyGraph& graph,
                                                  Rng& rng) {
  std::unordered_map<RuleId, const Rule*> by_id;
  for (const Rule& r : rules) by_id[r.id] = &r;

  std::unordered_map<RuleId, size_t> remaining;  // unplaced successors
  std::vector<RuleId> ready;
  for (const Rule& r : rules) {
    size_t n = 0;
    for (RuleId succ : graph.successors(r.id)) {
      if (by_id.count(succ)) ++n;
    }
    remaining[r.id] = n;
    if (n == 0) ready.push_back(r.id);
  }
  std::vector<Rule> out;
  out.reserve(rules.size());
  while (!ready.empty()) {
    const size_t pick = rng.next_below(ready.size());
    const RuleId id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    out.push_back(*by_id.at(id));
    for (RuleId pred : graph.predecessors(id)) {
      auto it = remaining.find(pred);
      if (it != remaining.end() && --it->second == 0) ready.push_back(pred);
    }
  }
  return out;  // size < rules.size() would indicate a cycle; callers assert
}

/// Everything in a runtime report that must be bit-identical across thread
/// counts, fresh runs and equivalent drivers: every counter and virtual-time
/// histogram, merged and per session (SessionTotals::same_virtual; the
/// wall-clock firmware_ms is excluded), plus each session's wire counters,
/// makespan and outcome.
inline void expect_reports_identical(const runtime::RuntimeReport& a,
                                     const runtime::RuntimeReport& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  EXPECT_TRUE(a.same_virtual(b));
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);  // exact: virtual time
  EXPECT_EQ(a.all_converged, b.all_converged);
  EXPECT_EQ(a.all_completed, b.all_completed);
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    const runtime::SessionStats& x = a.sessions[i];
    const runtime::SessionStats& y = b.sessions[i];
    EXPECT_TRUE(x.same_virtual(y)) << "session " << i;
    EXPECT_EQ(x.epochs, y.epochs) << "session " << i;
    EXPECT_TRUE(x.wire == y.wire) << "session " << i;
    EXPECT_EQ(x.makespan_ms, y.makespan_ms) << "session " << i;
    EXPECT_EQ(x.completed, y.completed) << "session " << i;
    EXPECT_EQ(x.converged, y.converged) << "session " << i;
    EXPECT_EQ(x.tcam_layout, y.tcam_layout) << "session " << i;
  }
}

}  // namespace ruletris::testutil
