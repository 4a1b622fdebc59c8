// ChurnLog: net-effect normalization of chronological visible-state
// mutations (the contract parents and the back-end rely on), its one
// emitted order, and the agreement of its two views and of chain_updates.
// The suite keeps the name of the per-update builder the log replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/churn_log.h"
#include "compiler/ruletris_compiler.h"
#include "flowspace/rule.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using compiler::ChurnLog;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::ActionList;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using Edge = std::pair<RuleId, RuleId>;
using UpdateBuilder = ChurnLog;

Rule make_rule(flowspace::RuleId id) {
  Rule r;
  r.id = id;
  r.match = TernaryMatch::wildcard();
  return r;
}

TEST(UpdateBuilder, PlainAddAndRemove) {
  UpdateBuilder b;
  b.add_rule(make_rule(1));
  b.remove_rule(2);
  const auto out = b.build();
  ASSERT_EQ(out.added.size(), 1u);
  EXPECT_EQ(out.added[0].id, 1u);
  ASSERT_EQ(out.removed.size(), 1u);
  EXPECT_EQ(out.removed[0], 2u);
  EXPECT_EQ(out.dag.added_vertices.size(), 1u);
  EXPECT_EQ(out.dag.removed_vertices.size(), 1u);
}

TEST(UpdateBuilder, AddThenRemoveCancels) {
  UpdateBuilder b;
  b.add_rule(make_rule(1));
  b.remove_rule(1);
  const auto out = b.build();
  EXPECT_TRUE(out.empty()) << "transient rule must not surface";
}

TEST(UpdateBuilder, RemoveThenAddSurfacesAsRefresh) {
  UpdateBuilder b;
  b.remove_rule(1);
  b.add_rule(make_rule(1));
  const auto out = b.build();
  ASSERT_EQ(out.removed.size(), 1u);
  ASSERT_EQ(out.added.size(), 1u);
  EXPECT_EQ(out.removed[0], 1u);
  EXPECT_EQ(out.added[0].id, 1u);
}

TEST(UpdateBuilder, EdgeAddRemoveNetsToNothing) {
  UpdateBuilder b;
  b.add_edge(1, 2);
  b.remove_edge(1, 2);
  EXPECT_TRUE(b.build().empty());
}

TEST(UpdateBuilder, EdgeRemoveAddNetsToNothing) {
  UpdateBuilder b;
  b.remove_edge(1, 2);
  b.add_edge(1, 2);
  EXPECT_TRUE(b.build().empty());
}

TEST(UpdateBuilder, EdgesTouchingCancelledVertexDropped) {
  UpdateBuilder b;
  b.add_rule(make_rule(5));
  b.add_edge(5, 9);
  b.add_edge(9, 5);
  b.remove_rule(5);  // cancels the add; its edges must vanish too
  const auto out = b.build();
  EXPECT_TRUE(out.dag.added_edges.empty());
  EXPECT_TRUE(out.added.empty());
  EXPECT_TRUE(out.removed.empty());
}

TEST(UpdateBuilder, EdgesTouchingRemovedVertexAreImplied) {
  UpdateBuilder b;
  b.remove_edge(1, 7);
  b.remove_rule(7);
  const auto out = b.build();
  // The vertex removal implies its incident edge removals; no explicit
  // edge entries referencing the dead vertex survive.
  EXPECT_TRUE(out.dag.removed_edges.empty());
  ASSERT_EQ(out.removed.size(), 1u);
}

TEST(UpdateBuilder, EdgeBetweenSurvivorsIsReported) {
  UpdateBuilder b;
  b.remove_edge(1, 2);
  b.add_edge(3, 4);
  const auto out = b.build();
  ASSERT_EQ(out.dag.removed_edges.size(), 1u);
  EXPECT_EQ(out.dag.removed_edges[0], (std::pair<flowspace::RuleId, flowspace::RuleId>{1, 2}));
  ASSERT_EQ(out.dag.added_edges.size(), 1u);
}

TEST(UpdateBuilder, RepresentativeFlipFlopScenario) {
  // add(x); demote: remove(x), add(y); y removed again: remove(y), add(x).
  UpdateBuilder b;
  b.add_rule(make_rule(10));
  b.remove_rule(10);
  b.add_rule(make_rule(11));
  b.remove_rule(11);
  b.add_rule(make_rule(10));
  const auto out = b.build();
  ASSERT_EQ(out.added.size(), 1u);
  EXPECT_EQ(out.added[0].id, 10u);
  EXPECT_TRUE(out.removed.empty()) << "10 was added first in this very update";
}

TEST(UpdateBuilder, LatestRuleDataWins) {
  UpdateBuilder b;
  Rule first = make_rule(1);
  first.priority = 5;
  Rule second = make_rule(1);
  second.priority = 9;
  b.add_rule(first);
  b.remove_rule(1);
  b.add_rule(second);
  const auto out = b.build();
  ASSERT_EQ(out.added.size(), 1u);
  EXPECT_EQ(out.added[0].priority, 9);
}

/// Field-by-field equality of two updates (order included).
void expect_same_update(const TableUpdate& a, const TableUpdate& b, const std::string& tag) {
  EXPECT_EQ(a.removed, b.removed) << tag;
  ASSERT_EQ(a.added.size(), b.added.size()) << tag;
  for (size_t i = 0; i < a.added.size(); ++i) {
    EXPECT_EQ(a.added[i].id, b.added[i].id) << tag;
    EXPECT_EQ(a.added[i].match, b.added[i].match) << tag;
    EXPECT_EQ(a.added[i].actions, b.added[i].actions) << tag;
    EXPECT_EQ(a.added[i].priority, b.added[i].priority) << tag;
  }
  EXPECT_EQ(a.dag.removed_vertices, b.dag.removed_vertices) << tag;
  EXPECT_EQ(a.dag.removed_edges, b.dag.removed_edges) << tag;
  EXPECT_EQ(a.dag.added_vertices, b.dag.added_vertices) << tag;
  EXPECT_EQ(a.dag.added_edges, b.dag.added_edges) << tag;
}

/// One logged event: a visible rule (v == 0) or an edge, appearing or not.
struct Ev {
  RuleId u = 0;
  RuleId v = 0;
  bool add = true;
};

void log_event(ChurnLog& log, const Ev& e) {
  if (e.v != 0) {
    e.add ? log.add_edge(e.u, e.v) : log.remove_edge(e.u, e.v);
  } else {
    e.add ? log.add_rule(make_rule(e.u)) : log.remove_rule(e.u);
  }
}

/// Random exact churn: per key, an alternating run of events starting from
/// a random present-before state. Returned per key, in order.
std::vector<std::vector<Ev>> random_keys(util::Rng& rng) {
  std::vector<std::vector<Ev>> keys;
  for (RuleId id = 1; id <= 12; ++id) {
    bool present = rng.next_bool(0.5);
    std::vector<Ev> run;
    for (size_t n = rng.next_below(4); n > 0; --n) {
      run.push_back({id, 0, !present});
      present = !present;
    }
    if (!run.empty()) keys.push_back(std::move(run));
  }
  for (int i = 0; i < 20; ++i) {
    const RuleId u = 1 + rng.next_below(12);
    const RuleId v = 1 + rng.next_below(12);
    if (u == v) continue;
    bool present = rng.next_bool(0.5);
    std::vector<Ev> run;
    for (size_t n = 1 + rng.next_below(3); n > 0; --n) {
      run.push_back({u, v, !present});
      present = !present;
    }
    keys.push_back(std::move(run));
  }
  // An edge key may repeat: keep only its first run.
  std::vector<std::vector<Ev>> unique;
  for (auto& run : keys) {
    const bool seen = std::any_of(unique.begin(), unique.end(), [&](const auto& r) {
      return r[0].u == run[0].u && r[0].v == run[0].v;
    });
    if (!seen) unique.push_back(std::move(run));
  }
  return unique;
}

/// A random interleaving of the keys' runs that keeps each run's order.
std::vector<Ev> interleave(const std::vector<std::vector<Ev>>& keys, util::Rng& rng) {
  std::vector<size_t> next(keys.size(), 0);
  std::vector<Ev> out;
  for (;;) {
    std::vector<size_t> open;
    for (size_t k = 0; k < keys.size(); ++k) {
      if (next[k] < keys[k].size()) open.push_back(k);
    }
    if (open.empty()) return out;
    const size_t k = open[rng.next_below(open.size())];
    out.push_back(keys[k][next[k]++]);
  }
}

TEST(UpdateBuilder, InterleavingsOfIndependentKeysGiveIdenticalUpdates) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const auto keys = random_keys(rng);
    ChurnLog first;
    for (const Ev& e : interleave(keys, rng)) log_event(first, e);
    const TableUpdate want = first.build();
    EXPECT_TRUE(std::is_sorted(want.removed.begin(), want.removed.end()));
    EXPECT_TRUE(std::is_sorted(want.dag.added_vertices.begin(),
                               want.dag.added_vertices.end()));
    EXPECT_TRUE(std::is_sorted(want.dag.added_edges.begin(), want.dag.added_edges.end()));
    EXPECT_TRUE(std::is_sorted(want.dag.removed_edges.begin(),
                               want.dag.removed_edges.end()));
    for (int trial = 0; trial < 5; ++trial) {
      ChurnLog other;
      for (const Ev& e : interleave(keys, rng)) log_event(other, e);
      expect_same_update(other.build(), want, "seed " + std::to_string(seed));
    }
  }
}

/// Builds between windows reorder the log in place; take() must not see it.
TEST(UpdateBuilder, EpochTakeEqualsNettingTheConcatenatedUpdates) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const std::vector<Ev> events = interleave(random_keys(rng), rng);
    ChurnLog windowed, flat;
    ChurnLog::Mark mark = windowed.mark();
    for (size_t i = 0; i < events.size(); ++i) {
      log_event(windowed, events[i]);
      log_event(flat, events[i]);
      if (rng.next_bool(0.2)) {
        (void)windowed.build(mark);
        mark = windowed.mark();
      }
    }
    const ChurnLog::Net a = windowed.take();
    const ChurnLog::Net b = flat.take();
    EXPECT_EQ(a.visible_removed, b.visible_removed) << seed;
    EXPECT_EQ(a.visible_added, b.visible_added) << seed;
    EXPECT_EQ(a.edges_removed, b.edges_removed) << seed;
    EXPECT_EQ(a.edges_added, b.edges_added) << seed;
  }
}

TEST(UpdateBuilder, TakeRejectsEventsThatDoNotNetToASetChange) {
  ChurnLog log;
  log.add_edge(1, 2);
  log.add_edge(1, 2);
  EXPECT_THROW((void)log.take(), std::logic_error);
}

/// A monitor ∥ router compiler churned by insert and teardown bursts: each
/// burst's per-op updates, chained pairwise (both folds), equal one log
/// over the burst; and the root's recorded epoch agrees with that update.
TEST(UpdateBuilder, ChainedBurstsEqualOneLogAndTheRecordedEpoch) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RuleId counter = RuleId{1} << 40;
    flowspace::ScopedRuleIdNamespace ns(&counter);
    util::Rng rng(seed);
    std::map<std::string, FlowTable> tables;
    tables.emplace("mon", FlowTable{classbench::generate_monitor(40, rng)});
    tables.emplace("rtr", FlowTable{classbench::generate_router(20, rng)});
    std::vector<RuleId> live;
    for (const Rule& r : tables.at("mon").rules()) live.push_back(r.id);
    RuleTrisCompiler frontend(
        PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
        std::move(tables));
    auto& root = dynamic_cast<compiler::ComposedNode&>(frontend.root());
    for (int burst = 0; burst < 8; ++burst) {
      root.start_recording();
      std::vector<TableUpdate> ops;
      const size_t len = 2 + rng.next_below(6);
      for (size_t i = 0; i < len; ++i) {
        if (rng.next_bool(0.4) && live.size() > 4) {
          const size_t victim = rng.next_below(live.size() - 1);  // keep the default
          ops.push_back(frontend.remove("mon", live[victim]));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        } else {
          const Rule fresh = classbench::random_monitor_rule(40, rng);
          ops.push_back(frontend.insert("mon", fresh));
          live.insert(live.begin(), fresh.id);
        }
      }
      ChurnLog one;
      for (const TableUpdate& u : ops) one.append(u);
      const TableUpdate want = one.build();
      TableUpdate left = ops.front();
      for (size_t i = 1; i < ops.size(); ++i) left = compiler::chain_updates(left, ops[i]);
      TableUpdate right = ops.back();
      for (size_t i = ops.size() - 1; i-- > 0;) right = compiler::chain_updates(ops[i], right);
      const std::string tag = "seed " + std::to_string(seed) + " burst " +
                              std::to_string(burst);
      expect_same_update(left, want, tag + " (left fold)");
      expect_same_update(right, want, tag + " (right fold)");

      // The epoch view nets the same churn from the exact events: the same
      // rules, and the same edges once those with an endpoint gone (implied
      // by its removal) are left out.
      const ChurnLog::Net net = root.take_recorded().net;
      EXPECT_EQ(net.visible_removed, want.removed) << tag;
      EXPECT_EQ(net.visible_added, want.dag.added_vertices) << tag;
      EXPECT_EQ(net.edges_added, want.dag.added_edges) << tag;
      std::vector<Edge> kept;
      for (const Edge& e : net.edges_removed) {
        if (root.has_visible(e.first) && root.has_visible(e.second)) kept.push_back(e);
      }
      EXPECT_EQ(kept, want.dag.removed_edges) << tag;
    }
  }
}

}  // namespace
}  // namespace ruletris
