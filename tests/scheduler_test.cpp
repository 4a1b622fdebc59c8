// DAG update scheduler (Algorithm 1): paper examples, layout validity under
// random update streams, and move-count optimality against an exhaustive
// BFS oracle on small instances (Claim 1).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "dag/builder.h"
#include "util/logging.h"
#include "tcam/dag_scheduler.h"
#include "test_util.h"

namespace ruletris {
namespace {

using dag::DependencyGraph;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using tcam::DagScheduler;
using tcam::Tcam;
using util::Rng;

// graph() is read-only: the graph changes only through updates and load(),
// which keep the cap cells exact, so no call may yield a mutable graph.
template <typename S>
concept GraphMutable = requires(S& s, const DependencyGraph& g) { s.graph() = g; };
static_assert(!GraphMutable<DagScheduler>);
static_assert(std::is_same_v<decltype(std::declval<DagScheduler&>().graph()),
                             const DependencyGraph&>);

Rule make_rule(uint32_t tag) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, tag);
  return Rule::make(m, ActionList{Action::forward(1)}, 0);
}

/// Exhaustive minimum-move oracle: BFS over TCAM layouts; a transition moves
/// one entry to a free slot keeping every DAG edge satisfied; the goal is a
/// layout with a DAG-feasible free slot for `insert_id`.
int oracle_min_moves(const Tcam& tcam, const DependencyGraph& graph, RuleId insert_id) {
  const size_t cap = tcam.capacity();
  std::vector<RuleId> initial(cap, 0);
  for (size_t a = 0; a < cap; ++a) {
    if (auto id = tcam.at(a)) initial[a] = *id;
  }
  auto encode = [](const std::vector<RuleId>& s) {
    std::string key;
    for (RuleId id : s) key += std::to_string(id) + ",";
    return key;
  };
  auto valid = [&](const std::vector<RuleId>& s) {
    std::map<RuleId, size_t> pos;
    for (size_t a = 0; a < s.size(); ++a) {
      if (s[a] != 0) pos[s[a]] = a;
    }
    for (const auto& [u, v] : graph.edges()) {
      if (u == insert_id || v == insert_id) continue;  // not installed yet
      auto pu = pos.find(u);
      auto pv = pos.find(v);
      if (pu == pos.end() || pv == pos.end()) continue;
      if (pv->second <= pu->second) return false;
    }
    return true;
  };
  auto goal = [&](const std::vector<RuleId>& s) {
    std::map<RuleId, size_t> pos;
    for (size_t a = 0; a < s.size(); ++a) {
      if (s[a] != 0) pos[s[a]] = a;
    }
    for (size_t f = 0; f < s.size(); ++f) {
      if (s[f] != 0) continue;
      bool ok = true;
      for (RuleId succ : graph.successors(insert_id)) {
        auto it = pos.find(succ);
        if (it != pos.end() && it->second <= f) ok = false;
      }
      for (RuleId pred : graph.predecessors(insert_id)) {
        auto it = pos.find(pred);
        if (it != pos.end() && it->second >= f) ok = false;
      }
      if (ok) return true;
    }
    return false;
  };

  std::map<std::string, int> dist;
  std::deque<std::vector<RuleId>> queue{initial};
  dist[encode(initial)] = 0;
  while (!queue.empty()) {
    auto state = queue.front();
    queue.pop_front();
    const int d = dist[encode(state)];
    if (goal(state)) return d;
    if (d >= 6) continue;  // depth cap keeps the oracle tractable
    for (size_t from = 0; from < cap; ++from) {
      if (state[from] == 0) continue;
      for (size_t to = 0; to < cap; ++to) {
        if (state[to] != 0) continue;
        auto next = state;
        std::swap(next[from], next[to]);
        if (!valid(next)) continue;
        const std::string key = encode(next);
        if (dist.count(key)) continue;
        dist[key] = d + 1;
        queue.push_back(next);
      }
    }
  }
  return -1;  // unreachable within the cap
}

TEST(DagScheduler, PaperFig2InsertTakesTwoMoves) {
  // TCAM layout (top = address 5): rules 1,2,3,4,5 and one free slot at the
  // bottom. DAG edges as derived in Fig. 2(c); rule 6 (0*0) overlaps rule 1
  // (00*), rule 2 (**0), rule 5 (***): 6 depends on 1, and 2 depends on 6
  // (6 is inserted between 1 and 2), 5 depends transitively.
  Tcam tcam(6);
  DagScheduler fresh(tcam);
  std::vector<Rule> rules;
  for (uint32_t i = 1; i <= 5; ++i) rules.push_back(make_rule(i));
  // Address layout: 1 at 5 (top), 2 at 4, 3 at 3, 4 at 2, 5 at 1; slot 0 free.
  // The TCAM owns its occupancy, so writing it directly is visible to the
  // scheduler built before the writes.
  DependencyGraph g;
  // Fig. 2(c) dependencies among existing rules.
  g.add_edge(rules[1].id, rules[0].id);  // 2 -> 1
  g.add_edge(rules[2].id, rules[0].id);  // 3 -> 1
  g.add_edge(rules[3].id, rules[2].id);  // 4 -> 3
  g.add_edge(rules[4].id, rules[1].id);  // 5 -> 2
  g.add_edge(rules[4].id, rules[3].id);  // 5 -> 4
  tcam.write(5, rules[0]);
  tcam.write(4, rules[1]);
  tcam.write(3, rules[2]);
  tcam.write(2, rules[3]);
  tcam.write(1, rules[4]);

  // Rule 6 = 0*0: depends on rule 1; rules 2 and 5 depend on it.
  Rule r6 = make_rule(6);
  g.add_vertex(r6.id);
  g.add_edge(r6.id, rules[0].id);
  g.add_edge(rules[1].id, r6.id);
  g.add_edge(rules[4].id, r6.id);
  fresh.load(g);

  ASSERT_TRUE(fresh.insert(r6));
  // Fig. 2(c): only rules 2 and 5 move (the priority-based plan needs 4).
  EXPECT_EQ(fresh.last_chain_moves(), 2u);
  EXPECT_TRUE(fresh.layout_valid());
  // Rule 6 must sit below rule 1 and above rules 2 and 5.
  EXPECT_LT(tcam.address_of(r6.id), tcam.address_of(rules[0].id));
  EXPECT_GT(tcam.address_of(r6.id), tcam.address_of(rules[1].id));
}

TEST(DagScheduler, InsertIntoFreeRangeCostsOneWrite) {
  Tcam tcam(8);
  DagScheduler scheduler(tcam);
  Rule r = make_rule(1);
  const auto before = tcam.stats();
  ASSERT_TRUE(scheduler.insert(r));
  EXPECT_EQ(tcam.stats().entry_writes - before.entry_writes, 1u);
  EXPECT_EQ(scheduler.last_chain_moves(), 0u);
}

TEST(DagScheduler, FullTcamRejectsInsert) {
  Tcam tcam(2);
  DagScheduler scheduler(tcam);
  ASSERT_TRUE(scheduler.insert(make_rule(1)));
  ASSERT_TRUE(scheduler.insert(make_rule(2)));
  util::set_log_level(util::LogLevel::kOff);
  EXPECT_FALSE(scheduler.insert(make_rule(3)));
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(DagScheduler, RemoveFreesSlot) {
  Tcam tcam(4);
  DagScheduler scheduler(tcam);
  Rule r = make_rule(1);
  ASSERT_TRUE(scheduler.insert(r));
  scheduler.remove(r.id);
  EXPECT_FALSE(tcam.contains(r.id));
  EXPECT_FALSE(scheduler.graph().has_vertex(r.id));
  EXPECT_EQ(tcam.occupied(), 0u);
}

/// Random tables installed rule-by-rule: the layout must respect the DAG at
/// every step, and lookups must match the priority-table semantics.
TEST(DagScheduler, RandomStreamKeepsLayoutValidAndSemanticsIntact) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 10 + static_cast<int>(rng.next_below(10));
    std::vector<Rule> rules;
    for (int i = 0; i < n; ++i) {
      rules.push_back(testutil::random_rule(rng, n - i));
    }
    FlowTable table{rules};
    const DependencyGraph min_dag = dag::build_min_dag(table);

    Tcam tcam(static_cast<size_t>(n + n / 4 + 1));
    DagScheduler scheduler(tcam);
    scheduler.load(min_dag);
    // Install in matched-first order (dependencies first).
    for (RuleId id : min_dag.topo_order_high_to_low()) {
      ASSERT_TRUE(scheduler.insert(table.rule(id)));
      ASSERT_TRUE(scheduler.layout_valid());
    }
    // TCAM lookup == priority-table lookup.
    for (int k = 0; k < 200; ++k) {
      const auto p = testutil::random_packet(rng);
      const Rule* expect = table.lookup(p);
      const Rule* got = tcam.lookup(p);
      ASSERT_EQ(expect == nullptr, got == nullptr);
      if (expect != nullptr) {
        EXPECT_EQ(expect->id, got->id);
      }
    }
    // Random deletes keep everything valid.
    for (int k = 0; k < 5 && !table.empty(); ++k) {
      const auto& alive = table.rules();
      const RuleId victim = alive[rng.next_below(alive.size())].id;
      scheduler.remove(victim);
      table.erase(victim);
      ASSERT_TRUE(scheduler.layout_valid());
    }
  }
}

/// Claim 1: the scheduler's chain length equals the exhaustive minimum on
/// random small instances.
TEST(DagScheduler, MoveCountMatchesExhaustiveOracle) {
  Rng rng(13);
  int exercised = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(3));  // 4-6 rules
    std::vector<Rule> rules;
    for (int i = 0; i <= n; ++i) {
      rules.push_back(testutil::random_rule(rng, n + 1 - i));
    }
    FlowTable table{rules};
    const DependencyGraph min_dag = dag::build_min_dag(table);

    // Capacity n+1: exactly one free slot once n rules are in.
    Tcam tcam(static_cast<size_t>(n + 1));
    DagScheduler scheduler(tcam);
    scheduler.load(min_dag);

    // Install all but the last-priority rule, then insert it and compare.
    const auto order = min_dag.topo_order_high_to_low();
    const RuleId last = order.back();
    bool ok = true;
    for (RuleId id : order) {
      if (id == last) continue;
      if (!scheduler.insert(table.rule(id))) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    const int oracle = oracle_min_moves(tcam, min_dag, last);
    ASSERT_TRUE(scheduler.insert(table.rule(last)));
    ASSERT_TRUE(scheduler.layout_valid());
    ASSERT_GE(oracle, 0) << "oracle must reach a goal when the scheduler can";
    EXPECT_EQ(static_cast<int>(scheduler.last_chain_moves()), oracle)
        << "trial " << trial;
    ++exercised;
  }
  EXPECT_GT(exercised, 30);
}

/// The O(n)-degree hotspot: every rule depends on one default rule, so the
/// default's dependency fan-out is the whole table. The chain length must
/// still match the exhaustive minimum (Claim 1 does not degrade with
/// degree), whichever search implementation runs.
TEST(DagScheduler, MoveCountMatchesOracleOnDefaultRuleStar) {
  Rng rng(17);
  int exercised = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 4 + rng.next_below(3);  // specific rules
    std::vector<Rule> specifics;
    for (size_t i = 0; i < n; ++i) {
      specifics.push_back(make_rule(static_cast<uint32_t>(100 + i)));
    }
    const Rule def = make_rule(1);      // the default: depends on everyone
    const Rule probe = make_rule(2);    // inserted last, between def and one specific

    DependencyGraph g;
    for (const Rule& s : specifics) g.add_edge(def.id, s.id);
    g.add_edge(def.id, probe.id);
    // probe must also sit below one random specific (a tight range).
    g.add_edge(probe.id, specifics[rng.next_below(n)].id);

    Tcam tcam(n + 2);  // one free slot once everything but `probe` is in
    DagScheduler scheduler(tcam);
    scheduler.load(g);
    for (const Rule& s : specifics) ASSERT_TRUE(scheduler.insert(s));
    ASSERT_TRUE(scheduler.insert(def));

    const int oracle = oracle_min_moves(tcam, g, probe.id);
    if (!scheduler.insert(probe)) continue;  // range collapsed: skip trial
    ASSERT_TRUE(scheduler.layout_valid());
    ASSERT_GE(oracle, 0);
    EXPECT_EQ(static_cast<int>(scheduler.last_chain_moves()), oracle)
        << "trial " << trial;
    ++exercised;
  }
  EXPECT_GT(exercised, 10);
}

/// evict() is the CacheFlow-style primitive: the TCAM entry goes away, the
/// vertex and its edges stay, and a reinsert honours the same bounds.
TEST(DagScheduler, EvictKeepsGraphAndReinsertHonoursBounds) {
  Tcam tcam(8);
  DagScheduler scheduler(tcam);
  Rule top = make_rule(1);
  Rule mid = make_rule(2);
  Rule bot = make_rule(3);
  DependencyGraph g;
  g.add_edge(mid.id, top.id);  // mid below top
  g.add_edge(bot.id, mid.id);  // bot below mid
  scheduler.load(g);
  ASSERT_TRUE(scheduler.insert(top));
  ASSERT_TRUE(scheduler.insert(mid));
  ASSERT_TRUE(scheduler.insert(bot));

  ASSERT_TRUE(scheduler.evict(mid.id));
  EXPECT_FALSE(tcam.contains(mid.id));
  EXPECT_TRUE(scheduler.graph().has_vertex(mid.id));
  EXPECT_FALSE(scheduler.evict(mid.id)) << "double evict must report false";

  ASSERT_TRUE(scheduler.insert(mid));
  EXPECT_TRUE(scheduler.layout_valid());
  EXPECT_GT(tcam.address_of(mid.id), tcam.address_of(bot.id));
  EXPECT_LT(tcam.address_of(mid.id), tcam.address_of(top.id));
}

}  // namespace
}  // namespace ruletris
