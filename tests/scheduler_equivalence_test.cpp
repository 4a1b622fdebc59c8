// Cached-caps/flat-arena search ≡ legacy search.
//
// The CapIndex-backed scheduler must be a pure performance change: for any
// operation stream, both search modes produce identical TCAM layouts and
// identical last_chain_moves(). These tests drive paired schedulers through
// random DAG streams, batched BackendUpdates (the incremental cap-hook
// path), the adversarial default-rule star (the O(n)-degree hotspot), and
// graph-only updates. A CacheFlow-shaped stream also checks the live cap
// cells against a from-scratch rebuild, and replays through a journaled and
// an unjournaled scheduler into a full table (rejections touch neither).
// Plus a property test for the TCAM's Fenwick-descent free-slot queries.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dag/builder.h"
#include "tcam/backend_update.h"
#include "tcam/dag_scheduler.h"
#include "test_util.h"
#include "util/logging.h"

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
using tcam::BackendUpdate;
using tcam::DagScheduler;
using tcam::Tcam;
using util::Rng;

Rule make_rule(uint32_t tag) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, tag);
  return Rule::make(m, ActionList{Action::forward(1)}, 0);
}

/// A cached-mode scheduler and a twin (legacy-mode unless told otherwise)
/// over twin TCAMs; every operation is mirrored to both and the results
/// compared.
struct SchedulerPair {
  Tcam tcam_cached;
  Tcam tcam_legacy;
  DagScheduler cached;
  DagScheduler legacy;

  explicit SchedulerPair(size_t capacity,
                         DagScheduler::SearchMode twin = DagScheduler::SearchMode::kLegacy)
      : tcam_cached(capacity),
        tcam_legacy(capacity),
        cached(tcam_cached, DagScheduler::Placement::kBalanced,
               DagScheduler::SearchMode::kCached),
        legacy(tcam_legacy, DagScheduler::Placement::kBalanced, twin) {}

  void load_both(const DependencyGraph& g) {
    cached.load(g);
    legacy.load(g);
  }

  void expect_identical(const char* where) {
    ASSERT_EQ(cached.last_chain_moves(), legacy.last_chain_moves()) << where;
    for (size_t a = 0; a < tcam_cached.capacity(); ++a) {
      const std::optional<RuleId> c = tcam_cached.at(a);
      const std::optional<RuleId> l = tcam_legacy.at(a);
      ASSERT_EQ(c.has_value(), l.has_value()) << where << " addr " << a;
      if (c) {
        ASSERT_EQ(*c, *l) << where << " addr " << a;
      }
    }
  }

  void insert_both(const Rule& r) {
    const bool a = cached.insert(r);
    const bool b = legacy.insert(r);
    ASSERT_EQ(a, b);
    expect_identical("insert");
  }

  void apply_both(const BackendUpdate& u) {
    const bool a = cached.apply(u);
    const bool b = legacy.apply(u);
    ASSERT_EQ(a, b);
    expect_identical("apply");
  }

  void remove_both(RuleId id) {
    cached.remove(id);
    legacy.remove(id);
    expect_identical("remove");
  }

  void evict_both(RuleId id) {
    ASSERT_EQ(cached.evict(id), legacy.evict(id));
    expect_identical("evict");
  }
};

/// Random minimum DAGs installed rule by rule, then churned with removes and
/// evict+reinsert cycles: layouts and chain lengths must agree at every step.
TEST(SchedulerEquivalence, RandomDagStreamsProduceIdenticalLayouts) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 12 + static_cast<int>(rng.next_below(12));
    std::vector<Rule> rules;
    for (int i = 0; i < n; ++i) rules.push_back(testutil::random_rule(rng, n - i));
    FlowTable table{rules};
    const DependencyGraph min_dag = dag::build_min_dag(table);

    SchedulerPair pair(static_cast<size_t>(n + n / 8 + 2));
    pair.load_both(min_dag);
    for (RuleId id : min_dag.topo_order_high_to_low()) {
      pair.insert_both(table.rule(id));
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(pair.cached.layout_valid());
    ASSERT_TRUE(pair.legacy.layout_valid());

    std::vector<RuleId> live;
    for (const Rule& r : table.rules()) live.push_back(r.id);
    for (int op = 0; op < 40 && !live.empty(); ++op) {
      const size_t pick = rng.next_below(live.size());
      const RuleId victim = live[pick];
      if (rng.next_bool(0.5)) {
        // Evict + reinsert: the vertex and edges survive, bounds come from
        // the retained caps on the cached side.
        pair.evict_both(victim);
        pair.insert_both(table.rule(victim));
      } else {
        pair.remove_both(victim);
        live[pick] = live.back();
        live.pop_back();
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_TRUE(pair.cached.layout_valid());
    }
  }
}

/// BackendUpdate batches with DAG deltas drive the incremental cap hooks
/// (on_add_edge / on_remove_edge / on_write / on_erase) without any rebuild.
TEST(SchedulerEquivalence, BatchedApplyWithDagDeltasStaysEquivalent) {
  Rng rng(43);
  SchedulerPair pair(48);

  // A default that depends on every later rule (fat out-degree), installed
  // first via a batch.
  const Rule def = make_rule(1);
  BackendUpdate initial;
  initial.added.push_back(def);
  initial.dag.added_vertices.push_back(def.id);
  pair.apply_both(initial);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<Rule> live;
  uint32_t next_tag = 100;
  for (int op = 0; op < 120; ++op) {
    BackendUpdate update;
    if (live.size() > 30 || (!live.empty() && rng.next_bool(0.3))) {
      const size_t pick = rng.next_below(live.size());
      update.removed.push_back(live[pick].id);
      live[pick] = live.back();
      live.pop_back();
    } else {
      Rule fresh = make_rule(next_tag++);
      update.dag.added_vertices.push_back(fresh.id);
      // The default depends on every rule; the fresh rule depends on up to
      // two random existing rules (edges always point at older rules, so
      // the graph stays acyclic).
      update.dag.added_edges.push_back({def.id, fresh.id});
      for (int e = 0; e < 2 && !live.empty(); ++e) {
        const Rule& older = live[rng.next_below(live.size())];
        update.dag.added_edges.push_back({fresh.id, older.id});
      }
      update.added.push_back(fresh);
      live.push_back(fresh);
    }
    pair.apply_both(update);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pair.cached.layout_valid());
    ASSERT_TRUE(pair.legacy.layout_valid());
  }
}

/// The adversarial hotspot at test scale: one default rule with out-degree
/// equal to the table, churned by evicting and reinserting both the default
/// itself and its dependents at high occupancy.
TEST(SchedulerEquivalence, DefaultRuleStarChurnEquivalence) {
  Rng rng(47);
  const size_t leaves = 120;
  SchedulerPair pair(140);

  const Rule def = make_rule(1);
  std::vector<Rule> leaf_rules;
  DependencyGraph g;
  for (size_t i = 0; i < leaves; ++i) {
    leaf_rules.push_back(make_rule(static_cast<uint32_t>(100 + i)));
    g.add_edge(def.id, leaf_rules.back().id);
  }
  pair.load_both(g);
  for (const Rule& leaf : leaf_rules) {
    pair.insert_both(leaf);
    if (::testing::Test::HasFatalFailure()) return;
  }
  pair.insert_both(def);
  if (::testing::Test::HasFatalFailure()) return;

  uint32_t next_tag = 10'000;
  for (int op = 0; op < 200; ++op) {
    const double what = rng.next_double();
    if (what < 0.15) {
      // The O(n)-degree rule itself: evict + reinsert must rescan nothing
      // on the cached side and still land identically.
      pair.evict_both(def.id);
      pair.insert_both(def);
    } else if (what < 0.6) {
      const size_t pick = rng.next_below(leaf_rules.size());
      pair.evict_both(leaf_rules[pick].id);
      pair.insert_both(leaf_rules[pick]);
    } else {
      // Replace a leaf through the batched path: DAG delta + insert.
      const size_t pick = rng.next_below(leaf_rules.size());
      Rule fresh = make_rule(next_tag++);
      BackendUpdate update;
      update.removed.push_back(leaf_rules[pick].id);
      update.dag.added_vertices.push_back(fresh.id);
      update.dag.added_edges.push_back({def.id, fresh.id});
      update.added.push_back(fresh);
      leaf_rules[pick] = fresh;
      pair.apply_both(update);
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pair.cached.layout_valid());
  }
  ASSERT_TRUE(pair.legacy.layout_valid());
}

/// Graph-only updates (a vertex and its edges, no rule) followed by a
/// separate insert: the cap cells stay exact without a rebuild, and layouts
/// stay identical to a legacy scheduler that recomputes from the graph
/// every time.
TEST(SchedulerEquivalence, GraphOnlyUpdatesKeepCellsExact) {
  Rng rng(53);
  SchedulerPair pair(32);
  std::vector<Rule> live;
  uint32_t next_tag = 1;
  for (int op = 0; op < 60; ++op) {
    Rule fresh = make_rule(next_tag++);
    BackendUpdate delta;
    delta.dag.added_vertices.push_back(fresh.id);
    for (int e = 0; e < 2 && !live.empty(); ++e) {
      const Rule& older = live[rng.next_below(live.size())];
      delta.dag.added_edges.push_back({fresh.id, older.id});
    }
    pair.apply_both(delta);
    pair.insert_both(fresh);
    if (::testing::Test::HasFatalFailure()) return;
    live.push_back(fresh);
    if (live.size() > 24) {
      const size_t pick = rng.next_below(live.size());
      pair.remove_both(live[pick].id);
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_TRUE(pair.cached.layout_valid());
    ASSERT_TRUE(testutil::caps_exact(pair.cached, pair.tcam_cached)) << "op " << op;
  }
}

/// The CacheFlow manager's update shape, mirrored to both schedulers of
/// `pair`. An insert is one apply_status carrying the rule, its vertex and
/// its edges to installed neighbours; an eviction keeps the vertex, so
/// re-applying it later adds edges to a vertex whose caps are already
/// hydrated; a removal drops the vertex; and on a full TCAM inserts keep
/// coming. Every apply succeeds exactly when a slot is free, and a rejected
/// one adds no vertex, so CacheFlow just forgets the rule. After every step
/// the layouts agree, and the live cap cells of each cached-mode side equal
/// a CapIndex rebuilt from scratch at every occupied address.
void run_cacheflow_stream(SchedulerPair& pair, size_t capacity, bool twin_journaled) {
  util::set_log_level(util::LogLevel::kOff);  // infeasible inserts warn
  Rng rng(61);

  // Edges point from a lower to a higher level, so the graph stays acyclic.
  struct Known {
    Rule rule;
    double level;
  };
  std::vector<Known> known;  // every rule with a vertex, installed or not
  uint32_t next_tag = 1;

  auto check_cells = [&](const char* where) {
    ASSERT_TRUE(pair.cached.layout_valid()) << where;
    ASSERT_TRUE(testutil::caps_exact(pair.cached, pair.tcam_cached)) << where;
    if (twin_journaled) {
      ASSERT_TRUE(testutil::caps_exact(pair.legacy, pair.tcam_legacy)) << where;
    }
  };
  auto update_for = [&](const Known& k) {
    BackendUpdate u;
    u.added.push_back(k.rule);
    u.dag.added_vertices.push_back(k.rule.id);
    for (const Known& n : known) {
      if (n.rule.id == k.rule.id || !pair.tcam_cached.contains(n.rule.id) ||
          !rng.next_bool(0.15)) {
        continue;
      }
      if (n.level < k.level) {
        u.dag.added_edges.push_back({n.rule.id, k.rule.id});
      } else {
        u.dag.added_edges.push_back({k.rule.id, n.rule.id});
      }
    }
    return u;
  };
  // apply_status on both sides. A rejection leaves the graph as it was, so
  // a fresh rule is forgotten, as CacheFlowManager::firmware_insert does,
  // and a re-applied one keeps its vertex. Returns whether it installed.
  auto apply_or_forget = [&](size_t index, const char* where) {
    const RuleId id = known[index].rule.id;
    const BackendUpdate u = update_for(known[index]);
    const bool slot_free = pair.tcam_cached.occupied() < capacity;
    const bool had_vertex = pair.cached.graph().has_vertex(id);
    const bool ok = pair.cached.apply(u);
    EXPECT_EQ(ok, slot_free) << where;
    EXPECT_EQ(ok, pair.legacy.apply(u)) << where;
    pair.expect_identical(where);
    if (!ok) {
      EXPECT_EQ(pair.cached.graph().has_vertex(id), had_vertex) << where;
      EXPECT_EQ(pair.legacy.graph().has_vertex(id), had_vertex) << where;
      if (!had_vertex) {
        known[index] = known.back();
        known.pop_back();
      }
    }
    return ok;
  };
  auto pick = [&](bool want_installed) -> std::optional<size_t> {
    std::vector<size_t> matching;
    for (size_t i = 0; i < known.size(); ++i) {
      if (pair.tcam_cached.contains(known[i].rule.id) == want_installed) {
        matching.push_back(i);
      }
    }
    if (matching.empty()) return std::nullopt;
    return matching[rng.next_below(matching.size())];
  };

  size_t infeasible = 0, reapplied = 0;
  for (int step = 0; step < 600; ++step) {
    const double what = rng.next_double();
    const bool full = pair.tcam_cached.occupied() == capacity;
    if (full && what < 0.3) {
      known.push_back({make_rule(next_tag++), rng.next_double()});
      ASSERT_FALSE(apply_or_forget(known.size() - 1, "infeasible insert"));
      ++infeasible;
    } else if (what < 0.5) {
      known.push_back({make_rule(next_tag++), rng.next_double()});
      apply_or_forget(known.size() - 1, "fresh insert");
    } else if (what < 0.7) {
      if (const auto i = pick(true)) pair.evict_both(known[*i].rule.id);
    } else if (what < 0.85) {
      if (const auto i = pick(false)) reapplied += apply_or_forget(*i, "re-apply");
    } else if (!known.empty()) {
      const size_t i = rng.next_below(known.size());
      pair.remove_both(known[i].rule.id);
      known[i] = known.back();
      known.pop_back();
    }
    if (::testing::Test::HasFailure()) return;
    check_cells("step");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(infeasible, 5u);
  EXPECT_GT(reapplied, 20u);
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(SchedulerEquivalence, CacheFlowUpdateStreamKeepsCellsExact) {
  SchedulerPair pair(28);
  run_cacheflow_stream(pair, 28, false);
}

/// One update stream through a journaled and an unjournaled cached-mode
/// scheduler, infeasible inserts on a full TCAM included: each side rejects
/// them untouched, so the two stay slot-identical with exact cells.
TEST(SchedulerEquivalence, JournaledAndUnjournaledStreamsEndSlotIdentical) {
  SchedulerPair pair(28, DagScheduler::SearchMode::kCached);
  tcam::ApplyJournal journal;
  pair.legacy.set_journal(&journal);
  run_cacheflow_stream(pair, 28, true);
  EXPECT_GT(journal.total_recorded(), 0u);
}

/// Fenwick-descent free-slot queries, as the TCAM answers them: under a
/// random stream of write/move/erase/take on a non-power-of-two capacity,
/// nearest-free above/below and k-th occupied agree with a linear scan over
/// every address.
TEST(OccupancyIndexFenwick, NearestFreeMatchesLinearScan) {
  Rng rng(59);
  const size_t cap = 97;
  Tcam tcam(cap);
  uint32_t next_tag = 1;
  auto random_addr = [&](bool want_free) -> std::optional<size_t> {
    std::vector<size_t> pool;
    for (size_t a = 0; a < cap; ++a) {
      if (tcam.is_free(a) == want_free) pool.push_back(a);
    }
    if (pool.empty()) return std::nullopt;
    return pool[rng.next_below(pool.size())];
  };

  for (int round = 0; round < 40; ++round) {
    for (int ops = 0; ops < 13; ++ops) {
      const double what = rng.next_double();
      if (what < 0.45) {
        if (const auto to = random_addr(true)) tcam.write(*to, make_rule(next_tag++));
      } else if (what < 0.7) {
        const auto from = random_addr(false);
        const auto to = random_addr(true);
        if (from && to) tcam.move(*from, *to);
      } else if (what < 0.85) {
        if (const auto at = random_addr(false)) tcam.erase(*at);
      } else if (const auto at = random_addr(false)) {
        (void)tcam.take(*at);
      }
    }
    std::vector<size_t> occupied;
    for (size_t a = 0; a < cap; ++a) {
      if (!tcam.is_free(a)) occupied.push_back(a);
    }
    for (size_t k = 0; k <= occupied.size(); ++k) {
      const std::optional<size_t> want =
          k < occupied.size() ? std::optional<size_t>(occupied[k]) : std::nullopt;
      ASSERT_EQ(tcam.kth_occupied(k), want) << "round " << round << " k " << k;
    }
    for (size_t from = 0; from < cap; ++from) {
      std::optional<size_t> want_above;
      for (size_t a = from; a < cap; ++a) {
        if (tcam.is_free(a)) {
          want_above = a;
          break;
        }
      }
      std::optional<size_t> want_below;
      for (size_t a = from + 1; a-- > 0;) {
        if (tcam.is_free(a)) {
          want_below = a;
          break;
        }
      }
      ASSERT_EQ(tcam.nearest_free_at_or_above(from), want_above)
          << "round " << round << " from " << from;
      ASSERT_EQ(tcam.nearest_free_at_or_below(from), want_below)
          << "round " << round << " from " << from;
    }
  }
}

}  // namespace
}  // namespace ruletris
