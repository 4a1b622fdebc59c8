// Emitted output does not depend on rule-id values.
//
// Rule ids only name rules: a compile that starts its id namespace at a
// different base must emit the same updates and leave the same TCAM, once
// every id is mapped to (id - base). Any hash container whose visit order
// reached the wire or the TCAM would break this, since hashing an id and
// hashing the same id plus an offset land in different slots. The two bases
// below differ by a large prime, so no power-of-two or small-prime bucket
// count maps them alike.
//
// Three shapes run the same seeded churn under both bases: the compiled
// fleet's per-switch task (monitor(24) ∥ router(16), bursty churn through
// ChurnEngine), and the sequential (nat > rtr) and nested ((a + b) > c)
// trees of compile_golden_test. Each epoch's update is applied to a DAG
// firmware switch; the per-epoch wire messages, entry writes and moves and
// the final TCAM layout must all agree.
//
// A fourth shape runs the data plane: TrafficEngine's flow-driven CacheFlow
// (FDRC) run over a bulk-built FIB DAG, whose admission, cover and firmware
// decisions walk the graph's adjacency lists. Its hits, swaps, writes and
// final layout, folded by FIB position, must agree under three bases.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "classbench/generator.h"
#include "compiler/ruletris_compiler.h"
#include "dag/builder.h"
#include "runtime/workload.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "switchsim/traffic_engine.h"
#include "tcam/cacheflow.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using util::Rng;

constexpr RuleId kBaseA = RuleId{1} << 40;
constexpr RuleId kBaseB = (RuleId{1} << 40) + 1000003;  // + a prime

/// Everything one run emits, with ids relative to the namespace base.
struct Transcript {
  RuleId base = 0;
  std::vector<std::vector<uint64_t>> epochs;  // wire messages, id-mapped
  std::vector<std::pair<size_t, size_t>> cost;  // (entry writes, moves)
  std::vector<uint64_t> layout;  // per address: id - base + 1, or 0 if free

  uint64_t id(RuleId raw) const { return raw - base; }

  void record(const proto::MessageBatch& batch, const switchsim::UpdateMetrics& m) {
    std::vector<uint64_t> w;
    const auto edges = [&](const std::vector<std::pair<RuleId, RuleId>>& es) {
      w.push_back(es.size());
      for (const auto& [u, v] : es) {
        w.push_back(id(u));
        w.push_back(id(v));
      }
    };
    const auto ids = [&](const std::vector<RuleId>& vs) {
      w.push_back(vs.size());
      for (RuleId v : vs) w.push_back(id(v));
    };
    const auto rule = [&](const Rule& r) {
      w.push_back(id(r.id));
      for (FieldId f : flowspace::kAllFields) {
        w.push_back(r.match.field(f).value);
        w.push_back(r.match.field(f).mask);
      }
      w.push_back(std::hash<std::string>{}(r.actions.to_string()));
      w.push_back(static_cast<uint64_t>(static_cast<int64_t>(r.priority)));
    };
    for (const proto::Message& msg : batch) {
      w.push_back(msg.index());
      if (const auto* add = std::get_if<proto::FlowModAdd>(&msg)) {
        rule(add->rule);
      } else if (const auto* del = std::get_if<proto::FlowModDelete>(&msg)) {
        w.push_back(id(del->id));
      } else if (const auto* dag = std::get_if<proto::DagUpdate>(&msg)) {
        ids(dag->delta.removed_vertices);
        edges(dag->delta.removed_edges);
        ids(dag->delta.added_vertices);
        edges(dag->delta.added_edges);
      }
    }
    epochs.push_back(std::move(w));
    cost.emplace_back(m.entry_writes, m.moves);
  }

  void capture(const tcam::Tcam& tcam) {
    layout.clear();
    for (size_t addr = 0; addr < tcam.capacity(); ++addr) {
      const auto at = tcam.at(addr);
      layout.push_back(at ? id(*at) + 1 : 0);
    }
  }
};

void expect_same(const Transcript& a, const Transcript& b, const std::string& shape) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size()) << shape;
  size_t first_diff = a.epochs.size();
  size_t wire = 0, cost = 0;
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    const bool wire_differs = a.epochs[e] != b.epochs[e];
    const bool cost_differs = a.cost[e] != b.cost[e];
    if ((wire_differs || cost_differs) && wire + cost == 0) first_diff = e;
    wire += wire_differs;
    cost += cost_differs;
  }
  EXPECT_EQ(wire + cost, 0u) << shape << ": of " << a.epochs.size() << " epochs, " << wire
                             << " differ on the wire and " << cost
                             << " in TCAM writes or moves, first at epoch "
                             << first_diff + 1;
  EXPECT_EQ(a.layout, b.layout) << shape << ": final TCAM layouts differ";
}

// ---------------------------------------------------------------------------
// The compiled fleet's per-switch task
// ---------------------------------------------------------------------------

Transcript run_fleet_task(RuleId base, uint64_t seed) {
  Transcript t;
  t.base = base;
  RuleId counter = base;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  Rng rng(util::hash_pair(seed, 1));
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(24, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(16, rng)});
  runtime::ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = 24;
  churn.seed = util::hash_pair(seed ^ 0x9e3779b97f4a7c15ULL, 1);
  churn.burst = runtime::BurstSpec{.enabled = true};
  runtime::ChurnEngine engine(
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
      std::move(tables), churn);
  switchsim::SimulatedSwitch device(switchsim::FirmwareMode::kDag, 256);
  while (!engine.done()) {
    const runtime::ChurnEngine::Step step = engine.step();
    const switchsim::UpdateMetrics m = device.apply(step.batch);
    EXPECT_TRUE(m.ok) << "epoch " << engine.produced();
    t.record(step.batch, m);
  }
  t.capture(device.tcam());
  return t;
}

TEST(IdInvariance, FleetTaskIsIdentical) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    expect_same(run_fleet_task(kBaseA, seed), run_fleet_task(kBaseB, seed),
                "fleet task seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// compile_golden_test's sequential and nested trees
// ---------------------------------------------------------------------------

Rule random_rule(Rng& rng) {
  ActionList actions = testutil::random_actions(rng);
  if (rng.next_bool(0.3)) {
    actions = ActionList{Action::set_field(FieldId::kDstIp,
                                           static_cast<uint32_t>(rng.next_below(4)) << 30),
                         Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
  }
  return Rule::make(testutil::random_match(rng), std::move(actions),
                    static_cast<int32_t>(rng.next_below(1000)));
}

/// Seeded insert/remove/modify churn over every leaf (the last rule of the
/// protected leaf's initial table never leaves), as compile_golden_test
/// drives it, each update applied to a DAG firmware switch.
template <typename MakeTable, typename MakeRule>
Transcript run_tree(RuleId base, const PolicySpec& spec, uint64_t seed, size_t updates,
                    MakeTable make_table, MakeRule make_rule,
                    const std::string& protected_leaf = "") {
  Transcript t;
  t.base = base;
  RuleId counter = base;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  std::map<std::string, std::vector<RuleId>> live;
  RuleId protected_id = flowspace::kInvalidRuleId;
  for (const std::string& leaf : spec.leaf_names()) {
    const std::vector<Rule> rules = make_table(leaf, rng);
    for (const Rule& r : rules) live[leaf].push_back(r.id);
    if (leaf == protected_leaf) protected_id = rules.back().id;
    tables.emplace(leaf, FlowTable{rules});
  }
  RuleTrisCompiler frontend(spec, std::move(tables));
  const size_t visible = frontend.root().visible_size();
  // Room for the nested tree's cross products to grow to ~4x.
  switchsim::SimulatedSwitch device(switchsim::FirmwareMode::kDag, 2 * visible + 256);
  const auto apply = [&](const TableUpdate& update) {
    const proto::MessageBatch batch = switchsim::to_messages(update);
    const switchsim::UpdateMetrics m = device.apply(batch);
    EXPECT_TRUE(m.ok) << "epoch " << t.epochs.size() + 1 << ": "
                      << tcam::to_string(m.status);
    t.record(batch, m);
  };
  apply(compiler::full_install(frontend.root()));

  const std::vector<std::string> leaves = spec.leaf_names();
  for (size_t step = 0; step < updates; ++step) {
    const std::string& leaf = leaves[rng.next_below(leaves.size())];
    std::vector<RuleId>& ids = live[leaf];
    const double op = rng.next_double();
    const size_t victim = ids.empty() ? 0 : rng.next_below(ids.size());
    const bool can_remove = ids.size() > 2 && ids[victim] != protected_id;
    if (op < 0.4 || !can_remove) {
      const Rule fresh = make_rule(leaf, rng);
      ids.push_back(fresh.id);
      apply(frontend.insert(leaf, fresh));
    } else if (op < 0.75) {
      apply(frontend.remove(leaf, ids[victim]));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Rule fresh = make_rule(leaf, rng);
      apply(frontend.modify(leaf, ids[victim], fresh));
      ids[victim] = fresh.id;
    }
  }
  t.capture(device.tcam());
  return t;
}

Transcript run_sequential(RuleId base) {
  RuleId counter = base + (RuleId{1} << 32);
  std::vector<Rule> router;
  {
    flowspace::ScopedRuleIdNamespace ns(&counter);
    Rng router_rng(12);
    router = classbench::generate_router(40, router_rng);
  }
  return run_tree(
      base, PolicySpec::sequential(PolicySpec::leaf("nat"), PolicySpec::leaf("rtr")), 12,
      300,
      [&](const std::string& leaf, Rng& rng) {
        return leaf == "nat" ? classbench::generate_nat(50, router, rng) : router;
      },
      [&](const std::string& leaf, Rng& rng) {
        return leaf == "nat" ? classbench::random_nat_rule(router, 50, rng)
                             : classbench::generate_router(1, rng).front();
      },
      "nat");
}

TEST(IdInvariance, SequentialTreeIsIdentical) {
  expect_same(run_sequential(kBaseA), run_sequential(kBaseB), "nat > rtr");
}

Transcript run_nested(RuleId base) {
  return run_tree(
      base,
      PolicySpec::sequential(
          PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b")),
          PolicySpec::leaf("c")),
      14, 120,
      [](const std::string&, Rng& rng) {
        std::vector<Rule> rules;
        for (int i = 0; i < 6; ++i) rules.push_back(random_rule(rng));
        return rules;
      },
      [](const std::string&, Rng& rng) { return random_rule(rng); });
}

TEST(IdInvariance, NestedTreeIsIdentical) {
  expect_same(run_nested(kBaseA), run_nested(kBaseB), "(a + b) > c");
}

// ---------------------------------------------------------------------------
// The FDRC CacheFlow run of TrafficEngine.GoldenFdrcRunPinsEveryDecision
// ---------------------------------------------------------------------------

/// One FDRC run's outcome, with every rule named by its FIB position.
struct FdrcOutcome {
  std::vector<uint64_t> hits;  // per FIB position
  size_t swaps = 0;
  size_t entry_writes = 0;
  uint64_t fast_hits = 0;
  // Per address: 0 when free, else 2 * (FIB position + 1), plus 1 for a
  // cover (named by its target).
  std::vector<uint64_t> layout;

  bool operator==(const FdrcOutcome&) const = default;
};

FdrcOutcome run_fdrc(RuleId base) {
  RuleId counter = base;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  Rng rng(0x601d);
  const FlowTable fib{classbench::generate_router(5000, rng)};
  tcam::CacheFlowManager mgr(fib.rules(), dag::build_min_dag(fib),
                             tcam::CacheFlowManager::Mode::kDagFirmware, 512);
  switchsim::TrafficConfig cfg;
  cfg.flows = 1 << 16;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.01;
  cfg.packets_per_epoch = 10000;
  cfg.epochs = 8;
  cfg.seed = 0x601d;
  cfg.n_threads = 2;
  cfg.policy = tcam::CacheFlowManager::AdmissionPolicy::kFlowDriven;
  cfg.rebalance_swaps = 64;
  switchsim::TrafficEngine engine(mgr, fib.rules(), cfg);
  const switchsim::TrafficReport r = engine.run();

  FdrcOutcome out;
  std::map<RuleId, uint64_t> position;
  for (const Rule& rule : fib.rules()) {
    position.emplace(rule.id, out.hits.size());
    out.hits.push_back(mgr.hits(rule.id));
  }
  out.swaps = r.swaps;
  out.entry_writes = r.entry_writes;
  out.fast_hits = r.fast_hits;
  const tcam::Tcam& tcam = mgr.tcam();
  for (size_t addr = 0; addr < tcam.capacity(); ++addr) {
    const auto id = tcam.at(addr);
    if (!id) {
      out.layout.push_back(0);
      continue;
    }
    const RuleId target = mgr.cover_target(*id);
    const bool cover = target != flowspace::kInvalidRuleId;
    out.layout.push_back(2 * (position.at(cover ? target : *id) + 1) + cover);
  }
  return out;
}

TEST(IdInvariance, FdrcCacheFlowRunIsIdentical) {
  const FdrcOutcome a = run_fdrc(RuleId{1} << 40);
  ASSERT_GT(a.swaps, 0u);
  for (const RuleId base : {RuleId{3} << 40, RuleId{1} << 20}) {
    const FdrcOutcome b = run_fdrc(base);
    EXPECT_EQ(a.hits, b.hits) << "base " << base;
    EXPECT_EQ(a.swaps, b.swaps) << "base " << base;
    EXPECT_EQ(a.entry_writes, b.entry_writes) << "base " << base;
    EXPECT_EQ(a.fast_hits, b.fast_hits) << "base " << base;
    size_t differ = 0;
    for (size_t addr = 0; addr < a.layout.size(); ++addr) {
      differ += a.layout[addr] != b.layout[addr];
    }
    EXPECT_EQ(differ, 0u) << "base " << base << ": final layouts differ at " << differ
                          << " of " << a.layout.size() << " addresses";
  }
}

}  // namespace
}  // namespace ruletris
