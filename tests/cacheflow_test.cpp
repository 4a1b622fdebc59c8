// CacheFlow manager (Sec. V-C): cover-set correctness — the fast path never
// returns a wrong answer, punts are installed exactly where dependencies
// demand them, and swaps keep everything consistent under both firmwares.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "switchsim/traffic_engine.h"
#include "tcam/cacheflow.h"
#include "test_util.h"
#include "util/zipf.h"

namespace ruletris {
namespace {

using classbench::generate_router;
using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::FieldId;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;
using tcam::CacheFlowManager;
using Policy = CacheFlowManager::AdmissionPolicy;
using util::Rng;

class CacheFlowModeTest : public ::testing::TestWithParam<CacheFlowManager::Mode> {};

Packet router_packet(Rng& rng) {
  Packet p;
  p.set(flowspace::FieldId::kDstIp, rng.next_u32());
  return p;
}

TEST_P(CacheFlowModeTest, InstallBringsCoverSet) {
  Rng rng(3);
  const auto rules = generate_router(60, rng);
  FlowTable table{rules};
  const auto graph = build_min_dag(table);
  CacheFlowManager mgr(table.rules(), graph, GetParam(), 64);

  // Pick a rule with at least one dependency; installing it must create a
  // cover (or co-install nothing if it has none).
  RuleId dependent = 0;
  for (const Rule& r : table.rules()) {
    if (!graph.successors(r.id).empty()) {
      dependent = r.id;
      break;
    }
  }
  ASSERT_NE(dependent, 0u);
  ASSERT_TRUE(mgr.install(dependent));
  EXPECT_TRUE(mgr.is_cached(dependent));
  EXPECT_EQ(mgr.cover_count(), graph.successors(dependent).size());
  // TCAM holds the rule plus its covers.
  EXPECT_EQ(mgr.tcam().occupied(), 1 + mgr.cover_count());
}

TEST_P(CacheFlowModeTest, RealRuleSupersedesCover) {
  Rng rng(4);
  const auto rules = generate_router(60, rng);
  FlowTable table{rules};
  const auto graph = build_min_dag(table);
  CacheFlowManager mgr(table.rules(), graph, GetParam(), 64);

  RuleId dependent = 0, dep = 0;
  for (const Rule& r : table.rules()) {
    if (!graph.successors(r.id).empty()) {
      dependent = r.id;
      dep = *graph.successors(r.id).begin();
      break;
    }
  }
  ASSERT_NE(dependent, 0u);
  ASSERT_TRUE(mgr.install(dependent));
  const size_t covers_before = mgr.cover_count();
  ASSERT_TRUE(mgr.install(dep));
  // The cover standing in for `dep` is gone; dep's own covers may appear.
  EXPECT_TRUE(mgr.is_cached(dep));
  EXPECT_LE(mgr.cover_count(),
            covers_before - 1 + graph.successors(dep).size());
}

TEST_P(CacheFlowModeTest, EvictionDemotesToCover) {
  Rng rng(5);
  const auto rules = generate_router(60, rng);
  FlowTable table{rules};
  const auto graph = build_min_dag(table);
  CacheFlowManager mgr(table.rules(), graph, GetParam(), 64);

  RuleId dependent = 0, dep = 0;
  for (const Rule& r : table.rules()) {
    if (!graph.successors(r.id).empty()) {
      dependent = r.id;
      dep = *graph.successors(r.id).begin();
      break;
    }
  }
  ASSERT_NE(dependent, 0u);
  ASSERT_TRUE(mgr.install(dependent));
  ASSERT_TRUE(mgr.install(dep));
  mgr.evict(dep);
  EXPECT_FALSE(mgr.is_cached(dep));
  // A punt rule must have replaced it because `dependent` still needs it.
  EXPECT_GE(mgr.cover_count(), 1u);
  Rng prng(6);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(mgr.lookup_consistent(router_packet(prng)));
  }
}

TEST_P(CacheFlowModeTest, RandomSwapsStayConsistent) {
  Rng rng(7);
  const auto rules = generate_router(120, rng);
  FlowTable table{rules};
  CacheFlowManager mgr(table.rules(), build_min_dag(table), GetParam(), 64);

  std::vector<RuleId> all;
  for (const Rule& r : table.rules()) all.push_back(r.id);

  // Fill to ~70% with random rules.
  std::vector<RuleId> cached;
  while (mgr.tcam().occupied() < 44) {
    const RuleId pick = all[rng.next_below(all.size())];
    if (mgr.is_cached(pick)) continue;
    ASSERT_TRUE(mgr.install(pick));
    cached.push_back(pick);
  }

  for (int swap = 0; swap < 150; ++swap) {
    const size_t out_idx = rng.next_below(cached.size());
    const RuleId out = cached[out_idx];
    RuleId in = all[rng.next_below(all.size())];
    int guard = 0;
    while ((mgr.is_cached(in) || in == out) && guard++ < 200) {
      in = all[rng.next_below(all.size())];
    }
    if (mgr.is_cached(in) || in == out) continue;
    if (!mgr.swap(out, in)) {
      // Full TCAM (covers included): the manager rolled the install back;
      // restore the evicted rule and skip this swap, as a real cache would.
      ASSERT_TRUE(mgr.install(out));
      continue;
    }
    cached[out_idx] = in;

    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(mgr.lookup_consistent(router_packet(rng)))
          << "fast path returned a wrong decision after swap " << swap;
    }
  }
}

TEST_P(CacheFlowModeTest, RandomChurnStreamStaysConsistent) {
  // Mixed install/evict/swap/rebalance stream; after EVERY step the fast
  // path must still never contradict the full table, and the combined
  // two-level lookup (classify) must equal the full table's decision. The
  // stream runs into a full TCAM, and the manager's bookkeeping must match
  // the device through every failed install: each cached rule is in the
  // TCAM, and the TCAM holds exactly the cached rules and the covers.
  Rng rng(13);
  const auto rules = generate_router(150, rng);
  FlowTable table{rules};
  CacheFlowManager mgr(table.rules(), build_min_dag(table), GetParam(), 72);

  std::vector<RuleId> all;
  for (const Rule& r : table.rules()) all.push_back(r.id);
  mgr.warm(CacheFlowManager::AdmissionPolicy::kStaticDag, 50);

  auto audit = [&](int step) {
    for (int k = 0; k < 15; ++k) {
      // Random headers plus packets aimed at a specific rule's region, so
      // the audit exercises both covered and uncovered parts of the space.
      const Packet p = k % 2 == 0
                           ? router_packet(rng)
                           : switchsim::synth_packet(
                                 table.rules(),
                                 rng.next_below(table.size() * 7));
      ASSERT_TRUE(mgr.lookup_consistent(p)) << "step " << step;
      const Rule* truth = table.lookup(p);
      const auto out = mgr.classify(p);
      ASSERT_EQ(truth == nullptr, out.rule == nullptr) << "step " << step;
      if (truth != nullptr) {
        ASSERT_EQ(truth->id, out.rule->id) << "step " << step;
      }
    }
    ASSERT_LE(mgr.tcam().occupied(), mgr.tcam().capacity());
    ASSERT_EQ(mgr.tcam().occupied(), mgr.cached_count() + mgr.cover_count())
        << "step " << step;
    for (const RuleId id : mgr.cached_rules()) {
      ASSERT_TRUE(mgr.tcam().contains(id)) << "step " << step << " rule " << id;
    }
  };

  size_t failed_installs = 0;
  for (int step = 0; step < 200; ++step) {
    switch (rng.next_below(4)) {
      case 0: {  // install a random uncached rule (may fail when full)
        const RuleId pick = all[rng.next_below(all.size())];
        if (!mgr.is_cached(pick)) failed_installs += !mgr.install(pick);
        break;
      }
      case 1: {  // evict a random cached rule
        const auto cached = mgr.cached_rules();
        if (!cached.empty()) mgr.evict(cached[rng.next_below(cached.size())]);
        break;
      }
      case 2: {  // swap
        const auto cached = mgr.cached_rules();
        const RuleId in = all[rng.next_below(all.size())];
        if (!cached.empty() && !mgr.is_cached(in)) {
          const RuleId out = cached[rng.next_below(cached.size())];
          if (!mgr.swap(out, in)) {
            ++failed_installs;
            mgr.install(out);
          }
        }
        break;
      }
      default: {  // traffic burst + flow-driven rebalance
        for (int b = 0; b < 8; ++b) {
          mgr.add_hits(all[rng.next_below(all.size())],
                       1 + rng.next_below(64));
        }
        mgr.rebalance(CacheFlowManager::AdmissionPolicy::kFlowDriven, 4);
        if (step % 3 == 0) mgr.age_hits();
        break;
      }
    }
    audit(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(failed_installs, 0u);  // the full-TCAM path ran
}

// --- keyed top-k planner against the full stable sort --------------------

bool density_greater(uint64_t ha, size_t ca, uint64_t hb, size_t cb) {
  return static_cast<unsigned __int128>(ha) * cb >
         static_cast<unsigned __int128>(hb) * ca;
}

/// The planner as a full stable sort whose comparator re-derives hits and
/// install cost on every comparison: the reference for plan_swaps.
std::vector<CacheFlowManager::SwapPlan> reference_plan(const CacheFlowManager& mgr,
                                                       size_t max_swaps) {
  std::vector<RuleId> in_rules, out_rules;
  for (RuleId id : mgr.rule_order()) {
    if (mgr.is_cached(id)) {
      out_rules.push_back(id);
    } else if (mgr.hits(id) > 0) {
      in_rules.push_back(id);
    }
  }
  auto denser = [&mgr](RuleId a, RuleId b) {
    return density_greater(mgr.hits(a), mgr.install_cost(a), mgr.hits(b),
                           mgr.install_cost(b));
  };
  std::stable_sort(in_rules.begin(), in_rules.end(), denser);
  std::stable_sort(out_rules.begin(), out_rules.end(),
                   [&denser](RuleId a, RuleId b) { return denser(b, a); });
  std::vector<CacheFlowManager::SwapPlan> plan;
  const size_t pairs = std::min({max_swaps, in_rules.size(), out_rules.size()});
  for (size_t i = 0; i < pairs && denser(in_rules[i], out_rules[i]); ++i) {
    plan.push_back({out_rules[i], in_rules[i]});
  }
  return plan;
}

/// warm() as a full stable sort of every uncached rule, then the same
/// install loop: the reference for warm's keyed sort.
size_t reference_warm(CacheFlowManager& mgr, const dag::DependencyGraph& graph,
                      Policy policy, size_t target) {
  std::vector<RuleId> candidates;
  for (RuleId id : mgr.rule_order()) {
    if (!mgr.is_cached(id)) candidates.push_back(id);
  }
  if (policy == Policy::kStaticDag) {
    std::stable_sort(candidates.begin(), candidates.end(), [&](RuleId a, RuleId b) {
      return graph.successors(a).size() < graph.successors(b).size();
    });
  } else {
    std::stable_sort(candidates.begin(), candidates.end(), [&](RuleId a, RuleId b) {
      return density_greater(mgr.hits(a), mgr.install_cost(a), mgr.hits(b),
                             mgr.install_cost(b));
    });
  }
  size_t installed = 0;
  for (RuleId id : candidates) {
    if (mgr.tcam().occupied() >= target) break;
    if (mgr.tcam().occupied() + mgr.install_cost(id) > mgr.tcam().capacity()) continue;
    if (mgr.install(id)) ++installed;
  }
  return installed;
}

bool same_plan(const std::vector<CacheFlowManager::SwapPlan>& a,
               const std::vector<CacheFlowManager::SwapPlan>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].out != b[i].out || a[i].in != b[i].in) return false;
  }
  return true;
}

/// TCAM layout with covers canonicalized to their targets (cover ids come
/// from the process-wide counter and differ between managers).
std::vector<std::pair<RuleId, bool>> canonical_layout(const CacheFlowManager& mgr) {
  std::vector<std::pair<RuleId, bool>> out;
  for (size_t addr = 0; addr < mgr.tcam().capacity(); ++addr) {
    const auto id = mgr.tcam().at(addr);
    if (!id) {
      out.emplace_back(flowspace::kInvalidRuleId, false);
      continue;
    }
    const RuleId target = mgr.cover_target(*id);
    out.emplace_back(target != flowspace::kInvalidRuleId ? target : *id,
                     target != flowspace::kInvalidRuleId);
  }
  return out;
}

/// Hit counts from a tiny alphabet, so equal densities (ties) are common
/// and many rules stay at zero hits.
void add_tied_hits(CacheFlowManager& mgr, Rng& rng) {
  static constexpr uint64_t kAlphabet[] = {0, 0, 0, 1, 2, 2, 4, 6};
  for (RuleId id : mgr.rule_order()) mgr.add_hits(id, kAlphabet[rng.next_below(8)]);
}

TEST_P(CacheFlowModeTest, TopKPlanEqualsFullStableSort) {
  Rng gen(21);
  FlowTable table{generate_router(400, gen)};
  const auto graph = build_min_dag(table);
  CacheFlowManager mgr(table.rules(), graph, GetParam(), 96);
  mgr.warm(Policy::kStaticDag, 80);
  Rng rng(22);
  size_t nonempty = 0;
  for (int round = 0; round < 30; ++round) {
    add_tied_hits(mgr, rng);
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{16}, size_t{1000}}) {
      ASSERT_TRUE(same_plan(mgr.plan_swaps(k), reference_plan(mgr, k)))
          << "round " << round << " k " << k;
    }
    nonempty += !mgr.plan_swaps(8).empty();
    mgr.rebalance(Policy::kFlowDriven, 8);  // move the state on
    if (round % 4 == 3) mgr.age_hits();
  }
  EXPECT_GT(nonempty, 10u);

  // The planner keeps a bounded heap of the k densest candidates and skips
  // any whose hits alone (density at cost 1) cannot beat the k-th; the
  // shapes below aim at that bound. Each starts from a fresh warmed cache,
  // so every victim sits at 0 hits and the whole selected prefix reaches
  // the plan.
  auto fresh = [&] {
    auto m = std::make_unique<CacheFlowManager>(table.rules(), graph, GetParam(), 96);
    m->warm(Policy::kStaticDag, 80);
    return m;
  };
  auto expect_reference = [](const CacheFlowManager& m, const std::vector<size_t>& ks,
                             const char* shape) {
    for (size_t k : ks) {
      ASSERT_TRUE(same_plan(m.plan_swaps(k), reference_plan(m, k)))
          << shape << " k " << k;
    }
  };

  {  // Zipf-skewed traffic: a few heavy rules, most candidates at 1-2 hits.
    auto m = fresh();
    std::vector<size_t> rank_to_pos(table.size());
    for (size_t i = 0; i < rank_to_pos.size(); ++i) rank_to_pos[i] = i;
    Rng zrng(23);
    zrng.shuffle(rank_to_pos);
    const util::ZipfSampler zipf(table.size(), 1.1);
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 300; ++i) m->add_hits_at(rank_to_pos[zipf.sample(zrng)], 1);
      size_t candidates = 0, light = 0;
      for (RuleId id : m->rule_order()) {
        if (m->is_cached(id) || m->hits(id) == 0) continue;
        ++candidates;
        light += m->hits(id) <= 2;
      }
      EXPECT_GT(2 * light, candidates) << "round " << round;
      expect_reference(*m, {1, 3, 16, 64, 1000}, "zipf");
      m->rebalance(Policy::kFlowDriven, 8);
      m->age_hits();
    }
  }

  {  // Exact density ties at the k-th place. Ties (hits = 6 x cost) at low
     // positions fill the heap first; denser rules (9 x cost) at middle
     // positions then push the k-th place into the ties; more ties at high
     // positions must rank below every equal-density tie seen before them.
     // A cost-1 tie meets the pruning bound exactly.
    auto m = fresh();
    size_t index = 0, ties = 0, denser_count = 0;
    for (RuleId id : m->rule_order()) {
      if (m->is_cached(id)) continue;
      const size_t i = index++;
      const size_t cost = m->install_cost(id);
      if ((i < 60 && i % 3 == 0) || (i >= 120 && i < 180 && i % 6 == 3)) {
        m->add_hits(id, 6 * cost);
        ++ties;
      } else if (i >= 60 && i < 120 && i % 6 == 0) {
        m->add_hits(id, 9 * cost);
        ++denser_count;
      }
    }
    ASSERT_EQ(ties, 30u);
    ASSERT_EQ(denser_count, 10u);
    expect_reference(*m, {1, 5, 9, 10, 11, 15, 20, 25, 30, 39, 40, 41, 1000}, "ties");
    EXPECT_EQ(m->plan_swaps(1000).size(), std::min<size_t>(m->cached_count(), 40));
  }

  {  // k at or above the number of candidates.
    auto m = fresh();
    size_t candidates = 0;
    for (RuleId id : m->rule_order()) {
      if (m->is_cached(id) || candidates == 3) continue;
      m->add_hits(id, 5 + candidates++);
    }
    expect_reference(*m, {2, 3, 4, 16, 1000}, "few candidates");
    EXPECT_EQ(m->plan_swaps(1000).size(), 3u);
  }
}

TEST_P(CacheFlowModeTest, KeyedWarmEqualsFullStableSort) {
  Rng gen(31);
  FlowTable table{generate_router(300, gen)};
  const auto graph = build_min_dag(table);
  for (Policy policy : {Policy::kStaticDag, Policy::kFlowDriven}) {
    for (uint64_t seed : {1u, 2u}) {
      CacheFlowManager fast(table.rules(), graph, GetParam(), 128);
      CacheFlowManager ref(table.rules(), graph, GetParam(), 128);
      Rng ra(seed), rb(seed);
      add_tied_hits(fast, ra);
      add_tied_hits(ref, rb);
      // Warm in two steps: the second starts from a partly filled cache.
      for (size_t target : {size_t{40}, size_t{110}}) {
        const size_t got = fast.warm(policy, target);
        const size_t want = reference_warm(ref, graph, policy, target);
        ASSERT_EQ(got, want) << "target " << target;
        ASSERT_EQ(fast.cached_rules(), ref.cached_rules()) << "target " << target;
        ASSERT_EQ(canonical_layout(fast), canonical_layout(ref)) << "target " << target;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothFirmwares, CacheFlowModeTest,
                         ::testing::Values(CacheFlowManager::Mode::kDagFirmware,
                                           CacheFlowManager::Mode::kPriorityFirmware),
                         [](const auto& info) {
                           return info.param == CacheFlowManager::Mode::kDagFirmware
                                      ? "dag"
                                      : "priority";
                         });

TEST(CacheFlow, DagModeIsCheaperThanPriorityModeOnSwaps) {
  // The headline of Fig. 11, as a coarse invariant: total TCAM writes for
  // the same swap sequence must be lower with the DAG firmware.
  Rng gen(11);
  const auto rules = generate_router(200, gen);
  FlowTable table{rules};
  const auto graph = build_min_dag(table);

  size_t writes[2] = {0, 0};
  int mode_idx = 0;
  for (auto mode : {CacheFlowManager::Mode::kDagFirmware,
                    CacheFlowManager::Mode::kPriorityFirmware}) {
    CacheFlowManager mgr(table.rules(), graph, mode, 64);
    Rng rng(12);  // identical sequence for both modes
    std::vector<RuleId> all;
    for (const Rule& r : table.rules()) all.push_back(r.id);
    std::vector<RuleId> cached;
    while (mgr.tcam().occupied() < 52) {  // ~0.8 load
      const RuleId pick = all[rng.next_below(all.size())];
      if (mgr.is_cached(pick)) continue;
      ASSERT_TRUE(mgr.install(pick));
      cached.push_back(pick);
    }
    const size_t baseline_writes = mgr.tcam().stats().entry_writes;
    for (int swap = 0; swap < 100; ++swap) {
      const size_t out_idx = rng.next_below(cached.size());
      RuleId in = all[rng.next_below(all.size())];
      int guard = 0;
      while ((mgr.is_cached(in) || in == cached[out_idx]) && guard++ < 300) {
        in = all[rng.next_below(all.size())];
      }
      if (mgr.is_cached(in)) continue;
      if (!mgr.swap(cached[out_idx], in)) {
        ASSERT_TRUE(mgr.install(cached[out_idx]));
        continue;
      }
      cached[out_idx] = in;
    }
    writes[mode_idx++] = mgr.tcam().stats().entry_writes - baseline_writes;
  }
  EXPECT_LT(writes[0], writes[1])
      << "DAG-guided swaps must use fewer entry writes than priority-based";
}

TEST(CacheFlow, DagFirmwareSwapsNeverRebuildTheCapIndex) {
  // Every firmware insert a swap makes (the rule, its covers, a demotion)
  // goes through the scheduler's update path, whose primitives keep the
  // cap cells exact — the scheduler has no rebuild to fall back on: after
  // warm plus 20 flow-driven rebalance epochs the live cells equal a
  // CapIndex rebuilt from scratch.
  Rng gen(17);
  const FlowTable fib{generate_router(600, gen)};
  CacheFlowManager mgr(fib.rules(), build_min_dag(fib),
                       CacheFlowManager::Mode::kDagFirmware, 96);
  switchsim::TrafficConfig cfg;
  cfg.flows = 20000;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.02;
  cfg.packets_per_epoch = 4000;
  cfg.epochs = 20;
  cfg.seed = 5;
  cfg.policy = Policy::kFlowDriven;
  cfg.rebalance_swaps = 32;
  switchsim::TrafficEngine engine(mgr, fib.rules(), cfg);
  const switchsim::TrafficReport report = engine.run();
  EXPECT_GT(report.swaps, 20u);
  EXPECT_EQ(report.consistency_violations, 0u);
  ASSERT_NE(mgr.dag_firmware(), nullptr);
  EXPECT_TRUE(testutil::caps_exact(*mgr.dag_firmware(), mgr.tcam()));
}

TEST(CacheFlow, RebalanceFallbacksAreCounted) {
  // Capacity 3 holds A, D (depends on A) and B. The plan swaps A out for C
  // and B out for E (E needs a cover for F). Evicting A demotes it to a
  // cover (D still depends on it), so C does not fit and neither does A's
  // own restore; E then fails on its cover. Two failures in a row end the
  // plan early.
  auto route = [](uint32_t net, uint32_t len, int32_t priority) {
    flowspace::TernaryMatch m;
    m.set_prefix(FieldId::kDstIp, net << 24, len);
    return Rule::make(m, flowspace::ActionList{flowspace::Action::forward(1)},
                      priority);
  };
  const Rule a = route(10, 24, 20), f = route(11, 24, 20);
  const Rule d = route(10, 16, 10), e = route(11, 16, 10);
  const Rule b = route(12, 16, 10), c = route(13, 16, 10);
  dag::DependencyGraph graph;
  for (const Rule* r : {&a, &f, &d, &e, &b, &c}) graph.add_vertex(r->id);
  graph.add_edge(d.id, a.id);
  graph.add_edge(e.id, f.id);
  CacheFlowManager mgr({a, f, d, e, b, c}, graph, CacheFlowManager::Mode::kDagFirmware, 3);
  ASSERT_TRUE(mgr.install(d.id));
  ASSERT_TRUE(mgr.install(a.id));
  ASSERT_TRUE(mgr.install(b.id));
  ASSERT_EQ(mgr.tcam().occupied(), 3u);
  mgr.add_hits(d.id, 1000);
  mgr.add_hits(b.id, 10);
  mgr.add_hits(c.id, 1000);
  mgr.add_hits(e.id, 100);

  const auto plan = mgr.plan_swaps(4);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].out, a.id);
  EXPECT_EQ(plan[0].in, c.id);
  EXPECT_EQ(plan[1].out, b.id);
  EXPECT_EQ(plan[1].in, e.id);

  EXPECT_EQ(mgr.rebalance(Policy::kFlowDriven, 4), 0u);
  EXPECT_EQ(mgr.stats().failed_swaps, 2u);
  EXPECT_EQ(mgr.stats().early_stops, 1u);
  EXPECT_EQ(mgr.stats().restore_failures, 1u);
  // A left the cache and survives only as D's cover; B was restored.
  EXPECT_FALSE(mgr.is_cached(a.id));
  EXPECT_TRUE(mgr.is_cached(b.id));
  EXPECT_TRUE(mgr.is_cached(d.id));
  EXPECT_EQ(mgr.cover_count(), 1u);
}

TEST(CacheFlow, SparseRuleIdsMapToPositions) {
  // Ids far apart: positions, hit credit and installs work for any id set.
  Rng gen(5);
  FlowTable table{generate_router(40, gen)};
  std::vector<Rule> rules = table.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    rules[i].id = (RuleId{1} << 40) * (i + 1) + 7;
  }
  FlowTable sparse{rules};
  CacheFlowManager mgr(sparse.rules(), build_min_dag(sparse),
                       CacheFlowManager::Mode::kDagFirmware, 16);
  for (size_t i = 0; i < sparse.rules().size(); ++i) {
    ASSERT_EQ(mgr.position_of(sparse.rules()[i].id), i);
  }
  EXPECT_EQ(mgr.position_of(12345), CacheFlowManager::kNoPosition);
  EXPECT_EQ(mgr.hits(12345), 0u);
  EXPECT_THROW(mgr.add_hits(12345, 1), std::out_of_range);
  const RuleId hot = sparse.rules()[7].id;
  mgr.add_hits(hot, 50);
  EXPECT_EQ(mgr.hits(hot), 50u);
  mgr.warm(Policy::kFlowDriven, 12);
  EXPECT_TRUE(mgr.is_cached(hot));
}

}  // namespace
}  // namespace ruletris
