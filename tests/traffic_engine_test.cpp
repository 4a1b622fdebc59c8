// Traffic plane: Zipf/flow generator determinism, tuple-space slow-path
// equivalence with the linear full table, and flow-driven (FDRC) admission
// behaviour of the CacheFlow manager under the engine.
#include <gtest/gtest.h>

#include <thread>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "switchsim/traffic_engine.h"
#include "tcam/soft_table.h"
#include "util/flow_stream.h"
#include "util/zipf.h"

namespace ruletris {
namespace {

using classbench::generate_monitor;
using classbench::generate_router;
using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;
using switchsim::TrafficConfig;
using switchsim::TrafficEngine;
using switchsim::TrafficReport;
using tcam::CacheFlowManager;
using tcam::SoftTable;
using util::FlowStream;
using util::Rng;
using util::ZipfSampler;

TEST(Zipf, RanksAreInUniverseAndSkewed) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(42);
  std::vector<size_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  // Heavy head: rank 0 must dominate a deep-tail rank by a wide margin.
  EXPECT_GT(counts[0], 20u * std::max<size_t>(1, counts[900]));
  // And the head ranks outdraw uniform (20 per rank) many times over.
  EXPECT_GT(counts[0], 400u);
}

TEST(Zipf, AlphaZeroIsRoughlyUniform) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(7);
  std::vector<size_t> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_GT(counts[r], 250u) << "rank " << r;  // expected 500 each
    EXPECT_LT(counts[r], 1000u) << "rank " << r;
  }
}

TEST(FlowStream, SameSeedSameStreamAcrossInstancesAndChurn) {
  FlowStream a(0x5eed, 5000, 1.1);
  FlowStream b(0x5eed, 5000, 1.1);
  for (uint64_t e = 0; e < 3; ++e) {
    for (uint64_t i = 0; i < 2000; ++i) {
      const auto ea = a.at(e, i);
      const auto eb = b.at(e, i);
      ASSERT_EQ(ea.rank, eb.rank) << "epoch " << e << " index " << i;
      ASSERT_EQ(ea.flow_id, eb.flow_id);
    }
    ASSERT_EQ(a.churn(e, 50), b.churn(e, 50));
  }
}

TEST(FlowStream, ArrivalsAreIndexAddressableNotSequential) {
  // Counter-based generation: reading indexes out of order (as parallel
  // shards do) yields exactly the in-order stream.
  FlowStream fwd(9, 1000, 1.0);
  FlowStream rev(9, 1000, 1.0);
  std::vector<FlowStream::Event> in_order, reversed(500);
  for (uint64_t i = 0; i < 500; ++i) in_order.push_back(fwd.at(0, i));
  for (uint64_t i = 500; i-- > 0;) reversed[i] = rev.at(0, i);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(in_order[i].rank, reversed[i].rank);
    ASSERT_EQ(in_order[i].flow_id, reversed[i].flow_id);
  }
}

TEST(FlowStream, DistinctSeedsDistinctStreams) {
  FlowStream a(1, 5000, 1.1);
  FlowStream b(2, 5000, 1.1);
  size_t differing = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    if (a.at(0, i).flow_id != b.at(0, i).flow_id) ++differing;
  }
  EXPECT_GT(differing, 450u);  // essentially everywhere
}

TEST(FlowStream, ChurnRemapsIdentityButKeepsRankPopularity) {
  FlowStream s(11, 100, 1.0);
  const uint64_t before = s.flow_id(3);
  // Remap until slot 3 turns over (uniform churn: a few rounds suffice).
  for (uint64_t e = 0; e < 50 && s.flow_id(3) == before; ++e) s.churn(e, 100);
  EXPECT_NE(s.flow_id(3), before);
}

// --- tuple-space slow path ------------------------------------------------

TEST(SoftTable, MatchesLinearScanUnderChurn) {
  Rng rng(21);
  auto rules = generate_monitor(300, rng);  // shared priority bands: real ties
  FlowTable table{rules};
  SoftTable soft(table.rules());
  ASSERT_EQ(soft.size(), table.size());
  ASSERT_LT(soft.tuple_count(), 60u);

  auto check = [&](const char* when) {
    for (int i = 0; i < 400; ++i) {
      const Packet p = switchsim::synth_packet(
          table.rules(), util::hash_pair(97, static_cast<uint64_t>(i)));
      const Rule* lin = table.lookup(p);
      const Rule* tss = soft.lookup(p);
      ASSERT_EQ(lin == nullptr, tss == nullptr) << when;
      if (lin != nullptr) {
        ASSERT_EQ(lin->id, tss->id) << when;
      }
    }
  };
  check("after build");

  // Churn: delete a third, insert fresh rules, re-check equivalence.
  std::vector<RuleId> ids;
  for (const Rule& r : table.rules()) ids.push_back(r.id);
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(table.erase(ids[i]).has_value());
    ASSERT_TRUE(soft.erase(ids[i]));
  }
  check("after erases");
  for (int i = 0; i < 80; ++i) {
    Rule fresh = classbench::random_monitor_rule(300, rng);
    table.insert(fresh);
    soft.insert(fresh);
  }
  check("after inserts");
  ASSERT_EQ(soft.size(), table.size());
}

TEST(SoftTable, IdenticalMatchesSharedBucketTieBreak) {
  // Two rules with the same match: higher priority wins; at equal priority
  // the earlier insert wins (FlowTable's stable order).
  flowspace::TernaryMatch m;
  m.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000, 8);
  const Rule low = Rule::make(m, {flowspace::Action::forward(1)}, 5);
  const Rule high = Rule::make(m, {flowspace::Action::forward(2)}, 9);
  const Rule tie = Rule::make(m, {flowspace::Action::forward(3)}, 9);

  SoftTable soft;
  soft.insert(low);
  soft.insert(high);
  soft.insert(tie);
  Packet p = m.sample_packet();
  ASSERT_NE(soft.lookup(p), nullptr);
  EXPECT_EQ(soft.lookup(p)->id, high.id);  // 9 beats 5; first 9 beats second
  ASSERT_TRUE(soft.erase(high.id));
  EXPECT_EQ(soft.lookup(p)->id, tie.id);
  ASSERT_TRUE(soft.erase(tie.id));
  EXPECT_EQ(soft.lookup(p)->id, low.id);
}

// --- engine determinism and admission ------------------------------------

TrafficReport engine_run(const FlowTable& fib, const dag::DependencyGraph& graph,
                         CacheFlowManager::AdmissionPolicy policy,
                         size_t threads, uint64_t seed) {
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       64);
  TrafficConfig cfg;
  cfg.flows = 5000;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.01;
  cfg.packets_per_epoch = 4000;
  cfg.epochs = 3;
  cfg.seed = seed;
  cfg.n_threads = threads;
  cfg.policy = policy;
  cfg.rebalance_swaps = 24;
  TrafficEngine engine(mgr, fib.rules(), cfg);
  return engine.run();
}

TEST(TrafficEngine, BitIdenticalAcrossRunsAndThreadCounts) {
  Rng rng(33);
  const FlowTable fib{generate_router(150, rng)};
  const auto graph = build_min_dag(fib);
  const auto fdrc = CacheFlowManager::AdmissionPolicy::kFlowDriven;

  const TrafficReport serial = engine_run(fib, graph, fdrc, 1, 77);
  const TrafficReport pooled = engine_run(fib, graph, fdrc, 4, 77);
  const TrafficReport rerun = engine_run(fib, graph, fdrc, 4, 77);

  EXPECT_EQ(serial.fast_hits, pooled.fast_hits);
  EXPECT_EQ(serial.hit_checksum, pooled.hit_checksum);
  EXPECT_EQ(serial.layout_checksum, pooled.layout_checksum);
  EXPECT_EQ(pooled.hit_checksum, rerun.hit_checksum);
  EXPECT_EQ(pooled.layout_checksum, rerun.layout_checksum);
  EXPECT_EQ(serial.swaps, pooled.swaps);
  EXPECT_EQ(serial.failed_swaps, pooled.failed_swaps);
  EXPECT_EQ(serial.rebalance_early_stops, pooled.rebalance_early_stops);
  EXPECT_EQ(serial.restore_failures, pooled.restore_failures);
  EXPECT_EQ(serial.consistency_violations, 0u);
  EXPECT_EQ(pooled.consistency_violations, 0u);

  const TrafficReport other_seed = engine_run(fib, graph, fdrc, 1, 78);
  EXPECT_NE(serial.hit_checksum, other_seed.hit_checksum);
}

TEST(TrafficEngine, FlowDrivenAdmissionLearnsTheHotSet) {
  Rng rng(44);
  const FlowTable fib{generate_router(200, rng)};
  const auto graph = build_min_dag(fib);

  const TrafficReport stat = engine_run(
      fib, graph, CacheFlowManager::AdmissionPolicy::kStaticDag, 1, 9);
  const TrafficReport flow = engine_run(
      fib, graph, CacheFlowManager::AdmissionPolicy::kFlowDriven, 1, 9);
  EXPECT_EQ(stat.swaps, 0u);  // static never adapts
  EXPECT_GT(flow.swaps, 0u);
  // Steady state (last epoch) must clearly beat the traffic-blind layout.
  EXPECT_GT(flow.epochs.back().hit_rate(), stat.epochs.back().hit_rate());
  EXPECT_EQ(flow.consistency_violations, 0u);
  EXPECT_EQ(stat.consistency_violations, 0u);
}

TEST(CacheFlowFdrc, InstallCostCountsUncoveredDependencies) {
  Rng rng(55);
  const FlowTable fib{generate_router(80, rng)};
  const auto graph = build_min_dag(fib);
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       64);

  RuleId dependent = 0;
  for (const Rule& r : fib.rules()) {
    if (!graph.successors(r.id).empty()) {
      dependent = r.id;
      break;
    }
  }
  ASSERT_NE(dependent, 0u);
  const size_t deps = graph.successors(dependent).size();
  EXPECT_EQ(mgr.install_cost(dependent), 1 + deps);
  // Caching every dependency drops the marginal cost to a single entry.
  for (RuleId dep : graph.successors(dependent)) ASSERT_TRUE(mgr.install(dep));
  EXPECT_EQ(mgr.install_cost(dependent), 1u);
}

TEST(CacheFlowFdrc, RebalanceAdmitsTheMeasuredHotRule) {
  Rng rng(66);
  const FlowTable fib{generate_router(80, rng)};
  const auto graph = build_min_dag(fib);
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       48);
  mgr.warm(CacheFlowManager::AdmissionPolicy::kStaticDag, 32);

  // Manufacture traffic: one uncached rule gets all the hits.
  RuleId hot = 0;
  for (const Rule& r : fib.rules()) {
    if (!mgr.is_cached(r.id)) {
      hot = r.id;
      break;
    }
  }
  ASSERT_NE(hot, 0u);
  mgr.add_hits(hot, 1000);

  const auto plan = mgr.plan_swaps(4);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front().in, hot);
  EXPECT_GT(mgr.rebalance(CacheFlowManager::AdmissionPolicy::kFlowDriven, 4), 0u);
  EXPECT_TRUE(mgr.is_cached(hot));
}

TEST(CacheFlowConcurrency, FourReadersMatchSerialClassify) {
  // The read path (packed TCAM scan + tuple-space fallback) is const: four
  // threads classifying against one frozen cache must each reproduce the
  // serial answers exactly. Under the TSAN tree this also proves the path
  // race-free.
  Rng rng(88);
  const FlowTable fib{generate_router(2000, rng)};
  const auto graph = build_min_dag(fib);
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware, 256);
  for (const Rule& r : fib.rules()) mgr.add_hits(r.id, rng.next_below(5));
  mgr.warm(CacheFlowManager::AdmissionPolicy::kFlowDriven, 180);
  // Cache some dependent rules too, so cover punts are on the read path.
  for (const Rule& r : fib.rules()) {
    if (mgr.cover_count() >= 8) break;
    if (!graph.successors(r.id).empty()) mgr.install(r.id);
  }
  ASSERT_GT(mgr.cover_count(), 0u);

  std::vector<Packet> packets;
  for (uint64_t i = 0; i < 6000; ++i) {
    packets.push_back(switchsim::synth_packet(fib.rules(), util::hash_pair(i, 0xc0)));
  }
  using Answer = std::pair<RuleId, bool>;
  auto classify_all = [&mgr, &packets] {
    std::vector<Answer> out;
    out.reserve(packets.size());
    for (const Packet& p : packets) {
      const auto o = mgr.classify(p);
      out.emplace_back(o.rule == nullptr ? flowspace::kInvalidRuleId : o.rule->id,
                       o.fast_path);
    }
    return out;
  };
  const std::vector<Answer> serial = classify_all();
  size_t fast = 0;
  for (const Answer& a : serial) fast += a.second;
  ASSERT_GT(fast, 0u);
  ASSERT_LT(fast, serial.size());

  std::vector<std::vector<Answer>> parallel(4);
  std::vector<std::thread> readers;
  for (auto& slot : parallel) {
    readers.emplace_back([&slot, &classify_all] { slot = classify_all(); });
  }
  for (auto& t : readers) t.join();
  for (size_t t = 0; t < parallel.size(); ++t) {
    EXPECT_EQ(parallel[t], serial) << "reader " << t;
  }
}

}  // namespace
}  // namespace ruletris
