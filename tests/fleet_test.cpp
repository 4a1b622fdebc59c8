// Sharded compile pipeline + fleet runtime tests: ShardPlan partition
// soundness (sharded union == unsharded snapshot), lock-free publication,
// the pipelined session path against the classic vector-log path, bursty
// workload determinism, whole-fleet bit-identity across thread counts, and
// the compiled fleet against the same tasks replayed as pre-compiled logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/ruletris_compiler.h"
#include "compiler/shard_plan.h"
#include "frozen/publish.h"
#include "runtime/controller.h"
#include "runtime/session.h"
#include "runtime/sharded_controller.h"
#include "runtime/workload.h"
#include "test_util.h"

namespace ruletris {
namespace {

using compiler::CompileSnapshot;
using compiler::PolicySpec;
using compiler::ShardPlan;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;
using testutil::Rng;

runtime::FleetReport run_compiled(const runtime::FleetSpec& spec) {
  return runtime::Controller(spec).run_compiled(spec);
}

/// Rules whose dst prefixes are at least as deep as the plan's bucket, so
/// the prefix partition is closed (no cross-shard overlap is possible).
std::vector<Rule> bucketed_rules(size_t n, uint64_t seed, size_t n_buckets) {
  Rng rng(seed);
  std::vector<Rule> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TernaryMatch m;
    const uint32_t bucket = static_cast<uint32_t>(rng.next_below(n_buckets));
    const uint32_t len = 8 + static_cast<uint32_t>(rng.next_below(9));
    m.set_prefix(FieldId::kDstIp, (bucket << 24) | (rng.next_u32() >> 8), len);
    if (rng.next_bool(0.5)) {
      m.set_prefix(FieldId::kSrcIp, rng.next_u32(),
                   4 + static_cast<uint32_t>(rng.next_below(8)));
    }
    out.push_back(Rule::make(m, testutil::random_actions(rng),
                             static_cast<int32_t>(100 + rng.next_below(50))));
  }
  return out;
}

TEST(ShardPlanTest, SplitPreservesEveryRuleAndRoutesDeterministically) {
  const ShardPlan plan = ShardPlan::make(4);
  std::map<std::string, FlowTable> tables;
  tables.emplace("t", FlowTable{bucketed_rules(80, 11, 16)});

  const auto parts = plan.split(tables);
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (size_t k = 0; k < parts.size(); ++k) {
    for (const Rule& r : parts[k].at("t").rules()) {
      EXPECT_EQ(plan.shard_of(r), k);
      ++total;
    }
  }
  EXPECT_EQ(total, 80u);
}

TEST(ShardPlanTest, CoarseRulesLandInCatchAllShardZero) {
  const ShardPlan plan = ShardPlan::make(4);
  TernaryMatch coarse;
  coarse.set_prefix(FieldId::kDstIp, 0x0a000000u, 4);  // /4 < bucket_bits
  EXPECT_TRUE(plan.catch_all(coarse));
  EXPECT_EQ(plan.shard_of(coarse), 0u);

  TernaryMatch wildcard;  // no dst constraint at all
  EXPECT_TRUE(plan.catch_all(wildcard));
  EXPECT_EQ(plan.shard_of(wildcard), 0u);
}

TEST(ShardPlanTest, BucketAlignedPartitionIsClosed) {
  const ShardPlan plan = ShardPlan::make(3);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{bucketed_rules(60, 21, 16)});
  tables.emplace("rtr", FlowTable{bucketed_rules(40, 22, 16)});
  EXPECT_EQ(ShardPlan::cross_shard_overlaps(plan.split(tables)), 0u);
}

TEST(ShardPlanTest, CoarseRulesBreakClosureAndAreDetected) {
  const ShardPlan plan = ShardPlan::make(3);
  std::vector<Rule> rules = bucketed_rules(40, 31, 16);
  // A near-wildcard monitor rule overlaps every bucket.
  Rng rng(1);
  TernaryMatch coarse;
  coarse.set_prefix(FieldId::kDstIp, 0, 0);
  rules.push_back(Rule::make(coarse, testutil::random_actions(rng), 10));
  std::map<std::string, FlowTable> tables;
  tables.emplace("t", FlowTable{std::move(rules)});
  EXPECT_GT(ShardPlan::cross_shard_overlaps(plan.split(tables)), 0u);
}

TEST(ShardPlanTest, ShardedCompileUnionEqualsUnshardedSnapshot) {
  // Same rule objects (same ids) compiled whole vs. per shard: because the
  // partition is closed, the union of per-shard snapshots must reproduce
  // the unsharded compile exactly — entries, reps and visible edges.
  const ShardPlan plan = ShardPlan::make(3);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{bucketed_rules(50, 41, 16)});
  tables.emplace("rtr", FlowTable{bucketed_rules(30, 42, 16)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));

  compiler::RuleTrisCompiler whole(spec, tables);
  const CompileSnapshot expected =
      dynamic_cast<const compiler::ComposedNode&>(whole.root()).snapshot();

  const auto parts = plan.split(tables);
  ASSERT_EQ(ShardPlan::cross_shard_overlaps(parts), 0u);
  std::vector<CompileSnapshot> shards;
  for (const auto& part : parts) {
    compiler::RuleTrisCompiler one(spec, part);
    shards.push_back(
        dynamic_cast<const compiler::ComposedNode&>(one.root()).snapshot());
  }
  EXPECT_EQ(compiler::merge_shard_snapshots(std::move(shards)), expected);
}

TEST(PublishRingTest, SealsInOrderAndReadsBack) {
  frozen::PublishRing<int> ring(3);
  EXPECT_EQ(ring.sealed(), 0u);
  EXPECT_FALSE(ring.closed());
  ring.publish(std::make_unique<int>(10));
  ring.publish(std::make_unique<int>(20));
  EXPECT_EQ(ring.sealed(), 2u);
  EXPECT_EQ(ring.get(1), 10);
  EXPECT_EQ(ring.get(2), 20);
  ring.publish(std::make_unique<int>(30));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_EQ(ring.sealed(), 3u);
  EXPECT_THROW(ring.publish(std::make_unique<int>(40)), std::runtime_error);
}

/// A PublishRing-backed source fed all epochs upfront must reproduce the
/// classic vector-log session exactly, fault machinery included.
TEST(PipelinedSessionTest, ClosedRingMatchesVectorLogUnderFaults) {
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{bucketed_rules(20, 51, 16)});
  tables.emplace("rtr", FlowTable{bucketed_rules(12, 52, 16)});
  runtime::ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = 30;
  churn.seed = 5;
  const runtime::CompiledWorkload workload =
      runtime::compile_churn_workload(spec, tables, churn);
  const auto log = runtime::encode_log(workload.epochs);

  runtime::SessionConfig sc;
  sc.knobs.window = 4;
  sc.seed = 77;
  sc.knobs.faults = runtime::FaultSpec::chaos();
  sc.tcam_capacity = workload.suggested_capacity();

  runtime::SwitchSession classic(sc, *log);
  const runtime::SessionStats want = classic.run(workload.final_rules);
  ASSERT_TRUE(want.converged);

  // Same epochs through a sealed ring, driven by pump_published. Constant
  // ready time 0 matches VectorEpochSource (the strictly-increasing
  // contract only carries the horizon rule, which a complete source never
  // exercises), so the virtual trajectories must coincide exactly.
  frozen::PublishRing<runtime::SealedEpoch> ring(log->size());
  for (size_t e = 0; e < log->size(); ++e) {
    auto rec = std::make_unique<runtime::SealedEpoch>();
    rec->wire = (*log)[e];
    rec->ready_vt_ms = 0.0;
    ring.publish(std::move(rec));
  }
  ring.close();

  class Source final : public runtime::EpochSource {
   public:
    explicit Source(const frozen::PublishRing<runtime::SealedEpoch>& r)
        : ring_(r) {}
    uint64_t available() const override { return ring_.sealed(); }
    bool complete() const override { return ring_.closed(); }
    const runtime::EncodedEpoch& at(uint64_t e) const override {
      return ring_.get(e).wire;
    }
    double ready_ms(uint64_t e) const override {
      return ring_.get(e).ready_vt_ms;
    }

   private:
    const frozen::PublishRing<runtime::SealedEpoch>& ring_;
  };
  Source source(ring);
  runtime::SwitchSession piped(sc, source);
  piped.start();
  while (!piped.done()) {
    ASSERT_TRUE(piped.pump_published() || piped.done());
  }
  const runtime::SessionStats got = piped.finalize(workload.final_rules);

  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.data_frames_sent, want.data_frames_sent);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.entry_writes, want.entry_writes);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_DOUBLE_EQ(got.makespan_ms, want.makespan_ms);
}

TEST(BurstyWorkloadTest, DeterministicAndOpAccounted) {
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{bucketed_rules(16, 61, 16)});
  tables.emplace("rtr", FlowTable{bucketed_rules(10, 62, 16)});
  runtime::ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = 20;
  churn.seed = 9;
  churn.burst.enabled = true;
  churn.burst.continue_p = 0.7;
  churn.burst.delete_burst_p = 0.3;

  // Pin both runs to one rule-id namespace: ids are allocated from a
  // process-global counter otherwise, so back-to-back runs would differ in
  // wire bytes even though the streams are structurally identical. (The
  // sharded controller pins every switch the same way.)
  const auto run = [&] {
    flowspace::RuleId ids = 1u << 20;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    return runtime::compile_churn_workload(spec, tables, churn);
  };
  const runtime::CompiledWorkload a = run();
  const runtime::CompiledWorkload b = run();

  ASSERT_EQ(a.epochs.size(), churn.updates + 1);
  ASSERT_EQ(a.epoch_ops.size(), a.epochs.size());
  size_t total = 0;
  bool any_multi = false;
  for (size_t e = 1; e < a.epoch_ops.size(); ++e) {
    EXPECT_GE(a.epoch_ops[e], 1u);
    any_multi = any_multi || a.epoch_ops[e] > 1;
    total += a.epoch_ops[e];
  }
  total += a.epoch_ops[0];
  EXPECT_EQ(total, a.rule_ops);
  EXPECT_TRUE(any_multi) << "geometric bursts never exceeded one op";

  EXPECT_EQ(a.rule_ops, b.rule_ops);
  EXPECT_EQ(a.final_rules.size(), b.final_rules.size());
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(proto::encode_batch(a.epochs[e]), proto::encode_batch(b.epochs[e]))
        << "epoch " << e + 1;
  }
}

TEST(BurstyWorkloadTest, InsertBurstsShareTheLocalityBlock) {
  // With delete bursts disabled, every churn epoch is an insert burst; all
  // rules of one burst must share the dst /locality_bits block.
  runtime::ChurnSpec churn;
  churn.updates = 6;
  churn.seed = 3;
  churn.burst.enabled = true;
  churn.burst.continue_p = 0.9;  // long bursts
  churn.burst.delete_burst_p = 0.0;
  churn.burst.locality_bits = 12;

  const PolicySpec spec = PolicySpec::leaf("mon");
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{bucketed_rules(4, 71, 16)});

  runtime::ChurnEngine engine(spec, tables, churn);
  (void)engine.step();  // initial install
  while (!engine.done()) {
    const size_t before = engine.frontend().leaf("mon").visible_size();
    const runtime::ChurnEngine::Step step = engine.step();
    const std::vector<Rule> rules = engine.frontend().leaf("mon").visible_rules_in_order();
    ASSERT_EQ(rules.size(), before + step.ops);
    // The freshest step.ops rules (highest ids) form the burst.
    std::vector<Rule> burst;
    for (const Rule& r : rules) burst.push_back(r);
    std::sort(burst.begin(), burst.end(),
              [](const Rule& x, const Rule& y) { return x.id < y.id; });
    burst.erase(burst.begin(), burst.end() - static_cast<long>(step.ops));
    const uint32_t top = 0xffffffffu << (32 - 12);
    const uint32_t block =
        burst.front().match.field(FieldId::kDstIp).value & top;
    for (const Rule& r : burst) {
      const auto& dst = r.match.field(FieldId::kDstIp);
      EXPECT_EQ(dst.value & top, block);
      EXPECT_EQ(dst.mask & top, top) << "prefix shallower than the block";
    }
  }
}

TEST(ShardedFleetTest, BitIdenticalAcrossThreadCountsAndReplayClean) {
  runtime::FleetSpec spec;
  spec.n_switches = 6;
  spec.n_shards = 3;
  spec.updates_per_switch = 10;
  spec.seed = 12;
  // Every switch runs the differential oracle: each recorded delta blob
  // must byte-equal the diff of consecutive captures, and the blobs must
  // replay to the final capture (replay_ok), at every thread count.
  spec.audit_stride = 1;
  spec.tcam_capacity = 1024;

  runtime::FleetReport serial;
  {
    spec.n_threads = 1;
    serial = run_compiled(spec);
  }
  EXPECT_TRUE(serial.runtime.all_converged);
  EXPECT_TRUE(serial.replay_ok);
  EXPECT_EQ(serial.replay_audits, 6u);
  EXPECT_GT(serial.rule_ops, 0u);
  EXPECT_GT(serial.updates_per_s(), 0.0);

  // Oversubscribed relative to this machine: widens the interleaving space
  // the determinism machinery must be immune to.
  for (const size_t threads : {2u, 5u}) {
    spec.n_threads = threads;
    const runtime::FleetReport parallel = run_compiled(spec);
    EXPECT_EQ(parallel.fleet_fingerprint, serial.fleet_fingerprint)
        << threads << " threads";
    EXPECT_EQ(parallel.delta_fingerprint, serial.delta_fingerprint)
        << threads << " threads";
    EXPECT_EQ(parallel.rule_ops, serial.rule_ops);
    EXPECT_DOUBLE_EQ(parallel.makespan_ms, serial.makespan_ms);
    EXPECT_DOUBLE_EQ(parallel.compile_vt_ms, serial.compile_vt_ms);
    EXPECT_TRUE(parallel.runtime.all_converged);
    EXPECT_TRUE(parallel.replay_ok);
  }
}

TEST(ShardedFleetTest, SurvivesFaultyWiresDeterministically) {
  runtime::FleetSpec spec;
  spec.n_switches = 4;
  spec.n_shards = 2;
  spec.updates_per_switch = 8;
  spec.seed = 8;
  spec.knobs.faults = runtime::FaultSpec::chaos();
  spec.fault_seed = 3;
  spec.audit_stride = 2;
  spec.tcam_capacity = 1024;

  spec.n_threads = 1;
  const runtime::FleetReport a = run_compiled(spec);
  spec.n_threads = 3;
  const runtime::FleetReport b = run_compiled(spec);

  EXPECT_TRUE(a.runtime.all_converged);
  EXPECT_GT(a.runtime.retransmits + a.runtime.restarts, 0u)
      << "chaos mix exercised nothing";
  EXPECT_EQ(a.fleet_fingerprint, b.fleet_fingerprint);
  EXPECT_EQ(a.delta_fingerprint, b.delta_fingerprint);
  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(ShardedFleetTest, IdleAdopterIntegratesTwoKillsInKillTimeOrder) {
  // Shard 0 (the only survivor) owns one short stream and goes idle long
  // before either kill; shards 1 and 2 die mid-stream at nearby times. With
  // both kills resolved before the idle adopter looks, it must still adopt
  // the second kill's orphan only once its clock reaches that kill time,
  // exactly as when the second kill resolves later: the report is then the
  // same for every thread count.
  runtime::FleetSpec spec;
  spec.n_switches = 3;
  spec.n_shards = 3;
  spec.seed = 44;
  spec.audit_stride = 1;
  spec.tcam_capacity = 1024;
  spec.failover_replay_factor = 0.0;  // adoption leaves the clock at the floor
  spec.make_task = [](size_t sw) {
    runtime::SwitchTask task;
    Rng rng(900 + sw);
    task.tables.emplace("mon", FlowTable{classbench::generate_monitor(24, rng)});
    task.tables.emplace("rtr", FlowTable{classbench::generate_router(16, rng)});
    task.spec = PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
    task.churn.leaf = "mon";
    task.churn.updates = sw == 0 ? 2 : 40;
    task.churn.seed = 77 + sw;
    task.churn.burst.enabled = true;
    return task;
  };
  spec.chaos.shard_kills.push_back({1, 3.0});
  spec.chaos.shard_kills.push_back({2, 3.6});

  spec.n_threads = 1;
  const runtime::FleetReport serial = run_compiled(spec);
  EXPECT_EQ(serial.shard_kills, 2u);
  EXPECT_EQ(serial.failovers, 2u);
  EXPECT_TRUE(serial.failover_ok);
  EXPECT_TRUE(serial.replay_ok);
  EXPECT_TRUE(serial.runtime.all_converged);
  for (const size_t threads : {2u, 5u}) {
    for (int rep = 0; rep < 3; ++rep) {
      spec.n_threads = threads;
      const runtime::FleetReport parallel = run_compiled(spec);
      EXPECT_EQ(parallel.fleet_fingerprint, serial.fleet_fingerprint)
          << threads << " threads";
      EXPECT_EQ(parallel.delta_fingerprint, serial.delta_fingerprint)
          << threads << " threads";
      EXPECT_DOUBLE_EQ(parallel.makespan_ms, serial.makespan_ms);
      EXPECT_DOUBLE_EQ(parallel.compile_vt_ms, serial.compile_vt_ms);
      EXPECT_DOUBLE_EQ(parallel.failover_ms.max(), serial.failover_ms.max());
    }
  }
}

TEST(ShardedFleetTest, CompiledMatchesPrecompiledLogs) {
  // The differential oracle for the one driver: the same SwitchTasks run
  // compiled-in-the-loop (ring sources, ready-time gated) and as
  // pre-compiled logs through run_fleet (vector sources), each log compiled
  // inside the switch's own (i + 1) << 32 id namespace exactly as the
  // shards compile it. With a clean wire the session factory and dispatch
  // must treat both sources alike: per-switch final TCAM contents, entry
  // writes and moves all equal.
  runtime::FleetSpec spec;
  spec.n_switches = 6;
  spec.n_shards = 2;
  spec.tcam_capacity = 512;
  spec.make_task = [](size_t sw) {
    runtime::SwitchTask task;
    Rng rng(300 + sw);
    task.tables.emplace("mon", FlowTable{classbench::generate_monitor(20, rng)});
    task.tables.emplace("rtr", FlowTable{classbench::generate_router(14, rng)});
    task.spec =
        PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
    task.churn.leaf = "mon";
    task.churn.updates = 10 + sw;
    task.churn.seed = 500 + sw;
    task.churn.burst.enabled = sw % 2 == 0;
    return task;
  };

  std::vector<runtime::SwitchWorkload> logs(spec.n_switches);
  for (size_t sw = 0; sw < spec.n_switches; ++sw) {
    flowspace::RuleId ids = static_cast<flowspace::RuleId>(sw + 1) << 32;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    runtime::SwitchTask task = spec.make_task(sw);
    const runtime::CompiledWorkload wl = runtime::compile_churn_workload(
        task.spec, std::move(task.tables), task.churn);
    logs[sw].log = runtime::encode_log(wl.epochs);
    logs[sw].expected = wl.final_rules;
  }

  for (const size_t threads : {1u, 4u}) {
    spec.n_threads = threads;
    const runtime::FleetReport compiled = run_compiled(spec);
    const runtime::RuntimeReport replayed =
        runtime::Controller(spec).run_fleet(logs);
    ASSERT_TRUE(compiled.runtime.all_converged) << threads << " threads";
    ASSERT_TRUE(replayed.all_converged) << threads << " threads";
    ASSERT_EQ(compiled.runtime.sessions.size(), replayed.sessions.size());
    for (size_t sw = 0; sw < spec.n_switches; ++sw) {
      const runtime::SessionStats& a = compiled.runtime.sessions[sw];
      const runtime::SessionStats& b = replayed.sessions[sw];
      EXPECT_FALSE(a.tcam_layout.empty()) << "switch " << sw;
      EXPECT_EQ(a.tcam_layout, b.tcam_layout) << "switch " << sw;
      EXPECT_EQ(a.entry_writes, b.entry_writes) << "switch " << sw;
      EXPECT_EQ(a.moves, b.moves) << "switch " << sw;
      EXPECT_EQ(a.epochs, b.epochs) << "switch " << sw;
    }
  }
}

TEST(ScopedRuleIdTest, RedirectsAndRestores) {
  flowspace::RuleId counter = 1000;
  const flowspace::RuleId global_before = flowspace::next_rule_id();
  {
    flowspace::ScopedRuleIdNamespace ns(&counter);
    EXPECT_EQ(flowspace::next_rule_id(), 1000u);
    EXPECT_EQ(flowspace::next_rule_id(), 1001u);
    flowspace::ensure_rule_id_floor(2000);
    EXPECT_EQ(flowspace::next_rule_id(), 2001u);
    {
      flowspace::RuleId inner = 50;
      flowspace::ScopedRuleIdNamespace ns2(&inner);
      EXPECT_EQ(flowspace::next_rule_id(), 50u);
    }
    EXPECT_EQ(flowspace::next_rule_id(), 2002u);
  }
  EXPECT_EQ(flowspace::next_rule_id(), global_before + 1);
}

}  // namespace
}  // namespace ruletris
