// Multi-table pipeline (Sec. VIII extension): semantic equivalence with the
// single-table sequential composition, and the update-cost decoupling it
// exists for.
#include <gtest/gtest.h>

#include <map>

#include "classbench/generator.h"
#include "compiler/leaf.h"
#include "compiler/ruletris_compiler.h"
#include "switchsim/adapters.h"
#include "switchsim/pipeline_switch.h"
#include "test_util.h"

namespace ruletris {
namespace {

using compiler::LeafNode;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::ActionList;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using switchsim::MultiTableSwitch;
using switchsim::to_messages;
using util::Rng;

/// Installs a leaf's full table+DAG into one pipeline stage.
void install_stage(MultiTableSwitch& sw, size_t stage, const LeafNode& leaf) {
  ASSERT_TRUE(sw.deliver(stage, to_messages(compiler::full_install(leaf))).ok);
}

TEST(Pipeline, MatchesComposedSequentialSemantics) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const auto router = classbench::generate_router(60, rng);
    const auto nat = classbench::generate_nat(20, router, rng);

    // Reference: the composed single table.
    std::map<std::string, FlowTable> tables;
    tables.emplace("nat", FlowTable{nat});
    tables.emplace("router", FlowTable{router});
    RuleTrisCompiler composed(
        PolicySpec::sequential(PolicySpec::leaf("nat"), PolicySpec::leaf("router")),
        tables);
    const auto composed_rules = composed.root().visible_rules_in_order();

    // Pipeline: NAT in stage 0, router in stage 1, no composition at all.
    LeafNode nat_leaf{FlowTable{nat}};
    LeafNode router_leaf{FlowTable{router}};
    MultiTableSwitch pipeline({64, 128});
    install_stage(pipeline, 0, nat_leaf);
    install_stage(pipeline, 1, router_leaf);

    for (int k = 0; k < 500; ++k) {
      Packet p;
      p.set(flowspace::FieldId::kDstIp,
            rng.next_bool(0.5) ? (0xc8000000u | (rng.next_u32() & 0xffffffu))
                               : rng.next_u32());
      p.set(flowspace::FieldId::kIpProto, 6);
      p.set(flowspace::FieldId::kDstPort, 80);
      const ActionList via_pipeline = pipeline.process(p);
      const Rule* hit = testutil::lookup_ordered(composed_rules, p);
      const ActionList via_composed = hit ? hit->actions : ActionList{};
      EXPECT_EQ(via_pipeline, via_composed)
          << "pipeline and composed table disagree on a packet";
    }
  }
}

TEST(Pipeline, UpdateTouchesOnlyItsStage) {
  Rng rng(32);
  const auto router = classbench::generate_router(200, rng);
  const auto nat = classbench::generate_nat(30, router, rng);

  LeafNode nat_leaf{FlowTable{nat}};
  LeafNode router_leaf{FlowTable{router}};
  MultiTableSwitch pipeline({64, 256});
  install_stage(pipeline, 0, nat_leaf);
  install_stage(pipeline, 1, router_leaf);

  const auto router_stats_before = pipeline.tcam(1).stats();

  // Replace a NAT translation: only stage 0 sees TCAM activity, and the
  // update is a handful of entry writes regardless of router size.
  const Rule fresh = classbench::random_nat_rule(router, 30, rng);
  const auto removed = nat_leaf.remove(nat.front().id);
  const auto added = nat_leaf.insert(fresh);
  const auto m1 = pipeline.deliver(0, to_messages(removed));
  const auto m2 = pipeline.deliver(0, to_messages(added));
  ASSERT_TRUE(m1.ok);
  ASSERT_TRUE(m2.ok);
  EXPECT_LE(m1.entry_writes + m2.entry_writes, 3u);

  const auto router_stats_after = pipeline.tcam(1).stats();
  EXPECT_EQ(router_stats_before.entry_writes, router_stats_after.entry_writes)
      << "a NAT update must not move router entries";
}

TEST(Pipeline, StageMissIsIdentity) {
  MultiTableSwitch pipeline({8, 8});
  // Only stage 1 has a rule.
  Rng rng(33);
  const auto router = classbench::generate_router(4, rng);
  LeafNode router_leaf{FlowTable{router}};
  ASSERT_TRUE(pipeline.deliver(1, to_messages(compiler::full_install(router_leaf))).ok);

  Packet p;
  p.set(flowspace::FieldId::kDstIp, 0x0a000001);
  const ActionList result = pipeline.process(p);
  // Stage 0 misses, stage 1 decides: result equals the router's decision.
  const flowspace::Rule* hit = pipeline.tcam(1).lookup(p);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(result, hit->actions);
}

TEST(Pipeline, MetricsAndChannelAccounting) {
  MultiTableSwitch pipeline({8, 8});
  TableUpdate update;
  Rng rng(34);
  Rule r = testutil::random_rule(rng, 5);
  update.added.push_back(r);
  update.dag.added_vertices.push_back(r.id);
  const auto metrics = pipeline.deliver(0, to_messages(update));
  EXPECT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.entry_writes, 1u);
  EXPECT_GT(metrics.channel_ms, 0.0);
  EXPECT_EQ(pipeline.tcam(1).occupied(), 0u);
}

/// deliver_all with a thread pool must be bit-identical to the serial path:
/// same per-stage writes/moves, same final layouts, same deterministic
/// totals (only the wall-clock firmware_ms diagnostic may differ).
TEST(Pipeline, ParallelDeliverAllMatchesSequential) {
  Rng rng(35);

  auto build_stage_batches = [](Rng& rng) {
    // Four independent stages, each with its own leaf table and churn.
    std::vector<LeafNode> leaves;
    std::vector<std::vector<proto::MessageBatch>> rounds;
    std::vector<proto::MessageBatch> initial;
    for (size_t s = 0; s < 4; ++s) {
      const auto router = classbench::generate_router(40, rng);
      leaves.emplace_back(FlowTable{router});
      initial.push_back(to_messages(compiler::full_install(leaves.back())));
    }
    rounds.push_back(std::move(initial));
    for (int round = 0; round < 6; ++round) {
      std::vector<proto::MessageBatch> batches;
      for (size_t s = 0; s < 4; ++s) {
        const Rule fresh = testutil::random_rule(rng, 50 + round);
        const auto update = leaves[s].insert(fresh);
        batches.push_back(to_messages(update));
      }
      rounds.push_back(std::move(batches));
    }
    return rounds;
  };
  // One batch stream, applied to both switches — the encoded updates are
  // value objects, so serial and parallel see byte-identical input.
  const auto rounds = build_stage_batches(rng);

  MultiTableSwitch serial({64, 64, 64, 64});
  MultiTableSwitch parallel({64, 64, 64, 64});
  // clamp_to_hardware = false: this test is about pool determinism, so the
  // pool must actually run even on a single-core CI host.
  parallel.set_apply_threads(4, /*clamp_to_hardware=*/false);

  for (size_t round = 0; round < rounds.size(); ++round) {
    const auto ms = serial.deliver_all(rounds[round]);
    const auto mp = parallel.deliver_all(rounds[round]);
    ASSERT_TRUE(ms.ok);
    ASSERT_TRUE(mp.ok);
    ASSERT_EQ(ms.stages.size(), mp.stages.size());
    for (size_t s = 0; s < ms.stages.size(); ++s) {
      EXPECT_EQ(ms.stages[s].entry_writes, mp.stages[s].entry_writes);
      EXPECT_EQ(ms.stages[s].moves, mp.stages[s].moves);
      EXPECT_EQ(ms.stages[s].wire_bytes, mp.stages[s].wire_bytes);
      EXPECT_DOUBLE_EQ(ms.stages[s].channel_ms, mp.stages[s].channel_ms);
    }
    EXPECT_EQ(ms.total.entry_writes, mp.total.entry_writes);
    EXPECT_EQ(ms.total.moves, mp.total.moves);
    EXPECT_DOUBLE_EQ(ms.critical_path_ms, mp.critical_path_ms);
  }

  // Final device state matches slot for slot.
  for (size_t s = 0; s < 4; ++s) {
    const auto& ta = serial.tcam(s);
    const auto& tb = parallel.tcam(s);
    ASSERT_EQ(ta.capacity(), tb.capacity());
    for (size_t a = 0; a < ta.capacity(); ++a) {
      ASSERT_EQ(ta.at(a), tb.at(a)) << "stage " << s << " addr " << a;
    }
    EXPECT_TRUE(serial.firmware(s).layout_valid());
    EXPECT_TRUE(parallel.firmware(s).layout_valid());
  }
}

}  // namespace
}  // namespace ruletris
