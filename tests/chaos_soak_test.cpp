// Fleet fault-tolerance soak: a seeded ChaosSchedule (shard kills mid-
// stream, agent blackout windows) on top of brownout wires with firmware
// crash-loops, asserting the three recovery guarantees end to end:
//
//   1. shard failover — survivors adopt the orphaned switches by verifying
//      and replaying the hash-chained RTDZ delta blobs, and the adopted
//      streams are bit-identical to a never-failed run (layout and delta
//      fingerprints equal the clean run's);
//   2. switch quarantine — a blacked-out agent benches its session instead
//      of stalling dispatch, is excluded from the fleet makespan, and is
//      re-admitted auditor-clean once the probe loop reaches it again;
//   3. determinism — the whole chaos run is bit-identical across dispatch
//      thread counts, faults and recoveries included.
//
// Plus the FleetSpec entry validation and the deadline-miss finalization
// path (a switch that never comes back must not hang the run).
#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/config.h"
#include "runtime/sharded_controller.h"

namespace ruletris {
namespace {

/// Small enough for the 1-core ASAN/TSAN trees, big enough that both kills
/// fire mid-stream and the blackout spans several retry escalations.
runtime::FleetSpec chaos_base_spec() {
  runtime::FleetSpec spec;
  spec.n_switches = 6;
  spec.n_shards = 3;
  spec.updates_per_switch = 12;
  spec.seed = 21;
  spec.fault_seed = 9;
  spec.audit_stride = 2;
  spec.tcam_capacity = 1024;
  return spec;
}

runtime::ChaosSchedule chaos_schedule() {
  runtime::ChaosSchedule chaos;
  // Shards 1 and 2 die early on their compile clocks; shard 0 is spared
  // and must adopt all four orphaned switches, in kill order.
  chaos.shard_kills.push_back({1, 0.3});
  chaos.shard_kills.push_back({2, 0.8});
  // Two agents go dark long enough to exhaust the quarantine escalation.
  chaos.blackouts.push_back({1, {30.0, 400.0}});
  chaos.blackouts.push_back({4, {60.0, 300.0}});
  return chaos;
}

TEST(ChaosSoakTest, RecoversBitIdenticalToCleanRunAcrossThreadCounts) {
  runtime::FleetSpec spec = chaos_base_spec();
  spec.n_threads = 1;
  const runtime::FleetReport clean = runtime::ShardedController(spec).run();
  ASSERT_TRUE(clean.runtime.all_converged);
  ASSERT_TRUE(clean.replay_ok);
  EXPECT_EQ(clean.shard_kills, 0u);
  EXPECT_EQ(clean.runtime.quarantines, 0u);
  EXPECT_EQ(clean.active_switches, 6u);

  spec.chaos = chaos_schedule();
  spec.knobs.faults = runtime::FaultSpec::brownout();
  spec.knobs.retry.quarantine_after = 3;
  const runtime::FleetReport chaos = runtime::ShardedController(spec).run();

  // Every fault class actually fired...
  EXPECT_EQ(chaos.shard_kills + chaos.kills_escaped, 2u);
  EXPECT_GT(chaos.shard_kills, 0u) << "kill times after the compile finished";
  EXPECT_GT(chaos.failovers, 0u);
  EXPECT_GT(chaos.failover_epochs, 0u);
  EXPECT_GT(chaos.runtime.quarantines, 0u) << "no session ever quarantined";
  EXPECT_GT(chaos.runtime.blackout_drops, 0u);
  EXPECT_GT(chaos.runtime.probe_sends, 0u);
  EXPECT_GT(chaos.runtime.crashes, 0u);

  // ...and every switch still converged, recoveries verified clean.
  EXPECT_TRUE(chaos.runtime.all_converged);
  EXPECT_TRUE(chaos.failover_ok) << "adopted stream diverged from the blobs";
  EXPECT_TRUE(chaos.replay_ok);
  EXPECT_EQ(chaos.runtime.readmit_failures, 0u);
  EXPECT_EQ(chaos.runtime.rejoin_audit_violations, 0u);
  EXPECT_EQ(chaos.runtime.readmissions, chaos.runtime.quarantines)
      << "a quarantined switch never made it back";
  EXPECT_GT(chaos.runtime.rejoin_ms.count(), 0u);

  // The recovery guarantee: final TCAM layouts and the full delta-hash
  // chains are bit-identical to the never-failed run's.
  EXPECT_EQ(chaos.layout_fingerprint, clean.layout_fingerprint);
  EXPECT_EQ(chaos.delta_fingerprint, clean.delta_fingerprint);

  // Quarantined switches are excluded from the fleet makespan.
  EXPECT_LT(chaos.active_switches, 6u);
  EXPECT_GT(chaos.active_switches, 0u);
  EXPECT_LE(chaos.makespan_ms, chaos.runtime.makespan_ms);
  EXPECT_GT(chaos.updates_per_s(), 0.0);

  // Whole-run determinism across worker counts, chaos included.
  for (const size_t threads : {2u, 5u}) {
    spec.n_threads = threads;
    const runtime::FleetReport rep = runtime::ShardedController(spec).run();
    EXPECT_EQ(rep.fleet_fingerprint, chaos.fleet_fingerprint)
        << threads << " threads";
    EXPECT_EQ(rep.delta_fingerprint, chaos.delta_fingerprint)
        << threads << " threads";
    EXPECT_EQ(rep.layout_fingerprint, chaos.layout_fingerprint)
        << threads << " threads";
    EXPECT_EQ(rep.shard_kills, chaos.shard_kills);
    EXPECT_EQ(rep.failovers, chaos.failovers);
    EXPECT_EQ(rep.failover_epochs, chaos.failover_epochs);
    EXPECT_EQ(rep.runtime.quarantines, chaos.runtime.quarantines);
    EXPECT_EQ(rep.runtime.readmissions, chaos.runtime.readmissions);
    EXPECT_DOUBLE_EQ(rep.makespan_ms, chaos.makespan_ms);
    EXPECT_DOUBLE_EQ(rep.compile_vt_ms, chaos.compile_vt_ms);
    EXPECT_TRUE(rep.runtime.all_converged);
    EXPECT_TRUE(rep.failover_ok);
  }
}

TEST(ChaosSoakTest, AdaptiveBackoffBoundsRetransmitsUnderHeavyLoss) {
  // The designed-for case: brownout windows where the wire swallows nearly
  // everything. The fixed 25 ms timer retransmits the whole window into the
  // dark stretch over and over; escalation spaces the rounds out instead.
  runtime::FleetSpec spec = chaos_base_spec();
  spec.n_threads = 1;
  spec.knobs.faults.drop_p = 0.05;
  spec.knobs.faults.brownout_drop_p = 0.9;
  spec.knobs.faults.brownout_period_ms = 400.0;
  spec.knobs.faults.brownout_duty = 0.5;

  spec.knobs.retry.adaptive = false;
  const runtime::FleetReport fixed = runtime::ShardedController(spec).run();
  spec.knobs.retry.adaptive = true;
  const runtime::FleetReport adaptive = runtime::ShardedController(spec).run();

  ASSERT_TRUE(fixed.runtime.all_converged);
  ASSERT_TRUE(adaptive.runtime.all_converged);
  EXPECT_EQ(adaptive.layout_fingerprint, fixed.layout_fingerprint);
  EXPECT_LT(adaptive.runtime.retransmits, fixed.runtime.retransmits)
      << "escalation failed to thin the retransmit storm";

  // Sustained (non-bursty) loss at the acceptance threshold also favors
  // escalation: spurious rounds fired while acks are still in flight thin
  // out once the interval grows past the loaded round trip.
  spec.knobs.faults = runtime::FaultSpec();
  spec.knobs.faults.drop_p = 0.3;
  spec.knobs.retry.adaptive = false;
  const runtime::FleetReport fixed_drop = runtime::ShardedController(spec).run();
  spec.knobs.retry.adaptive = true;
  const runtime::FleetReport adaptive_drop =
      runtime::ShardedController(spec).run();
  ASSERT_TRUE(adaptive_drop.runtime.all_converged);
  EXPECT_EQ(adaptive_drop.layout_fingerprint, fixed_drop.layout_fingerprint);
  EXPECT_LT(adaptive_drop.runtime.retransmits, fixed_drop.runtime.retransmits);
}

TEST(FleetSpecValidationTest, RejectsMalformedSpecsWithDescriptiveErrors) {
  const runtime::FleetSpec good = chaos_base_spec();
  EXPECT_NO_THROW(runtime::ShardedController::validate(good));

  runtime::FleetSpec s = good;
  s.n_switches = 0;
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.n_shards = 0;
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.n_shards = s.n_switches + 1;
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.n_threads = 0;
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.compile_per_op_ms = 0.0;  // ready times would stop strictly increasing
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.failover_replay_factor = -0.5;
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.chaos.shard_kills.push_back({s.n_shards, 1.0});  // shard out of range
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.chaos.shard_kills.push_back({0, 1.0});
  s.chaos.shard_kills.push_back({0, 2.0});  // two kills on one shard
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  for (size_t k = 0; k < s.n_shards; ++k) {
    s.chaos.shard_kills.push_back({k, 1.0});  // nobody left to adopt
  }
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.chaos.blackouts.push_back({s.n_switches, {10.0, 10.0}});  // bad switch
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);

  s = good;
  s.chaos.blackouts.push_back({0, {10.0, 0.0}});  // empty window
  EXPECT_THROW(runtime::ShardedController::validate(s), std::invalid_argument);
}

TEST(DeadlineMissTest, UnreachableSwitchFinalizesIncompleteInsteadOfHanging) {
  runtime::FleetSpec spec = chaos_base_spec();
  spec.n_switches = 3;
  spec.n_shards = 1;
  spec.n_threads = 2;
  spec.knobs.deadline_ms = 3000.0;
  // Switch 1's agent is dark for the whole run; with quarantine disabled
  // the session retransmits (with escalation) until the deadline trips the
  // finalize-incomplete path instead of looping forever.
  spec.knobs.retry.quarantine_after = 0;
  spec.chaos.blackouts.push_back({1, {0.0, 1e9}});

  const runtime::FleetReport rep = runtime::ShardedController(spec).run();
  EXPECT_FALSE(rep.runtime.all_converged);
  ASSERT_EQ(rep.runtime.sessions.size(), 3u);
  EXPECT_FALSE(rep.runtime.sessions[1].completed);
  EXPECT_TRUE(rep.runtime.sessions[0].completed);
  EXPECT_TRUE(rep.runtime.sessions[2].completed);
  EXPECT_GT(rep.runtime.sessions[1].blackout_drops, 0u);
  EXPECT_EQ(rep.runtime.quarantines, 0u);
  // No quarantine -> the dead switch stays in the makespan basis, pinned
  // at its deadline.
  EXPECT_GE(rep.runtime.makespan_ms, spec.knobs.deadline_ms);
}

}  // namespace
}  // namespace ruletris
