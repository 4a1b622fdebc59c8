// Unit tests for the asynchronous control-plane runtime: event queue
// ordering, fault-wire determinism, agent reorder/duplicate/restart
// semantics, session windowing, and controller fan-out.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "proto/codec.h"
#include "runtime/agent.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/event_queue.h"
#include "runtime/session.h"
#include "runtime/sharded_controller.h"
#include "runtime/wire.h"
#include "runtime/workload.h"
#include "switchsim/adapters.h"
#include "tcam/auditor.h"
#include "util/logging.h"
#include "util/rng.h"

#include "test_util.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using compiler::TableUpdate;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;
using runtime::ChurnSpec;
using runtime::CompiledWorkload;
using runtime::compile_churn_workload;
using runtime::Controller;
using runtime::EncodedEpoch;
using runtime::EventQueue;
using runtime::FaultSpec;
using runtime::FaultyWire;
using runtime::RuntimeConfig;
using runtime::RuntimeReport;
using runtime::SessionConfig;
using runtime::SessionStats;
using runtime::SwitchAgent;
using runtime::SwitchSession;
using runtime::SwitchWorkload;
using testutil::expect_reports_identical;

TEST(EventQueue, RunsEventsInDueThenFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  q.post(5.0, [&] { order.push_back(3); });
  q.post(1.0, [&] { order.push_back(1); });
  q.post(5.0, [&] { order.push_back(4); });  // same due as first: FIFO
  q.post(2.0, [&] { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, PastDuePostsFireAtNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.post(10.0, [&] { q.post(3.0, [&] { fired_at = q.now(); }); });
  while (q.run_next()) {
  }
  EXPECT_DOUBLE_EQ(fired_at, 10.0);  // clamped, no time travel
}

TEST(FaultyWire, FaultFreeDeliversExactlyOnceAtOneWayLatency) {
  proto::ChannelModel channel;
  FaultyWire wire(channel, FaultSpec{}, 42);
  const auto arrivals = wire.arrivals(100.0, 1000);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0].at_ms, 100.0 + channel.one_way_ms(1000));
  EXPECT_FALSE(arrivals[0].corrupted);
  EXPECT_EQ(wire.counters().sent, 1u);
  EXPECT_EQ(wire.counters().dropped, 0u);
}

TEST(FaultyWire, SameSeedSameFaultStream) {
  proto::ChannelModel channel;
  FaultSpec faults = FaultSpec::chaos();
  FaultyWire a(channel, faults, 7);
  FaultyWire b(channel, faults, 7);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.arrivals(i * 1.5, 200 + i), b.arrivals(i * 1.5, 200 + i));
  }
  EXPECT_TRUE(a.counters() == b.counters());
  // A chaotic mix actually exercises every fault class over 500 sends.
  EXPECT_GT(a.counters().dropped, 0u);
  EXPECT_GT(a.counters().duplicated, 0u);
  EXPECT_GT(a.counters().delayed, 0u);
}

/// One barrier-fenced epoch batch installing a single fresh rule.
EncodedEpoch make_single_rule_epoch(int32_t priority, Rule* out_rule = nullptr) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstIp, static_cast<uint32_t>(1000 + priority));
  Rule r = Rule::make(m, ActionList{Action::forward(1)}, priority);
  if (out_rule != nullptr) *out_rule = r;
  TableUpdate upd;
  upd.added.push_back(r);
  upd.dag.added_vertices.push_back(r.id);
  EncodedEpoch epoch;
  const proto::MessageBatch batch = switchsim::to_messages(upd);
  epoch.wire = std::make_shared<const proto::Bytes>(proto::encode_batch(batch));
  epoch.messages = batch.size();
  return epoch;
}

TEST(SwitchAgent, BuffersOutOfOrderAndAppliesInEpochOrder) {
  SwitchAgent agent(64, proto::ChannelModel{});
  const EncodedEpoch e1 = make_single_rule_epoch(1);
  const EncodedEpoch e2 = make_single_rule_epoch(2);
  const EncodedEpoch e3 = make_single_rule_epoch(3);

  // Epoch 2 arrives first: nothing can apply yet.
  const auto in2 = agent.on_data(2, e2.wire, 1.0);
  EXPECT_TRUE(in2.applied.empty());
  EXPECT_FALSE(in2.duplicate);
  EXPECT_EQ(agent.buffered(), 1u);
  EXPECT_EQ(agent.last_applied(), 0u);

  // Epoch 1 arrives: 1 then the buffered 2 apply, strictly in order.
  const auto in1 = agent.on_data(1, e1.wire, 2.0);
  ASSERT_EQ(in1.applied.size(), 2u);
  EXPECT_EQ(in1.applied[0].epoch, 1u);
  EXPECT_EQ(in1.applied[1].epoch, 2u);
  EXPECT_TRUE(in1.applied[0].ok);
  EXPECT_EQ(agent.last_applied(), 2u);
  EXPECT_EQ(agent.buffered(), 0u);
  EXPECT_EQ(agent.device().tcam().occupied(), 2u);
  EXPECT_GE(in1.done_ms, 2.0);

  // A late duplicate of epoch 1 is discarded but still answered.
  const auto dup = agent.on_data(1, e1.wire, 3.0);
  EXPECT_TRUE(dup.duplicate);
  EXPECT_TRUE(dup.applied.empty());
  EXPECT_EQ(agent.duplicates(), 1u);
  EXPECT_EQ(agent.last_applied(), 2u);

  // Epoch 3 then completes normally.
  const auto in3 = agent.on_data(3, e3.wire, 4.0);
  ASSERT_EQ(in3.applied.size(), 1u);
  EXPECT_EQ(agent.last_applied(), 3u);
  EXPECT_EQ(agent.device().tcam().occupied(), 3u);
}

TEST(SwitchAgent, RestartDropsReorderBufferButKeepsAppliedState) {
  SwitchAgent agent(64, proto::ChannelModel{});
  const EncodedEpoch e1 = make_single_rule_epoch(1);
  const EncodedEpoch e3 = make_single_rule_epoch(3);

  agent.on_data(1, e1.wire, 1.0);
  agent.on_data(3, e3.wire, 2.0);  // waits for epoch 2
  EXPECT_EQ(agent.buffered(), 1u);
  EXPECT_EQ(agent.last_applied(), 1u);

  agent.restart();
  EXPECT_EQ(agent.buffered(), 0u);        // volatile state lost
  EXPECT_EQ(agent.last_applied(), 1u);    // applied epochs survive
  EXPECT_EQ(agent.device().tcam().occupied(), 1u);  // TCAM is hardware
  EXPECT_EQ(agent.restarts(), 1u);
}

/// Small monitor+router composition with churn on the monitor leaf.
CompiledWorkload small_workload(size_t updates, uint64_t seed) {
  util::Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(25, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(20, rng)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = updates;
  churn.seed = seed;
  return compile_churn_workload(spec, tables, churn);
}

std::vector<EncodedEpoch> encode_log(const CompiledWorkload& wl) {
  std::vector<EncodedEpoch> log;
  for (const proto::MessageBatch& batch : wl.epochs) {
    EncodedEpoch e;
    e.wire = std::make_shared<const proto::Bytes>(proto::encode_batch(batch));
    e.messages = batch.size();
    log.push_back(std::move(e));
  }
  return log;
}

TEST(SwitchSession, FaultFreeSessionConvergesWithoutRetries) {
  const CompiledWorkload wl = small_workload(40, 11);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  SessionConfig cfg;
  cfg.knobs.window = 4;
  // Above the modeled apply time of the big initial-install epoch, so the
  // retry timer never fires spuriously and the counters stay exact.
  cfg.knobs.retry.timeout_ms = 500.0;
  cfg.tcam_capacity = wl.suggested_capacity();
  SwitchSession session(cfg, log);
  const SessionStats stats = session.run(wl.final_rules);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.epochs, wl.epochs.size());
  EXPECT_EQ(stats.data_frames_sent, wl.epochs.size());  // no re-sends
  EXPECT_EQ(stats.retransmits, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.acks, wl.epochs.size());
  EXPECT_EQ(stats.apply_failures, 0u);
  EXPECT_EQ(stats.ack_ms.count(), wl.epochs.size());
  EXPECT_EQ(stats.channel_ms.count(), wl.epochs.size());
  EXPECT_GT(stats.makespan_ms, 0.0);
}

TEST(SwitchSession, WiderWindowPipelinesAndShrinksMakespan) {
  const CompiledWorkload wl = small_workload(40, 12);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  auto run_with_window = [&](size_t window) {
    SessionConfig cfg;
    cfg.knobs.window = window;
    cfg.tcam_capacity = wl.suggested_capacity();
    SwitchSession session(cfg, log);
    return session.run(wl.final_rules);
  };

  const SessionStats w1 = run_with_window(1);
  const SessionStats w8 = run_with_window(8);
  EXPECT_TRUE(w1.converged);
  EXPECT_TRUE(w8.converged);
  // window=1 pays a full round trip per epoch; window=8 overlaps them.
  EXPECT_LT(w8.makespan_ms, w1.makespan_ms);
}

TEST(SwitchSession, ChaoticWireStillConverges) {
  const CompiledWorkload wl = small_workload(40, 13);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  SessionConfig cfg;
  cfg.knobs.window = 4;
  cfg.knobs.faults = FaultSpec::chaos();
  cfg.seed = 99;
  cfg.tcam_capacity = wl.suggested_capacity();
  SwitchSession session(cfg, log);
  const SessionStats stats = session.run(wl.final_rules);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.apply_failures, 0u);
  // The fault machinery was actually exercised.
  EXPECT_GT(stats.wire.dropped, 0u);
  EXPECT_GT(stats.retransmits + stats.resync_replays, 0u);
  EXPECT_GT(stats.data_frames_sent, wl.epochs.size());
}

TEST(SwitchSession, EmptyEpochLogFinishesImmediately) {
  const std::vector<EncodedEpoch> log;
  SessionConfig cfg;
  SwitchSession session(cfg, log);
  const SessionStats stats = session.run({});
  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.converged);
  EXPECT_DOUBLE_EQ(stats.makespan_ms, 0.0);
  EXPECT_EQ(stats.data_frames_sent, 0u);
}

TEST(Controller, FanOutConvergesAndIsDeterministicAcrossThreadCounts) {
  const CompiledWorkload wl = small_workload(30, 21);

  auto run_with_threads = [&](size_t threads) {
    RuntimeConfig cfg;
    cfg.n_switches = 4;
    cfg.knobs.window = 4;
    cfg.n_threads = threads;
    cfg.knobs.faults = FaultSpec::chaos();
    cfg.fault_seed = 5;
    Controller controller(cfg);
    return controller.run(wl.epochs, wl.final_rules);
  };

  const RuntimeReport serial = run_with_threads(1);
  EXPECT_TRUE(serial.all_converged);
  EXPECT_EQ(serial.apply_failures, 0u);
  EXPECT_EQ(serial.sessions.size(), 4u);
  EXPECT_GT(serial.updates_per_s(), 0.0);

  const RuntimeReport threaded = run_with_threads(4);
  expect_reports_identical(serial, threaded);

  const RuntimeReport again = run_with_threads(4);
  expect_reports_identical(serial, again);
}

TEST(Controller, ThrowingSessionIsRethrownInBothModes) {
  // Epoch 1 installs a rule with the invalid id 0, so the agent's TCAM
  // write throws inside a session. Free, gated and compiled fleets, serial
  // and on a pool, must surface it as one runtime_error naming the failing
  // switch (or shard) — never terminate.
  const proto::MessageBatch bad = {proto::FlowModAdd{Rule{}}, proto::Barrier{}};
  std::vector<SwitchWorkload> fleet(2);
  for (SwitchWorkload& w : fleet) w.log = runtime::encode_log({bad});
  const auto message_of = [](const auto& run) {
    try {
      run();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  for (size_t threads : {1ul, 4ul}) {
    RuntimeConfig cfg;
    cfg.n_threads = threads;
    EXPECT_THROW(Controller(cfg).run_fleet(fleet), std::runtime_error)
        << threads << " threads";
    EXPECT_THROW(Controller(cfg).run_rounds(fleet), std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(message_of([&] { Controller(cfg).run_fleet(fleet); })
                  .rfind("fleet switch ", 0),
              0u)
        << threads << " threads";

    // Compiled: composed entries get fresh ids, so no task input reaches a
    // TCAM with id 0; switch 2's churn generator throws on its compile
    // shard instead, once as a std::exception and once as something that
    // is none — both take the dispatch's one catch-all path.
    runtime::FleetSpec spec;
    spec.n_switches = 3;
    spec.n_shards = 3;
    spec.n_threads = threads;
    const auto throwing_task = [](std::function<Rule(util::Rng&)> make_rule) {
      return [make_rule](size_t sw) {
        util::Rng rng(40 + sw);
        runtime::SwitchTask t;
        t.tables.emplace("mon",
                         FlowTable{classbench::generate_monitor(12, rng)});
        t.tables.emplace("rtr", FlowTable{classbench::generate_router(8, rng)});
        t.spec = PolicySpec::parallel(PolicySpec::leaf("mon"),
                                      PolicySpec::leaf("rtr"));
        t.churn.leaf = "mon";
        t.churn.updates = 4;
        t.churn.seed = sw + 1;
        if (sw == 2) {
          t.churn.insert_p = 1.0;
          t.churn.make_rule = make_rule;
        }
        return t;
      };
    };
    spec.make_task = throwing_task(
        [](util::Rng&) -> Rule { throw std::length_error("generator"); });
    EXPECT_EQ(message_of([&] { Controller(spec).run_compiled(spec); }),
              "fleet shard 2: generator")
        << threads << " threads";
    spec.make_task = throwing_task([](util::Rng&) -> Rule { throw 42; });
    EXPECT_EQ(message_of([&] { Controller(spec).run_compiled(spec); }),
              "fleet shard 2: non-standard exception")
        << threads << " threads";
  }
}

TEST(SwitchAgent, CorruptFrameIsNackedNeverParsed) {
  SwitchAgent agent(64, proto::ChannelModel{});
  const EncodedEpoch e1 = make_single_rule_epoch(1);
  proto::Bytes damaged = *e1.wire;
  damaged[damaged.size() / 2] ^= 0x40;  // one flipped bit in transit

  const auto in = agent.on_data(
      1, std::make_shared<const proto::Bytes>(damaged), 1.0);
  EXPECT_TRUE(in.corrupt);
  EXPECT_TRUE(in.applied.empty());
  EXPECT_EQ(agent.buffered(), 0u);  // never parsed, never buffered
  EXPECT_EQ(agent.last_applied(), 0u);
  EXPECT_EQ(agent.corrupt_frames(), 1u);

  // The pristine retransmit then applies normally.
  const auto retry = agent.on_data(1, e1.wire, 2.0);
  ASSERT_EQ(retry.applied.size(), 1u);
  EXPECT_EQ(agent.last_applied(), 1u);
}

TEST(SwitchAgent, CrashTearsApplyAndRecoveryRestoresService) {
  SwitchAgent agent(64, proto::ChannelModel{});
  // Arm a one-shot crash on the first journaled op of the next apply.
  bool armed = true;
  agent.device().dag_firmware().set_crash_hook([&armed] {
    if (!armed) return false;
    armed = false;
    return true;
  });

  const EncodedEpoch e1 = make_single_rule_epoch(1);
  const auto in = agent.on_data(1, e1.wire, 1.0);
  EXPECT_TRUE(in.crashed);
  EXPECT_TRUE(in.applied.empty());
  EXPECT_TRUE(agent.down());
  EXPECT_EQ(agent.crashes(), 1u);
  EXPECT_EQ(agent.device().tcam().occupied(), 0u);  // nothing half-written

  // Down agents drop frames on the floor.
  const auto while_down = agent.on_data(1, e1.wire, 2.0);
  EXPECT_TRUE(while_down.dropped);

  const auto recovery = agent.recover_and_restart();
  EXPECT_FALSE(recovery.rolled_forward);  // intent logged, op never executed
  EXPECT_TRUE(agent.down());              // still down until power_on
  agent.power_on(5.0);
  EXPECT_FALSE(agent.down());

  const auto retry = agent.on_data(1, e1.wire, 6.0);
  ASSERT_EQ(retry.applied.size(), 1u);
  EXPECT_EQ(agent.last_applied(), 1u);
  EXPECT_EQ(agent.device().tcam().occupied(), 1u);
  EXPECT_EQ(agent.restarts(), 1u);
}

TEST(SwitchSession, CorruptedFramesAreNackedAndRetransmitted) {
  const CompiledWorkload wl = small_workload(40, 17);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  SessionConfig cfg;
  cfg.knobs.window = 4;
  cfg.knobs.retry.timeout_ms = 500.0;  // NACKs, not timeouts, must drive recovery
  cfg.knobs.faults.corrupt_p = 0.2;
  cfg.seed = 3;
  cfg.tcam_capacity = wl.suggested_capacity();
  SwitchSession session(cfg, log);
  const SessionStats stats = session.run(wl.final_rules);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.wire.corrupted, 0u);
  EXPECT_GT(stats.nacks, 0u);
  EXPECT_GT(stats.nack_retransmits, 0u);
  EXPECT_EQ(stats.apply_failures, 0u);
  EXPECT_EQ(stats.crashes, 0u);
}

/// Regression for the double-restart window: the agent restarts again while
/// the resync replay for its first restart is still in flight, so a resync
/// anchored below the committed frontier arrives late. The controller must
/// take the min anchor and replay, never strand the tail of the log.
TEST(SwitchSession, DoubleRestartDuringResyncReplayStillConverges) {
  const CompiledWorkload wl = small_workload(40, 18);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  size_t stale_total = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SessionConfig cfg;
    cfg.knobs.window = 6;
    cfg.knobs.faults.restart_every_ms = 15.0;  // restarts race the replays
    cfg.knobs.faults.delay_p = 0.4;            // delayed frames invert orderings
    cfg.knobs.faults.delay_ms = 12.0;
    cfg.seed = seed;
    cfg.tcam_capacity = wl.suggested_capacity();
    SwitchSession session(cfg, log);
    const SessionStats stats = session.run(wl.final_rules);
    EXPECT_TRUE(stats.completed) << "seed " << seed;
    EXPECT_TRUE(stats.converged) << "seed " << seed;
    EXPECT_GT(stats.restarts, 1u) << "seed " << seed;
    stale_total += stats.stale_resyncs;
  }
  // The race actually occurred somewhere in the sweep — the min-anchor
  // handling was exercised, not just reachable.
  EXPECT_GT(stale_total, 0u);
}

/// Satellite: table-full is a structured outcome, not a crash. A session
/// whose TCAM cannot hold the workload completes (rejections are acked),
/// reports the rejections as kTableFull/kRolledBack, and leaves the device
/// auditor-clean — rejected updates never tear the TCAM.
TEST(SwitchSession, CapacityExhaustionRejectsCleanlyAndAuditsClean) {
  const CompiledWorkload wl = small_workload(40, 19);
  const std::vector<EncodedEpoch> log = encode_log(wl);

  SessionConfig cfg;
  cfg.knobs.window = 4;
  // Deliberately below the table's high-water mark, so some update in the
  // stream must be rejected for capacity.
  cfg.tcam_capacity = wl.peak_visible - wl.peak_visible / 4;
  SwitchSession session(cfg, log);
  util::set_log_level(util::LogLevel::kOff);  // rejections are the point
  const SessionStats stats = session.run(wl.final_rules);
  util::set_log_level(util::LogLevel::kWarn);

  EXPECT_TRUE(stats.completed);   // rejected epochs still ack and advance
  EXPECT_FALSE(stats.converged);  // but the expected table cannot fit
  EXPECT_GT(stats.apply_failures, 0u);
  EXPECT_GT(stats.table_full + stats.rolled_back, 0u);
  EXPECT_EQ(stats.apply_failures, stats.table_full + stats.rolled_back);

  // Structural invariants survive every rejection.
  const auto& device = session.agent().device();
  const auto audit =
      tcam::audit_state(device.tcam(), device.dag_firmware().graph());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_TRUE(device.dag_firmware().layout_valid());
}

TEST(Controller, SessionsDrawIndependentFaultStreams) {
  const CompiledWorkload wl = small_workload(30, 22);
  RuntimeConfig cfg;
  cfg.n_switches = 4;
  cfg.knobs.faults = FaultSpec::chaos();
  cfg.fault_seed = 6;
  cfg.n_threads = 1;
  Controller controller(cfg);
  const RuntimeReport report = controller.run(wl.epochs, wl.final_rules);
  EXPECT_TRUE(report.all_converged);

  // With independent per-session streams it is (astronomically) unlikely
  // that every session saw the identical fault pattern.
  bool any_difference = false;
  for (size_t i = 1; i < report.sessions.size(); ++i) {
    if (!(report.sessions[i].wire == report.sessions[0].wire) ||
        report.sessions[i].makespan_ms != report.sessions[0].makespan_ms) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ruletris
