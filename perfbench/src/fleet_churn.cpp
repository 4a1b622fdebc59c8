// fleet_churn: runtime::ShardedController with 1024 switches, 64 compile
// shards and 2 dispatch threads. Every switch runs a bursty monitor ∥ router
// task with 24 churn epochs on a 256-entry TCAM (the paper's ONetSwitch
// size). An op is one compiled rule op, fleet-wide.
//
// The timed phase repeats ShardedController::run(). run() is one opaque
// call, so the traced run replays the same per-switch tasks serially,
// inside each switch's rule-id namespace, through the layers run() uses:
// ChurnEngine -> proto::encode_batch -> frozen::capture_policy / diff /
// encode_delta (freeze at epoch 1) -> proto::decode_batch ->
// SimulatedSwitch::apply. The replay must reproduce run()'s rule ops,
// entry writes and moves exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "frozen/delta.h"
#include "frozen/frozen.h"
#include "proto/codec.h"
#include "runtime/sharded_controller.h"
#include "runtime/workload.h"
#include "switchsim/switch.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads.h"

namespace perfbench {

using namespace ruletris;
using Span = Tracer::Span;

namespace {

constexpr size_t kSwitches = 1024;
constexpr size_t kShards = 64;
constexpr size_t kThreads = 2;
constexpr size_t kUpdatesPerSwitch = 24;
constexpr size_t kTcamEntries = 256;
constexpr size_t kMonitorRules = 24;
constexpr size_t kRouterRules = 16;
constexpr double kRunsPerSecond = 0.3;  // one run() takes ~3.3 s

/// One switch's task: the runtime's default bursty monitor ∥ router shape,
/// built here so the replay compiles exactly what run() compiles.
runtime::SwitchTask make_task(uint64_t seed, size_t sw) {
  runtime::SwitchTask task;
  util::Rng rng(util::hash_pair(seed, sw + 1));
  task.tables.emplace(
      "mon", flowspace::FlowTable{classbench::generate_monitor(kMonitorRules, rng)});
  task.tables.emplace(
      "rtr", flowspace::FlowTable{classbench::generate_router(kRouterRules, rng)});
  task.spec = compiler::PolicySpec::parallel(compiler::PolicySpec::leaf("mon"),
                                             compiler::PolicySpec::leaf("rtr"));
  task.churn.leaf = "mon";
  task.churn.updates = kUpdatesPerSwitch;
  task.churn.seed = util::hash_pair(seed ^ 0x9e3779b97f4a7c15ULL, sw + 1);
  task.churn.burst = runtime::BurstSpec{.enabled = true};
  return task;
}

runtime::FleetSpec fleet_spec(uint64_t seed, size_t threads) {
  runtime::FleetSpec spec;
  spec.n_switches = kSwitches;
  spec.n_shards = kShards;
  spec.n_threads = threads;
  spec.tcam_capacity = kTcamEntries;
  spec.seed = seed;
  spec.make_task = [seed](size_t sw) { return make_task(seed, sw); };
  return spec;
}

/// Private rule-id base of switch `sw`, as the sharded controller assigns.
flowspace::RuleId id_base(size_t sw) { return static_cast<flowspace::RuleId>(sw + 1) << 32; }

struct RunOutcome {
  runtime::FleetReport report;
  double wall_s = 0.0;
};

RunOutcome run_fleet(uint64_t seed, size_t threads, Report& report) {
  runtime::ShardedController controller(fleet_spec(seed, threads));
  const double start = now_s();
  RunOutcome out{controller.run(), 0.0};
  out.wall_s = now_s() - start;
  const runtime::FleetReport& r = out.report;
  const runtime::RuntimeReport& rt = r.runtime;
  report.add_attempted(r.rule_ops);
  report.check(rt.all_converged, "fleet_churn: a switch did not converge");
  report.check(r.replay_ok, "fleet_churn: delta replay audit failed");
  report.check(rt.table_full + rt.rolled_back + rt.apply_failures == 0,
               "fleet_churn: an apply was rejected (table full or rolled back)");
  return out;
}

void check_same_fleet(const runtime::FleetReport& a, const runtime::FleetReport& b,
                      const char* what, Report& report) {
  report.check(a.fleet_fingerprint == b.fleet_fingerprint &&
                   a.delta_fingerprint == b.delta_fingerprint &&
                   a.rule_ops == b.rule_ops,
               std::string("fleet_churn: fleet fingerprints differ: ") + what);
}

/// Epoch 1 of every switch (task generation, initial compile, encode,
/// install), serially: the fleet's set-up work outside run().
double set_up(uint64_t seed, Report& report) {
  const double start = now_s();
  for (size_t sw = 0; sw < kSwitches; ++sw) {
    flowspace::RuleId ids = id_base(sw);
    flowspace::ScopedRuleIdNamespace ns(&ids);
    runtime::SwitchTask task = make_task(seed, sw);
    runtime::ChurnEngine engine(task.spec, std::move(task.tables), task.churn);
    switchsim::SimulatedSwitch device(switchsim::FirmwareMode::kDag, kTcamEntries);
    const proto::Bytes wire = proto::encode_batch(engine.step().batch);
    report.check(device.apply(proto::decode_batch(wire)).ok,
                 "fleet_churn: initial install failed");
  }
  return now_s() - start;
}

struct ReplayTally {
  size_t rule_ops = 0;
  size_t entry_writes = 0;
  size_t moves = 0;
  size_t wire_bytes = 0;
  size_t delta_blobs = 0;
  size_t delta_bytes = 0;
  double wall_s = 0.0;
};

/// Serial replay of every switch's task through the layers run() calls.
ReplayTally replay(uint64_t seed, Tracer* t, Report& report) {
  ReplayTally tally;
  const double start = now_s();
  for (size_t sw = 0; sw < kSwitches; ++sw) {
    if (t != nullptr) t->begin_request();
    Span root(t, "bench.switch");
    flowspace::RuleId ids = id_base(sw);
    flowspace::ScopedRuleIdNamespace ns(&ids);
    runtime::SwitchTask task;
    {
      Span s(t, "classbench.make_task");
      task = make_task(seed, sw);
    }
    std::unique_ptr<runtime::ChurnEngine> engine;
    {
      Span s(t, "compiler.engine_init");
      engine = std::make_unique<runtime::ChurnEngine>(task.spec, std::move(task.tables),
                                                      task.churn);
    }
    switchsim::SimulatedSwitch device(switchsim::FirmwareMode::kDag, kTcamEntries);
    frozen::PolicyImage prev;
    while (!engine->done()) {
      runtime::ChurnEngine::Step step;
      {
        Span s(t, "compiler.step");
        step = engine->step();
      }
      const uint64_t epoch = engine->produced();
      proto::Bytes wire;
      {
        Span s(t, "proto.encode");
        wire = proto::encode_batch(step.batch);
      }
      frozen::PolicyImage image;
      {
        Span s(t, "frozen.capture");
        image = frozen::capture_policy(engine->frontend(), epoch);
      }
      if (epoch == 1) {
        Span s(t, "frozen.freeze");
        const frozen::Bytes base = frozen::freeze(image);
        (void)base;
      } else {
        frozen::PolicyDelta delta;
        {
          Span s(t, "frozen.diff");
          delta = frozen::diff(prev, image);
        }
        frozen::Bytes blob;
        {
          Span s(t, "frozen.encode_delta");
          blob = frozen::encode_delta(delta);
        }
        tally.delta_bytes += blob.size();
        ++tally.delta_blobs;
      }
      prev = std::move(image);
      proto::MessageBatch decoded;
      {
        Span s(t, "proto.decode");
        decoded = proto::decode_batch(wire);
      }
      switchsim::UpdateMetrics m;
      {
        Span s(t, "tcam.apply");
        m = device.apply(decoded);
      }
      report.check(m.ok, "fleet_churn: replay apply rejected");
      tally.rule_ops += step.ops;
      tally.entry_writes += m.entry_writes;
      tally.moves += m.moves;
      tally.wire_bytes += wire.size();
    }
  }
  tally.wall_s = now_s() - start;
  return tally;
}

}  // namespace

void run_fleet_churn(const Args& args, Report& report, Values& values) {
  std::vector<double> setup_s;
  for (size_t i = 0; i < kRepeats; ++i) setup_s.push_back(set_up(args.seed, report));

  // Warm-up: one untimed run, also the reference every later run must match.
  const RunOutcome reference = run_fleet(args.seed, kThreads, report);

  // One run() is the unit of timed work.
  std::vector<double> wall_s;
  const size_t runs = kRepeats * timed_units(args, kRunsPerSecond);
  for (size_t i = 0; i < runs; ++i) {
    const RunOutcome run = run_fleet(args.seed, kThreads, report);
    check_same_fleet(reference.report, run.report, "between timed runs", report);
    wall_s.push_back(run.wall_s);
  }
  const double ops = static_cast<double>(reference.report.rule_ops);
  if (!args.trace) {
    values["setup_s"] = median(setup_s);
    values["ops_per_s"] = ops / minimum(wall_s);
    values["op_p50_us"] = minimum(wall_s) * 1e6 / ops;
    return;
  }

  const RunOutcome one = run_fleet(args.seed, 1, report);
  check_same_fleet(reference.report, one.report, "2 threads vs 1 thread", report);

  const ReplayTally plain = replay(args.seed, nullptr, report);
  Tracer tracer;
  const ReplayTally traced = replay(args.seed, &tracer, report);
  tracer.finish();
  const runtime::FleetReport& r1 = one.report;
  report.check(traced.rule_ops == r1.rule_ops &&
                   traced.entry_writes == r1.runtime.entry_writes &&
                   traced.moves == r1.runtime.moves,
               "fleet_churn: serial replay differs from run() in ops, writes or moves");

  const double covered_s = tracer.root_s() - tracer.self_s("bench");
  const runtime::FleetReport& r2 = reference.report;
  values["classbench.generate_s"] = tracer.self_s("classbench");
  values["compiler.initial_compile_s"] = tracer.total_s("compiler.engine_init");
  values["compiler.busy_share"] = tracer.self_s("compiler") / tracer.root_s();
  values["frozen.capture_us_p50"] = tracer.p50_us("frozen.capture");
  values["frozen.diff_us_p50"] = tracer.p50_us("frozen.diff");
  values["frozen.encode_delta_us_p50"] = tracer.p50_us("frozen.encode_delta");
  values["frozen.delta_bytes_per_epoch"] =
      static_cast<double>(traced.delta_bytes) / static_cast<double>(traced.delta_blobs);
  values["frozen.busy_share"] = tracer.self_s("frozen") / tracer.root_s();
  values["proto.encode_us_p50"] = tracer.p50_us("proto.encode");
  values["proto.decode_us_p50"] = tracer.p50_us("proto.decode");
  values["proto.bytes_per_update"] = static_cast<double>(traced.wire_bytes) / ops;
  values["tcam.apply_us_p50"] = tracer.p50_us("tcam.apply");
  values["tcam.entry_writes_per_update"] = static_cast<double>(traced.entry_writes) / ops;
  values["tcam.moves_per_update"] = static_cast<double>(traced.moves) / ops;
  values["runtime.self_share"] = std::max(0.0, 1.0 - covered_s / one.wall_s);
  values["runtime.shard_steps"] = static_cast<double>(r2.shard_steps);
  values["runtime.steals"] = static_cast<double>(r2.steals);
  values["runtime.starved_pumps"] = static_cast<double>(r2.starved_pumps);
  values["runtime.retransmits"] = static_cast<double>(r2.runtime.retransmits);
  values["runtime.frames_sent"] = static_cast<double>(r2.runtime.data_frames_sent);
  values["runtime.speedup_2t"] = one.wall_s / median(wall_s);
  values["runtime.model_updates_per_s"] = r2.updates_per_s();
  const double plain_ops = static_cast<double>(plain.rule_ops) / plain.wall_s;
  const double traced_ops = static_cast<double>(traced.rule_ops) / traced.wall_s;
  values["trace.ops_per_s_untraced"] = plain_ops;
  values["trace.ops_per_s_traced"] = traced_ops;
  values["trace.overhead_share"] = 1.0 - traced_ops / plain_ops;
}

}  // namespace perfbench
