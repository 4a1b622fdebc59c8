// wide_policy_churn: one switch, monitor(10000) ∥ router(128) (~11.7 k
// visible rules), closed-loop remove+insert swaps on the monitor leaf, one
// update at a time. Compile dominates each update, and the DAG firmware's
// TCAM is sized at visible + 2 %, so entry moves are real. The frozen layer
// and the data plane are never called.
//
// One update: compiler remove + insert (chained into one net update) ->
// switchsim::to_messages -> proto::encode_batch -> proto::decode_batch ->
// SimulatedSwitch::apply. Its latency runs from the compiler call to the
// return of apply.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "churn_stream.h"
#include "compiler/ruletris_compiler.h"
#include "proto/codec.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "tcam/auditor.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace ruletris;
using Span = Tracer::Span;

namespace {

// The per-update cost rises by about 2.5x over the first ~5 k updates as
// the incremental compiler's state evolves, so every run does the same
// updates: kWarmupUpdates untimed, then a fixed count per --seconds.
constexpr size_t kWarmupUpdates = 600;
constexpr double kUpdatesPerSecond = 500;

// Ids the compiler allocates come from the rig's own namespace, so two rigs
// of one seed are identical down to the TCAM layout.
constexpr flowspace::RuleId kCompilerIdBase = flowspace::RuleId{1} << 44;

struct Rig {
  flowspace::RuleId ids = kCompilerIdBase;
  std::unique_ptr<compiler::RuleTrisCompiler> frontend;
  std::unique_ptr<switchsim::SimulatedSwitch> sw;
  std::unique_ptr<SwapStream> stream;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double compile_s = 0.0;
  double install_s = 0.0;
};

Rig set_up(uint64_t seed, Report& report) {
  Rig rig;
  flowspace::ScopedRuleIdNamespace ns(&rig.ids);
  const double t0 = now_s();
  WidePolicy policy = make_wide_policy(seed);
  const double t1 = now_s();
  rig.stream = std::make_unique<SwapStream>(seed, policy);
  std::map<std::string, flowspace::FlowTable> tables;
  tables.emplace("mon", flowspace::FlowTable{std::move(policy.monitor)});
  tables.emplace("rtr", flowspace::FlowTable{std::move(policy.router)});
  rig.frontend = std::make_unique<compiler::RuleTrisCompiler>(
      compiler::PolicySpec::parallel(compiler::PolicySpec::leaf("mon"),
                                     compiler::PolicySpec::leaf("rtr")),
      std::move(tables));
  const double t2 = now_s();

  const compiler::PolicyNode& root = rig.frontend->root();
  const size_t visible = root.visible_size();
  rig.sw = std::make_unique<switchsim::SimulatedSwitch>(
      switchsim::FirmwareMode::kDag, visible + visible / 50);
  compiler::TableUpdate initial;
  initial.added = root.visible_rules_in_order();
  for (const flowspace::Rule& r : initial.added) {
    initial.dag.added_vertices.push_back(r.id);
  }
  initial.dag.added_edges = root.visible_graph().edges();
  const proto::MessageBatch batch =
      proto::decode_batch(proto::encode_batch(switchsim::to_messages(initial)));
  const double t3 = now_s();
  report.check(rig.sw->apply(batch).ok, "wide_policy_churn: initial install failed");
  const double t4 = now_s();

  rig.generate_s = t1 - t0;
  rig.compile_s = t2 - t1;
  rig.install_s = t4 - t3;
  rig.setup_s = t4 - t0;
  return rig;
}

/// Audits the switch against the compiler: every visible rule installed
/// exactly, every DAG edge address-ordered.
void audit(const Rig& rig, Report& report, const char* when) {
  const tcam::AuditReport a =
      tcam::audit_state(rig.sw->tcam(), rig.sw->dag_firmware().graph(),
                        rig.frontend->root().visible_rules_in_order());
  report.check(a.clean(), std::string("wide_policy_churn: audit after ") + when +
                              ": " + a.to_string());
  report.check(rig.sw->dag_firmware().layout_valid(),
               std::string("wide_policy_churn: layout invalid after ") + when);
}

struct Tally {
  size_t moves = 0;
  size_t writes = 0;
  size_t visible_delta = 0;
  size_t wire_bytes = 0;
  std::vector<double> op_us;
  double wall_s = 0.0;
};

/// One swap, compiler to switch. Spans go to `t` when tracing.
void update_once(Rig& rig, Tracer* t, Tally& tally, Report& report) {
  flowspace::ScopedRuleIdNamespace ns(&rig.ids);
  if (t != nullptr) t->begin_request();
  Span root(t, "bench.update");
  const Swap swap = rig.stream->next();
  const double start = now_s();
  compiler::TableUpdate removed, inserted, update;
  {
    Span s(t, "compiler.remove");
    removed = rig.frontend->remove("mon", swap.victim);
  }
  {
    Span s(t, "compiler.insert");
    inserted = rig.frontend->insert("mon", swap.fresh);
  }
  {
    Span s(t, "compiler.chain");
    update = compiler::chain_updates(removed, inserted);
  }
  proto::MessageBatch batch;
  {
    Span s(t, "switchsim.to_messages");
    batch = switchsim::to_messages(update);
  }
  proto::Bytes wire;
  {
    Span s(t, "proto.encode");
    wire = proto::encode_batch(batch);
  }
  proto::MessageBatch decoded;
  {
    Span s(t, "proto.decode");
    decoded = proto::decode_batch(wire);
  }
  switchsim::UpdateMetrics m;
  {
    Span s(t, "tcam.apply");
    m = rig.sw->apply(decoded);
  }
  tally.op_us.push_back((now_s() - start) * 1e6);
  tally.moves += m.moves;
  tally.writes += m.entry_writes;
  tally.visible_delta += update.added.size() + update.removed.size();
  tally.wire_bytes += wire.size();
  report.add_attempted(1);
  if (!m.ok) report.fail("wide_policy_churn: apply rejected (table full or rolled back)");
}

Tally run_updates(Rig& rig, size_t n, Tracer* t, Report& report) {
  Tally tally;
  const double start = now_s();
  for (size_t i = 0; i < n; ++i) update_once(rig, t, tally, report);
  tally.wall_s = now_s() - start;
  return tally;
}

/// Set-up plus the untimed warm-up updates.
Rig warm_rig(uint64_t seed, Report& report) {
  Rig rig = set_up(seed, report);
  (void)run_updates(rig, kWarmupUpdates, nullptr, report);
  audit(rig, report, "warm-up");
  return rig;
}

}  // namespace

void run_wide_policy_churn(const Args& args, Report& report, Values& values) {
  const size_t n = timed_units(args, kUpdatesPerSecond);
  std::vector<double> setup_s, generate_s, compile_s, install_s, wall_s;
  std::vector<std::vector<double>> op_us;
  Tally first;
  for (size_t r = 0; r < kRepeats; ++r) {
    Rig rig = warm_rig(args.seed, report);
    setup_s.push_back(rig.setup_s);
    generate_s.push_back(rig.generate_s);
    compile_s.push_back(rig.compile_s);
    install_s.push_back(rig.install_s);
    Tally timed = run_updates(rig, n, nullptr, report);
    audit(rig, report, "timed run");
    if (r == 0) first = timed;
    report.check(timed.moves == first.moves && timed.writes == first.writes,
                 "wide_policy_churn: repetitions moved or wrote other entries");
    wall_s.push_back(timed.wall_s);
    op_us.push_back(std::move(timed.op_us));
  }
  const std::vector<double> best_op_us = elementwise_min(op_us);

  if (!args.trace) {
    values["setup_s"] = median(setup_s);
    values["ops_per_s"] = static_cast<double>(n) / minimum(wall_s);
    values["op_p50_us"] = median(best_op_us);
    return;
  }

  // A fresh rig traces exactly the timed updates once more.
  Rig rig = warm_rig(args.seed, report);
  Tracer tracer;
  const Tally traced = run_updates(rig, n, &tracer, report);
  audit(rig, report, "traced run");
  tracer.finish();
  report.check(traced.moves == first.moves && traced.writes == first.writes,
               "wide_policy_churn: traced run moved or wrote other entries");

  const double updates = static_cast<double>(n);
  const double plain_ops = updates / median(wall_s);
  const double traced_ops = updates / traced.wall_s;
  values["classbench.generate_s"] = median(generate_s);
  values["compiler.initial_compile_s"] = median(compile_s);
  values["tcam.initial_install_s"] = median(install_s);
  values["compiler.insert_us_p50"] = tracer.p50_us("compiler.insert");
  values["compiler.remove_us_p50"] = tracer.p50_us("compiler.remove");
  values["compiler.busy_share"] = tracer.self_s("compiler") / tracer.root_s();
  values["compiler.visible_delta_per_update"] =
      static_cast<double>(traced.visible_delta) / updates;
  values["switchsim.to_messages_us_p50"] = tracer.p50_us("switchsim.to_messages");
  values["proto.encode_us_p50"] = tracer.p50_us("proto.encode");
  values["proto.decode_us_p50"] = tracer.p50_us("proto.decode");
  values["proto.bytes_per_update"] = static_cast<double>(traced.wire_bytes) / updates;
  values["tcam.apply_us_p50"] = tracer.p50_us("tcam.apply");
  values["tcam.entry_writes_per_update"] = static_cast<double>(traced.writes) / updates;
  values["tcam.moves_per_update"] = static_cast<double>(traced.moves) / updates;
  // p99 only with at least ten samples beyond it.
  if (n >= 1000) values["bench.op_p99_us"] = quantile(best_op_us, 0.99);
  values["trace.ops_per_s_untraced"] = plain_ops;
  values["trace.ops_per_s_traced"] = traced_ops;
  values["trace.overhead_share"] = 1.0 - traced_ops / plain_ops;
}

}  // namespace perfbench
