// Shared runner for the composition-update scenarios of Figs. 9 and 10.
//
// For each configuration (right-member table size) the runner drives the
// same update stream — delete one rule from the left member, insert a fresh
// one — through all three compilers and their switches, recording the
// paper's three latency components per update. A switch that rejects an
// update counts as a failure; the benches exit non-zero on any.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/baseline.h"
#include "compiler/covisor.h"
#include "compiler/ruletris_compiler.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ruletris::bench {

using compiler::PolicySpec;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;

struct CompositionScenario {
  const char* title;
  int op;                           // OpKind as int
  size_t left_size = 100;
  size_t hw_right_size = 78;        // paper's hardware-experiment size
  std::vector<size_t> emu_right_sizes = {250, 500, 1000, 2000, 4000};
  /// Generates the left member table (may consult the right member's rules,
  /// e.g. NAT translations target router prefixes).
  std::function<std::vector<Rule>(size_t, const std::vector<Rule>&, util::Rng&)>
      gen_left;
  /// Generates a replacement left-member rule for the update stream.
  std::function<Rule(const std::vector<Rule>&, util::Rng&)> gen_replacement;
  /// Keep the left member's final rule (e.g. a NAT passthrough default) out
  /// of the update stream.
  bool protect_last_left = false;
  /// CI mode: the hardware row only, kSmokeUpdates updates.
  bool smoke = false;
  static constexpr size_t kSmokeUpdates = 20;
};

/// Runs every configuration; returns the number of switch-apply failures
/// over all of them.
inline size_t run_composition_scenario(const CompositionScenario& scenario) {
  util::set_log_level(util::LogLevel::kError);
  print_header(scenario.title);
  const size_t updates =
      scenario.smoke ? CompositionScenario::kSmokeUpdates : updates_per_run();

  std::vector<std::pair<std::string, size_t>> configs;
  configs.emplace_back(util::strfmt("HW(%zu)", scenario.hw_right_size),
                       scenario.hw_right_size);
  if (!scenario.smoke) {
    for (size_t n : scenario.emu_right_sizes) {
      configs.emplace_back(util::strfmt("%zu", n), n);
    }
  }

  size_t total_failures = 0;

  for (const auto& [label, right_size] : configs) {
    util::Rng rng(0x9e00 + right_size);
    const std::vector<Rule> right_rules =
        classbench::generate_router(right_size, rng);
    const std::vector<Rule> left_rules =
        scenario.gen_left(scenario.left_size, right_rules, rng);

    auto tables_for = [&] {
      std::map<std::string, FlowTable> t;
      t.emplace("left", FlowTable{left_rules});
      t.emplace("right", FlowTable{right_rules});
      return t;
    };
    const PolicySpec spec = PolicySpec::combine(scenario.op, PolicySpec::leaf("left"),
                                                PolicySpec::leaf("right"));

    // --- RuleTris pipeline.
    compiler::RuleTrisCompiler ruletris(spec, tables_for());
    const size_t composed = ruletris.root().visible_size();
    const size_t dag_capacity = composed + composed / 8 + 128;
    switchsim::SimulatedSwitch sw_dag(switchsim::FirmwareMode::kDag, dag_capacity);
    sw_dag.deliver(switchsim::to_messages(compiler::full_install(ruletris.root())));

    // --- CoVisor pipeline.
    compiler::CovisorCompiler covisor(spec, tables_for());
    const size_t cv_size = covisor.compiled().size();
    switchsim::SimulatedSwitch sw_cv(switchsim::FirmwareMode::kPriority,
                                     cv_size + cv_size / 8 + 128);
    {
      compiler::PrioritizedUpdate initial;
      for (const Rule& r : covisor.compiled()) {
        initial.push_back(compiler::PrioritizedOp::add(r));
      }
      sw_cv.deliver(switchsim::to_messages(initial));
    }

    // --- Baseline pipeline.
    compiler::BaselineCompiler baseline(spec, tables_for());
    const size_t bl_size = baseline.compiled().size();
    switchsim::SimulatedSwitch sw_bl(switchsim::FirmwareMode::kPriority,
                                     bl_size + bl_size / 8 + 128);
    {
      compiler::PrioritizedUpdate initial;
      for (const Rule& r : baseline.compiled()) {
        initial.push_back(compiler::PrioritizedOp::add(r));
      }
      sw_bl.deliver(switchsim::to_messages(initial));
    }

    MetricSet rt_metrics, cv_metrics, bl_metrics;
    std::vector<RuleId> live;
    for (const Rule& r : left_rules) live.push_back(r.id);

    size_t failures = 0;
    for (size_t u = 0; u < updates; ++u) {
      const size_t victim_idx =
          rng.next_below(live.size() - (scenario.protect_last_left ? 1 : 0));
      const RuleId victim = live[victim_idx];
      const Rule fresh = scenario.gen_replacement(right_rules, rng);
      live[victim_idx] = fresh.id;

      {  // RuleTris: incremental compile + DAG firmware.
        util::Stopwatch watch;
        auto upd_del = ruletris.remove("left", victim);
        auto upd_add = ruletris.insert("left", fresh);
        const double compile = watch.elapsed_ms();
        const auto m1 = sw_dag.deliver(switchsim::to_messages(upd_del));
        const auto m2 = sw_dag.deliver(switchsim::to_messages(upd_add));
        if (!m1.ok || !m2.ok) ++failures;
        rt_metrics.add(compile, m1.firmware_ms + m2.firmware_ms,
                       m1.tcam_ms + m2.tcam_ms, m1.channel_ms + m2.channel_ms);
      }
      {  // CoVisor: incremental compile + priority firmware.
        util::Stopwatch watch;
        auto upd_del = covisor.remove("left", victim);
        auto upd_add = covisor.insert("left", fresh);
        const double compile = watch.elapsed_ms();
        const auto m1 = sw_cv.deliver(switchsim::to_messages(upd_del));
        const auto m2 = sw_cv.deliver(switchsim::to_messages(upd_add));
        if (!m1.ok || !m2.ok) ++failures;
        cv_metrics.add(compile, m1.firmware_ms + m2.firmware_ms,
                       m1.tcam_ms + m2.tcam_ms, m1.channel_ms + m2.channel_ms);
      }
      {  // Baseline: recompile from scratch + priority firmware.
        util::Stopwatch watch;
        auto upd_del = baseline.remove("left", victim);
        auto upd_add = baseline.insert("left", fresh);
        const double compile = watch.elapsed_ms();
        const auto m1 = sw_bl.deliver(switchsim::to_messages(upd_del));
        const auto m2 = sw_bl.deliver(switchsim::to_messages(upd_add));
        if (!m1.ok || !m2.ok) ++failures;
        bl_metrics.add(compile, m1.firmware_ms + m2.firmware_ms,
                       m1.tcam_ms + m2.tcam_ms, m1.channel_ms + m2.channel_ms);
      }
    }

    print_row(label + util::strfmt("/%zu", composed), "Baseline", bl_metrics);
    print_row(label, "CoVisor", cv_metrics);
    print_row(label, "RuleTris", rt_metrics);
    std::printf("    -> per-update speedup vs CoVisor: %.1fx (median total)\n",
                cv_metrics.total_ms.median() / rt_metrics.total_ms.median());
    if (failures != 0) {
      std::printf("    !! %zu switch-apply failures\n", failures);
    }
    total_failures += failures;
  }
  return total_failures;
}

}  // namespace ruletris::bench
