// Ablation A3 (Sec. VIII): single-table sequential composition vs a
// two-stage TCAM pipeline.
//
// With two physical tables, "NAT > router" needs no composition at all: the
// NAT member lives in stage 0, the router in stage 1, and a NAT update costs
// O(1) entry writes regardless of router size. This bench quantifies what
// the composition (and its update amplification) costs when the hardware
// has only one table.
#include <map>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/leaf.h"
#include "compiler/ruletris_compiler.h"
#include "switchsim/adapters.h"
#include "switchsim/pipeline_switch.h"
#include "switchsim/switch.h"
#include "util/logging.h"
#include "util/timer.h"

int main() {
  using namespace ruletris;
  using compiler::LeafNode;
  using compiler::PolicySpec;
  using flowspace::FlowTable;
  using flowspace::Rule;

  util::set_log_level(util::LogLevel::kOff);
  std::printf("\n=== Ablation A3: single-table composition vs two-stage pipeline "
              "(NAT > router) ===\n");
  std::printf("%-8s %-12s | %-28s %-28s %-28s\n", "router", "deployment",
              "compile ms", "tcam ms", "total ms");
  const size_t updates = bench::updates_per_run(200);

  for (const size_t right_size : {250ul, 1000ul, 4000ul}) {
    util::Rng rng(0xf00d + right_size);
    const auto router = classbench::generate_router(right_size, rng);
    const auto nat = classbench::generate_nat(100, router, rng);

    // --- Single table: full sequential composition.
    std::map<std::string, FlowTable> tables;
    tables.emplace("nat", FlowTable{nat});
    tables.emplace("router", FlowTable{router});
    compiler::RuleTrisCompiler composed(
        PolicySpec::sequential(PolicySpec::leaf("nat"), PolicySpec::leaf("router")),
        tables);
    const size_t composed_size = composed.root().visible_size();
    switchsim::SimulatedSwitch single(switchsim::FirmwareMode::kDag,
                                      composed_size + composed_size / 8 + 128);
    single.deliver(switchsim::to_messages(compiler::full_install(composed.root())));

    // --- Pipeline: members installed verbatim into their own stages.
    LeafNode nat_leaf{FlowTable{nat}};
    LeafNode router_leaf{FlowTable{router}};
    switchsim::MultiTableSwitch pipeline(
        {nat.size() + 64, right_size + right_size / 8 + 64});
    for (int stage = 0; stage < 2; ++stage) {
      const LeafNode& leaf = stage == 0 ? nat_leaf : router_leaf;
      pipeline.deliver(static_cast<size_t>(stage),
                       switchsim::to_messages(compiler::full_install(leaf)));
    }

    bench::MetricSet single_metrics, pipeline_metrics;
    std::vector<flowspace::RuleId> live;
    for (const Rule& r : nat) live.push_back(r.id);

    for (size_t u = 0; u < updates; ++u) {
      const size_t victim_idx = rng.next_below(live.size() - 1);  // keep default
      const flowspace::RuleId victim = live[victim_idx];
      const Rule fresh = classbench::random_nat_rule(router, 100, rng);
      live[victim_idx] = fresh.id;

      {
        util::Stopwatch watch;
        auto upd_del = composed.remove("nat", victim);
        auto upd_add = composed.insert("nat", fresh);
        const double compile = watch.elapsed_ms();
        const auto m1 = single.deliver(switchsim::to_messages(upd_del));
        const auto m2 = single.deliver(switchsim::to_messages(upd_add));
        single_metrics.add(compile, m1.firmware_ms + m2.firmware_ms,
                           m1.tcam_ms + m2.tcam_ms, m1.channel_ms + m2.channel_ms);
      }
      {
        util::Stopwatch watch;
        auto upd_del = nat_leaf.remove(victim);
        auto upd_add = nat_leaf.insert(fresh);
        const double compile = watch.elapsed_ms();
        const auto m1 = pipeline.deliver(0, switchsim::to_messages(upd_del));
        const auto m2 = pipeline.deliver(0, switchsim::to_messages(upd_add));
        pipeline_metrics.add(compile, m1.firmware_ms + m2.firmware_ms,
                             m1.tcam_ms + m2.tcam_ms, m1.channel_ms + m2.channel_ms);
      }
    }

    std::printf("%-8zu %-12s | %-28s %-28s %-28s\n", right_size, "composed",
                single_metrics.compile_ms.summary("").c_str(),
                single_metrics.tcam_ms.summary("").c_str(),
                single_metrics.total_ms.summary("").c_str());
    std::printf("%-8zu %-12s | %-28s %-28s %-28s\n", right_size, "pipeline",
                pipeline_metrics.compile_ms.summary("").c_str(),
                pipeline_metrics.tcam_ms.summary("").c_str(),
                pipeline_metrics.total_ms.summary("").c_str());
    std::fflush(stdout);
  }
  return 0;
}
