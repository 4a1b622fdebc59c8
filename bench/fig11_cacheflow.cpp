// Figure 11: rule update overhead of single rule swap with CacheFlow.
//
// A 1000-rule L3 forwarding database backs a 256-entry TCAM cache. The swap
// stream is no longer synthetic: a traffic engine drives Zipf-skewed flows
// with churn against a scratch cache, and the FDRC planner's swap decisions
// (measured hit density vs victim density) are recorded as the workload.
// That identical flow-driven trace is then replayed, per first-level load
// factor in {0.80 .. 1.00}, against both back-ends — the RuleTris DAG
// firmware and the priority-based firmware — timing each swap. Prints TCAM
// update time (Fig. 11a) and firmware time (Fig. 11b) per swap; `--json
// PATH` mirrors the rows machine-readably.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "dag/builder.h"
#include "switchsim/traffic_engine.h"
#include "tcam/cacheflow.h"
#include "util/logging.h"
#include "util/strfmt.h"
#include "util/timer.h"

namespace {

using namespace ruletris;
using tcam::CacheFlowManager;

struct SwapEvent {
  flowspace::RuleId out;
  flowspace::RuleId in;
};

/// Records a flow-driven swap trace at the given warm target: a scratch
/// DAG-mode cache takes real traffic epoch by epoch, and every swap the FDRC
/// planner executes is logged. The scratch manager applies each swap so the
/// next epoch plans against the evolved cache, exactly like a live switch.
std::vector<SwapEvent> record_trace(const flowspace::FlowTable& fib,
                                    const dag::DependencyGraph& graph,
                                    size_t capacity, size_t warm_target,
                                    size_t want_swaps) {
  CacheFlowManager scratch(fib.rules(), graph,
                           CacheFlowManager::Mode::kDagFirmware, capacity);
  switchsim::TrafficConfig cfg;
  cfg.flows = 200000;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.02;  // flow turnover keeps the hot set moving -> swaps
  cfg.packets_per_epoch = 20000;
  cfg.seed = 0xf1611;
  switchsim::TrafficEngine engine(scratch, fib.rules(), cfg);

  scratch.warm(CacheFlowManager::AdmissionPolicy::kStaticDag, warm_target);

  std::vector<SwapEvent> trace;
  for (uint64_t e = 0; trace.size() < want_swaps && e < 200; ++e) {
    engine.run_lookup_epoch(e);
    for (const auto& s : scratch.plan_swaps(want_swaps - trace.size())) {
      if (!scratch.swap(s.out, s.in)) {
        scratch.install(s.out);
        continue;
      }
      trace.push_back(SwapEvent{s.out, s.in});
    }
    scratch.age_hits();
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kOff);
  bench::init_json(argc, argv, "fig11_cacheflow");

  std::printf("\n=== Fig. 11: CacheFlow single rule swap "
              "(1000-rule FIB, 256-entry TCAM, flow-driven swap trace) ===\n");
  std::printf("%-10s %-9s | per-swap medians [p10, p90]\n", "config", "backend");
  const size_t updates = bench::updates_per_run(1000);
  constexpr size_t kCapacity = 256;

  // One FIB and one DAG shared by every configuration.
  util::Rng gen(0xcafe);
  const flowspace::FlowTable fib{classbench::generate_router(1000, gen)};
  const auto fib_dag = dag::build_min_dag(fib);

  if (auto* j = bench::json()) {
    j->meta("fib_rules", static_cast<double>(fib.size()));
    j->meta("tcam_capacity", static_cast<double>(kCapacity));
    j->meta("updates", static_cast<double>(updates));
    j->meta("workload", "traffic-engine fdrc swap trace");
  }

  for (const double load : {0.80, 0.85, 0.90, 0.95, 1.00}) {
    const size_t target = static_cast<size_t>(load * kCapacity);
    const auto trace = record_trace(fib, fib_dag, kCapacity, target, updates);

    for (const auto mode : {CacheFlowManager::Mode::kDagFirmware,
                            CacheFlowManager::Mode::kPriorityFirmware}) {
      CacheFlowManager mgr(fib.rules(), fib_dag, mode, kCapacity);
      // Reproduce the recorder's starting layout, then replay its swaps.
      mgr.warm(CacheFlowManager::AdmissionPolicy::kStaticDag, target);

      bench::MetricSet metrics;
      size_t skipped = 0;
      for (const SwapEvent& ev : trace) {
        const auto writes_before = mgr.tcam().stats().entry_writes;
        util::Stopwatch watch;
        const bool ok = mgr.swap(ev.out, ev.in);
        const double firmware_ms = watch.elapsed_ms();
        if (!ok) {
          // Full (covers included): restore the evicted rule and count the
          // skip; the paper's stream at load 1.0 has the same corner.
          mgr.install(ev.out);
          ++skipped;
          continue;
        }
        const size_t writes = mgr.tcam().stats().entry_writes - writes_before;
        metrics.add(0.0, firmware_ms,
                    static_cast<double>(writes) * tcam::kEntryWriteMs);
      }

      const char* name = mode == CacheFlowManager::Mode::kDagFirmware
                             ? "RuleTris"
                             : "Priority";
      std::printf("load %.2f  %-9s | tcam ms %-26s firmware ms %-26s",
                  load, name, metrics.tcam_ms.summary("").c_str(),
                  metrics.firmware_ms.summary("").c_str());
      if (skipped != 0) std::printf("  (%zu swaps skipped: cache full)", skipped);
      std::printf("\n");
      std::fflush(stdout);

      if (auto* j = bench::json()) {
        j->begin_row();
        j->field("load", load);
        j->field("backend", name);
        j->field("swaps", static_cast<double>(trace.size() - skipped));
        j->field("skipped", static_cast<double>(skipped));
        j->field("tcam_med_ms", metrics.tcam_ms.median());
        j->field("tcam_p10_ms", metrics.tcam_ms.p10());
        j->field("tcam_p90_ms", metrics.tcam_ms.p90());
        j->field("firmware_med_ms", metrics.firmware_ms.median());
        j->field("firmware_p10_ms", metrics.firmware_ms.p10());
        j->field("firmware_p90_ms", metrics.firmware_ms.p90());
      }
    }
  }
  bench::write_json();
  return 0;
}
