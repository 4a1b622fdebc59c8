// Ablation A1: free-slot placement policy in the DAG scheduler.
//
// DESIGN.md calls out one back-end design choice the paper leaves implicit:
// where an insert lands when several free slots satisfy its dependency
// range. Balanced placement (nearest the range midpoint) keeps slack spread
// out so later chains stay short; first-free placement (naive firmware)
// compacts rules and forces longer chains. This bench replays the same
// update stream under both policies. The churn evicts and reinstalls
// entries the way CacheFlow does, so every rule keeps its vertex and edges
// in the firmware's DAG; it exits non-zero if a layout breaks the DAG.
#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "dag/builder.h"
#include "tcam/dag_scheduler.h"
#include "util/logging.h"
#include "util/timer.h"

int main() {
  using namespace ruletris;
  using tcam::DagScheduler;

  util::set_log_level(util::LogLevel::kOff);
  std::printf("\n=== Ablation A1: DAG scheduler free-slot placement ===\n");
  const size_t updates = bench::updates_per_run(500);

  util::Rng gen(0x51a7);
  const flowspace::FlowTable fib{classbench::generate_router(1000, gen)};
  const auto fib_dag = dag::build_min_dag(fib);
  std::vector<flowspace::RuleId> all_ids;
  for (const auto& r : fib.rules()) all_ids.push_back(r.id);

  for (const double load : {0.95, 0.99}) {
    for (const auto placement :
         {DagScheduler::Placement::kBalanced, DagScheduler::Placement::kFirstFree}) {
      constexpr size_t kCapacity = 256;
      tcam::Tcam tcam(kCapacity);
      DagScheduler scheduler(tcam, placement);
      scheduler.load(fib_dag);
      util::Rng rng(0x1dea);

      // Install a random subset to the target load.
      std::vector<flowspace::RuleId> cached;
      while (tcam.occupied() < static_cast<size_t>(load * kCapacity)) {
        const auto pick = all_ids[rng.next_below(all_ids.size())];
        if (tcam.contains(pick)) continue;
        if (!scheduler.insert(fib.rule(pick))) break;
        cached.push_back(pick);
      }

      // Batch churn: evict three rules, then insert three — the placement of
      // the early inserts shapes how long the later chains get.
      util::Samples moves, tcam_ms;
      for (size_t u = 0; u < updates; ++u) {
        std::vector<size_t> outs;
        while (outs.size() < 3) {
          const size_t idx = rng.next_below(cached.size());
          bool dup = false;
          for (size_t o : outs) dup = dup || o == idx;
          if (!dup) outs.push_back(idx);
        }
        std::vector<flowspace::RuleId> ins;
        while (ins.size() < 3) {
          const auto in = all_ids[rng.next_below(all_ids.size())];
          if (tcam.contains(in)) continue;
          bool dup = false;
          for (auto i : ins) dup = dup || i == in;
          if (!dup) ins.push_back(in);
        }
        for (size_t o : outs) scheduler.evict(cached[o]);
        const auto before = tcam.stats();
        bool ok = true;
        for (auto in : ins) ok = ok && scheduler.insert(fib.rule(in));
        if (!ok) {
          for (auto in : ins) scheduler.evict(in);
          for (size_t k = 0; k < 3; ++k) scheduler.insert(fib.rule(cached[outs[k]]));
          continue;
        }
        for (size_t k = 0; k < 3; ++k) cached[outs[k]] = ins[k];
        moves.add(static_cast<double>(tcam.stats().moves - before.moves));
        tcam_ms.add(static_cast<double>(tcam.stats().entry_writes - before.entry_writes) *
                    tcam::kEntryWriteMs);
      }
      std::printf("%-8.2f %-10s | moves/batch mean %6.3f p90 %6.1f | tcam ms/batch mean %7.3f total %9.1f\n",
                  load,
                  placement == DagScheduler::Placement::kBalanced ? "balanced"
                                                                  : "first-free",
                  moves.mean(), moves.p90(), tcam_ms.mean(), tcam_ms.sum());
      std::fflush(stdout);
      if (!scheduler.layout_valid()) {
        std::fprintf(stderr, "FAIL: layout violates the DAG after churn\n");
        return 1;
      }
    }
  }
  return 0;
}
