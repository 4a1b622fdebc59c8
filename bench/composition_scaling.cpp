// Full-compile scaling of the composition front-end (Sec. IV-B).
//
// RuleTris pays the full composition compile on policy bootstrap and on
// structural policy changes: the cross product, then one bulk minimum-DAG
// build over the root's visible table. This bench measures how that compile
// scales with the policy size for all three operators, with the DAG build
// on one thread (serial) and on --threads workers (parallel) — the one
// thread knob of a compile, dag::set_default_build_threads. Both must
// produce the identical CompileSnapshot (member entries by provenance,
// key-vertex representatives, visible minimum-DAG edges); the bench exits
// non-zero on divergence, and the smoke run is wired into ctest so
// compile-path regressions fail tier-1. Each time is the minimum of three
// alternating rebuilds (one in smoke runs).
//
// Workloads mirror the paper's evaluation policies, with the left table
// swept and the right fixed at a hardware-sized router:
//   parallel:   monitor(n)  + router(128)   (Fig. 9 shape)
//   sequential: nat(n)      > router(128)   (Fig. 10 shape)
//   priority:   firewall(n) $ router(128)   (supplementary shape)
//
// Flags: --threads N   DAG build threads for the parallel run (default 4)
//        --json PATH   machine-readable report (see bench_util.h)
//        --smoke       small sizes + equivalence checks only; every smoke
//                      root is large enough that its --threads build runs
//                      the threaded row loop (dag::uses_parallel_path)
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "dag/builder.h"
#include "util/logging.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  using compiler::CompileSnapshot;
  using compiler::ComposedNode;
  using compiler::LeafNode;
  using compiler::OpKind;
  using flowspace::FlowTable;
  using flowspace::Rule;

  bool smoke = false;
  size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atol(argv[i + 1]));
    }
  }
  bench::init_json(argc, argv, "composition_scaling");
  if (auto* j = bench::json()) {
    j->meta("workload", "left table swept, right = classbench router(128)");
    j->meta("threads", static_cast<double>(threads));
    // The DAG builder never clamps to the core count.
    j->meta("threads_effective", static_cast<double>(threads));
    j->meta("parallel_cutoff",
            static_cast<double>(dag::MinDagBuildOptions{}.parallel_cutoff));
  }

  util::set_log_level(util::LogLevel::kOff);
  std::printf("\n=== Composition full-compile scaling (left x router-128) ===\n");
  std::printf("%-10s %-8s | %-10s %-11s | %-8s %-8s | %-9s\n", "op", "left",
              "serial ms", "parallel ms", "entries", "visible", "par spd");

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{1000, 2000}
            : std::vector<size_t>{250, 500, 1000, 2000, 4000, 10000, 20000};
  const OpKind ops[] = {OpKind::kParallel, OpKind::kSequential, OpKind::kPriority};
  bool ok = true;

  for (const OpKind op : ops) {
    for (const size_t n : sizes) {
      util::Rng rng(0xc0de + n);
      const std::vector<Rule> right_rules = classbench::generate_router(128, rng);
      std::vector<Rule> left_rules;
      switch (op) {
        case OpKind::kParallel:
          left_rules = classbench::generate_monitor(n, rng);
          break;
        case OpKind::kSequential:
          left_rules = classbench::generate_nat(n, right_rules, rng);
          break;
        case OpKind::kPriority:
          left_rules = classbench::generate_firewall(n, rng);
          break;
      }

      // Construct once (untimed warmup compile, serial leaf DAGs); then
      // re-run full_rebuild at each thread count on the same node, so leaf
      // DAG extraction and allocator warmup stay out of the timed sections.
      dag::set_default_build_threads(1);
      ComposedNode node{op, std::make_unique<LeafNode>(FlowTable{left_rules}),
                        std::make_unique<LeafNode>(FlowTable{right_rules})};

      auto timed_rebuild = [&](size_t dag_threads) {
        dag::set_default_build_threads(dag_threads);
        util::Stopwatch watch;
        node.full_rebuild();
        return watch.elapsed_ms();
      };

      double serial_ms = 1e300;
      double parallel_ms = 1e300;
      for (int run = 0; run < (smoke ? 1 : 3); ++run) {
        serial_ms = std::min(serial_ms, timed_rebuild(1));
        const CompileSnapshot serial_snap = node.snapshot();
        parallel_ms = std::min(parallel_ms, timed_rebuild(threads));
        if (!(node.snapshot() == serial_snap)) {
          std::fprintf(stderr,
                       "FAIL: %zu-thread compile diverged from serial (%s, n=%zu)\n",
                       threads, compiler::op_name(op), n);
          ok = false;
        }
      }
      dag::MinDagBuildOptions threaded;
      threaded.n_threads = threads;
      if (smoke && threads > 1 && !dag::uses_parallel_path(node.visible_size(), threaded)) {
        std::fprintf(stderr, "FAIL: %s n=%zu has %zu visible rules, under the DAG "
                     "builder's parallel cutoff: the threaded build never runs\n",
                     compiler::op_name(op), n, node.visible_size());
        ok = false;
      }

      const double parallel_speedup = serial_ms / parallel_ms;
      std::printf("%-10s %-8zu | %-10.1f %-11.1f | %-8zu %-8zu | %-9.1f\n",
                  compiler::op_name(op), n, serial_ms, parallel_ms, node.member_size(),
                  node.visible_size(), parallel_speedup);
      std::fflush(stdout);

      if (auto* j = bench::json()) {
        j->begin_row();
        j->field("op", compiler::op_name(op));
        j->field("left_rules", static_cast<double>(n));
        j->field("right_rules", static_cast<double>(right_rules.size()));
        j->field("member_entries", static_cast<double>(node.member_size()));
        j->field("visible_rules", static_cast<double>(node.visible_size()));
        j->field("serial_ms", serial_ms);
        j->field("parallel_ms", parallel_ms);
        j->field("parallel_speedup", parallel_speedup);
      }
    }
  }

  bench::write_json();
  return ok ? 0 : 1;
}
