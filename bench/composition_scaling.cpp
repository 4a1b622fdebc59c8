// Full-compile scaling of the composition front-end (Sec. IV-B).
//
// RuleTris pays the full composition compile on policy bootstrap and on
// structural policy changes; this bench measures how that compile scales
// with the policy size for all three operators, under both compose fan-out
// strategies:
//   * serial   — the default path;
//   * parallel — the compose fan-out sharded across a thread pool.
// Both must produce the identical CompileSnapshot (member entries by
// provenance, key-vertex representatives, visible minimum-DAG edges); the
// bench exits non-zero on divergence, and the smoke run is wired into ctest
// so compile-path regressions fail tier-1.
//
// Workloads mirror the paper's evaluation policies, with the left table
// swept and the right fixed at a hardware-sized router:
//   parallel:   monitor(n)  + router(128)   (Fig. 9 shape)
//   sequential: nat(n)      > router(128)   (Fig. 10 shape)
//   priority:   firewall(n) $ router(128)   (supplementary shape)
//
// Flags: --threads N   worker count for the parallel strategy (default 4)
//        --json PATH   machine-readable report (see bench_util.h)
//        --smoke       tiny sizes + equivalence checks only
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  using compiler::CompileOptions;
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
    j->meta("threads_effective",
            static_cast<double>(util::effective_workers(threads)));
    j->meta("parallel_cutoff", static_cast<double>(compiler::kCompileParallelCutoff));
  }

  util::set_log_level(util::LogLevel::kOff);
  std::printf("\n=== Composition full-compile scaling (left x router-128) ===\n");
  std::printf("%-10s %-8s | %-10s %-11s | %-8s %-8s | %-9s\n", "op", "left",
              "serial ms", "parallel ms", "entries", "visible", "par spd");

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{100, 200}
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

      // Construct once (untimed warmup compile); then re-run full_rebuild
      // under each strategy on the same node, so leaf DAG extraction and
      // allocator warmup stay out of the timed sections.
      CompileOptions serial;
      ComposedNode node{op, std::make_unique<LeafNode>(FlowTable{left_rules}),
                        std::make_unique<LeafNode>(FlowTable{right_rules}), serial};

      auto timed_rebuild = [&](const CompileOptions& opts) {
        node.set_compile_options(opts);
        util::Stopwatch watch;
        node.full_rebuild();
        return watch.elapsed_ms();
      };

      const double serial_ms = timed_rebuild(CompileOptions{});
      const CompileSnapshot serial_snap = node.snapshot();

      CompileOptions par;
      par.n_threads = threads;
      // Smoke is the equivalence gate: force the pool path even on a
      // single-core host. The timed sweep keeps the production clamp, so
      // parallel_ms reflects what a user would actually get here.
      par.clamp_to_hardware = !smoke;
      const double parallel_ms = timed_rebuild(par);
      const CompileSnapshot parallel_snap = node.snapshot();

      if (!(parallel_snap == serial_snap)) {
        std::fprintf(stderr, "FAIL: parallel compile diverged from serial (%s, n=%zu)\n",
                     compiler::op_name(op), n);
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
