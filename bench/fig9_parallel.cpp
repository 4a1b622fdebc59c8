// Figure 9: rule update overhead of "L3-L4 monitoring + L3 router".
//
// Monitoring table (firewall profile, 100 rules) composed in parallel with
// an L3 router (IP-chain profile, 78 entries for the hardware point and
// 250-4000 for the emulation sweep). Each update deletes one monitoring rule
// and inserts a fresh one (Sec. VII-B). Prints compilation time (Fig. 9a),
// firmware time (Fig. 9b) and TCAM update time (Fig. 9c) for Baseline,
// CoVisor and RuleTris.
//
// Flags: --json PATH  machine-readable report (see bench_util.h)
//        --smoke      the HW row only, 20 updates (CI); exits non-zero on any
//                     switch-apply failure in either mode
#include <cstring>

#include "bench/scenario.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  bench::init_json(argc, argv, "fig9_parallel");
  bench::CompositionScenario scenario;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) scenario.smoke = true;
  }
  scenario.title = "Fig. 9: L3-L4 monitoring + L3 router (parallel)";
  scenario.op = 0;  // parallel
  scenario.left_size = 100;
  scenario.hw_right_size = 78;
  scenario.gen_left = [](size_t n, const std::vector<flowspace::Rule>&, util::Rng& rng) {
    return classbench::generate_monitor(n, rng);
  };
  scenario.gen_replacement = [](const std::vector<flowspace::Rule>&, util::Rng& rng) {
    return classbench::random_monitor_rule(100, rng);
  };
  scenario.protect_last_left = true;  // never churn the monitor's default
  const size_t failures = bench::run_composition_scenario(scenario);
  bench::write_json();
  return failures == 0 ? 0 : 1;
}
