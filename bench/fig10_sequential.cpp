// Figure 10: rule update overhead of "L3-L4 NAT > L3 router".
//
// A 100-entry NAT table (exact public destinations rewritten into the
// router's prefixes, plus a passthrough default) sequentially composed with
// an L3 router (126 entries for the hardware point, 250-4000 emulated).
// Each update replaces one NAT translation (Sec. VII-B).
//
// Flags: --json PATH  machine-readable report (see bench_util.h)
//        --smoke      the HW row only, 20 updates (CI); exits non-zero on any
//                     switch-apply failure in either mode
#include <cstring>

#include "bench/scenario.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  bench::init_json(argc, argv, "fig10_sequential");
  bench::CompositionScenario scenario;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) scenario.smoke = true;
  }
  scenario.title = "Fig. 10: L3-L4 NAT > L3 router (sequential)";
  scenario.op = 1;  // sequential
  scenario.left_size = 100;
  scenario.hw_right_size = 126;
  scenario.gen_left = [](size_t n, const std::vector<flowspace::Rule>& router,
                         util::Rng& rng) {
    return classbench::generate_nat(n, router, rng);
  };
  scenario.gen_replacement = [](const std::vector<flowspace::Rule>& router,
                                util::Rng& rng) {
    return classbench::random_nat_rule(router, 100, rng);
  };
  scenario.protect_last_left = true;  // never churn the passthrough default
  const size_t failures = bench::run_composition_scenario(scenario);
  bench::write_json();
  return failures == 0 ? 0 : 1;
}
