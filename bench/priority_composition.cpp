// Supplementary scenario: priority composition "firewall $ router".
//
// The paper evaluates parallel (Fig. 9) and sequential (Fig. 10)
// composition; this runs the priority operator (Sec. IV-A) through the same
// three-compiler pipeline. The firewall overrides the router for the traffic it names; updates churn the firewall.
#include "bench/scenario.h"

int main() {
  using namespace ruletris;
  bench::CompositionScenario scenario;
  scenario.title = "Supplementary: L3-L4 firewall $ L3 router (priority)";
  scenario.op = 2;  // priority
  scenario.left_size = 100;
  scenario.hw_right_size = 128;
  scenario.gen_left = [](size_t n, const std::vector<flowspace::Rule>&, util::Rng& rng) {
    return classbench::generate_firewall(n, rng);
  };
  scenario.gen_replacement = [](const std::vector<flowspace::Rule>&, util::Rng& rng) {
    flowspace::Rule r = classbench::random_monitor_rule(100, rng);
    // Firewall semantics for the replacement: accept or drop.
    r.actions = rng.next_bool(0.4)
                    ? flowspace::ActionList{flowspace::Action::drop()}
                    : flowspace::ActionList{flowspace::Action::forward(1)};
    return r;
  };
  scenario.protect_last_left = true;  // keep the default-deny backstop
  return bench::run_composition_scenario(scenario) == 0 ? 0 : 1;
}
