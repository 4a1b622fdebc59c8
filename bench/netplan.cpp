// Network-wide consistent-update bench: planner strategies vs. the
// inconsistent one-shot baseline.
//
// For each strategy (rounds, two-phase, auto, oneshot) the bench plans the
// same policy transition, replays the schedule two ways — a planner-side
// table simulation and real fleet runs over the faulty runtime across
// several crash seeds — and audits per-packet consistency between every
// round. Reported per strategy: rounds-to-converge, virtual makespan,
// transient rule overhead (the augmentation cost), and the number of mixed
// old/new observations (must be zero for every consistent strategy; the
// one-shot baseline must be caught).
//
//   bench/netplan [--smoke] [--topology SPEC] [--flows N] [--threads N]
//                 [--seeds S] [--json out.json]
//
// --smoke self-checks and exits non-zero when any consistent strategy
// leaks a mixed observation, the baseline goes uncaught, or two-phase
// fails to beat dependency rounds on round count.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "flowspace/rule.h"
#include "netplan/auditor.h"
#include "netplan/materialize.h"
#include "netplan/planner.h"
#include "netplan/policy.h"
#include "netplan/topology.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/report_fields.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace ruletris;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;
using netplan::AuditConfig;
using netplan::ConsistencyAuditor;
using netplan::LookupFn;
using netplan::MutationSpec;
using netplan::NetworkPolicy;
using netplan::Strategy;
using netplan::Topology;
using netplan::UpdatePlan;
using runtime::FaultSpec;

struct Options {
  std::string topology = "random:10:5:3";
  size_t flows = 24;
  size_t threads = 2;
  uint64_t seed = 3;                          // policy/mutation seed
  std::vector<uint64_t> fault_seeds = {3, 5, 9};
  bool smoke = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--topology") {
      opt.topology = value();
    } else if (arg == "--flows") {
      opt.flows = static_cast<size_t>(std::stoul(value()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<size_t>(std::stoul(value()));
    } else if (arg == "--seeds") {
      opt.fault_seeds.clear();
      std::string list = value();
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        opt.fault_seeds.push_back(std::stoull(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--json") {
      ++i;  // consumed by bench::init_json
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Synthetic policy source: mostly host routes plus a few covering /16s so
/// conflict groups (forced two-phase) actually occur.
std::vector<Rule> bench_rules(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rule> rules;
  for (size_t i = 0; i < n; ++i) {
    TernaryMatch m;
    const uint32_t base = static_cast<uint32_t>(rng.next_below(6)) << 24;
    if (i % 6 == 5) {
      m.set_prefix(FieldId::kDstIp, base | (uint32_t(i) << 16), 16);
    } else {
      m.set_exact(FieldId::kDstIp, base | static_cast<uint32_t>(i * 8111 + 5));
      if (i % 3 == 0) m.set_exact(FieldId::kIpProto, 6);
    }
    rules.push_back(Rule::make(m, ActionList{Action::forward(1)},
                               static_cast<int32_t>(1000 - i)));
  }
  return rules;
}

struct StrategyResult {
  Strategy strategy;
  UpdatePlan plan;
  size_t sim_violations = 0;      // planner-side table simulation
  size_t runtime_violations = 0;  // live-TCAM audits across fault seeds
  size_t audits = 0;
  runtime::SessionTotals totals;  // summed over the fault seeds
  bool all_completed = true;
  bool all_converged = true;
  util::Samples makespan_ms;  // one sample per fault seed
};

size_t simulate_and_audit(const UpdatePlan& plan,
                          const ConsistencyAuditor& auditor) {
  std::vector<FlowTable> mid = netplan::tables_from(plan.initial);
  const LookupFn look = netplan::tables_lookup(mid);
  size_t mixed = auditor.audit(look).mixed;
  for (const netplan::Round& round : plan.rounds) {
    netplan::apply_round(round, mid);
    mixed += auditor.audit(look).mixed;
  }
  return mixed;
}

StrategyResult run_strategy(const Topology& topo, const NetworkPolicy& oldp,
                            const NetworkPolicy& newp, Strategy strategy,
                            const Options& opt) {
  StrategyResult result;
  result.strategy = strategy;
  result.plan = netplan::plan_update(topo, oldp, newp, {strategy, 0});

  AuditConfig acfg;
  acfg.seed = opt.seed ^ 0xa0d17;
  const ConsistencyAuditor auditor(
      topo, oldp, newp, netplan::tables_from(result.plan.initial),
      netplan::tables_from(result.plan.final_tables), acfg);

  result.sim_violations = simulate_and_audit(result.plan, auditor);

  const std::vector<runtime::SwitchWorkload> fleet =
      netplan::to_workloads(netplan::materialize(topo, result.plan));
  for (uint64_t fault_seed : opt.fault_seeds) {
    runtime::RuntimeConfig rc;
    rc.knobs.faults = FaultSpec::crashy();
    rc.knobs.faults.crash_p = 0.02;
    rc.fault_seed = fault_seed;
    rc.n_threads = opt.threads;
    rc.tcam_capacity = result.plan.peak_switch_rules + 32;
    const runtime::RuntimeReport report = runtime::Controller(rc).run_rounds(
        fleet, [&](size_t, double, auto agents) {
          result.runtime_violations +=
              auditor.audit(netplan::live_lookup(agents)).mixed;
          ++result.audits;
        });
    result.all_completed = result.all_completed && report.all_completed;
    result.all_converged = result.all_converged && report.all_converged;
    result.totals += report;
    result.makespan_ms.add(report.makespan_ms);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bench::init_json(argc, argv, "netplan");

  const Topology topo = Topology::parse(opt.topology);
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, bench_rules(opt.flows, opt.seed), opt.seed);
  MutationSpec mut;
  mut.reroute_fraction = 0.4;
  mut.drop_flows = opt.flows / 8;
  mut.seed = opt.seed;
  for (uint32_t a = 0; a < 3; ++a) {
    TernaryMatch m;
    m.set_exact(FieldId::kDstIp, 0xf0000000u + a * 7919u);
    mut.add_matches.push_back(m);
  }
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);

  std::printf("netplan: topology %s (%zu switches), %zu -> %zu flows, "
              "%zu fault seeds, %zu threads\n",
              opt.topology.c_str(), topo.switch_count(), oldp.flows.size(),
              newp.flows.size(), opt.fault_seeds.size(), opt.threads);

  const std::vector<Strategy> strategies = {
      Strategy::kRounds, Strategy::kTwoPhase, Strategy::kAuto,
      Strategy::kOneShot};
  std::vector<StrategyResult> results;
  for (Strategy s : strategies) {
    results.push_back(run_strategy(topo, oldp, newp, s, opt));
  }

  std::printf("\n%-10s %7s %9s %22s %10s %8s %11s %10s\n", "strategy",
              "rounds", "peak", "makespan ms (med)", "overhead", "audits",
              "violations", "converged");
  if (auto* j = bench::json()) {
    j->meta("topology", opt.topology);
    j->meta("switches", static_cast<double>(topo.switch_count()));
    j->meta("flows_old", static_cast<double>(oldp.flows.size()));
    j->meta("flows_new", static_cast<double>(newp.flows.size()));
    j->meta("fault_seeds", static_cast<double>(opt.fault_seeds.size()));
    j->meta("seed", static_cast<double>(opt.seed));
  }
  for (const StrategyResult& r : results) {
    const size_t violations = r.sim_violations + r.runtime_violations;
    std::printf("%-10s %7zu %9zu %22s %9.1f%% %8zu %11zu %10s\n",
                netplan::strategy_name(r.strategy), r.plan.rounds.size(),
                r.plan.peak_rules, r.makespan_ms.summary("").c_str(),
                r.plan.overhead_pct(), r.audits, violations,
                (r.all_completed && r.all_converged) ? "yes" : "NO");
    if (auto* j = bench::json()) {
      j->begin_row();
      j->field("strategy", netplan::strategy_name(r.strategy));
      j->field("rounds", static_cast<double>(r.plan.rounds.size()));
      j->field("flows_changed", static_cast<double>(r.plan.flows_changed));
      j->field("flows_two_phase", static_cast<double>(r.plan.flows_two_phase));
      j->field("flows_rounds", static_cast<double>(r.plan.flows_rounds));
      j->field("flows_forced_two_phase",
               static_cast<double>(r.plan.flows_forced_two_phase));
      j->field("initial_rules", static_cast<double>(r.plan.initial_rules));
      j->field("final_rules", static_cast<double>(r.plan.final_rules));
      j->field("peak_rules", static_cast<double>(r.plan.peak_rules));
      j->field("peak_switch_rules",
               static_cast<double>(r.plan.peak_switch_rules));
      j->field("overhead_pct", r.plan.overhead_pct());
      j->field("makespan_med_ms", r.makespan_ms.median());
      j->field("makespan_p10_ms", r.makespan_ms.p10());
      j->field("makespan_p90_ms", r.makespan_ms.p90());
      j->field("audits", static_cast<double>(r.audits));
      j->field("sim_violations", static_cast<double>(r.sim_violations));
      j->field("runtime_violations",
               static_cast<double>(r.runtime_violations));
      j->fields(r.totals);
      j->field("converged", (r.all_completed && r.all_converged) ? 1.0 : 0.0);
    }
  }
  bench::write_json();

  // Self-checks. The consistent strategies must audit clean at every round
  // boundary under every fault seed; the one-shot baseline must be caught;
  // two-phase buys its TCAM augmentation with a round count no worse than
  // dependency rounds.
  const StrategyResult& rounds = results[0];
  const StrategyResult& two_phase = results[1];
  const StrategyResult& one_shot = results[3];
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      ok = false;
    }
  };
  for (size_t i = 0; i < 3; ++i) {  // rounds, two-phase, auto
    check(results[i].sim_violations == 0, "consistent strategy mixed in sim");
    check(results[i].runtime_violations == 0,
          "consistent strategy mixed on live TCAMs");
    check(results[i].all_completed && results[i].all_converged,
          "consistent strategy did not converge");
    check(results[i].makespan_ms.min() > 0.0, "zero makespan");
    check(results[i].audits ==
              opt.fault_seeds.size() * (1 + results[i].plan.rounds.size()),
          "auditor skipped a round boundary");
  }
  check(one_shot.sim_violations > 0, "one-shot baseline escaped the auditor");
  check(one_shot.runtime_violations > 0,
        "one-shot baseline escaped the live-TCAM auditor");
  check(two_phase.plan.rounds.size() <= rounds.plan.rounds.size(),
        "two-phase used more rounds than dependency rounds");
  check(two_phase.plan.peak_rules >= rounds.plan.peak_rules,
        "two-phase should pay the augmentation cost");
  if (opt.smoke) {
    std::printf("\nsmoke: %s\n", ok ? "all checks passed" : "FAILED");
  }
  return ok ? 0 : 1;
}
