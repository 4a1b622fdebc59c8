// Chaos soak for the network-wide update planner: random topologies and
// policies driven through the fleet-gated runtime under the full fault
// gauntlet (drops, duplicates, delay reordering, bit flips, agent restarts,
// firmware crashes mid-transaction), with the consistency auditor replaying
// packets between every round. Zero mixed-version observations allowed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "flowspace/rule.h"
#include "netplan/auditor.h"
#include "netplan/materialize.h"
#include "netplan/planner.h"
#include "netplan/policy.h"
#include "netplan/topology.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;
using netplan::AuditConfig;
using netplan::ConsistencyAuditor;
using netplan::MutationSpec;
using netplan::NetworkPolicy;
using netplan::Strategy;
using netplan::Topology;
using netplan::UpdatePlan;
using runtime::FaultSpec;

std::vector<Rule> soak_rules(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rule> rules;
  for (size_t i = 0; i < n; ++i) {
    TernaryMatch m;
    if (i % 5 == 4) {
      m.set_prefix(FieldId::kDstIp,
                   static_cast<uint32_t>(rng.next_u64()) & 0xffff0000u, 16);
    } else {
      m.set_exact(FieldId::kDstIp, static_cast<uint32_t>(rng.next_u64()));
      if (i % 2 == 0) m.set_exact(FieldId::kSrcPort, uint32_t(i) & 0xffffu);
    }
    rules.push_back(Rule::make(m, ActionList{Action::forward(1)},
                               static_cast<int32_t>(500 - i)));
  }
  return rules;
}

struct SoakTotals {
  size_t crashes = 0;
  size_t restarts = 0;
  size_t dropped = 0;
  size_t corrupted = 0;
  size_t audits = 0;
};

/// One full fleet run under crashy faults; fails the test on any mixed
/// observation, non-convergence, or non-completion.
void soak_one(uint64_t seed, Strategy strategy, SoakTotals& totals) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " strategy " +
               netplan::strategy_name(strategy));
  const Topology topo = Topology::random_connected(6, 3, seed);
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, soak_rules(10, seed), seed);
  MutationSpec mut;
  mut.reroute_fraction = 0.6;
  mut.drop_flows = 2;
  mut.seed = seed;
  for (uint32_t a = 0; a < 2; ++a) {
    TernaryMatch m;
    m.set_exact(FieldId::kDstIp, 0xc0000000u + a * 7919u + uint32_t(seed));
    mut.add_matches.push_back(m);
  }
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {strategy, 0});
  ASSERT_GT(plan.rounds.size(), 0u);

  runtime::RuntimeConfig rc;
  rc.knobs.faults = FaultSpec::crashy();
  // The default crash rate is tuned for thousand-epoch logs; a short
  // planner schedule needs a harsher mix to actually crash mid-round.
  rc.knobs.faults.crash_p = 0.05;
  rc.knobs.faults.restart_every_ms = 60.0;
  rc.fault_seed = seed;
  rc.n_threads = 2;
  rc.tcam_capacity = plan.peak_switch_rules + 16;

  AuditConfig acfg;
  acfg.seed = seed ^ 0xa0d17;
  const ConsistencyAuditor auditor(
      topo, oldp, newp, netplan::tables_from(plan.initial),
      netplan::tables_from(plan.final_tables), acfg);

  size_t mixed = 0;
  const runtime::RuntimeReport report = runtime::Controller(rc).run_rounds(
      netplan::to_workloads(netplan::materialize(topo, plan)),
      [&](size_t epoch, double, auto agents) {
        const auto audit = auditor.audit(netplan::live_lookup(agents));
        mixed += audit.mixed;
        ++totals.audits;
        if (audit.mixed > 0 && !audit.violations.empty()) {
          ADD_FAILURE() << "epoch " << epoch << ": " << audit.violations.front();
        }
      });

  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.all_converged);
  EXPECT_EQ(report.apply_failures, 0u);
  EXPECT_EQ(mixed, 0u);
  totals.crashes += report.crashes;
  totals.restarts += report.restarts;
  for (const auto& s : report.sessions) {
    totals.dropped += s.wire.dropped;
    totals.corrupted += s.wire.corrupted;
  }
}

TEST(NetplanSoak, ConsistentAcrossCrashSeedsAndStrategies) {
  SoakTotals totals;
  for (uint64_t seed : {3u, 5u, 9u}) {
    for (Strategy strategy :
         {Strategy::kRounds, Strategy::kTwoPhase, Strategy::kAuto}) {
      soak_one(seed, strategy, totals);
    }
  }
  // The gauntlet must have actually fired: wire faults and firmware
  // crashes, not a quiet fair-weather pass.
  EXPECT_GT(totals.dropped, 0u);
  EXPECT_GT(totals.corrupted, 0u);
  EXPECT_GT(totals.crashes, 0u);
  EXPECT_GT(totals.audits, 9u);
  std::printf("soak: %zu audits, %zu crashes, %zu restarts, %zu drops, "
              "%zu corrupt frames — all boundaries consistent\n",
              totals.audits, totals.crashes, totals.restarts, totals.dropped,
              totals.corrupted);
}

}  // namespace
}  // namespace ruletris
