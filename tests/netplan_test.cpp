// Tests for the network-wide consistent-update planner: topology model,
// per-switch projection, round-count optimality on hand-built topologies,
// per-packet consistency across every round boundary (property-tested over
// random topologies x policies x seeds), the inconsistent one-shot baseline
// the auditor must catch, and the fleet-gated runtime integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "flowspace/action.h"
#include "flowspace/rule.h"
#include "netplan/auditor.h"
#include "netplan/materialize.h"
#include "netplan/planner.h"
#include "netplan/policy.h"
#include "netplan/topology.h"
#include "proto/codec.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/workload.h"
#include "util/rng.h"

#include "test_util.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::ActionType;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::TernaryMatch;
using netplan::AuditConfig;
using netplan::ConsistencyAuditor;
using netplan::Flow;
using netplan::FlowForm;
using netplan::kHostPort;
using netplan::kVersionTagBase;
using netplan::LookupFn;
using netplan::MutationSpec;
using netplan::NetAuditReport;
using netplan::NetworkPolicy;
using netplan::PlannerConfig;
using netplan::ProjectedRule;
using netplan::Round;
using netplan::Strategy;
using netplan::SwitchId;
using netplan::Topology;
using netplan::UpdatePlan;
using netplan::version_tag;
using runtime::ChurnSpec;
using runtime::CompiledWorkload;
using runtime::Controller;
using runtime::FaultSpec;
using runtime::RuntimeConfig;
using runtime::RuntimeReport;
using runtime::SessionStats;
using runtime::SwitchWorkload;
using testutil::expect_reports_identical;

// ---- Topology -----------------------------------------------------------

TEST(Topology, ChainPortsAndPaths) {
  const Topology t = Topology::chain(3);
  ASSERT_EQ(t.switch_count(), 3u);
  EXPECT_EQ(t.port_to(0, 1), 1u);
  EXPECT_EQ(t.port_to(1, 0), 1u);
  EXPECT_EQ(t.port_to(1, 2), 2u);
  EXPECT_EQ(t.port_to(0, 2), std::nullopt);
  EXPECT_EQ(t.neighbor_via(1, 2), 2u);
  EXPECT_EQ(t.neighbor_via(1, kHostPort), std::nullopt);
  EXPECT_EQ(t.shortest_path(0, 2), (std::vector<SwitchId>{0, 1, 2}));
  EXPECT_EQ(t.shortest_path(2, 2), (std::vector<SwitchId>{2}));
}

TEST(Topology, DiamondHasTwoDisjointPaths) {
  const Topology t = Topology::diamond();
  ASSERT_EQ(t.switch_count(), 4u);
  // Tie between s1 and s2 breaks toward the lower id.
  EXPECT_EQ(t.shortest_path(0, 3), (std::vector<SwitchId>{0, 1, 3}));
  EXPECT_EQ(t.shortest_path_avoiding(0, 3, {1}),
            (std::vector<SwitchId>{0, 2, 3}));
  EXPECT_TRUE(t.shortest_path_avoiding(0, 3, {1, 2}).empty());
}

TEST(Topology, ParseSpecs) {
  EXPECT_EQ(Topology::parse("chain:5").switch_count(), 5u);
  EXPECT_EQ(Topology::parse("diamond").switch_count(), 4u);
  EXPECT_EQ(Topology::parse("random:9:4:7").switch_count(), 9u);
  EXPECT_THROW(Topology::parse("ring:4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("chain:"), std::invalid_argument);
}

TEST(Topology, RandomGraphsAreConnected) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology t = Topology::random_connected(10, 4, seed);
    for (SwitchId a = 0; a < t.switch_count(); ++a) {
      for (SwitchId b = 0; b < t.switch_count(); ++b) {
        EXPECT_FALSE(t.shortest_path(a, b).empty())
            << "seed " << seed << ": " << a << " -> " << b;
      }
    }
  }
}

TEST(Topology, IngressSetRestrictsPolicyEndpoints) {
  Topology t = Topology::chain(4);
  t.set_ingress({0, 3});
  EXPECT_EQ(t.ingress_switches(), (std::vector<SwitchId>{0, 3}));

  std::vector<Rule> rules;
  for (uint32_t i = 0; i < 8; ++i) {
    TernaryMatch m;
    m.set_exact(FieldId::kDstIp, 100 + i);
    rules.push_back(Rule::make(m, ActionList{Action::forward(1)}, 10));
  }
  const NetworkPolicy policy = netplan::policy_from_rules(t, rules, 3);
  for (const Flow& f : policy.flows) {
    EXPECT_TRUE(f.path.front() == 0 || f.path.front() == 3);
    EXPECT_TRUE(f.path.back() == 0 || f.path.back() == 3);
  }
}

// ---- Projection ---------------------------------------------------------

NetworkPolicy one_flow_policy(std::vector<SwitchId> path, uint32_t dst = 42) {
  Flow f;
  f.id = 0;
  f.match.set_exact(FieldId::kDstIp, dst);
  f.path = std::move(path);
  NetworkPolicy p;
  p.flows.push_back(std::move(f));
  return p;
}

TEST(Projection, PlainFlowPinsPathViaInPort) {
  const Topology topo = Topology::chain(3);
  const NetworkPolicy policy = one_flow_policy({0, 1, 2});
  const netplan::SwitchTables tables = netplan::project(topo, policy);
  ASSERT_EQ(tables.size(), 3u);
  for (const auto& t : tables) ASSERT_EQ(t.size(), 1u);

  const ProjectedRule& ingress = tables[0][0];
  EXPECT_TRUE(ingress.ingress);
  EXPECT_EQ(ingress.rule.match.field(FieldId::kInPort).value, kHostPort);
  EXPECT_EQ(ingress.rule.match.field(FieldId::kInPort).mask, 0xffu);
  ASSERT_EQ(ingress.rule.actions.actions().size(), 1u);
  EXPECT_EQ(ingress.rule.actions.actions()[0].arg, *topo.port_to(0, 1));

  const ProjectedRule& core = tables[1][0];
  EXPECT_FALSE(core.ingress);
  EXPECT_EQ(core.rule.match.field(FieldId::kInPort).value, *topo.port_to(1, 0));
  EXPECT_EQ(core.rule.actions.actions()[0].arg, *topo.port_to(1, 2));

  const ProjectedRule& egress = tables[2][0];
  EXPECT_EQ(egress.rule.actions.actions()[0].arg, kHostPort);

  const int32_t want = 2 * netplan::kFlowPriorityBase;
  for (const auto& t : tables) EXPECT_EQ(t[0].rule.priority, want);
}

TEST(Projection, TaggedFlowStampsAtIngressAndPinsCores) {
  const Topology topo = Topology::chain(3);
  NetworkPolicy policy = one_flow_policy({0, 1, 2});
  policy.version = 7;
  const uint32_t tag = version_tag(7);
  const netplan::SwitchTables tables =
      netplan::project(topo, policy, {FlowForm::kTagged});

  const ProjectedRule& ingress = tables[0][0];
  EXPECT_FALSE(ingress.tagged);  // the stamp lives in the actions
  // ActionList is canonically ordered, so find the stamp by type.
  const std::vector<Action> stamps = ingress.rule.actions.set_fields();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0].field, FieldId::kEthType);
  EXPECT_EQ(stamps[0].arg, tag);
  EXPECT_TRUE(ingress.rule.actions.contains(ActionType::kForward));

  for (SwitchId sw : {SwitchId{1}, SwitchId{2}}) {
    const ProjectedRule& core = tables[sw][0];
    EXPECT_TRUE(core.tagged);
    EXPECT_EQ(core.rule.match.field(FieldId::kEthType).value, tag);
    EXPECT_EQ(core.rule.match.field(FieldId::kEthType).mask, 0xffffu);
  }
  // Tagged rules shadow the plain form wherever both are installed.
  EXPECT_EQ(tables[0][0].rule.priority, 2 * netplan::kFlowPriorityBase + 1);
}

TEST(Projection, PolicyMatchInsideTagRangeIsRejected) {
  const Topology topo = Topology::chain(2);
  TernaryMatch m;
  m.set_exact(FieldId::kEthType, kVersionTagBase | 0x3);
  const std::vector<Rule> rules = {
      Rule::make(m, ActionList{Action::forward(1)}, 5)};
  EXPECT_THROW(netplan::policy_from_rules(topo, rules, 1),
               std::invalid_argument);
}

// ---- Planner: hand-built round-count optimality -------------------------

std::vector<std::string> round_labels(const UpdatePlan& plan) {
  std::vector<std::string> labels;
  for (const Round& r : plan.rounds) labels.push_back(r.label);
  return labels;
}

/// The diamond reroute: one flow moves from the s1 arm to the s2 arm.
struct DiamondScenario {
  Topology topo = Topology::diamond();
  NetworkPolicy oldp = one_flow_policy({0, 1, 3});
  NetworkPolicy newp;
  DiamondScenario() {
    newp = one_flow_policy({0, 2, 3});
    newp.version = 2;
  }
};

TEST(Planner, DiamondDependencyRoundsMatchPathDepth) {
  DiamondScenario s;
  const UpdatePlan plan = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kRounds, 0});
  // Downstream-first adds (s3 then s2), one commit at s0, upstream-first
  // GC (s1 then old s3): exactly 2 + 1 + 2 rounds for a depth-3 reroute.
  EXPECT_EQ(round_labels(plan), (std::vector<std::string>{
                                    "add:0", "add:1", "commit", "gc:0", "gc:1"}));
  EXPECT_EQ(plan.flows_rounds, 1u);
  EXPECT_EQ(plan.flows_two_phase, 0u);
  EXPECT_EQ(plan.flows_forced_two_phase, 0u);
  // Only the changed hops are transiently duplicated.
  EXPECT_EQ(plan.initial_rules, 3u);
  EXPECT_EQ(plan.final_rules, 3u);
  EXPECT_LE(plan.peak_rules, 5u);
}

TEST(Planner, DiamondTwoPhaseIsThreeRoundsFlat) {
  DiamondScenario s;
  const UpdatePlan plan = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kTwoPhase, 0});
  EXPECT_EQ(round_labels(plan),
            (std::vector<std::string>{"add:0", "commit", "gc:0"}));
  EXPECT_EQ(plan.flows_two_phase, 1u);
  // The whole new path coexists with the old one between prepare and GC.
  EXPECT_GT(plan.overhead_pct(), 0.0);
}

TEST(Planner, AutoTradesRoundsForHeadroom) {
  DiamondScenario s;
  // Unbounded headroom: auto prefers the 3-round two-phase schedule.
  const UpdatePlan fast = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kAuto, 0});
  EXPECT_EQ(fast.rounds.size(), 3u);
  EXPECT_EQ(fast.flows_two_phase, 1u);
  // Capacity 1: s3 already holds a rule, no room for the tagged duplicate —
  // the flow falls back to dependency rounds (slower, but no augmentation).
  const UpdatePlan tight = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kAuto, 1});
  EXPECT_EQ(tight.rounds.size(), 5u);
  EXPECT_EQ(tight.flows_rounds, 1u);
  EXPECT_EQ(tight.flows_two_phase, 0u);
}

TEST(Planner, ChainShortenNeedsOnlyCommitPlusGc) {
  const Topology topo = Topology::chain(4);
  const NetworkPolicy oldp = one_flow_policy({0, 1, 2, 3});
  NetworkPolicy newp = one_flow_policy({0, 1, 2});
  newp.version = 2;
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kRounds, 0});
  // s0/s1 rules are unchanged (relinked, no delta); s2 flips its forward
  // in the commit round and the orphaned s3 rule GCs afterwards.
  EXPECT_EQ(round_labels(plan), (std::vector<std::string>{"commit", "gc:2"}));
  std::set<SwitchId> touched;
  for (const Round& r : plan.rounds) {
    for (const auto& d : r.deltas) touched.insert(d.sw);
  }
  EXPECT_EQ(touched, (std::set<SwitchId>{2, 3}));
  EXPECT_EQ(plan.peak_rules, plan.initial_rules);  // pure shrink: no overlap
}

TEST(Planner, IdenticalPoliciesPlanNoRounds) {
  const Topology topo = Topology::diamond();
  const NetworkPolicy policy = one_flow_policy({0, 1, 3});
  const UpdatePlan plan =
      netplan::plan_update(topo, policy, policy, {Strategy::kAuto, 0});
  EXPECT_TRUE(plan.rounds.empty());
  EXPECT_EQ(plan.flows_changed, 0u);
  EXPECT_EQ(plan.peak_rules, plan.initial_rules);
}

TEST(Planner, OverlappingChangedFlowsAreForcedTwoPhase) {
  const Topology topo = Topology::diamond();
  // Two overlapping flows (a /24 and a covering /16) both reroute: the
  // conflict group forces two-phase even under the rounds strategy.
  NetworkPolicy oldp, newp;
  for (uint32_t i = 0; i < 2; ++i) {
    Flow f;
    f.id = i;
    if (i == 0) {
      f.match.set_prefix(FieldId::kDstIp, 0x0a000000, 24);
    } else {
      f.match.set_prefix(FieldId::kDstIp, 0x0a000000, 16);
    }
    f.path = {0, 1, 3};
    oldp.flows.push_back(f);
    f.path = {0, 2, 3};
    newp.flows.push_back(f);
  }
  newp.version = 2;
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kRounds, 0});
  EXPECT_EQ(plan.flows_forced_two_phase, 2u);
  EXPECT_EQ(plan.flows_two_phase, 2u);
  EXPECT_EQ(plan.rounds.size(), 3u);  // prepare, commit, gc
}

// ---- Consistency: planner-side simulation -------------------------------

/// Synthetic policy source: a mix of disjoint /32s and covering /16s so
/// conflict groups actually form.
std::vector<Rule> synthetic_rules(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rule> rules;
  for (size_t i = 0; i < n; ++i) {
    TernaryMatch m;
    const uint32_t base = static_cast<uint32_t>(rng.next_below(4)) << 24;
    if (i % 4 == 3) {
      m.set_prefix(FieldId::kDstIp, base | (uint32_t(i) << 16), 16);
    } else {
      m.set_exact(FieldId::kDstIp, base | static_cast<uint32_t>(i * 257 + 1));
      if (i % 3 == 0) m.set_exact(FieldId::kIpProto, 6);
    }
    rules.push_back(Rule::make(m, ActionList{Action::forward(1)},
                               static_cast<int32_t>(100 - i)));
  }
  return rules;
}

/// Replays the auditor at every round boundary of a planner-side
/// simulation. Returns the number of mixed (inconsistent) observations;
/// `final_all_new` (optional) receives whether the last boundary saw every
/// probe on the pure-new trace.
size_t mixed_across_rounds(const Topology& topo, const NetworkPolicy& oldp,
                           const NetworkPolicy& newp, const UpdatePlan& plan,
                           uint64_t audit_seed, bool* final_all_new = nullptr) {
  const std::vector<FlowTable> old_tables = netplan::tables_from(plan.initial);
  const std::vector<FlowTable> new_tables =
      netplan::tables_from(plan.final_tables);
  AuditConfig acfg;
  acfg.seed = audit_seed;
  const ConsistencyAuditor auditor(topo, oldp, newp, old_tables, new_tables,
                                   acfg);
  EXPECT_GT(auditor.probe_count(), 0u);

  std::vector<FlowTable> mid = netplan::tables_from(plan.initial);
  const LookupFn look = netplan::tables_lookup(mid);
  size_t mixed = auditor.audit(look).mixed;
  NetAuditReport last;
  for (const Round& round : plan.rounds) {
    netplan::apply_round(round, mid);
    last = auditor.audit(look);
    mixed += last.mixed;
    if (last.mixed > 0 && !last.violations.empty()) {
      ADD_FAILURE() << "round " << round.label << ": "
                    << last.violations.front();
    }
  }
  if (final_all_new != nullptr) {
    *final_all_new = plan.rounds.empty() || last.matched_old == 0;
  }
  return mixed;
}

TEST(Consistency, EveryBoundaryCleanAcrossTopologiesPoliciesSeeds) {
  const std::vector<std::string> topo_specs = {"chain:5", "diamond",
                                               "random:8:4:13"};
  const std::vector<Strategy> strategies = {Strategy::kRounds,
                                            Strategy::kTwoPhase,
                                            Strategy::kAuto};
  for (const std::string& spec : topo_specs) {
    const Topology topo = Topology::parse(spec);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const NetworkPolicy oldp =
          netplan::policy_from_rules(topo, synthetic_rules(12, seed), seed);
      MutationSpec mut;
      mut.reroute_fraction = 0.5;
      mut.drop_flows = 2;
      mut.seed = seed;
      for (uint32_t a = 0; a < 2; ++a) {
        TernaryMatch m;
        m.set_exact(FieldId::kDstIp, 0xfe000000u + a + uint32_t(seed));
        mut.add_matches.push_back(m);
      }
      const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
      for (Strategy strategy : strategies) {
        const UpdatePlan plan =
            netplan::plan_update(topo, oldp, newp, {strategy, 0});
        bool final_all_new = false;
        const size_t mixed = mixed_across_rounds(topo, oldp, newp, plan,
                                                 seed * 31, &final_all_new);
        EXPECT_EQ(mixed, 0u)
            << spec << " seed " << seed << " " << netplan::strategy_name(strategy);
        EXPECT_TRUE(final_all_new)
            << spec << " seed " << seed << " " << netplan::strategy_name(strategy);
      }
    }
  }
}

TEST(Consistency, AutoUnderTightCapacityStaysClean) {
  const Topology topo = Topology::parse("random:8:4:13");
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, synthetic_rules(12, 2), 2);
  MutationSpec mut;
  mut.reroute_fraction = 0.6;
  mut.seed = 2;
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
  // A capacity just above the initial per-switch peak: some flows get
  // two-phase headroom, others are squeezed into dependency rounds.
  UpdatePlan probe = netplan::plan_update(topo, oldp, newp, {Strategy::kAuto, 0});
  const size_t cap = probe.peak_switch_rules > 2 ? probe.peak_switch_rules - 1 : 2;
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kAuto, cap});
  EXPECT_EQ(mixed_across_rounds(topo, oldp, newp, plan, 99), 0u);
  EXPECT_LE(plan.peak_switch_rules, std::max(cap, probe.peak_switch_rules));
}

TEST(Consistency, OneShotBaselineIsCaughtByTheAuditor) {
  DiamondScenario s;
  const UpdatePlan plan = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kOneShot, 0});
  ASSERT_GT(plan.rounds.size(), 1u);

  const std::vector<FlowTable> old_tables = netplan::tables_from(plan.initial);
  const std::vector<FlowTable> new_tables =
      netplan::tables_from(plan.final_tables);
  const ConsistencyAuditor auditor(s.topo, s.oldp, s.newp, old_tables,
                                   new_tables, AuditConfig{});
  std::vector<FlowTable> mid = netplan::tables_from(plan.initial);
  const LookupFn look = netplan::tables_lookup(mid);
  size_t mixed = 0;
  for (const Round& round : plan.rounds) {
    netplan::apply_round(round, mid);
    mixed += auditor.audit(look).mixed;
  }
  // Upstream-first: the ingress flips toward s2 before s2 can forward.
  EXPECT_GT(mixed, 0u);
}

// Regression: a stamped (post-commit) packet must not be captured by
// another flow's not-yet-GC'd old rule. Flow 0 (higher priority) passes
// s1->s3 in the old policy with an eth_type-wildcard rule; flow 1 reroutes
// through s3 arriving on the same port two-phase. Before tag-matched rules
// were lifted above the plain band, flow 1's stamped packet matched flow
// 0's stale rule at s3 (plain rules don't constrain eth_type) and exited
// the fabric early — a mixed trace at the commit/GC boundary.
TEST(Consistency, StampedPacketNotCapturedByOverlappingOldRule) {
  const Topology topo = Topology::diamond();

  Flow broad;  // id 0: wins every overlap in the plain band
  broad.id = 0;
  broad.match.set_prefix(FieldId::kDstIp, 0x0a010000, 16);
  Flow narrow;  // id 1: subset match, different ingress
  narrow.id = 1;
  narrow.match.set_prefix(FieldId::kDstIp, 0x0a010200, 24);

  NetworkPolicy oldp, newp;
  oldp.version = 1;
  newp.version = 2;
  broad.path = {0, 1, 3};   // egress at s3 arrives from s1
  narrow.path = {1, 0, 2};  // old path avoids s3
  oldp.flows = {broad, narrow};
  broad.path = {0, 2, 3};   // rerouted: the s3-from-s1 rule becomes stale
  narrow.path = {1, 3, 2};  // new path hits s3 from s1 — the capture site
  newp.flows = {broad, narrow};

  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kTwoPhase, 0});
  // Overlapping changed flows form one conflict group: both two-phase.
  EXPECT_EQ(plan.flows_two_phase, 2u);
  EXPECT_EQ(mixed_across_rounds(topo, oldp, newp, plan, 71), 0u);

  // The forced path must hold under dependency rounds too.
  const UpdatePlan rplan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kRounds, 0});
  EXPECT_EQ(rplan.flows_forced_two_phase, 2u);
  EXPECT_EQ(mixed_across_rounds(topo, oldp, newp, rplan, 72), 0u);
}

// ---- Materialization + fleet runtime ------------------------------------

TEST(Materialize, AllSwitchLogsShareTheRoundStructure) {
  DiamondScenario s;
  const UpdatePlan plan = netplan::plan_update(
      s.topo, s.oldp, s.newp, {Strategy::kRounds, 0});
  const std::vector<netplan::SwitchScript> scripts =
      netplan::materialize(s.topo, plan);
  ASSERT_EQ(scripts.size(), 4u);
  for (const auto& script : scripts) {
    // Epoch 1 installs, one epoch per round after that — even for switches
    // a round does not touch (their epoch is a barrier-only no-op).
    EXPECT_EQ(script.epochs.size(), 1 + plan.rounds.size());
  }
  // Expected state mirrors the planner's final tables.
  for (size_t sw = 0; sw < scripts.size(); ++sw) {
    EXPECT_EQ(scripts[sw].expected.size(), plan.final_tables[sw].size());
  }
}

TEST(Fleet, RoundsRideTheFaultyRuntimeAndStayConsistent) {
  const Topology topo = Topology::diamond();
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, synthetic_rules(8, 4), 4);
  MutationSpec mut;
  mut.reroute_fraction = 0.5;
  mut.drop_flows = 1;
  mut.seed = 4;
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kAuto, 0});
  ASSERT_GT(plan.rounds.size(), 0u);

  RuntimeConfig rc;
  rc.knobs.faults = FaultSpec::chaos();
  rc.fault_seed = 11;
  rc.n_threads = 1;
  rc.tcam_capacity = plan.peak_switch_rules + 16;
  const std::vector<SwitchWorkload> fleet =
      netplan::to_workloads(netplan::materialize(topo, plan));
  EXPECT_EQ(fleet.front().log->size(), 1 + plan.rounds.size());

  AuditConfig acfg;
  acfg.seed = 17;
  const ConsistencyAuditor auditor(
      topo, oldp, newp, netplan::tables_from(plan.initial),
      netplan::tables_from(plan.final_tables), acfg);
  size_t mixed = 0;
  std::vector<double> barriers;
  const RuntimeReport report = Controller(rc).run_rounds(
      fleet, [&](size_t epoch, double barrier_ms, auto agents) {
        EXPECT_EQ(epoch, barriers.size() + 1);
        EXPECT_EQ(agents.size(), fleet.size());
        mixed += auditor.audit(netplan::live_lookup(agents)).mixed;
        barriers.push_back(barrier_ms);
      });

  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.all_converged);
  EXPECT_EQ(mixed, 0u);
  EXPECT_EQ(barriers.size(), 1 + plan.rounds.size());
  EXPECT_TRUE(std::is_sorted(barriers.begin(), barriers.end()));
  EXPECT_GT(report.makespan_ms, 0.0);
  // The chaotic wire actually fired.
  size_t dropped = 0;
  for (const SessionStats& st : report.sessions) dropped += st.wire.dropped;
  EXPECT_GT(dropped, 0u);
}

TEST(Fleet, ReportIsDeterministicAcrossThreadCounts) {
  const Topology topo = Topology::chain(5);
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, synthetic_rules(10, 6), 6);
  MutationSpec mut;
  mut.reroute_fraction = 0.5;
  mut.seed = 6;
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kTwoPhase, 0});
  const std::vector<SwitchWorkload> fleet =
      netplan::to_workloads(netplan::materialize(topo, plan));

  auto run_with = [&](size_t threads, std::vector<double>& barriers) {
    RuntimeConfig rc;
    rc.knobs.faults = FaultSpec::chaos();
    rc.fault_seed = 23;
    rc.n_threads = threads;
    rc.tcam_capacity = plan.peak_switch_rules + 16;
    return Controller(rc).run_rounds(
        fleet, [&](size_t, double barrier_ms, auto) {
          barriers.push_back(barrier_ms);
        });
  };
  std::vector<double> serial_barriers, threaded_barriers;
  const RuntimeReport serial = run_with(1, serial_barriers);
  const RuntimeReport threaded = run_with(4, threaded_barriers);
  EXPECT_TRUE(serial.all_converged);
  EXPECT_EQ(serial_barriers.size(), 1 + plan.rounds.size());
  EXPECT_EQ(serial_barriers, threaded_barriers);
  expect_reports_identical(serial, threaded);
}

TEST(Fleet, DeadlineCutsTheRunShortAndReportsIncomplete) {
  const Topology topo = Topology::chain(5);
  const NetworkPolicy oldp =
      netplan::policy_from_rules(topo, synthetic_rules(10, 6), 6);
  MutationSpec mut;
  mut.reroute_fraction = 0.5;
  mut.seed = 6;
  const NetworkPolicy newp = netplan::mutate_policy(topo, oldp, mut);
  const UpdatePlan plan =
      netplan::plan_update(topo, oldp, newp, {Strategy::kTwoPhase, 0});
  const std::vector<SwitchWorkload> fleet =
      netplan::to_workloads(netplan::materialize(topo, plan));
  const size_t epochs = fleet.front().log->size();

  for (size_t threads : {1ul, 4ul}) {
    RuntimeConfig rc;
    rc.knobs.faults = FaultSpec::chaos();
    // The install and first round fit in 50 virtual ms; the rest of the
    // plan does not.
    rc.knobs.deadline_ms = 50.0;
    rc.fault_seed = 23;
    rc.n_threads = threads;
    rc.tcam_capacity = plan.peak_switch_rules + 16;
    size_t rounds_observed = 0;
    const RuntimeReport report = Controller(rc).run_rounds(
        fleet, [&](size_t, double, auto) { ++rounds_observed; });
    EXPECT_FALSE(report.all_completed) << threads << " threads";
    EXPECT_FALSE(report.all_converged) << threads << " threads";
    EXPECT_GT(rounds_observed, 0u) << threads << " threads";
    EXPECT_LT(rounds_observed, epochs) << threads << " threads";
  }
}

// ---- Controller refactor regression -------------------------------------

CompiledWorkload small_workload(size_t updates, uint64_t seed) {
  util::Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(25, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(20, rng)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = updates;
  churn.seed = seed;
  return compile_churn_workload(spec, tables, churn);
}

TEST(Controller, FleetPathIsBitIdenticalToSharedLogPath) {
  const CompiledWorkload wl = small_workload(25, 31);
  RuntimeConfig cfg;
  cfg.n_switches = 4;
  cfg.knobs.window = 4;
  cfg.n_threads = 2;
  cfg.knobs.faults = FaultSpec::chaos();
  cfg.knobs.faults.crash_p = 0.01;
  cfg.knobs.faults.corrupt_p = 0.02;
  cfg.fault_seed = 5;

  Controller shared(cfg);
  const RuntimeReport a = shared.run(wl.epochs, wl.final_rules);
  EXPECT_TRUE(a.all_converged);

  // Same workload through the per-switch-log entry point, each switch with
  // its own independently encoded (but equal) log.
  std::vector<SwitchWorkload> fleet;
  for (size_t i = 0; i < cfg.n_switches; ++i) {
    fleet.push_back({runtime::encode_log(wl.epochs), wl.final_rules});
  }
  Controller per_switch(cfg);
  const RuntimeReport b = per_switch.run_fleet(fleet);
  expect_reports_identical(a, b);
}

TEST(Controller, FleetWithHeterogeneousLogs) {
  // Different per-switch logs: each switch converges to its own table.
  const CompiledWorkload w1 = small_workload(10, 7);
  const CompiledWorkload w2 = small_workload(16, 8);
  RuntimeConfig cfg;
  cfg.knobs.faults = FaultSpec::chaos();
  cfg.fault_seed = 9;
  cfg.n_threads = 2;
  std::vector<SwitchWorkload> fleet;
  fleet.push_back({runtime::encode_log(w1.epochs), w1.final_rules});
  fleet.push_back({runtime::encode_log(w2.epochs), w2.final_rules});
  Controller controller(cfg);
  const RuntimeReport report = controller.run_fleet(fleet);
  ASSERT_EQ(report.sessions.size(), 2u);
  EXPECT_TRUE(report.all_converged);
  EXPECT_EQ(report.sessions[0].epochs, w1.epochs.size());
  EXPECT_EQ(report.sessions[1].epochs, w2.epochs.size());
  EXPECT_EQ(report.epochs_applied(), w1.epochs.size() + w2.epochs.size());
}

TEST(Fleet, ScriptsOfDifferentLengthAreRejected) {
  const CompiledWorkload w1 = small_workload(3, 1);
  const CompiledWorkload w2 = small_workload(5, 2);
  std::vector<SwitchWorkload> fleet;
  fleet.push_back({runtime::encode_log(w1.epochs), w1.final_rules});
  fleet.push_back({runtime::encode_log(w2.epochs), w2.final_rules});
  EXPECT_THROW(Controller(RuntimeConfig{}).run_rounds(fleet),
               std::invalid_argument);
}

}  // namespace
}  // namespace ruletris
