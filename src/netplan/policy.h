// Network-wide policies and per-switch projection.
//
// A NetworkPolicy is a set of flows, each a ternary match plus the path its
// packets must take through the fabric. Projection splits the policy into
// one rule table per switch:
//
//   * the ingress hop matches the flow's header space AND in_port ==
//     kHostPort (packets entering the fabric), forwarding to the next hop;
//   * every core hop matches the flow's header space AND in_port == the
//     port facing the previous hop, so a rule only fires for packets that
//     actually travelled the flow's path — without this pin, overlapping
//     flows installed on shared switches would capture each other's
//     packets arriving from elsewhere;
//   * the egress hop forwards to kHostPort (the packet leaves the fabric).
//
// Two-phase updates need old- and new-version rules to coexist on core
// switches. The version tag rides the eth_type field: values 0xF000-0xFFFF
// are reserved for the fabric (real policies must not match there — the
// audit packet generator avoids the range). A tagged core rule additionally
// matches eth_type == version_tag(v) exactly; the ingress rule *stamps* the
// tag with a set-field rewrite, atomically moving the whole flow to the new
// version the instant the ingress rule flips.
//
// Priorities encode a single global order: flow f's plain rules sit at
// priority 2*(kFlowPriorityBase - f.id) (lower flow id == higher priority,
// consistently on every switch); the stamping ingress rule sits one higher
// so it shadows the same flow's old ingress. Tag-matched core rules live a
// whole band above every plain rule (+kTaggedPriorityBand, flow-id order
// preserved within the band): only stamped packets can reach them, and a
// stamped packet must win against every not-yet-GC'd old rule — plain
// rules leave eth_type unconstrained, so they would otherwise capture
// stamped packets of higher-id overlapping flows mid-update.
#pragma once

#include <cstdint>
#include <vector>

#include "flowspace/rule.h"
#include "netplan/topology.h"

namespace ruletris::netplan {

/// Reserved eth_type range carrying the two-phase version tag.
inline constexpr uint32_t kVersionTagBase = 0xF000;
inline constexpr uint32_t version_tag(uint32_t version) {
  return kVersionTagBase | (version & 0x0FFFu);
}

inline constexpr int32_t kFlowPriorityBase = 1'000'000;

/// Offset lifting tag-matched core rules above the entire plain band.
inline constexpr int32_t kTaggedPriorityBand = 2 * kFlowPriorityBase;

struct Flow {
  uint32_t id = 0;                // stable across policy versions
  flowspace::TernaryMatch match;  // header space (in_port ignored)
  std::vector<SwitchId> path;     // ingress first, egress last; never empty
};

struct NetworkPolicy {
  std::vector<Flow> flows;
  uint32_t version = 1;

  const Flow* find(uint32_t flow_id) const {
    for (const Flow& f : flows) {
      if (f.id == flow_id) return &f;
    }
    return nullptr;
  }
};

/// How a flow's new-version rules are rendered.
enum class FlowForm : uint8_t {
  kPlain,   // untagged; updated in dependency-ordered rounds
  kTagged,  // version-tagged cores + stamping ingress; two-phase
};

/// One projected per-switch rule plus its provenance.
struct ProjectedRule {
  flowspace::Rule rule;
  uint32_t flow = 0;
  uint32_t version = 0;
  bool ingress = false;  // matches in_port == kHostPort
  bool tagged = false;   // core rule pinned to version_tag(version)
};

/// Per-switch projected tables, indexed by SwitchId.
using SwitchTables = std::vector<std::vector<ProjectedRule>>;

/// Projects `policy` onto every switch of `topo`. `forms[i]` selects the
/// rendering of policy.flows[i] (kPlain everywhere when empty). Rule ids
/// are freshly drawn; the planner re-links unchanged rules to their old
/// ids when diffing two projections.
SwitchTables project(const Topology& topo, const NetworkPolicy& policy,
                     const std::vector<FlowForm>& forms = {});

/// Derives a policy from a compiled rule set: each rule becomes one flow
/// whose ingress/egress pair is drawn deterministically from the rule match
/// (hash over the topology's ingress set) and whose path is the shortest
/// one. Rules constraining eth_type inside the reserved version-tag range
/// are rejected with std::invalid_argument.
NetworkPolicy policy_from_rules(const Topology& topo,
                                const std::vector<flowspace::Rule>& rules,
                                uint64_t seed);

/// Mutation recipe for producing the "new" policy of an update.
struct MutationSpec {
  double reroute_fraction = 0.3;  // flows re-pathed around a random mid hop
  size_t drop_flows = 0;          // flows removed outright
  /// Matches for brand-new flows (paths assigned like policy_from_rules).
  std::vector<flowspace::TernaryMatch> add_matches;
  uint64_t seed = 1;
};

/// Builds version + 1 of `policy`: reroutes a seeded fraction of flows
/// (path around a random intermediate hop, or to a different egress when
/// no detour exists), drops `drop_flows` seeded picks, appends a flow per
/// `add_matches` entry. Flow ids are stable for surviving flows.
NetworkPolicy mutate_policy(const Topology& topo, const NetworkPolicy& policy,
                            const MutationSpec& spec);

}  // namespace ruletris::netplan
