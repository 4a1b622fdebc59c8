#include "netplan/policy.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"
#include "util/rng.h"

namespace ruletris::netplan {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::Rule;
using flowspace::TernaryMatch;

namespace {

/// True when the match can only fire inside the reserved version-tag
/// eth_type range — such a "policy" would collide with fabric tags.
bool match_inside_tag_range(const TernaryMatch& m) {
  const flowspace::FieldTernary& ft = m.field(FieldId::kEthType);
  return (ft.mask & kVersionTagBase) == kVersionTagBase &&
         (ft.value & kVersionTagBase) == kVersionTagBase;
}

Flow make_flow(const Topology& topo, uint32_t id, TernaryMatch match,
               uint64_t seed) {
  if (match_inside_tag_range(match)) {
    throw std::invalid_argument(
        "policy match constrained to the reserved version-tag eth_type range");
  }
  // The fabric repurposes in_port for path pinning; the policy's flow space
  // is the remaining header fields.
  match.set_wildcard(FieldId::kInPort);

  const std::vector<SwitchId> ingress_set = topo.ingress_switches();
  const uint64_t h1 = util::mix64(match.hash() ^ seed);
  const uint64_t h2 = util::mix64(h1 ^ 0x9e3779b97f4a7c15ull);
  const SwitchId ingress = ingress_set[h1 % ingress_set.size()];
  SwitchId egress = ingress_set[h2 % ingress_set.size()];
  if (egress == ingress && ingress_set.size() > 1) {
    egress = ingress_set[(h2 + 1) % ingress_set.size()];
  }
  Flow flow;
  flow.id = id;
  flow.match = std::move(match);
  flow.path = topo.shortest_path(ingress, egress);
  if (flow.path.empty()) flow.path = {ingress};  // disconnected: self-deliver
  return flow;
}

}  // namespace

SwitchTables project(const Topology& topo, const NetworkPolicy& policy,
                     const std::vector<FlowForm>& forms) {
  if (!forms.empty() && forms.size() != policy.flows.size()) {
    throw std::invalid_argument("project: forms/flows size mismatch");
  }
  SwitchTables tables(topo.switch_count());
  for (size_t i = 0; i < policy.flows.size(); ++i) {
    const Flow& flow = policy.flows[i];
    if (flow.path.empty()) throw std::invalid_argument("project: empty path");
    const bool tagged = !forms.empty() && forms[i] == FlowForm::kTagged;
    const int32_t priority =
        2 * (kFlowPriorityBase - static_cast<int32_t>(flow.id)) + (tagged ? 1 : 0);
    // Tag-matched core rules live in a band above every plain rule: a
    // stamped packet must never be captured by another flow's not-yet-GC'd
    // old rule, which matches it regardless of priority because plain
    // rules leave eth_type unconstrained. Within the band, flow-id order
    // is preserved, mirroring the plain band.
    const int32_t tagged_priority = priority + kTaggedPriorityBand;
    const uint32_t tag = version_tag(policy.version);

    for (size_t k = 0; k < flow.path.size(); ++k) {
      const SwitchId sw = flow.path[k];
      TernaryMatch m = flow.match;
      m.set_wildcard(FieldId::kInPort);
      if (k == 0) {
        m.set_exact(FieldId::kInPort, kHostPort);
      } else {
        const auto port = topo.port_to(sw, flow.path[k - 1]);
        if (!port) throw std::invalid_argument("project: path is not a walk");
        m.set_exact(FieldId::kInPort, *port);
        if (tagged) m.set_exact(FieldId::kEthType, tag);
      }
      ActionList actions;
      if (tagged && k == 0) actions.add(Action::set_field(FieldId::kEthType, tag));
      if (k + 1 < flow.path.size()) {
        const auto out = topo.port_to(sw, flow.path[k + 1]);
        if (!out) throw std::invalid_argument("project: path is not a walk");
        actions.add(Action::forward(*out));
      } else {
        actions.add(Action::forward(kHostPort));
      }

      ProjectedRule pr;
      const bool tagged_core = tagged && k > 0;
      pr.rule = Rule::make(std::move(m), std::move(actions),
                           tagged_core ? tagged_priority : priority);
      pr.flow = flow.id;
      pr.version = policy.version;
      pr.ingress = (k == 0);
      pr.tagged = tagged && k > 0;
      tables[sw].push_back(std::move(pr));
    }
  }
  return tables;
}

NetworkPolicy policy_from_rules(const Topology& topo,
                                const std::vector<flowspace::Rule>& rules,
                                uint64_t seed) {
  NetworkPolicy policy;
  policy.flows.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    policy.flows.push_back(
        make_flow(topo, static_cast<uint32_t>(i), rules[i].match, seed));
  }
  return policy;
}

NetworkPolicy mutate_policy(const Topology& topo, const NetworkPolicy& policy,
                            const MutationSpec& spec) {
  util::Rng rng(util::mix64(spec.seed ^ 0x6e657470ull));
  NetworkPolicy next = policy;
  next.version = policy.version + 1;

  // Drops first: rerouting a flow that is about to disappear would waste
  // the reroute budget.
  for (size_t d = 0; d < spec.drop_flows && !next.flows.empty(); ++d) {
    const size_t victim = static_cast<size_t>(rng.next_below(next.flows.size()));
    next.flows.erase(next.flows.begin() + static_cast<ptrdiff_t>(victim));
  }

  for (Flow& flow : next.flows) {
    if (rng.next_double() >= spec.reroute_fraction) continue;
    const SwitchId ingress = flow.path.front();
    const SwitchId egress = flow.path.back();
    std::vector<SwitchId> repath;
    if (flow.path.size() > 2) {
      // Detour around a random intermediate hop.
      const size_t mid =
          1 + static_cast<size_t>(rng.next_below(flow.path.size() - 2));
      repath = topo.shortest_path_avoiding(ingress, egress, {flow.path[mid]});
    }
    if (repath.empty() || repath == flow.path) {
      // No detour: move the flow to a different egress instead.
      const std::vector<SwitchId> ingress_set = topo.ingress_switches();
      const SwitchId other =
          ingress_set[static_cast<size_t>(rng.next_below(ingress_set.size()))];
      if (other != egress && other != ingress) {
        repath = topo.shortest_path(ingress, other);
      }
    }
    if (!repath.empty() && repath != flow.path) flow.path = std::move(repath);
  }

  uint32_t next_id = 0;
  for (const Flow& f : next.flows) next_id = std::max(next_id, f.id + 1);
  for (const Flow& f : policy.flows) next_id = std::max(next_id, f.id + 1);
  for (const TernaryMatch& match : spec.add_matches) {
    next.flows.push_back(make_flow(topo, next_id++, match, spec.seed));
  }
  return next;
}

}  // namespace ruletris::netplan
