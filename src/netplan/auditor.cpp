#include "netplan/auditor.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/hash.h"
#include "util/rng.h"

namespace ruletris::netplan {

using flowspace::Action;
using flowspace::ActionType;
using flowspace::FieldId;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::TernaryMatch;

LookupFn tables_lookup(const std::vector<flowspace::FlowTable>& tables) {
  // The caller keeps `tables` alive for the LookupFn's lifetime.
  return [t = &tables](SwitchId sw, const Packet& p) -> const Rule* {
    if (sw >= t->size()) return nullptr;
    return (*t)[sw].lookup(p);
  };
}

LookupFn live_lookup(std::span<const runtime::SwitchAgent* const> agents) {
  return [agents](SwitchId sw, const Packet& p) -> const Rule* {
    if (sw >= agents.size()) return nullptr;
    return agents[sw]->device().tcam().lookup(p);
  };
}

const char* outcome_name(TraceOutcome o) {
  switch (o) {
    case TraceOutcome::kDelivered: return "delivered";
    case TraceOutcome::kNoMatch: return "no-match";
    case TraceOutcome::kDropped: return "dropped";
    case TraceOutcome::kDeadPort: return "dead-port";
    case TraceOutcome::kLoop: return "loop";
  }
  return "?";
}

std::string Trace::to_string() const {
  std::ostringstream out;
  for (const auto& [sw, port] : hops) {
    out << "s" << sw << ">p" << port << " ";
  }
  out << outcome_name(outcome);
  return out.str();
}

Trace trace_packet(const Topology& topo, const LookupFn& lookup,
                   SwitchId ingress, Packet packet, size_t max_hops) {
  Trace trace;
  SwitchId sw = ingress;
  uint32_t in_port = kHostPort;
  for (size_t hop = 0; hop < max_hops; ++hop) {
    packet.set(FieldId::kInPort, in_port);
    const Rule* rule = lookup(sw, packet);
    if (!rule) {
      trace.outcome = TraceOutcome::kNoMatch;
      return trace;
    }
    // Header rewrites (version stamping) apply before forwarding.
    packet = rule->actions.apply_rewrites(packet);
    const Action* fwd = nullptr;
    for (const Action& a : rule->actions.actions()) {
      if (a.type == ActionType::kForward) {
        fwd = &a;
        break;
      }
    }
    if (!fwd) {
      trace.outcome = TraceOutcome::kDropped;
      return trace;
    }
    trace.hops.emplace_back(sw, fwd->arg);
    if (fwd->arg == kHostPort) {
      trace.outcome = TraceOutcome::kDelivered;
      return trace;
    }
    const auto next = topo.neighbor_via(sw, fwd->arg);
    if (!next) {
      trace.outcome = TraceOutcome::kDeadPort;
      return trace;
    }
    in_port = *topo.port_to(*next, sw);
    sw = *next;
  }
  trace.outcome = TraceOutcome::kLoop;
  return trace;
}

std::string NetAuditReport::summary() const {
  std::ostringstream out;
  out << probes << " probes: " << matched_both << " both, " << matched_old
      << " old, " << matched_new << " new, " << mixed << " MIXED";
  return out.str();
}

namespace {

/// A seeded packet inside `match`: wildcard bits take random values, with
/// eth_type steered out of the reserved version-tag range (a probe that
/// happened to carry a tag would impersonate fabric-stamped traffic).
Packet random_packet_in(const TernaryMatch& match, util::Rng& rng) {
  Packet p;
  for (FieldId f : flowspace::kAllFields) {
    const flowspace::FieldTernary& ft = match.field(f);
    const uint32_t full = flowspace::field_full_mask(f);
    uint32_t value =
        ft.value | (static_cast<uint32_t>(rng.next_u64()) & full & ~ft.mask);
    if (f == FieldId::kEthType && (value & kVersionTagBase) == kVersionTagBase) {
      value &= ~(kVersionTagBase & ~ft.mask);  // clear free tag bits
    }
    p.set(f, value);
  }
  return p;
}

}  // namespace

ConsistencyAuditor::ConsistencyAuditor(
    const Topology& topo, const NetworkPolicy& old_policy,
    const NetworkPolicy& new_policy,
    const std::vector<flowspace::FlowTable>& old_tables,
    const std::vector<flowspace::FlowTable>& new_tables, const AuditConfig& cfg)
    : topo_(topo),
      max_hops_(cfg.max_hops != 0 ? cfg.max_hops : 4 * topo.switch_count()) {
  const LookupFn old_lookup = tables_lookup(old_tables);
  const LookupFn new_lookup = tables_lookup(new_tables);

  // Flow population: union of both policy versions, keyed by flow id.
  struct FlowInfo {
    const Flow* oldf = nullptr;
    const Flow* newf = nullptr;
  };
  std::map<uint32_t, FlowInfo> flows;
  for (const Flow& f : old_policy.flows) flows[f.id].oldf = &f;
  for (const Flow& f : new_policy.flows) flows[f.id].newf = &f;

  for (const auto& [id, info] : flows) {
    const Flow* any = info.newf ? info.newf : info.oldf;
    TernaryMatch match = any->match;
    match.set_wildcard(FieldId::kInPort);

    std::vector<Packet> packets;
    packets.push_back(match.sample_packet());
    util::Rng rng(util::hash_pair(cfg.seed, id));
    const size_t extra = cfg.packets_per_flow > 0 ? cfg.packets_per_flow - 1 : 0;
    for (size_t i = 0; i < extra; ++i) {
      packets.push_back(random_packet_in(match, rng));
    }

    // Inject at both versions' ingress points: a rerouted-to-new-ingress
    // flow must behave consistently seen from either edge.
    std::vector<SwitchId> ingresses;
    if (info.oldf) ingresses.push_back(info.oldf->path.front());
    if (info.newf && (!info.oldf || info.newf->path.front() != ingresses[0])) {
      ingresses.push_back(info.newf->path.front());
    }

    for (SwitchId ingress : ingresses) {
      for (const Packet& packet : packets) {
        Probe probe;
        probe.flow = id;
        probe.ingress = ingress;
        probe.packet = packet;
        probe.t_old = trace_packet(topo_, old_lookup, ingress, packet, max_hops_);
        probe.t_new = trace_packet(topo_, new_lookup, ingress, packet, max_hops_);
        probes_.push_back(std::move(probe));
      }
    }
  }
}

NetAuditReport ConsistencyAuditor::audit(const LookupFn& mid) const {
  NetAuditReport report;
  report.probes = probes_.size();
  for (const Probe& probe : probes_) {
    const Trace t =
        trace_packet(topo_, mid, probe.ingress, probe.packet, max_hops_);
    const bool is_old = (t == probe.t_old);
    const bool is_new = (t == probe.t_new);
    if (is_old && is_new) {
      ++report.matched_both;
    } else if (is_old) {
      ++report.matched_old;
    } else if (is_new) {
      ++report.matched_new;
    } else {
      ++report.mixed;
      if (report.violations.size() < 16) {
        std::ostringstream out;
        out << "flow " << probe.flow << " @s" << probe.ingress
            << ": mid=[" << t.to_string() << "] old=[" << probe.t_old.to_string()
            << "] new=[" << probe.t_new.to_string() << "]";
        report.violations.push_back(out.str());
      }
    }
  }
  return report;
}

}  // namespace ruletris::netplan
