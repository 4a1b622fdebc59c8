// Mid-update packet-consistency auditor.
//
// Extends the tcam/auditor idea (external invariant checking against a
// reference) from one device to the whole fabric: between every planner
// round it replays a fixed population of synthetic packets through the
// topology and demands per-packet consistency in the Reitblatt sense —
// every packet's end-to-end trace must equal its trace under the pure OLD
// tables or its trace under the pure NEW tables. A trace that mixes the
// two (e.g. rerouted at the ingress but black-holed downstream because the
// new core rule is not installed yet) is a violation.
//
// The walk is lookup-function-driven, so the same auditor runs against
//  * planner-side simulated FlowTables (tables_lookup), and
//  * the live TCAMs of runtime switch agents mid-fleet-run — lookups use
//    the device's real highest-address-wins TCAM semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "flowspace/rule.h"
#include "netplan/policy.h"
#include "netplan/topology.h"
#include "runtime/agent.h"

namespace ruletris::netplan {

/// Resolves the winning rule for `packet` at switch `sw` (nullptr = miss).
/// The packet's in_port field is already set for the hop.
using LookupFn = std::function<const flowspace::Rule*(SwitchId sw,
                                                      const flowspace::Packet&)>;

/// Builds a LookupFn over simulated per-switch FlowTables.
LookupFn tables_lookup(const std::vector<flowspace::FlowTable>& tables);

/// Builds a LookupFn over runtime agents' live TCAMs (hardware
/// highest-address-wins semantics): the auditor's mid-update observation
/// point inside a runtime::RoundObserver. `agents` must outlive the LookupFn.
LookupFn live_lookup(std::span<const runtime::SwitchAgent* const> agents);

enum class TraceOutcome : uint8_t {
  kDelivered,  // forwarded out of kHostPort at some switch
  kNoMatch,    // no rule matched at some hop
  kDropped,    // matched a rule with no forward action
  kDeadPort,   // forwarded into an unassigned port
  kLoop,       // exceeded the hop budget
};

const char* outcome_name(TraceOutcome o);

/// An end-to-end packet trace: the (switch, out_port) hops plus how the
/// walk ended. Equality is what "same behaviour" means to the auditor.
struct Trace {
  std::vector<std::pair<SwitchId, uint32_t>> hops;
  TraceOutcome outcome = TraceOutcome::kNoMatch;

  bool operator==(const Trace&) const = default;
  std::string to_string() const;
};

/// Walks `packet` injected at `ingress` (host port) through the fabric.
/// Each hop applies the winning rule's header rewrites (version stamping
/// included) before following its forward action.
Trace trace_packet(const Topology& topo, const LookupFn& lookup,
                   SwitchId ingress, flowspace::Packet packet, size_t max_hops);

struct AuditConfig {
  size_t packets_per_flow = 3;  // 1 canonical sample + seeded variants
  uint64_t seed = 1;
  size_t max_hops = 0;  // 0 = 4 * switch_count
};

struct NetAuditReport {
  size_t probes = 0;         // packets replayed at this observation point
  size_t matched_old = 0;    // traces equal to the OLD reference only
  size_t matched_new = 0;    // traces equal to the NEW reference only
  size_t matched_both = 0;   // references agree (flow unaffected)
  size_t mixed = 0;          // neither: a consistency violation
  std::vector<std::string> violations;  // detail, capped

  bool clean() const { return mixed == 0; }
  std::string summary() const;
};

/// Precomputes a probe population (per flow of either policy: the match's
/// canonical sample packet plus seeded random packets inside the match,
/// steered clear of the reserved version-tag eth_type range) and their
/// reference traces under the pure-old and pure-new tables. audit() then
/// replays every probe against one mid-update observation point.
class ConsistencyAuditor {
 public:
  ConsistencyAuditor(const Topology& topo, const NetworkPolicy& old_policy,
                     const NetworkPolicy& new_policy,
                     const std::vector<flowspace::FlowTable>& old_tables,
                     const std::vector<flowspace::FlowTable>& new_tables,
                     const AuditConfig& cfg);

  /// Replays every probe through `mid` (one observation point between two
  /// rounds). Safe to call any number of times.
  NetAuditReport audit(const LookupFn& mid) const;

  size_t probe_count() const { return probes_.size(); }

 private:
  struct Probe {
    uint32_t flow = 0;
    SwitchId ingress = 0;
    flowspace::Packet packet;
    Trace t_old, t_new;
  };

  const Topology& topo_;
  size_t max_hops_;
  std::vector<Probe> probes_;
};

}  // namespace ruletris::netplan
