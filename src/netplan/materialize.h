// Lowers an UpdatePlan into per-switch runtime epoch logs.
//
// Epoch 1 installs each switch's initial projected table plus its full
// minimum DAG; epoch 1 + r carries round r's delta for that switch (an
// empty, barrier-only batch when the round does not touch it — every
// switch's log has the same length, so fleet round r is the same epoch
// number everywhere). DAG deltas are computed per switch per round by
// diffing the minimum DAGs of the before/after tables — exactly the
// update record the RuleTris back-end consumes.
#pragma once

#include <vector>

#include "flowspace/rule.h"
#include "netplan/planner.h"
#include "proto/messages.h"
#include "runtime/controller.h"

namespace ruletris::netplan {

struct SwitchScript {
  std::vector<proto::MessageBatch> epochs;  // install + one per round
  std::vector<flowspace::Rule> expected;    // final table (convergence check)
};

std::vector<SwitchScript> materialize(const Topology& topo,
                                      const UpdatePlan& plan);

/// Encodes each script's epochs once: the fleet input of
/// runtime::Controller::run_rounds.
std::vector<runtime::SwitchWorkload> to_workloads(
    const std::vector<SwitchScript>& scripts);

}  // namespace ruletris::netplan
