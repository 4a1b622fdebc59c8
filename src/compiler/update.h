// Update records exchanged along the composition tree and with the back-end.
//
// Every policy change — whether entering at a leaf table or produced by an
// operator node — is expressed as a TableUpdate: visible rule additions and
// removals plus the corresponding delta of the visible minimum DAG
// (Sec. III-B: "incremental rule inserts, deletes and modifications together
// with the updates to the DAG").
#pragma once

#include <vector>

#include "dag/dependency_graph.h"
#include "flowspace/rule.h"

namespace ruletris::compiler {

using dag::DagDelta;
using flowspace::Rule;
using flowspace::RuleId;

struct TableUpdate {
  /// Rules removed from the visible table (ids were previously visible).
  std::vector<RuleId> removed;
  /// Rules added to the visible table. `priority` is meaningless for
  /// DAG-carrying updates and set to 0.
  std::vector<Rule> added;
  /// Delta to the visible DAG. Vertex removals/additions mirror
  /// `removed`/`added`; edge changes may touch surviving rules too.
  DagDelta dag;

  bool empty() const { return removed.empty() && added.empty() && dag.empty(); }
};

}  // namespace ruletris::compiler
