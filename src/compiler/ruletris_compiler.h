// RuleTris front-end compiler facade (Sec. IV).
//
// Owns a policy tree built from a PolicySpec, routes per-leaf rule updates
// through the incremental composition pipeline, and returns the root's
// visible update: rule adds/removes plus the minimum-DAG delta, ready for
// the DAG-aware back-end.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "compiler/policy_spec.h"
#include "compiler/update.h"
#include "flowspace/rule.h"

namespace ruletris::compiler {

/// Replays `first` then `second` through one ChurnLog and returns the net
/// update (used to express modify = delete + insert as one message). The
/// netting reads each key's first and last event, so chaining is
/// associative: folding a sequence pairwise equals appending all of it to
/// one log and building once.
TableUpdate chain_updates(const TableUpdate& first, const TableUpdate& second);

class RuleTrisCompiler {
 public:
  /// Builds the policy tree and fully compiles the initial tables.
  RuleTrisCompiler(const PolicySpec& spec,
                   std::map<std::string, flowspace::FlowTable> initial_tables);

  /// Inserts a prioritized rule into the named member table and propagates
  /// incrementally; returns the update to apply at the switch.
  TableUpdate insert(const std::string& leaf, Rule rule);

  /// Removes a member rule by id and propagates; returns the switch update.
  TableUpdate remove(const std::string& leaf, flowspace::RuleId id);

  /// Modify = delete + insert (Sec. IV-C), returned as one net update.
  TableUpdate modify(const std::string& leaf, flowspace::RuleId old_id, Rule new_rule);

  /// The composed result visible at the root.
  const PolicyNode& root() const { return *root_; }
  PolicyNode& root() { return *root_; }

  const LeafNode& leaf(const std::string& name) const;

 private:
  struct LeafRef {
    LeafNode* node = nullptr;
    // Path from the leaf's parent up to the root, with the side flag.
    std::vector<std::pair<ComposedNode*, bool>> path;
  };

  std::unique_ptr<PolicyNode> build(const PolicySpec& spec,
                                    std::map<std::string, flowspace::FlowTable>& tables,
                                    NodeRole role);
  TableUpdate propagate(const std::string& leaf, TableUpdate update);

  std::unique_ptr<PolicyNode> root_;
  std::map<std::string, LeafRef> leaves_;
};

}  // namespace ruletris::compiler
