#include "compiler/ruletris_compiler.h"

#include <stdexcept>

#include "compiler/churn_log.h"

namespace ruletris::compiler {

TableUpdate chain_updates(const TableUpdate& first, const TableUpdate& second) {
  ChurnLog log;
  log.append(first);
  log.append(second);
  return log.build();
}

RuleTrisCompiler::RuleTrisCompiler(
    const PolicySpec& spec, std::map<std::string, flowspace::FlowTable> initial_tables) {
  root_ = build(spec, initial_tables, NodeRole::kRoot);

  // Record the path from each leaf to the root for update propagation.
  struct Walker {
    std::map<std::string, LeafRef>& leaves;
    std::map<LeafNode*, std::string> names;
    void walk(PolicyNode* node, std::vector<std::pair<ComposedNode*, bool>> path) {
      if (auto* composed = dynamic_cast<ComposedNode*>(node)) {
        auto left_path = path;
        left_path.insert(left_path.begin(), {composed, true});
        walk(&composed->left(), left_path);
        auto right_path = path;
        right_path.insert(right_path.begin(), {composed, false});
        walk(&composed->right(), right_path);
      } else if (auto* leaf = dynamic_cast<LeafNode*>(node)) {
        leaves[names.at(leaf)].path = std::move(path);
      }
    }
  };
  Walker walker{leaves_, {}};
  for (auto& [name, ref] : leaves_) walker.names[ref.node] = name;
  walker.walk(root_.get(), {});
}

std::unique_ptr<PolicyNode> RuleTrisCompiler::build(
    const PolicySpec& spec, std::map<std::string, flowspace::FlowTable>& tables,
    NodeRole role) {
  if (spec.is_leaf) {
    auto it = tables.find(spec.leaf_name);
    auto leaf = std::make_unique<LeafNode>(
        it == tables.end() ? flowspace::FlowTable() : std::move(it->second), role);
    if (leaves_.count(spec.leaf_name)) {
      throw std::invalid_argument("duplicate leaf name: " + spec.leaf_name);
    }
    leaves_[spec.leaf_name].node = leaf.get();
    return leaf;
  }
  // Every node below the root is built as a child: it never bulk-builds a
  // DAG that its parent would only drop.
  auto left = build(*spec.left, tables, NodeRole::kChild);
  auto right = build(*spec.right, tables, NodeRole::kChild);
  return std::make_unique<ComposedNode>(static_cast<OpKind>(spec.op), std::move(left),
                                        std::move(right), role);
}

TableUpdate RuleTrisCompiler::propagate(const std::string& leaf, TableUpdate update) {
  const auto& ref = leaves_.at(leaf);
  for (const auto& [node, from_left] : ref.path) {
    if (update.empty()) break;
    update = node->apply_child_update(from_left, update);
  }
  return update;
}

TableUpdate RuleTrisCompiler::insert(const std::string& leaf, Rule rule) {
  return propagate(leaf, leaves_.at(leaf).node->insert(std::move(rule)));
}

TableUpdate RuleTrisCompiler::remove(const std::string& leaf, flowspace::RuleId id) {
  return propagate(leaf, leaves_.at(leaf).node->remove(id));
}

TableUpdate RuleTrisCompiler::modify(const std::string& leaf, flowspace::RuleId old_id,
                                     Rule new_rule) {
  TableUpdate removed = remove(leaf, old_id);
  TableUpdate added = insert(leaf, std::move(new_rule));
  return chain_updates(removed, added);
}

const LeafNode& RuleTrisCompiler::leaf(const std::string& name) const {
  return *leaves_.at(name).node;
}

}  // namespace ruletris::compiler
