// Binary composition node: parallel (+), sequential (>), priority ($) —
// the RuleTris front-end core (Sec. IV-B, IV-C).
//
// The node keeps the *member-level* state the paper describes: every
// composed rule ever derived (including ones obscured by an identical
// higher-priority match), its provenance (left source x right source), and
// the two-level nested key-vertex structure indexed by match. The *visible*
// level — one representative rule per key vertex — is what the parent node
// (or the back-end) consumes; obscured members are retained so that future
// incremental removals can promote them (Sec. IV-B1).
//
// Deviation from the paper (see DESIGN.md): the paper derives the visible
// DAG from member-level edges (graph cross-products, tentative and
// mega-dependency resolution) projected onto key-vertex representatives. We
// found that projection unsound when an ordering chain passes through an
// obscured member whose key's representative sits elsewhere in the match
// order, so the visible DAG is maintained exactly by dag::MinDagMaintainer
// over the representatives instead, and no member-level graph is computed.
// A node that is a child of another keeps no DAG edges at all (see
// PolicyNode::demote_to_child).
#pragma once

#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compiler/churn_log.h"
#include "compiler/node.h"
#include "compiler/update.h"
#include "dag/min_dag_maintainer.h"
#include "util/rule_id_map.h"

namespace ruletris::compiler {

enum class OpKind { kParallel, kSequential, kPriority };

const char* op_name(OpKind op);

/// Id-independent image of a composed node's compiled state, keyed by
/// (left_src, right_src) provenance instead of entry ids (ids come from the
/// process-global counter, so two compiles of the same policy never share
/// them). Full compiles at every DAG build thread count and the incremental
/// path must produce equal snapshots.
struct CompileSnapshot {
  using Prov = std::pair<RuleId, RuleId>;  // (left_src, right_src)

  /// Every member entry: provenance, match, actions. Sorted by provenance.
  std::vector<std::tuple<RuleId, RuleId, TernaryMatch, ActionList>> entries;
  /// Key-vertex representatives, by provenance. Sorted.
  std::vector<Prov> reps;
  /// Visible minimum-DAG edges, endpoints mapped to provenance. Sorted.
  std::vector<std::pair<Prov, Prov>> visible_edges;

  bool operator==(const CompileSnapshot&) const = default;
};

class ComposedNode final : public PolicyNode {
 public:
  /// Takes ownership of both children and performs the initial full
  /// compile; a root also bulk-builds its visible DAG.
  ComposedNode(OpKind op, std::unique_ptr<PolicyNode> left,
               std::unique_ptr<PolicyNode> right, NodeRole role = NodeRole::kRoot);

  OpKind op() const { return op_; }
  PolicyNode& left() { return *left_; }
  PolicyNode& right() { return *right_; }

  /// Recomputes the whole composed state from the children (also used by
  /// tests and the incremental-vs-scratch ablation): the serial cross
  /// product, then one bulk minimum-DAG build over the visible table on
  /// dag::default_build_threads() workers (the same edges for every count).
  void full_rebuild();

  /// Canonical id-independent image of the current compiled state, for
  /// equivalence checks across compile strategies.
  CompileSnapshot snapshot() const;

  /// Read-only view of one member entry for state export (the frozen
  /// layer). Pointers alias this node's internal storage and stay valid
  /// until the next mutation.
  struct MemberView {
    RuleId id = 0;
    RuleId left_src = 0;
    RuleId right_src = 0;
    const TernaryMatch* match = nullptr;
    const ActionList* actions = nullptr;
  };

  /// Every member entry — including obscured ones — sorted by
  /// (left_src, right_src) provenance, the same canonical order
  /// snapshot() uses.
  std::vector<MemberView> export_members() const;

  /// One member entry by id; throws std::out_of_range on an unknown id.
  MemberView member(RuleId id) const;

  /// Starts keeping this node's churn (member entries, visible rules and
  /// edges) across updates, anchored at the current visible order; restarts
  /// a recording in progress. full_rebuild() stops it.
  void start_recording();
  bool recording() const { return recording_; }

  /// The churn since the last boundary (start or take), netted: the
  /// compiler's own account of the epoch (Sec. III-B(c)), from which
  /// frozen::seal_recorded derives the delta without a capture. The current
  /// visible order becomes the next boundary. Throws std::logic_error when
  /// not recording or when the events do not net to a set change.
  struct Recorded {
    ChurnLog::Net net;
    std::vector<RuleId> boundary_order;  // visible order at the last boundary
  };
  Recorded take_recorded();

  /// Ids of the current key-vertex representatives, sorted ascending.
  /// Skips keys with a promotion pending (only possible mid-update).
  std::vector<RuleId> representative_ids() const;

  /// Visible rule ids in matched-first order.
  const std::vector<RuleId>& visible_order() const { return visible_dag_.order(); }

  /// Applies an update that the left/right child has *already applied to
  /// itself*, and returns this node's own visible update.
  TableUpdate apply_child_update(bool from_left, const TableUpdate& update);

  /// Total member entries, including obscured ones (diagnostics).
  size_t member_size() const { return entries_.size(); }

  // PolicyNode interface.
  std::vector<Rule> visible_rules_in_order() const override;
  const DependencyGraph& visible_graph() const override { return visible_dag_.graph(); }
  bool has_visible(RuleId id) const override;
  const TernaryMatch& visible_match(RuleId id) const override;
  const ActionList& visible_actions(RuleId id) const override;
  size_t visible_size() const override { return keys_.size(); }
  bool visible_before(RuleId a, RuleId b) const override;
  void visible_overlapping(const TernaryMatch& m,
                           std::vector<RuleId>& out) const override;
  size_t cover_overflows() const override {
    return visible_dag_.cover_overflows() + left_->cover_overflows() +
           right_->cover_overflows();
  }
  void demote_to_child() override { visible_dag_.drop_edges(); }

 private:
  struct Entry {
    RuleId id = 0;
    TernaryMatch match;
    ActionList actions;
    RuleId left_src = 0;   // 0 for a priority-op passthrough of a right rule
    RuleId right_src = 0;  // 0 for a priority-op passthrough of a left rule
  };

  struct KeyVertex {
    std::vector<RuleId> members;  // unordered; representative tracked aside
    RuleId rep = 0;               // 0 while a promotion is pending
  };

  const Entry& entry(RuleId id) const;

  /// Canonical matched-first-before order between two member entries:
  /// lexicographic over (left source order, right source order); for the
  /// priority op, all left passthroughs precede all right passthroughs.
  bool entry_before(const Entry& a, const Entry& b) const;

  /// Operator semantics (Sec. IV-A); nullopt when the result match is empty.
  std::optional<std::pair<TernaryMatch, ActionList>> compose_pair(
      const Rule& l, const Rule& r) const;

  /// The match to probe the right child's index with, for a left rule
  /// (identity for parallel; rewritten match for sequential).
  TernaryMatch right_probe(const TernaryMatch& left_match,
                           const ActionList& left_actions) const;

  // --- visible-level helpers (each logs its visible change in log_)
  void forward_delta(const dag::DagDelta& delta);
  void make_visible(RuleId rep_id);
  void make_invisible(RuleId rep_id);
  /// Promotes representatives for every key vertex whose rep was removed
  /// earlier in the current update (all removals must have been applied).
  void promote_pending();

  // --- member/visible state mutation
  void add_entry(TernaryMatch match, ActionList actions, RuleId left_src,
                 RuleId right_src);
  void remove_entry(RuleId eid);
  void set_representative(KeyVertex& key, RuleId new_rep);

  // --- incremental handlers
  /// Removes every entry derived from child rule `src` (Sec. IV-C rule
  /// delete); representatives are promoted later by promote_pending.
  void on_removed(bool from_left, RuleId src);
  /// Composes a left rule with every right rule its probe overlaps (also
  /// the full-compile cross product, one left rule at a time), in ascending
  /// id order of the right rules, so entry ids follow the rules' ids.
  void on_left_added(const Rule& rule);
  void on_right_added(const Rule& rule);

  OpKind op_;
  std::unique_ptr<PolicyNode> left_;
  std::unique_ptr<PolicyNode> right_;

  util::RuleIdMap<Entry> entries_;
  // Provenance: the entries derived from each left / right child rule.
  util::RuleIdMap<std::vector<RuleId>> by_left_;
  util::RuleIdMap<std::vector<RuleId>> by_right_;

  // Nested key-vertex structure: entries grouped by match (the entry's own
  // `match` field is the lookup key, so no separate reverse map is needed).
  std::unordered_map<TernaryMatch, KeyVertex, flowspace::TernaryMatchHash> keys_;
  std::vector<TernaryMatch> pending_promotions_;

  // Exact minimum DAG over the representatives (see header comment).
  dag::MinDagMaintainer visible_dag_;
  // During full_rebuild the visible DAG is bulk-loaded at the end instead of
  // being maintained per insert.
  // Logs nothing.
  bool bulk_building_ = false;

  // Every visible and member change; apply_child_update builds its update
  // from the events it logged and, unless recording, clears the log.
  ChurnLog log_;
  bool recording_ = false;
  std::vector<RuleId> boundary_order_;  // visible order at the last take

  // Reusable removal list: on_removed walks a copy, since removal edits
  // by_left_ / by_right_ under it.
  std::vector<RuleId> removal_scratch_;
  // Reusable overlap candidates of on_left_added / on_right_added.
  std::vector<RuleId> overlap_scratch_;
};

}  // namespace ruletris::compiler
