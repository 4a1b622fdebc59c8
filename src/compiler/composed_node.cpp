#include "compiler/composed_node.h"

#include <algorithm>
#include <stdexcept>

#include "compiler/compose_ops.h"
#include "dag/builder.h"

namespace ruletris::compiler {

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kParallel: return "parallel";
    case OpKind::kSequential: return "sequential";
    case OpKind::kPriority: return "priority";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ComposedNode
// ---------------------------------------------------------------------------

ComposedNode::ComposedNode(OpKind op, std::unique_ptr<PolicyNode> left,
                           std::unique_ptr<PolicyNode> right, NodeRole role)
    : op_(op), left_(std::move(left)), right_(std::move(right)) {
  // A parent reads its children's rules, order and overlap index, never
  // their DAGs.
  left_->demote_to_child();
  right_->demote_to_child();
  if (role == NodeRole::kChild) demote_to_child();
  full_rebuild();
}

const ComposedNode::Entry& ComposedNode::entry(RuleId id) const {
  const Entry* e = entries_.find(id);
  if (e == nullptr) throw std::out_of_range("ComposedNode: unknown entry");
  return *e;
}

bool ComposedNode::entry_before(const Entry& a, const Entry& b) const {
  // Sources may be mid-deletion (their entries are removed within the same
  // update); the child comparators fall back to a stable arbitrary order for
  // dead ids, which is harmless because every entry with a dead source is
  // itself removed before the update completes.
  if (op_ == OpKind::kPriority) {
    const bool a_left = a.left_src != 0;
    const bool b_left = b.left_src != 0;
    if (a_left != b_left) return a_left;  // whole left table stacks on top
    return a_left ? left_->visible_before(a.left_src, b.left_src)
                  : right_->visible_before(a.right_src, b.right_src);
  }
  if (a.left_src != b.left_src) return left_->visible_before(a.left_src, b.left_src);
  return right_->visible_before(a.right_src, b.right_src);
}

std::optional<std::pair<TernaryMatch, ActionList>> ComposedNode::compose_pair(
    const Rule& l, const Rule& r) const {
  return compose_rule_pair(op_, l, r);
}

TernaryMatch ComposedNode::right_probe(const TernaryMatch& left_match,
                                       const ActionList& left_actions) const {
  return right_probe_match(op_, left_match, left_actions);
}

// ---------------------------------------------------------------------------
// Visible-level helpers
// ---------------------------------------------------------------------------

void ComposedNode::forward_delta(const dag::DagDelta& delta) {
  // The maintainer's delta is exact (a vertex removal lists its incident
  // edges), so the log sees every visible-edge change.
  for (const auto& [u, v] : delta.removed_edges) log_.remove_edge(u, v);
  for (const auto& [u, v] : delta.added_edges) log_.add_edge(u, v);
}

void ComposedNode::make_visible(RuleId rep_id) {
  if (bulk_building_) return;
  const Entry& rep = entry(rep_id);
  forward_delta(visible_dag_.insert(rep_id, rep.match, [&](RuleId existing) {
    return visible_before(existing, rep_id);
  }));
  log_.add_rule(Rule{rep_id, rep.match, rep.actions, 0});
}

void ComposedNode::make_invisible(RuleId rep_id) {
  if (bulk_building_) return;
  forward_delta(visible_dag_.remove(rep_id));
  log_.remove_rule(rep_id);
}

void ComposedNode::promote_pending() {
  for (const TernaryMatch& match : pending_promotions_) {
    auto it = keys_.find(match);
    if (it == keys_.end()) continue;  // key vertex fully drained
    KeyVertex& kv = it->second;
    if (kv.rep != 0 || kv.members.empty()) continue;
    RuleId best = kv.members.front();
    for (RuleId m : kv.members) {
      if (m != best && entry_before(entry(m), entry(best))) best = m;
    }
    kv.rep = best;
    make_visible(best);
  }
  pending_promotions_.clear();
}

// ---------------------------------------------------------------------------
// Member/visible state mutation
// ---------------------------------------------------------------------------

void ComposedNode::add_entry(TernaryMatch match, ActionList actions, RuleId left_src,
                             RuleId right_src) {
  const RuleId eid = flowspace::next_rule_id();
  if (left_src != 0) by_left_[left_src].push_back(eid);
  if (right_src != 0) by_right_[right_src].push_back(eid);

  // `stored` stays valid below: nothing inserts into or erases from
  // entries_ until this call returns.
  Entry& stored = entries_[eid];
  stored = Entry{eid, std::move(match), std::move(actions), left_src, right_src};
  KeyVertex& kv = keys_[stored.match];
  kv.members.push_back(eid);
  if (!bulk_building_) log_.entry_added(eid);

  if (kv.members.size() == 1) {
    kv.rep = eid;
    make_visible(eid);
  } else if (kv.rep != 0 && entry_before(stored, entry(kv.rep))) {
    set_representative(kv, eid);
  }
  // kv.rep == 0 (promotion pending) cannot coexist with additions: removals
  // and promote_pending always complete before adds in apply_child_update.
}

void ComposedNode::set_representative(KeyVertex& key, RuleId new_rep) {
  const RuleId old_rep = key.rep;
  if (old_rep == new_rep) return;
  make_invisible(old_rep);
  key.rep = new_rep;
  make_visible(new_rep);
}

void ComposedNode::remove_entry(RuleId eid) {
  const Entry e = entry(eid);  // copy: we are about to erase it
  log_.entry_removed(eid);

  KeyVertex& kv = keys_.at(e.match);
  kv.members.erase(std::remove(kv.members.begin(), kv.members.end(), eid),
                   kv.members.end());
  if (kv.rep == eid) {
    make_invisible(eid);
    if (kv.members.empty()) {
      keys_.erase(e.match);
    } else {
      // Defer picking the replacement until every removal of the current
      // update has been applied (the comparator needs live sources).
      kv.rep = 0;
      pending_promotions_.push_back(e.match);
    }
  } else if (kv.members.empty()) {
    // rep == 0 (promotion was pending) and the last member just vanished.
    keys_.erase(e.match);
  }

  auto drop_from = [eid](std::vector<RuleId>& vec) {
    vec.erase(std::remove(vec.begin(), vec.end(), eid), vec.end());
  };
  auto drop_provenance = [&drop_from](util::RuleIdMap<std::vector<RuleId>>& by_src,
                                      RuleId src) {
    if (src == 0) return;
    if (std::vector<RuleId>* derived = by_src.find(src)) {
      drop_from(*derived);
      if (derived->empty()) by_src.erase(src);
    }
  };
  drop_provenance(by_left_, e.left_src);
  drop_provenance(by_right_, e.right_src);
  entries_.erase(eid);
}

// ---------------------------------------------------------------------------
// Full compilation (Sec. IV-B)
// ---------------------------------------------------------------------------

void ComposedNode::full_rebuild() {
  recording_ = false;  // the rebuild is not churn: recording stops here
  log_.clear();
  entries_.clear();
  by_left_.clear();
  by_right_.clear();
  keys_.clear();
  pending_promotions_.clear();

  bulk_building_ = true;

  const std::vector<Rule> left_rules = left_->visible_rules_in_order();
  if (op_ == OpKind::kPriority) {
    // The whole left table stacks on top of the right one (entry_before).
    for (const Rule& l : left_rules) {
      add_entry(l.match, l.actions, l.id, 0);
    }
    for (const Rule& r : right_->visible_rules_in_order()) {
      add_entry(r.match, r.actions, 0, r.id);
    }
  } else {
    // Parallel / sequential: cross product guided by the overlap index.
    for (const Rule& l : left_rules) on_left_added(l);
  }

  bulk_building_ = false;

  // Bulk-load the exact visible DAG over the representatives: most of a
  // full compile for the parallel and priority operators, so it runs on the
  // process-wide DAG build threads. A child loads order and index only.
  std::vector<const Entry*> reps;
  reps.reserve(keys_.size());
  for (const auto& [match, kv] : keys_) {
    (void)match;
    reps.push_back(&entry(kv.rep));
  }
  std::sort(reps.begin(), reps.end(),
            [this](const Entry* a, const Entry* b) { return entry_before(*a, *b); });
  std::vector<std::pair<RuleId, TernaryMatch>> ordered;
  ordered.reserve(reps.size());
  for (const Entry* e : reps) ordered.emplace_back(e->id, e->match);
  visible_dag_.bulk_load(ordered, dag::default_build_threads());
}

// ---------------------------------------------------------------------------
// Incremental compilation (Sec. IV-C)
// ---------------------------------------------------------------------------

TableUpdate ComposedNode::apply_child_update(bool from_left, const TableUpdate& update) {
  // A child's DAG delta is not read: the visible DAG here is maintained
  // from this node's own order, and a child keeps no edges anyway.
  const ChurnLog::Mark mark = log_.mark();

  // 1. Rule removals, then the deferred representative promotions.
  for (RuleId removed : update.removed) on_removed(from_left, removed);
  promote_pending();

  // 2. Rule additions.
  for (const Rule& added : update.added) {
    if (op_ == OpKind::kPriority) {
      if (from_left) {
        add_entry(added.match, added.actions, added.id, 0);
      } else {
        add_entry(added.match, added.actions, 0, added.id);
      }
    } else if (from_left) {
      on_left_added(added);
    } else {
      on_right_added(added);
    }
  }
  TableUpdate out = log_.build(mark);
  if (!recording_) log_.clear();
  return out;
}

void ComposedNode::on_removed(bool from_left, RuleId src) {
  const std::vector<RuleId>* derived = (from_left ? by_left_ : by_right_).find(src);
  if (derived == nullptr) return;
  auto& doomed = removal_scratch_;  // removal edits by_left_ / by_right_ under us
  doomed.assign(derived->begin(), derived->end());
  for (RuleId eid : doomed) remove_entry(eid);
}

void ComposedNode::on_left_added(const Rule& rule) {
  const TernaryMatch probe = right_probe(rule.match, rule.actions);
  std::vector<RuleId>& candidates = overlap_scratch_;
  right_->visible_overlapping(probe, candidates);
  std::sort(candidates.begin(), candidates.end());
  for (RuleId rid : candidates) {
    const Rule r{rid, right_->visible_match(rid), right_->visible_actions(rid), 0};
    auto composed = compose_pair(rule, r);
    if (!composed) continue;
    add_entry(std::move(composed->first), std::move(composed->second), rule.id, rid);
  }
}

void ComposedNode::on_right_added(const Rule& rule) {
  if (op_ == OpKind::kParallel) {
    std::vector<RuleId>& candidates = overlap_scratch_;
    left_->visible_overlapping(rule.match, candidates);
    std::sort(candidates.begin(), candidates.end());
    for (RuleId lid : candidates) {
      const Rule l{lid, left_->visible_match(lid), left_->visible_actions(lid), 0};
      auto composed = compose_pair(l, rule);
      if (!composed) continue;
      add_entry(std::move(composed->first), std::move(composed->second), lid, rule.id);
    }
    return;
  }
  // Sequential right insert composes against every left rule whose
  // rewritten flow space can reach the new rule (Sec. IV-C).
  for (const Rule& l : left_->visible_rules_in_order()) {
    if (!right_probe(l.match, l.actions).overlaps(rule.match)) continue;
    auto composed = compose_pair(l, rule);
    if (!composed) continue;
    add_entry(std::move(composed->first), std::move(composed->second), l.id, rule.id);
  }
}

// ---------------------------------------------------------------------------
// Snapshot (id-independent equivalence image)
// ---------------------------------------------------------------------------

CompileSnapshot ComposedNode::snapshot() const {
  CompileSnapshot snap;
  util::RuleIdMap<CompileSnapshot::Prov> prov;
  prov.reserve(entries_.size());
  snap.entries.reserve(entries_.size());
  entries_.for_each([&](RuleId id, const Entry& e) {
    prov.insert(id, CompileSnapshot::Prov{e.left_src, e.right_src});
    snap.entries.emplace_back(e.left_src, e.right_src, e.match, e.actions);
  });
  // Each (left, right) source pair is composed at most once: when the later
  // of its two sources arrives, and its entry leaves with either source. So
  // (left_src, right_src) is unique per entry and the provenance prefix is a
  // total order over the entries.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) {
              if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
              return std::get<1>(a) < std::get<1>(b);
            });
  snap.reps.reserve(keys_.size());
  for (const auto& [match, kv] : keys_) {
    (void)match;
    if (kv.rep == 0) continue;  // promotion pending mid-update
    const Entry& e = entry(kv.rep);
    snap.reps.emplace_back(e.left_src, e.right_src);
  }
  std::sort(snap.reps.begin(), snap.reps.end());
  for (const auto& [u, v] : visible_dag_.graph().edges()) {
    snap.visible_edges.emplace_back(prov.at(u), prov.at(v));
  }
  std::sort(snap.visible_edges.begin(), snap.visible_edges.end());
  return snap;
}

std::vector<ComposedNode::MemberView> ComposedNode::export_members() const {
  std::vector<MemberView> out;
  out.reserve(entries_.size());
  entries_.for_each([&out](RuleId id, const Entry& e) {
    out.push_back(MemberView{id, e.left_src, e.right_src, &e.match, &e.actions});
  });
  std::sort(out.begin(), out.end(), [](const MemberView& a, const MemberView& b) {
    if (a.left_src != b.left_src) return a.left_src < b.left_src;
    return a.right_src < b.right_src;
  });
  return out;
}

ComposedNode::MemberView ComposedNode::member(RuleId id) const {
  const Entry& e = entry(id);
  return MemberView{id, e.left_src, e.right_src, &e.match, &e.actions};
}

void ComposedNode::start_recording() {
  log_.clear();
  recording_ = true;
  boundary_order_ = visible_order();
}

ComposedNode::Recorded ComposedNode::take_recorded() {
  if (!recording_) throw std::logic_error("ComposedNode: not recording");
  Recorded out{log_.take(), std::move(boundary_order_)};
  boundary_order_ = visible_order();
  return out;
}

std::vector<RuleId> ComposedNode::representative_ids() const {
  std::vector<RuleId> out;
  out.reserve(keys_.size());
  for (const auto& [match, kv] : keys_) {
    (void)match;
    if (kv.rep != 0) out.push_back(kv.rep);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// PolicyNode interface
// ---------------------------------------------------------------------------

std::vector<Rule> ComposedNode::visible_rules_in_order() const {
  std::vector<Rule> out;
  out.reserve(visible_dag_.size());
  int32_t priority = static_cast<int32_t>(visible_dag_.size());
  for (RuleId id : visible_dag_.order()) {
    const Entry& e = entry(id);
    out.push_back(Rule{e.id, e.match, e.actions, priority--});
  }
  return out;
}

bool ComposedNode::has_visible(RuleId id) const {
  const Entry* e = entries_.find(id);
  if (e == nullptr) return false;
  return keys_.at(e->match).rep == id;
}

const TernaryMatch& ComposedNode::visible_match(RuleId id) const {
  return entry(id).match;
}

const ActionList& ComposedNode::visible_actions(RuleId id) const {
  return entry(id).actions;
}

bool ComposedNode::visible_before(RuleId a, RuleId b) const {
  const Entry* ea = entries_.find(a);
  const Entry* eb = entries_.find(b);
  if (ea == nullptr || eb == nullptr) return a < b;  // dead ids
  return entry_before(*ea, *eb);
}

void ComposedNode::visible_overlapping(const TernaryMatch& m,
                                       std::vector<RuleId>& out) const {
  visible_dag_.overlapping(m, out);
}

}  // namespace ruletris::compiler
