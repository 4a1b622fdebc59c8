#include "compiler/composed_node.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <stdexcept>

#include "compiler/compose_ops.h"
#include "util/thread_pool.h"

namespace ruletris::compiler {

using flowspace::Action;
using flowspace::CoverResult;

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kParallel: return "parallel";
    case OpKind::kSequential: return "sequential";
    case OpKind::kPriority: return "priority";
  }
  return "?";
}

namespace {
std::mutex g_default_opts_mutex;
CompileOptions g_default_compile_options;
}  // namespace

void set_default_compile_options(const CompileOptions& opts) {
  std::scoped_lock lock(g_default_opts_mutex);
  g_default_compile_options = opts;
}

CompileOptions default_compile_options() {
  std::scoped_lock lock(g_default_opts_mutex);
  return g_default_compile_options;
}

// ---------------------------------------------------------------------------
// DeltaRecorder
// ---------------------------------------------------------------------------

namespace {

/// Sums the signs of each key's events (sorted by key first) into the keys
/// whose net is -1 and +1. Any other net means the events were not a
/// sequence of set insertions and removals.
template <typename Key, typename Event, typename KeyOf>
void net_signs(std::vector<Event>& events, KeyOf key_of, std::vector<Key>& removed,
               std::vector<Key>& added) {
  std::sort(events.begin(), events.end(), [&key_of](const Event& a, const Event& b) {
    return key_of(a) < key_of(b);
  });
  for (size_t i = 0; i < events.size();) {
    const Key key = key_of(events[i]);
    int net = 0;
    for (; i < events.size() && key_of(events[i]) == key; ++i) net += events[i].sign;
    if (net == -1) {
      removed.push_back(key);
    } else if (net == 1) {
      added.push_back(key);
    } else if (net != 0) {
      throw std::logic_error("DeltaRecorder: events do not net to a set change");
    }
  }
  events.clear();
}

}  // namespace

DeltaRecorder::Net DeltaRecorder::take() {
  Net net;
  // Member ids are fresh on every add, so an id in both lists was added and
  // removed within the epoch.
  std::sort(entries_added_.begin(), entries_added_.end());
  std::sort(entries_removed_.begin(), entries_removed_.end());
  std::set_difference(entries_removed_.begin(), entries_removed_.end(),
                      entries_added_.begin(), entries_added_.end(),
                      std::back_inserter(net.entries_removed));
  std::set_difference(entries_added_.begin(), entries_added_.end(),
                      entries_removed_.begin(), entries_removed_.end(),
                      std::back_inserter(net.entries_added));
  entries_added_.clear();
  entries_removed_.clear();

  net_signs<RuleId>(visible_, [](const VisibleEvent& e) { return e.id; },
                    net.visible_removed, net.visible_added);
  net_signs<std::pair<RuleId, RuleId>>(
      edges_, [](const EdgeEvent& e) { return std::make_pair(e.u, e.v); },
      net.edges_removed, net.edges_added);
  return net;
}

// ---------------------------------------------------------------------------
// ComposedNode
// ---------------------------------------------------------------------------

ComposedNode::ComposedNode(OpKind op, std::unique_ptr<PolicyNode> left,
                           std::unique_ptr<PolicyNode> right)
    : ComposedNode(op, std::move(left), std::move(right), default_compile_options()) {}

ComposedNode::ComposedNode(OpKind op, std::unique_ptr<PolicyNode> left,
                           std::unique_ptr<PolicyNode> right,
                           const CompileOptions& opts)
    : op_(op),
      opts_(opts),
      left_(std::move(left)),
      right_(std::move(right)) {
  full_rebuild();
}

const ComposedNode::Entry& ComposedNode::entry(RuleId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) throw std::out_of_range("ComposedNode: unknown entry");
  return it->second;
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

void ComposedNode::forward_delta(const dag::DagDelta& delta, UpdateBuilder& out) {
  // The maintainer's delta is exact (a vertex removal lists its incident
  // edges), so the recorder sees every visible-edge change.
  for (const auto& [u, v] : delta.removed_edges) {
    out.remove_edge(u, v);
    if (recorder_) recorder_->edge_changed(u, v, -1);
  }
  for (const auto& [u, v] : delta.added_edges) {
    out.add_edge(u, v);
    if (recorder_) recorder_->edge_changed(u, v, +1);
  }
}

void ComposedNode::make_visible(RuleId rep_id, UpdateBuilder& out) {
  const Entry& rep = entry(rep_id);
  if (!bulk_building_) {
    forward_delta(visible_dag_.insert(rep_id, rep.match,
                                      [&](RuleId existing) {
                                        return visible_before(existing, rep_id);
                                      }),
                  out);
  }
  out.add_rule(Rule{rep_id, rep.match, rep.actions, 0});
  if (recorder_) recorder_->visible_changed(rep_id, +1);
}

void ComposedNode::make_invisible(RuleId rep_id, UpdateBuilder& out) {
  if (!bulk_building_) {
    forward_delta(visible_dag_.remove(rep_id), out);
  }
  out.remove_rule(rep_id);
  if (recorder_) recorder_->visible_changed(rep_id, -1);
}

void ComposedNode::promote_pending(UpdateBuilder& out) {
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
    make_visible(best, out);
  }
  pending_promotions_.clear();
}

// ---------------------------------------------------------------------------
// Member/visible state mutation
// ---------------------------------------------------------------------------

RuleId ComposedNode::add_entry(TernaryMatch match, ActionList actions,
                               RuleId left_src, RuleId right_src, UpdateBuilder& out) {
  const RuleId eid = flowspace::next_rule_id();
  Entry e{eid, std::move(match), std::move(actions), left_src, right_src};
  const TernaryMatch key_match = e.match;

  by_pair_[PairKey{left_src, right_src}] = eid;
  if (left_src != 0) by_left_[left_src].push_back(eid);
  if (right_src != 0) by_right_[right_src].push_back(eid);
  member_graph_.add_vertex(eid);

  KeyVertex& kv = keys_[key_match];
  kv.members.push_back(eid);
  auto [it, inserted] = entries_.emplace(eid, std::move(e));
  const Entry& stored = it->second;
  if (recorder_) recorder_->entry_added(eid);

  if (kv.members.size() == 1) {
    kv.rep = eid;
    make_visible(eid, out);
  } else if (kv.rep != 0 && entry_before(stored, entry(kv.rep))) {
    set_representative(kv, eid, out);
  }
  // kv.rep == 0 (promotion pending) cannot coexist with additions: removals
  // and promote_pending always complete before adds in apply_child_update.
  return eid;
}

void ComposedNode::set_representative(KeyVertex& key, RuleId new_rep, UpdateBuilder& out) {
  const RuleId old_rep = key.rep;
  if (old_rep == new_rep) return;
  if (bulk_building_) {
    key.rep = new_rep;
    return;
  }
  make_invisible(old_rep, out);
  key.rep = new_rep;
  make_visible(new_rep, out);
}

void ComposedNode::add_member_edge(RuleId u, RuleId v, UpdateBuilder& out) {
  (void)out;  // visible DAG is maintained exactly; member edges never leak
  if (u == v || member_graph_.has_edge(u, v)) return;
  member_graph_.add_edge(u, v);
}

void ComposedNode::remove_member_edge(RuleId u, RuleId v, UpdateBuilder& out) {
  (void)out;
  member_graph_.remove_edge(u, v);
}

void ComposedNode::remove_entry(RuleId eid, UpdateBuilder& out) {
  const Entry e = entry(eid);  // copy: we are about to erase it
  if (recorder_) recorder_->entry_removed(eid);

  member_graph_.remove_vertex(eid);

  KeyVertex& kv = keys_.at(e.match);
  kv.members.erase(std::remove(kv.members.begin(), kv.members.end(), eid),
                   kv.members.end());
  if (kv.rep == eid) {
    make_invisible(eid, out);
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

  by_pair_.erase(PairKey{e.left_src, e.right_src});
  auto drop_from = [eid](std::vector<RuleId>& vec) {
    vec.erase(std::remove(vec.begin(), vec.end(), eid), vec.end());
  };
  if (e.left_src != 0) {
    auto it = by_left_.find(e.left_src);
    if (it != by_left_.end()) {
      drop_from(it->second);
      if (it->second.empty()) by_left_.erase(it);
    }
  }
  if (e.right_src != 0) {
    auto it = by_right_.find(e.right_src);
    if (it != by_right_.end()) {
      drop_from(it->second);
      if (it->second.empty()) by_right_.erase(it);
    }
  }
  entries_.erase(eid);
}

void ComposedNode::remove_entry_with_patch(RuleId eid, UpdateBuilder& out) {
  auto& seeds = seed_scratch_;
  seeds.clear();
  for (RuleId p : member_graph_.predecessors(eid)) {
    for (RuleId s : member_graph_.successors(eid)) seeds.emplace_back(p, s);
  }
  remove_entry(eid, out);
  resolve_tentative(seeds, nullptr, nullptr, out);
}

void ComposedNode::resolve_tentative(const std::vector<std::pair<RuleId, RuleId>>& seeds,
                                     const std::unordered_set<RuleId>* lower_set,
                                     const std::unordered_set<RuleId>* upper_set,
                                     UpdateBuilder& out) {
  auto& visited = tentative_visited_;
  auto& queue = tentative_queue_;
  visited.clear();
  queue.assign(seeds.begin(), seeds.end());
  while (!queue.empty()) {
    auto [u, v] = queue.front();
    queue.pop_front();
    if (u == v) continue;
    if (!visited.insert(PairKey{u, v}).second) continue;
    auto iu = entries_.find(u);
    auto iv = entries_.find(v);
    if (iu == entries_.end() || iv == entries_.end()) continue;
    if (member_graph_.has_edge(u, v)) continue;  // already a real dependency
    if (iu->second.match.overlaps(iv->second.match)) {
      add_member_edge(u, v, out);
      continue;
    }
    // No overlap: the constraint may instead bind u's more general
    // predecessors, or v's successors. (The paper prunes successors that v
    // subsumes — such a successor cannot overlap u either — but pruning the
    // *expansion* would also hide that successor's own successors, which can
    // stick out of v's flow space; we keep walking and let the overlap test
    // fail cheaply instead.)
    for (RuleId p : member_graph_.predecessors(u)) {
      if (lower_set != nullptr && lower_set->count(p) == 0) continue;
      queue.emplace_back(p, v);
    }
    for (RuleId s : member_graph_.successors(v)) {
      if (upper_set != nullptr && upper_set->count(s) == 0) continue;
      queue.emplace_back(u, s);
    }
  }
}

void ComposedNode::resolve_mega(const std::unordered_set<RuleId>& lower_set,
                                const std::unordered_set<RuleId>& upper_set,
                                UpdateBuilder& out) {
  // Tops of the lower set: vertices with no successor inside the set (they
  // are matched first within it). Bottoms of the upper set: vertices with no
  // predecessor inside it (matched last within it).
  auto& tops = tops_scratch_;
  auto& bottoms = bottoms_scratch_;
  tops.clear();
  bottoms.clear();
  for (RuleId u : lower_set) {
    bool top = true;
    for (RuleId s : member_graph_.successors(u)) {
      if (lower_set.count(s)) {
        top = false;
        break;
      }
    }
    if (top) tops.push_back(u);
  }
  for (RuleId v : upper_set) {
    bool bottom = true;
    for (RuleId p : member_graph_.predecessors(v)) {
      if (upper_set.count(p)) {
        bottom = false;
        break;
      }
    }
    if (bottom) bottoms.push_back(v);
  }
  resolve_mega_seeded(lower_set, upper_set, tops, bottoms, out);
}

void ComposedNode::resolve_mega_seeded(const std::unordered_set<RuleId>& lower_set,
                                       const std::unordered_set<RuleId>& upper_set,
                                       const std::vector<RuleId>& tops,
                                       const std::vector<RuleId>& bottoms,
                                       UpdateBuilder& out) {
  auto& seeds = seed_scratch_;
  seeds.clear();
  seeds.reserve(tops.size() * bottoms.size());
  for (RuleId u : tops) {
    for (RuleId v : bottoms) seeds.emplace_back(u, v);
  }
  resolve_tentative(seeds, &lower_set, &upper_set, out);
}

// ---------------------------------------------------------------------------
// Full compilation (Sec. IV-B)
// ---------------------------------------------------------------------------

void ComposedNode::full_rebuild() {
  recorder_.reset();  // the rebuild is not churn: recording stops here
  entries_.clear();
  by_pair_.clear();
  by_left_.clear();
  by_right_.clear();
  member_graph_ = DependencyGraph();
  keys_.clear();
  pending_promotions_.clear();

  UpdateBuilder sink;  // initial compile: the whole table is the "update"
  bulk_building_ = true;

  const std::vector<Rule> left_rules = left_->visible_rules_in_order();

  if (op_ == OpKind::kPriority) {
    const std::vector<Rule> right_rules = right_->visible_rules_in_order();
    for (const Rule& l : left_rules) {
      add_entry(l.match, l.actions, l.id, 0, sink);
    }
    for (const Rule& r : right_rules) {
      add_entry(r.match, r.actions, 0, r.id, sink);
    }
    for (const auto& [a, b] : left_->visible_graph().edges()) {
      add_member_edge(by_pair_.at(PairKey{a, 0}), by_pair_.at(PairKey{b, 0}), sink);
    }
    for (const auto& [a, b] : right_->visible_graph().edges()) {
      add_member_edge(by_pair_.at(PairKey{0, a}), by_pair_.at(PairKey{0, b}), sink);
    }
    // The mega dependency: everything in the right table yields to the left.
    mega_lower_.clear();
    mega_upper_.clear();
    for (const auto& [id, e] : entries_) {
      (e.left_src != 0 ? mega_upper_ : mega_lower_).insert(id);
    }
    if (!mega_lower_.empty() && !mega_upper_.empty()) {
      resolve_mega(mega_lower_, mega_upper_, sink);
    }
  } else {
    // Parallel / sequential: cross product guided by the overlap index,
    // sharded across workers when opts_ asks for it.
    build_cross_product(left_rules, sink);

    // Edges inherited from the right member DAG (within one left rule).
    for (const auto& [eid, e] : entries_) {
      for (RuleId n : right_->visible_graph().successors(e.right_src)) {
        auto it = by_pair_.find(PairKey{e.left_src, n});
        if (it != by_pair_.end()) add_member_edge(eid, it->second, sink);
      }
    }

    if (op_ == OpKind::kParallel) {
      // Edges inherited from the left member DAG (within one right rule):
      // the full graph cross-product of Sec. IV-B1.
      for (const auto& [eid, e] : entries_) {
        for (RuleId lj : left_->visible_graph().successors(e.left_src)) {
          auto it = by_pair_.find(PairKey{lj, e.right_src});
          if (it != by_pair_.end()) add_member_edge(eid, it->second, sink);
        }
      }
    } else {
      // Sequential: partial DAGs are stitched with mega-dependency
      // resolution (Sec. IV-B2). The paper stitches along left-DAG edges,
      // which suffices when every partial table covers its left rule's flow
      // space (true with a default rule in the right member). In general a
      // packet can fall *through* an intermediate partial, so we stitch
      // every ordered left pair whose overlap is not covered by the partial
      // tables in between.
      stitch_sequential(left_rules, sink);
    }
  }

  bulk_building_ = false;

  // Bulk-load the exact visible DAG over the representatives.
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
  visible_dag_.bulk_load(ordered);
}

bool ComposedNode::sequential_pair_needs_mega(const std::vector<Rule>& left_rules,
                                              size_t upper_idx, size_t lower_idx,
                                              StitchScratch& scratch,
                                              const StitchIndex* index) const {
  const Rule& upper = left_rules[upper_idx];  // matched first
  const Rule& lower = left_rules[lower_idx];
  auto overlap = lower.match.intersect(upper.match);
  if (!overlap) return false;
  auto lo = by_left_.find(lower.id);
  if (lo == by_left_.end() || lo->second.empty()) return false;
  auto up = by_left_.find(upper.id);
  if (up == by_left_.end() || up->second.empty()) return false;
  // Coverage by the *composed entries* of the partials strictly in between:
  // those are matched before anything in lower's partial, so packets they
  // cover never reach the lower partial inside this overlap. Entries that
  // miss the overlap region subtract nothing; most-general covers go first
  // so the subtraction stays shallow (same discipline as the DAG builders).
  //
  // Without an index this scans every in-between partial — O(members) per
  // pair, quadratic overall once a broad rule (a NAT/route default) overlaps
  // everything. With one, the candidates come from an overlap query and only
  // the handful of entries actually touching the overlap region are visited.
  // Both collections are sorted by (specified bits, entry id), so the cover
  // sequence fed to try_cover — and therefore the verdict, including on
  // fragment overflow — is identical either way.
  auto& keyed = scratch.cover_keyed;
  keyed.clear();
  if (index != nullptr) {
    index->entries.for_each_overlapping(
        *overlap, [&](RuleId eid, const TernaryMatch& m) {
          auto pit = index->entry_left_pos.find(eid);
          if (pit == index->entry_left_pos.end()) return;
          if (pit->second > upper_idx && pit->second < lower_idx) {
            keyed.emplace_back(eid, &m);
          }
        });
  } else {
    for (size_t k = upper_idx + 1; k < lower_idx; ++k) {
      auto it = by_left_.find(left_rules[k].id);
      if (it == by_left_.end()) continue;
      for (RuleId eid : it->second) {
        const TernaryMatch& m = entry(eid).match;
        if (m.overlaps(*overlap)) keyed.emplace_back(eid, &m);
      }
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<RuleId, const TernaryMatch*>& a,
               const std::pair<RuleId, const TernaryMatch*>& b) {
              const uint32_t sa = a.second->specified_bits();
              const uint32_t sb = b.second->specified_bits();
              if (sa != sb) return sa < sb;
              return a.first < b.first;
            });
  auto& cover = scratch.cover;
  cover.clear();
  cover.reserve(keyed.size());
  for (const auto& [eid, m] : keyed) cover.push_back(*m);
  const CoverResult r =
      flowspace::try_cover(*overlap, {cover.data(), cover.size()},
                           scratch.cover_scratch, flowspace::kDefaultFragmentLimit);
  return r != CoverResult::kCovered;  // overflow: stitch conservatively
}

void ComposedNode::resolve_sequential_pair(RuleId upper_left, RuleId lower_left,
                                           UpdateBuilder& out) {
  auto lo = by_left_.find(lower_left);
  auto up = by_left_.find(upper_left);
  if (lo == by_left_.end() || up == by_left_.end()) return;
  mega_lower_.clear();
  mega_upper_.clear();
  mega_lower_.insert(lo->second.begin(), lo->second.end());
  mega_upper_.insert(up->second.begin(), up->second.end());
  resolve_mega(mega_lower_, mega_upper_, out);
}

void ComposedNode::maybe_resolve_sequential_pair(const std::vector<Rule>& left_rules,
                                                 size_t upper_idx, size_t lower_idx,
                                                 UpdateBuilder& out) {
  if (!sequential_pair_needs_mega(left_rules, upper_idx, lower_idx, stitch_scratch_)) {
    return;
  }
  resolve_sequential_pair(left_rules[upper_idx].id, left_rules[lower_idx].id, out);
}

void ComposedNode::resolve_sequential_megas_around(RuleId left_src, UpdateBuilder& out) {
  const std::vector<Rule> left_rules = left_->visible_rules_in_order();
  size_t at = left_rules.size();
  for (size_t i = 0; i < left_rules.size(); ++i) {
    if (left_rules[i].id == left_src) {
      at = i;
      break;
    }
  }
  if (at == left_rules.size()) return;  // source no longer visible
  // Only partners whose left match overlaps this one can need a stitch; pull
  // them from the left child's overlap index instead of testing every pair.
  std::unordered_map<RuleId, size_t> pos;
  pos.reserve(left_rules.size());
  for (size_t i = 0; i < left_rules.size(); ++i) pos.emplace(left_rules[i].id, i);
  std::vector<size_t> partners;
  for (RuleId lid : left_->visible_overlapping(left_rules[at].match)) {
    auto it = pos.find(lid);
    if (it != pos.end() && it->second != at) partners.push_back(it->second);
  }
  std::sort(partners.begin(), partners.end());
  for (size_t p : partners) {
    if (p < at) {
      maybe_resolve_sequential_pair(left_rules, p, at, out);
    } else {
      maybe_resolve_sequential_pair(left_rules, at, p, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Full-compile phases: compose fan-out and sequential stitch
// ---------------------------------------------------------------------------

void ComposedNode::build_cross_product(const std::vector<Rule>& left_rules,
                                       UpdateBuilder& out) {
  const size_t n = left_rules.size();
  const size_t workers = opts_.clamp_to_hardware
                             ? util::effective_workers(opts_.n_threads)
                             : opts_.n_threads;
  const bool parallel = workers > 1 && n >= opts_.parallel_cutoff;
  if (!parallel) {
    for (const Rule& l : left_rules) {
      const TernaryMatch probe = right_probe(l.match, l.actions);
      for (RuleId rid : right_->visible_overlapping(probe)) {
        const Rule r{rid, right_->visible_match(rid), right_->visible_actions(rid), 0};
        auto composed = compose_pair(l, r);
        if (!composed) continue;
        add_entry(std::move(composed->first), std::move(composed->second), l.id, rid,
                  out);
      }
    }
    return;
  }

  // The fan-out (probe, index query, pair composition) only reads the
  // children, so workers claim left-rule chunks off an atomic cursor and
  // buffer their compositions per left row. Entry materialization — id
  // assignment, maps, key vertices — runs on this thread in left order, so
  // the resulting state is identical to the serial build's.
  struct Composed {
    TernaryMatch match;
    ActionList actions;
    RuleId right_src;
  };
  std::vector<std::vector<Composed>> per_left(n);
  util::ChunkCursor cursor(0, n, util::ChunkCursor::suggest_chunk(n, workers));
  util::ThreadPool pool(workers);
  util::run_on_workers(pool, [&] {
    return [&] {
      size_t begin, end;
      while (cursor.next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const Rule& l = left_rules[i];
          const TernaryMatch probe = right_probe(l.match, l.actions);
          for (RuleId rid : right_->visible_overlapping(probe)) {
            const Rule r{rid, right_->visible_match(rid), right_->visible_actions(rid),
                         0};
            auto composed = compose_pair(l, r);
            if (!composed) continue;
            per_left[i].push_back(
                {std::move(composed->first), std::move(composed->second), rid});
          }
        }
      }
    };
  });
  for (size_t i = 0; i < n; ++i) {
    for (Composed& c : per_left[i]) {
      add_entry(std::move(c.match), std::move(c.actions), left_rules[i].id,
                c.right_src, out);
    }
  }
}

void ComposedNode::stitch_sequential(const std::vector<Rule>& left_rules,
                                     UpdateBuilder& out) {
  const size_t n = left_rules.size();
  if (n < 2) return;

  if (opts_.legacy_stitch) {
    // Ablation baseline: every ordered pair, predicate and resolution
    // interleaved. The predicate never reads the member graph, so the
    // pruned/parallel path below reproduces this exact resolution sequence.
    for (size_t j = 1; j < n; ++j) {
      for (size_t i = 0; i < j; ++i) {
        maybe_resolve_sequential_pair(left_rules, i, j, out);
      }
    }
    return;
  }

  // Candidate uppers per row come from an overlap index over the left
  // matches: a pair the index skips fails the predicate's overlap test, i.e.
  // was a no-op in the legacy loop. Positions are stored shifted by one
  // because RuleId 0 is reserved.
  flowspace::RuleIndex left_index;
  for (size_t i = 0; i < n; ++i) {
    left_index.insert(static_cast<RuleId>(i + 1), left_rules[i].match);
  }

  // Overlap index over the member entries themselves, so each pair's cover
  // set is a bucket query instead of a walk over every in-between partial.
  // Built once per rebuild; read-only during the predicate sweep.
  StitchIndex stitch_index;
  stitch_index.entry_left_pos.reserve(member_size());
  for (size_t i = 0; i < n; ++i) {
    auto it = by_left_.find(left_rules[i].id);
    if (it == by_left_.end()) continue;
    for (RuleId eid : it->second) {
      stitch_index.entries.insert(eid, entry(eid).match);
      stitch_index.entry_left_pos.emplace(eid, i);
    }
  }
  auto collect_uppers = [&](size_t j, std::vector<size_t>& cand) {
    cand.clear();
    left_index.for_each_overlapping(left_rules[j].match,
                                    [&](RuleId id, const TernaryMatch&) {
                                      const size_t p = static_cast<size_t>(id) - 1;
                                      if (p < j) cand.push_back(p);
                                    });
    std::sort(cand.begin(), cand.end());
  };

  // Phase 1: evaluate the (read-only) predicate for every candidate pair,
  // sharded across workers when opts_ asks for it.
  std::vector<std::vector<size_t>> uppers(n);
  const size_t workers = opts_.clamp_to_hardware
                             ? util::effective_workers(opts_.n_threads)
                             : opts_.n_threads;
  const bool parallel = workers > 1 && n >= opts_.parallel_cutoff;
  if (!parallel) {
    std::vector<size_t> cand;
    for (size_t j = 1; j < n; ++j) {
      collect_uppers(j, cand);
      for (size_t i : cand) {
        if (sequential_pair_needs_mega(left_rules, i, j, stitch_scratch_,
                                       &stitch_index)) {
          uppers[j].push_back(i);
        }
      }
    }
  } else {
    util::ChunkCursor cursor(1, n, util::ChunkCursor::suggest_chunk(n, workers));
    util::ThreadPool pool(workers);
    util::run_on_workers(pool, [&] {
      return [&] {
        StitchScratch scratch;
        std::vector<size_t> cand;
        size_t begin, end;
        while (cursor.next(begin, end)) {
          for (size_t j = begin; j < end; ++j) {
            collect_uppers(j, cand);
            for (size_t i : cand) {
              if (sequential_pair_needs_mega(left_rules, i, j, scratch,
                                             &stitch_index)) {
                uppers[j].push_back(i);
              }
            }
          }
        }
      };
    });
  }

  // Phase 2: resolve the surviving pairs serially, in the legacy loop's
  // (lower ascending, upper ascending) order. Tops/bottoms of each partial
  // depend only on its intra-partial edges (a mega always joins two distinct
  // partials), so compute them once up front: the live rescan inside
  // resolve_mega walks adjacency lists that grow with every resolved mega,
  // which is the second quadratic term once a broad rule stitches against
  // every other row.
  struct PartialEnds {
    std::vector<RuleId> tops, bottoms;
  };
  std::unordered_map<RuleId, PartialEnds> ends;
  std::unordered_set<RuleId> in_partial;
  auto compute_ends = [&](RuleId left_id) {
    if (ends.count(left_id) != 0) return;
    auto it = by_left_.find(left_id);
    if (it == by_left_.end()) return;
    PartialEnds pe;
    in_partial.clear();
    in_partial.insert(it->second.begin(), it->second.end());
    for (RuleId u : it->second) {
      bool top = true;
      for (RuleId s : member_graph_.successors(u)) {
        if (in_partial.count(s) != 0) {
          top = false;
          break;
        }
      }
      if (top) pe.tops.push_back(u);
      bool bottom = true;
      for (RuleId p : member_graph_.predecessors(u)) {
        if (in_partial.count(p) != 0) {
          bottom = false;
          break;
        }
      }
      if (bottom) pe.bottoms.push_back(u);
    }
    ends.emplace(left_id, std::move(pe));
  };
  for (size_t j = 1; j < n; ++j) {
    if (uppers[j].empty()) continue;
    compute_ends(left_rules[j].id);
    for (size_t i : uppers[j]) compute_ends(left_rules[i].id);
  }

  for (size_t j = 1; j < n; ++j) {
    for (size_t i : uppers[j]) {
      auto lo = by_left_.find(left_rules[j].id);
      auto up = by_left_.find(left_rules[i].id);
      if (lo == by_left_.end() || up == by_left_.end()) continue;
      mega_lower_.clear();
      mega_upper_.clear();
      mega_lower_.insert(lo->second.begin(), lo->second.end());
      mega_upper_.insert(up->second.begin(), up->second.end());
      resolve_mega_seeded(mega_lower_, mega_upper_, ends.at(left_rules[j].id).tops,
                          ends.at(left_rules[i].id).bottoms, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental compilation (Sec. IV-C)
// ---------------------------------------------------------------------------

TableUpdate ComposedNode::apply_child_update(bool from_left, const TableUpdate& update) {
  UpdateBuilder out;

  // 1. Edge removals between surviving child rules (removals referencing
  //    deleted rules are handled by entry removal below).
  for (const auto& [a, b] : update.dag.removed_edges) {
    if (op_ == OpKind::kPriority) {
      auto ia = by_pair_.find(from_left ? PairKey{a, 0} : PairKey{0, a});
      auto ib = by_pair_.find(from_left ? PairKey{b, 0} : PairKey{0, b});
      if (ia != by_pair_.end() && ib != by_pair_.end()) {
        remove_member_edge(ia->second, ib->second, out);
      }
    } else if (from_left) {
      on_left_edge_removed(a, b, out);
    } else {
      on_right_edge_removed(a, b, out);
    }
  }

  // 2. Rule removals, then the deferred representative promotions.
  for (RuleId removed : update.removed) {
    if (op_ == OpKind::kPriority) {
      auto it = by_pair_.find(from_left ? PairKey{removed, 0} : PairKey{0, removed});
      if (it != by_pair_.end()) remove_entry_with_patch(it->second, out);
    } else if (from_left) {
      on_left_removed(removed, out);
    } else {
      on_right_removed(removed, out);
    }
  }
  promote_pending(out);

  // 3. Rule additions.
  std::vector<RuleId> added_ids;
  for (const Rule& added : update.added) {
    added_ids.push_back(added.id);
    if (op_ == OpKind::kPriority) {
      if (from_left) {
        add_entry(added.match, added.actions, added.id, 0, out);
      } else {
        add_entry(added.match, added.actions, 0, added.id, out);
      }
    } else if (from_left) {
      on_left_added(added, out);
    } else {
      on_right_added(added, out);
    }
  }

  // 4. Edge additions (may reference freshly added rules).
  for (const auto& [a, b] : update.dag.added_edges) {
    if (op_ == OpKind::kPriority) {
      auto ia = by_pair_.find(from_left ? PairKey{a, 0} : PairKey{0, a});
      auto ib = by_pair_.find(from_left ? PairKey{b, 0} : PairKey{0, b});
      if (ia != by_pair_.end() && ib != by_pair_.end()) {
        add_member_edge(ia->second, ib->second, out);
      }
    } else if (from_left) {
      on_left_edge_added(a, b, out);
    } else {
      on_right_edge_added(a, b, out);
    }
  }

  // 5. Priority op: re-resolve the table-level mega dependency around the
  //    freshly inserted rules (Sec. IV-C).
  if (op_ == OpKind::kPriority && !added_ids.empty()) {
    auto& lower = mega_lower_;
    auto& upper = mega_upper_;
    lower.clear();
    upper.clear();
    for (const auto& [id, e] : entries_) {
      (e.left_src != 0 ? upper : lower).insert(id);
    }
    if (!lower.empty() && !upper.empty()) {
      auto& seeds = seed_scratch_;
      seeds.clear();
      if (from_left) {
        // New upper rules: every top of the lower set may need to yield.
        for (RuleId added : added_ids) {
          auto it = by_pair_.find(PairKey{added, 0});
          if (it == by_pair_.end()) continue;
          for (RuleId u : lower) {
            bool top = true;
            for (RuleId s : member_graph_.successors(u)) {
              if (lower.count(s)) {
                top = false;
                break;
              }
            }
            if (top) seeds.emplace_back(u, it->second);
          }
        }
      } else {
        // New lower rules: they must yield to the bottoms of the upper set.
        for (RuleId added : added_ids) {
          auto it = by_pair_.find(PairKey{0, added});
          if (it == by_pair_.end()) continue;
          for (RuleId v : upper) {
            bool bottom = true;
            for (RuleId p : member_graph_.predecessors(v)) {
              if (upper.count(p)) {
                bottom = false;
                break;
              }
            }
            if (bottom) seeds.emplace_back(it->second, v);
          }
        }
      }
      resolve_tentative(seeds, &lower, &upper, out);
    }
  }

  return out.build();
}

void ComposedNode::on_left_removed(RuleId left_src, UpdateBuilder& out) {
  auto it = by_left_.find(left_src);
  if (it == by_left_.end()) return;
  auto& doomed = removal_scratch_;  // removal edits by_left_ under us
  doomed.assign(it->second.begin(), it->second.end());
  for (RuleId eid : doomed) remove_entry_with_patch(eid, out);
}

void ComposedNode::on_right_removed(RuleId right_src, UpdateBuilder& out) {
  auto it = by_right_.find(right_src);
  if (it == by_right_.end()) return;
  auto& doomed = removal_scratch_;
  doomed.assign(it->second.begin(), it->second.end());
  for (RuleId eid : doomed) remove_entry_with_patch(eid, out);
}

void ComposedNode::on_left_added(const Rule& rule, UpdateBuilder& out) {
  const TernaryMatch probe = right_probe(rule.match, rule.actions);
  std::vector<RuleId> new_entries;
  for (RuleId rid : right_->visible_overlapping(probe)) {
    const Rule r{rid, right_->visible_match(rid), right_->visible_actions(rid), 0};
    auto composed = compose_pair(rule, r);
    if (!composed) continue;
    new_entries.push_back(add_entry(std::move(composed->first),
                                    std::move(composed->second), rule.id, rid, out));
  }
  // Within-partial edges inherited from the right DAG.
  for (RuleId eid : new_entries) {
    const Entry& e = entry(eid);
    for (RuleId n : right_->visible_graph().successors(e.right_src)) {
      auto it = by_pair_.find(PairKey{e.left_src, n});
      if (it != by_pair_.end()) add_member_edge(eid, it->second, out);
    }
    for (RuleId p : right_->visible_graph().predecessors(e.right_src)) {
      auto it = by_pair_.find(PairKey{e.left_src, p});
      if (it != by_pair_.end()) add_member_edge(it->second, eid, out);
    }
  }
  // Cross-partial constraints: stitch the new partial table against every
  // ordered left pair whose overlap it participates in.
  if (op_ == OpKind::kSequential) {
    resolve_sequential_megas_around(rule.id, out);
  }
  // For parallel composition, cross-partial edges arrive with the child's
  // DAG delta (the edges incident to `rule`), handled by on_left_edge_added.
}

void ComposedNode::on_right_added(const Rule& rule, UpdateBuilder& out) {
  std::vector<RuleId> new_entries;
  std::unordered_set<RuleId> touched_left;
  if (op_ == OpKind::kParallel) {
    for (RuleId lid : left_->visible_overlapping(rule.match)) {
      const Rule l{lid, left_->visible_match(lid), left_->visible_actions(lid), 0};
      auto composed = compose_pair(l, rule);
      if (!composed) continue;
      new_entries.push_back(add_entry(std::move(composed->first),
                                      std::move(composed->second), lid, rule.id, out));
      touched_left.insert(lid);
    }
  } else {
    // Sequential right insert composes against every left rule whose
    // rewritten flow space can reach the new rule (Sec. IV-C).
    for (const Rule& l : left_->visible_rules_in_order()) {
      if (!right_probe(l.match, l.actions).overlaps(rule.match)) continue;
      auto composed = compose_pair(l, rule);
      if (!composed) continue;
      new_entries.push_back(add_entry(std::move(composed->first),
                                      std::move(composed->second), l.id, rule.id, out));
      touched_left.insert(l.id);
    }
  }

  // Left-DAG-derived edges among/around the new entries (parallel cross
  // product; for sequential these arise from the mega stitching below).
  if (op_ == OpKind::kParallel) {
    for (RuleId eid : new_entries) {
      const Entry& e = entry(eid);
      for (RuleId lj : left_->visible_graph().successors(e.left_src)) {
        auto it = by_pair_.find(PairKey{lj, e.right_src});
        if (it != by_pair_.end()) add_member_edge(eid, it->second, out);
      }
      for (RuleId li : left_->visible_graph().predecessors(e.left_src)) {
        auto it = by_pair_.find(PairKey{li, e.right_src});
        if (it != by_pair_.end()) add_member_edge(it->second, eid, out);
      }
    }
  } else {
    for (RuleId l : touched_left) resolve_sequential_megas_around(l, out);
  }
}

void ComposedNode::on_left_edge_added(RuleId li, RuleId lj, UpdateBuilder& out) {
  if (op_ == OpKind::kParallel) {
    auto it = by_left_.find(li);
    if (it == by_left_.end()) return;
    for (RuleId eid : it->second) {
      auto jt = by_pair_.find(PairKey{lj, entry(eid).right_src});
      if (jt != by_pair_.end()) add_member_edge(eid, jt->second, out);
    }
  } else {
    resolve_sequential_pair(lj, li, out);  // li yields to lj (matched first)
  }
}

void ComposedNode::on_left_edge_removed(RuleId li, RuleId lj, UpdateBuilder& out) {
  if (op_ != OpKind::kParallel) {
    // Sequential: member edges between the two partial tables were verified
    // by overlap, so they remain valid (possibly redundant) constraints.
    return;
  }
  auto it = by_left_.find(li);
  if (it == by_left_.end()) return;
  for (RuleId eid : std::vector<RuleId>(it->second)) {
    auto jt = by_pair_.find(PairKey{lj, entry(eid).right_src});
    if (jt != by_pair_.end()) remove_member_edge(eid, jt->second, out);
  }
}

void ComposedNode::on_right_edge_added(RuleId m, RuleId n, UpdateBuilder& out) {
  auto it = by_right_.find(m);
  if (it == by_right_.end()) return;
  for (RuleId eid : it->second) {
    auto jt = by_pair_.find(PairKey{entry(eid).left_src, n});
    if (jt != by_pair_.end()) add_member_edge(eid, jt->second, out);
  }
}

void ComposedNode::on_right_edge_removed(RuleId m, RuleId n, UpdateBuilder& out) {
  auto it = by_right_.find(m);
  if (it == by_right_.end()) return;
  for (RuleId eid : std::vector<RuleId>(it->second)) {
    auto jt = by_pair_.find(PairKey{entry(eid).left_src, n});
    if (jt != by_pair_.end()) remove_member_edge(eid, jt->second, out);
  }
}

// ---------------------------------------------------------------------------
// Snapshot (id-independent equivalence image)
// ---------------------------------------------------------------------------

CompileSnapshot ComposedNode::snapshot() const {
  CompileSnapshot snap;
  std::unordered_map<RuleId, CompileSnapshot::Prov> prov;
  prov.reserve(entries_.size());
  snap.entries.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    prov.emplace(id, CompileSnapshot::Prov{e.left_src, e.right_src});
    snap.entries.emplace_back(e.left_src, e.right_src, e.match, e.actions);
  }
  // (left_src, right_src) is unique per entry (by_pair_ invariant), so the
  // provenance prefix is a total order over the entries.
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
  for (const auto& [id, e] : entries_) {
    out.push_back(MemberView{id, e.left_src, e.right_src, &e.match, &e.actions});
  }
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
  recorder_ = std::make_unique<DeltaRecorder>(visible_order());
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
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  return keys_.at(it->second.match).rep == id;
}

const TernaryMatch& ComposedNode::visible_match(RuleId id) const {
  return entry(id).match;
}

const ActionList& ComposedNode::visible_actions(RuleId id) const {
  return entry(id).actions;
}

bool ComposedNode::visible_before(RuleId a, RuleId b) const {
  const auto ia = entries_.find(a);
  const auto ib = entries_.find(b);
  if (ia == entries_.end() || ib == entries_.end()) return a < b;  // dead ids
  return entry_before(ia->second, ib->second);
}

std::vector<RuleId> ComposedNode::visible_overlapping(const TernaryMatch& m) const {
  return visible_dag_.overlapping(m);
}

}  // namespace ruletris::compiler
